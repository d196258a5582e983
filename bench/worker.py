"""One workload in one process: set up, run timed passes, check, report.

Started by run.py with the BLAS pool held to one thread.  Protocol on stdout:
a line "READY" once set-up is done (import, inputs, warm-up), then one line
"RESULT <json>" at the end.  With --setup-only the process stops after READY.

Passes repeat until --seconds of pass time is used up (at least MIN_PASSES).
With --trace 1 untraced and traced passes alternate: per-layer metrics come
from the traced ones, and the gap between the two medians is the tracing
overhead.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_PASSES = 3


def import_program():
    """Import quadricdiff from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import quadricdiff
    from quadricdiff import cli, cspace, generator, liealg, model, simulate, sos  # noqa: F401
    import_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(quadricdiff.__file__))
    if where != os.path.join(SRC, "quadricdiff"):
        raise SystemExit(f"quadricdiff was imported from {where}, not from {SRC}")
    return quadricdiff, import_s


def run_pass(ops):
    """Run every operation once; returns (wall seconds, outputs or exceptions)."""
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.run())
        except Exception as exc:     # an operation that raises counts as failed
            outputs.append(exc)
    return time.perf_counter() - t0, outputs


def check_pass(ops, outputs):
    """(failed, wrong) counts of one pass, with the names of the failing ops."""
    failed, wrong, names = 0, 0, []
    for op, out in zip(ops, outputs):
        status = "failed" if isinstance(out, Exception) else op.check(out)
        if status != "ok":
            failed += 1
            wrong += status == "wrong"
            names.append(f"{op.name}:{status}")
    return failed, wrong, names


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    qd, import_s = import_program()
    # Imported only now, so that import_s includes numpy and scipy.
    import tracer as tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](qd, args.seed, workdir)
        ops = wl.ops()
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, ops, args, tracing, qd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["import_s"] = import_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure(wl, ops, args, tracing, qd):
    plain, traced, layers = [], [], []
    attempted = failed = wrong = 0
    failures = set()
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    n = 0
    while True:
        use_trace = tracer is not None and n % 2 == 1
        if use_trace:
            first = len(tracer.spans)
            tracer.install()
        try:
            wall, outputs = run_pass(ops)
        finally:
            if use_trace:
                tracer.uninstall()
        f, w, names = check_pass(ops, outputs)
        attempted += len(ops)
        failed += f
        wrong += w
        failures.update(names)
        if use_trace:
            traced.append(wall)
            spans = rebase(tracer.spans[first:], first)
            metrics = tracing.layer_metrics(spans, qd.simulate._BLOCK)
            metrics["cli.csv_rows"] = getattr(wl, "csv_rows", 0)
            layers.append(metrics)
        else:
            plain.append(wall)
        n += 1
        used = time.perf_counter() - start
        typical = statistics.median(plain + traced)
        need = MIN_PASSES + 1 if tracer else MIN_PASSES   # traced: two of each kind
        if n >= need and used + typical > args.seconds:
            break

    result = {
        "wall_s": statistics.median(plain),
        "pass_walls": plain,
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "failures": sorted(failures),
        "passes": n,
        "work": wl.work(),
    }
    if tracer is not None:
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        result["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["trace_file"] = write_spans(tracer.spans, args)
    return result


def rebase(spans, first):
    """Spans of one pass, with parent indices relative to the pass's first span."""
    return [[s[0], s[1], s[2], s[3] - first if s[3] >= first else -1, s[4]] for s in spans]


def write_spans(spans, args):
    path = os.path.join(OUT, f"trace_{args.workload}_{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": spans}, fh)
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
