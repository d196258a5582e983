"""Benchmark of quadricdiff: Monte Carlo paths, SOS verdicts and a CLI session.

Usage, from the root of a checkout:

  python3 bench/run.py                        # every workload, untraced then traced
  python3 bench/run.py --workload sos_verdicts --seed 3 --seconds 35 --trace 0
  python3 bench/run.py --repeat 10            # steadiness: quartiles against bounds

mc_paths runs here but is not among BENCHMARK.json's workloads: on the
reference machine its run-to-run spread reaches the largest bound allowed
(see README.md).

With --workload the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Each workload runs in a fresh child process (worker.py) whose BLAS pool is
held to one thread.  setup_s is the median, over SETUP_RUNS fresh processes,
of the time from process start to the worker's READY line; wall_s and
peak_rss_mb come from the untraced run only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150
WORKLOADS = ("mc_paths", "sos_verdicts", "cli_session")
# Counts that must repeat exactly between two traced runs of one seed.
EXACT = ("sos.iterations", "sos.undecided", "simulate.path_steps", "cli.csv_rows",
         "generator.gk_nnz")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Compile the program's sources afresh in every process and write nothing
    # into src/, so that every set-up does the same work.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload, seed, seconds, trace, setup_only=False):
    """Run worker.py; returns (seconds from start to READY, RESULT dict or None)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"worker for {workload} (seed {seed}) exited with code {code}")
    return ready, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec, workload, seed, seconds, trace):
    """One run as the benchmark contract defines it; returns the result object."""
    if trace:
        _, res = spawn(workload, seed, seconds, 1)
        values = dict(res["layers"])
        values["setup.import_s"] = res["import_s"]
        values["trace.overhead_s"] = res["trace_overhead_s"]
        metrics = spec["per_layer"]
    else:
        setups = [spawn(workload, seed, seconds, 0, setup_only=True)[0]
                  for _ in range(SETUP_RUNS - 1)]
        ready, res = spawn(workload, seed, seconds, 0)
        setups.append(ready)
        values = {"wall_s": res["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = spec["end_to_end"]
    out = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    return out, res


def describe(workload, seed, trace, out, res):
    """Human-readable lines: every metric by name and unit, and the run's make-up."""
    kind = "traced" if trace else "untraced"
    lines = [f"== {workload} seed={seed} {kind}: {res['passes']} passes, "
             f"attempted={out['attempted']} failed={out['failed']} correct={out['correct']}",
             f"   work per pass: {json.dumps(res['work'])}"]
    if res["failures"]:
        lines.append(f"   failing operations: {', '.join(res['failures'])}")
    for name, m in out["metrics"].items():
        lines.append(f"   {name:30s} {m['value']:14.6g} {m['unit']}")
    if trace:
        lines.append(f"   spans written to {res['trace_file']}")
    return lines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(spec, workloads, seed, seconds, n):
    """Runs each workload n times (seeds seed..seed+n-1) untraced and twice traced
    at `seed`; prints each end-to-end metric's quartiles and spread against its
    bound, and checks that the exact counts repeat.  Returns False on a mismatch."""
    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for wl in workloads:
        runs = []
        for k in range(n):
            out, res = run_once(spec, wl, seed + k, seconds, 0)
            runs.append((out, res))
            vals = " ".join(f"{name}={m['value']:.4g}" for name, m in out["metrics"].items())
            print(f"   {wl} seed={seed + k}: {vals} passes={res['passes']} "
                  f"failed/attempted={out['failed']}/{out['attempted']}", flush=True)
        print(f"== {wl}: {n} untraced runs")
        for name, bound in bounds.items():
            vals = [out["metrics"][name]["value"] for out, _ in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            flag = "steady" if spread < bound / 3 else ("within" if spread <= bound else "OVER")
            print(f"   {name:14s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} "
                  f"spread={spread:.4f} bound={bound} {flag}")
        per_pass = {(out["attempted"] // res["passes"], out["failed"] // res["passes"])
                    for out, res in runs}
        correct = all(out["correct"] for out, _ in runs)
        traced = [run_once(spec, wl, seed, seconds, 1)[0] for _ in range(2)]
        counts = [{k: t["metrics"][k]["value"] for k in EXACT} for t in traced]
        shares = {out["failed"] / out["attempted"] for out, _ in runs}
        print(f"   per pass (attempted, failed): {sorted(per_pass)}; "
              f"failed share {sorted(shares)}; correct={correct}")
        print(f"   exact counts, two traced runs at seed {seed}: {counts[0]}")
        if len(per_pass) != 1 or len(shares) != 1 or counts[0] != counts[1] or not correct:
            print(f"ERROR: {wl}: counts differ between runs, or a check failed: "
                  f"{counts[1]}", file=sys.stderr)
            ok = False
        overhead = statistics.median(t["metrics"]["trace.overhead_s"]["value"] for t in traced)
        print(f"   trace.overhead_s median of two: {overhead:.4f}", flush=True)
    return ok


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--repeat", type=int, default=0,
                    help="runs per workload for the steadiness report")
    args = ap.parse_args()
    chosen = [args.workload] if args.workload else list(WORKLOADS)

    try:
        if args.repeat:
            return 0 if repeat(spec, chosen, args.seed, args.seconds, args.repeat) else 1
        if args.workload:
            trace = args.trace or 0
            out, res = run_once(spec, args.workload, args.seed, args.seconds, trace)
            print("\n".join(describe(args.workload, args.seed, trace, out, res)))
            print(json.dumps(out))
            return 0
        summary = {}
        traces = (args.trace,) if args.trace is not None else (0, 1)
        for wl in chosen:
            for trace in traces:
                out, res = run_once(spec, wl, args.seed, args.seconds, trace)
                print("\n".join(describe(wl, args.seed, trace, out, res)), flush=True)
                summary.setdefault(wl, {})["traced" if trace else "untraced"] = out
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
