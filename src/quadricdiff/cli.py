"""Command-line front door: models in, machine-readable JSON out.

Every command writes one JSON document to stdout and exits 0 whenever the
computation ran, even if the verdict is negative; nonzero exit codes are
reserved for usage errors (2) and IO errors (1).  Stochastic commands
require an explicit --seed so identical invocations are byte-identical.  The
argument parser is built once per process, on the first call of
:func:`main`, and serves every later call.
"""

import argparse
import contextlib
import dataclasses
import functools
import inspect
import json
import sys
from math import comb

import numpy as np

from . import generator, liealg, model as model_mod, simulate as sim, sos
from .cspace import _check_h, _float_array
from .skew import skew_dim
# The function itself, for its defaults: a caller may wrap sos.sos_check.
from .sos import sos_check as _sos_check

__all__ = ["main"]


def _jsonable(obj):
    """obj for ``json.dumps``: each dataclass as the dict of its fields, each array or
    numpy scalar by one ``tolist()``; only dicts, lists and tuples are walked."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def _dumps(obj):
    """The one JSON form of every result: strict, sorted keys, one-space indent."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ": "), indent=1,
                      allow_nan=False)


def _json_out(obj):
    print(_dumps(obj))
    return 0


def _load_json_arg(text):
    """Parse an inline JSON value or @file reference."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def _parse_matrix(text, d):
    """Matrix argument: 'id', 'zero', inline JSON, or @file, checked as an H for d."""
    m = skew_dim(d)
    if text == "id":
        H = np.eye(m)
    elif text == "zero":
        H = np.zeros((m, m))
    else:
        H = _load_json_arg(text)
    return _check_h(H, d)[0]


def _parse_vector(text):
    """--x0: a JSON list of numbers, inline or @file."""
    data = _load_json_arg(text)
    x0 = _float_array(data)
    if x0 is None or x0.ndim != 1:
        raise ValueError(f"x0 must be a list of numbers, got {data!r:.80}")
    if not x0.size:
        raise ValueError("x0 must hold at least one number, got []")
    return x0


def _load_model(path):
    with open(path) as fh:
        return model_mod.model_from_json(json.load(fh))


def _cmd_dims(args):
    d = args.d
    return _json_out({
        "d": d,
        "m": skew_dim(d),
        "dim_C": d * d * (d * d - 1) // 12,
        "dim_K": comb(d, 4),
    })


def _cmd_validate(args):
    mdl = _load_model(args.model)
    return _json_out(dict(vars(model_mod.validate(mdl, args.tol)), space=mdl.space))


def _sos_options(args):
    """The keyword arguments of ``sos_check`` given on the command line; the library
    holds the defaults of the rest."""
    return {name: getattr(args, name) for name in ("tol", "max_iter")
            if getattr(args, name, None) is not None}


def _cmd_sos_check(args):
    H = _parse_matrix(args.H, args.d)
    verdict = sos.sos_check(H, **_sos_options(args))
    witness = {name: getattr(verdict, name) for name in ("h_star", "factors", "certificate")
               if getattr(verdict, name) is not None}
    return _json_out({"status": verdict.status, "iterations": verdict.iterations,
                      "margins": verdict.residuals, "witness": witness})


def _cmd_decompose(args):
    H = _parse_matrix(args.H, args.d)
    verdict = sos.sos_check(H, **_sos_options(args))
    out = {"status": verdict.status}
    if verdict.status == sos.FEASIBLE:
        out["factors"] = verdict.factors
        out["rank"] = len(verdict.factors)
    else:
        out["margins"] = verdict.residuals
    return _json_out(out)


def _cmd_counterexample(args):
    ce = sos.counterexample_d6()
    verdict = sos.sos_check(ce.h, **_sos_options(args))
    return _json_out(dict(ce.report, H=ce.h, certificate=ce.certificate,
                          sos_status=verdict.status))


def _cmd_moments(args):
    mdl = _load_model(args.model)
    q = generator.poly_from_json(_load_json_arg(args.q))
    x0 = _parse_vector(args.x0)
    value = generator.moment(mdl, q, x0, args.T, k=args.k)
    return _json_out({
        "value": value,
        "t": args.T,
        "k": args.k if args.k is not None else generator.poly_degree(q),
        "x0": x0,
    })


class _CsvFile(contextlib.ExitStack):
    """A CSV file made at its first write, header first, so a refused run leaves none."""

    def __init__(self, path, d):
        super().__init__()
        self.path, self.d, self.fh = path, d, None

    def write(self, text):
        if self.fh is None:
            self.fh = self.enter_context(open(self.path, "w"))
            self.fh.write("path_id,t," + ",".join(f"x{i + 1}" for i in range(self.d)) + "\n")
        self.fh.write(text)


def _write_paths(fh, first_id, times, states):
    """Write the rows of states (n, k, d) at times (k,), path ids from first_id on.

    The text matches ``np.savetxt`` with formats ``%d`` and ``%.17g`` byte for
    byte.  Each time is formatted once, and each block of 4096 rows by one
    ``%`` over a template that already holds its ids and times; a path's rows
    in a block are one join of their times, each newline followed by its id.
    """
    n, k, d = states.shape
    xs = ",".join(["%.17g"] * d) + "\n"
    tail = [",%.17g," % t + xs for t in times.tolist()]
    flat = states.reshape(n * k, d)
    for lo in range(0, n * k, 4096):
        hi = min(lo + 4096, n * k)
        parts = []
        for p in range(lo // k, (hi - 1) // k + 1):
            pid = str(first_id + p)
            parts.append(pid + pid.join(tail[max(lo - p * k, 0):min(hi - p * k, k)]))
        fh.write("".join(parts) % tuple(flat[lo:hi].ravel().tolist()))


def _cmd_simulate(args):
    to_csv = (args.out or "").endswith(".csv")
    if args.keep_paths and not to_csv:
        args.parser.error("--keep-paths requires a .csv --out")
    if args.scheme == "scalar":
        if args.model:
            args.parser.error("argument --model: not allowed with --scheme scalar, which "
                              "simulates BallModel.scalar(--kappa, --nu, d)")
        if args.kappa is None or args.nu is None:
            args.parser.error("scalar scheme requires --kappa and --nu")
    elif not args.model:
        args.parser.error(f"{args.scheme} scheme requires --model")
    elif args.kappa is not None or args.nu is not None:
        args.parser.error(f"{args.scheme} scheme takes no --kappa or --nu; its drift "
                          "comes from --model")
    x0 = _parse_vector(args.x0)
    if args.scheme == "scalar":
        mdl = model_mod.BallModel.scalar(args.kappa, args.nu, len(x0))
    else:
        mdl = _load_model(args.model)
        if args.scheme != mdl.space:
            raise ValueError(f"--scheme {args.scheme} needs a {args.scheme} model, "
                             f"got a {mdl.space} model")
    with _CsvFile(args.out, len(x0)) as csv:
        # With --keep-paths the CSV writer is the ensemble's sink.
        sink = functools.partial(_write_paths, csv) if args.keep_paths else None
        result = model_mod.ensemble(mdl, x0, args.T, args.h, args.seed, args.paths, sink,
                                    args.tol)
        if to_csv and not args.keep_paths:
            _write_paths(csv, 0, result.times[-1:], result.terminal[:, None, :])
    out = {
        "scheme": args.scheme,
        "n_paths": result.n_paths,
        "T": args.T,
        "h": result.times[1] - result.times[0],
        "seed": args.seed,
        "terminal_mean": result.terminal.mean(axis=0),
        "terminal_stderr": (result.terminal.std(axis=0, ddof=1) / np.sqrt(result.n_paths)
                            if result.n_paths > 1 else np.zeros(result.terminal.shape[1])),
        "max_norm_dev": result.max_norm_dev,
        "clamp_fraction": result.clamp_fraction,
    }
    if args.out:
        if not to_csv:
            with open(args.out, "w") as fh:
                fh.write(_dumps(out))
        out["out"] = args.out
    return _json_out(out)


def _cmd_twin(args):
    x0 = _parse_vector(args.x0)
    drive = sim.SkewDrive.zero(len(x0))
    report = model_mod.twin_path_experiment(args.kappa, args.nu, drive, x0, args.T, args.h,
                                      args.seeds, seed=args.seed, eps=args.eps)
    return _json_out(vars(report))


def _cmd_density(args):
    mdl = _load_model(args.model)
    report = liealg.density_check(mdl, _parse_vector(args.x0), args.tol)
    return _json_out(dict(vars(report), space=mdl.space))


def _positive(kind):
    """argparse type of --tol and --max-iter: a positive finite ``kind``, or a usage error."""
    def parse(text):
        value = kind(text)
        if not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
        return value
    parse.__name__ = kind.__name__   # argparse's "invalid <name> value" message
    return parse


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The one argument parser of the process: ``parse_args`` leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="quadricdiff",
        description="Polynomial diffusions on the unit ball and sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --tol of the commands that admit a model, as validate does
    model_tol = dict(type=_positive(float), default=None, help="drift tolerance of the model's "
                     "admission, relative to the size of the drift's terms (the sum of the "
                     "largest entries of B_sym, C/2 and b): default {ball:g} for a ball model, "
                     "{sphere:g} for a sphere model".format(**model_mod._DEFAULT_TOL))
    # --tol and --max-iter of the commands that run sos_check; unset, its defaults hold
    sos_default = {name: p.default for name, p in
                   inspect.signature(_sos_check).parameters.items()}
    sos_tol = dict(type=_positive(float), default=None, help="acceptance tolerance of the SOS "
                   f"witnesses: default {sos_default['tol']:g}")

    p = sub.add_parser("dims", help="dimension formulas for the coefficient space")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("validate", help="admissibility checks for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--tol", **model_tol)
    p.set_defaults(func=_cmd_validate)

    for name, fn in (("sos-check", _cmd_sos_check), ("decompose", _cmd_decompose)):
        p = sub.add_parser(name, help=f"{name} for an m x m coefficient matrix")
        p.add_argument("--H", required=True, help="'id', 'zero', inline JSON, or @file")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--tol", **sos_tol)
        p.add_argument("--max-iter", type=_positive(int), default=None,
                       help="iteration budget: Newton and face steps of the SOS solver; "
                            f"default {sos_default['max_iter']}")
        p.set_defaults(func=fn)

    p = sub.add_parser("counterexample", help="dimension-six non-SOS construction report")
    p.add_argument("--tol", **sos_tol)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("moments", help="exact conditional moment of a polynomial")
    p.add_argument("--model", required=True)
    p.add_argument("--q", required=True, help="polynomial JSON (inline or @file)")
    p.add_argument("--x0", required=True)
    p.add_argument("--t", dest="T", type=float, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("simulate", help="ensemble simulation")
    p.add_argument("--model", default=None,
                   help="model file; required by sphere and ball, whose space it must "
                        "match; the scalar scheme takes none and simulates "
                        "BallModel.scalar(--kappa, --nu, d)")
    p.add_argument("--scheme", choices=["sphere", "ball", "scalar"], required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--tol", **model_tol)
    p.add_argument("--keep-paths", action="store_true",
                   help="write every state, not only the terminal ones; needs a .csv --out")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate, parser=p)

    p = sub.add_parser("twin", help="same-noise twin-path divergence experiment")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.set_defaults(func=_cmd_twin)

    p = sub.add_parser("density", help="smooth-density criterion for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--tol", **dict(model_tol, help=model_tol["help"] + ", and tolerance of "
                                   f"the membership test: default {liealg._DEFAULT_TOL:g}"))
    p.set_defaults(func=_cmd_density)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except model_mod.ModelRefused as exc:
        return _json_out(exc.report)
    except ValueError as exc:
        # Domain errors are part of the computed output, not process failures.
        return _json_out({"error": str(exc)})


if __name__ == "__main__":
    raise SystemExit(main())
