"""Command-line front door: models in, machine-readable JSON out.

Every command writes one JSON document to stdout and exits 0 whenever the
computation ran, even if the verdict is negative; nonzero exit codes are
reserved for usage and IO errors.  Stochastic commands require an explicit
--seed so identical invocations are byte-identical.
"""

import argparse
import contextlib
import functools
import json
import sys
from math import comb

import numpy as np

from . import generator, liealg, model as model_mod, simulate as sim, sos
from .cspace import _check_h, _symmetric_part
from .skew import skew_dim

__all__ = ["main"]


def _json_out(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False))
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
        return np.eye(m)
    if text == "zero":
        return np.zeros((m, m))
    return _check_h(_load_json_arg(text), d)[0]


def _parse_vector(text):
    try:
        data = _load_json_arg(text)
    except json.JSONDecodeError:
        data = [float(tok) for tok in text.replace(",", " ").split()]
    return np.asarray(data, dtype=float).ravel()


def _load_model(path):
    with open(path) as fh:
        return model_mod.model_from_json(json.load(fh))


def _drive_from_model(mdl, tol):
    """(skew drive (A_0; A_1..A_r), None) from a model, or (None, the JSON refusal).

    A_0 is the skew part of B and A_1..A_r the SOS witness's factors.  The
    drive drops B_sym, so the model's drift must first pass ``validate``'s check.
    """
    ok, drift = model_mod._drift_check(mdl, tol)
    if not ok:
        return None, {"error": f"the {mdl.space} model's drift fails validation",
                      "drift": model_mod._jsonable(drift)}
    verdict = sos.sos_check(mdl.H, tol=tol)
    if verdict.status != sos.FEASIBLE:
        return None, {"error": "no sum-of-squares representation found",
                      "sos_status": verdict.status}
    return sim.SkewDrive(0.5 * (mdl.B - mdl.B.T), np.array(verdict.factors)), None


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
    ball = mdl.space == "ball"
    tol = (1e-7 if ball else 1e-9) if args.tol is None else args.tol
    report = (model_mod.validate_ball if ball else model_mod.validate_sphere)(mdl, tol)
    out = report.to_json()
    out["space"] = mdl.space
    if ball:
        out["boundary"] = model_mod._attainment(mdl, tol).to_json() if report.admissible else None
    return _json_out(out)


def _cmd_sos_check(args):
    H = _parse_matrix(args.H, args.d)
    verdict = sos.sos_check(H, tol=args.tol, max_iter=args.max_iter)
    return _json_out(verdict.to_json())


def _cmd_decompose(args):
    H = _parse_matrix(args.H, args.d)
    verdict = sos.sos_check(H, tol=args.tol, max_iter=args.max_iter)
    out = {"status": verdict.status}
    if verdict.status == sos.FEASIBLE:
        out["factors"] = [A.tolist() for A in verdict.factors]
        out["rank"] = len(verdict.factors)
    else:
        out["margins"] = {k: float(v) for k, v in verdict.residuals.items()}
    return _json_out(out)


def _cmd_counterexample(args):
    ce = sos.counterexample_d6()
    verdict = sos.sos_check(ce.h, tol=args.tol)
    out = dict(ce.report)
    out["H"] = ce.h.tolist()
    out["certificate"] = ce.certificate.tolist()
    out["sos_status"] = verdict.status
    return _json_out(out)


def _cmd_moments(args):
    mdl = _load_model(args.model)
    q = generator.poly_from_json(_load_json_arg(args.q))
    x0 = _parse_vector(args.x0)
    value = generator.moment(mdl, q, x0, args.T, k=args.k)
    return _json_out({
        "value": value,
        "t": args.T,
        "k": args.k if args.k is not None else generator.poly_degree(q),
        "x0": x0.tolist(),
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
    ``%`` over a template that already holds its ids and times.
    """
    n, k, d = states.shape
    xs = ",".join(["%.17g"] * d) + "\n"
    tail = [",%.17g," % t + xs for t in times.tolist()]
    flat = states.reshape(n * k, d)
    for lo in range(0, n * k, 4096):
        hi = min(lo + 4096, n * k)
        template = "".join([str(first_id + i // k) + tail[i % k] for i in range(lo, hi)])
        fh.write(template % tuple(flat[lo:hi].ravel().tolist()))


def _cmd_simulate(args):
    to_csv = (args.out or "").endswith(".csv")
    if args.keep_paths and not to_csv:
        raise SystemExit("--keep-paths requires a .csv --out")
    if args.scheme == "scalar":
        if args.kappa is None or args.nu is None:
            raise SystemExit("scalar scheme requires --kappa and --nu")
    elif not args.model:
        raise SystemExit(f"{args.scheme} scheme requires --model")
    elif args.kappa is not None or args.nu is not None:
        raise SystemExit(f"{args.scheme} scheme takes no --kappa or --nu; its drift "
                         "comes from --model")
    x0 = _parse_vector(args.x0)
    drive = sim.SkewDrive.zero(len(x0))
    if args.model:
        mdl = _load_model(args.model)
        if args.scheme not in ("scalar", mdl.space):
            raise ValueError(f"--scheme {args.scheme} needs a {args.scheme} model, "
                             f"got a {mdl.space} model")
        drive, refusal = _drive_from_model(mdl, args.tol)
        if drive is None:
            return _json_out(refusal)
    with _CsvFile(args.out, len(x0)) as csv:
        # With --keep-paths the CSV writer is the ensemble's sink.
        sink = functools.partial(_write_paths, csv) if args.keep_paths else None
        run = (x0, args.T, args.h, args.seed, args.paths, sink)
        if args.scheme == "scalar":
            result = sim.scalar_ball_ensemble(args.kappa, args.nu, drive, *run)
        elif args.scheme == "sphere":
            result = sim.sphere_ensemble(drive, *run)
        else:
            # The rotation substep contributes the Ito drift (A_0 + 1/2 sum A_p^2) x,
            # with A_0 the skew part of B; the radial substep supplies the rest of b + Bx.
            corr = sum(A.T @ A for A in drive.diffusion) if drive.n_diffusion else 0.0
            Bhat = _symmetric_part(mdl.B) + 0.5 * corr
            result = sim.ball_ensemble(mdl.b, Bhat, mdl.alpha, drive, *run)
        if to_csv and not args.keep_paths:
            _write_paths(csv, 0, result.times[-1:], result.terminal[:, None, :])
    out = {
        "scheme": result.scheme,
        "n_paths": result.n_paths,
        "T": args.T,
        "h": float(result.times[1] - result.times[0]),
        "seed": args.seed,
        "terminal_mean": result.terminal.mean(axis=0).tolist(),
        "terminal_stderr": (result.terminal.std(axis=0, ddof=1)
                            / np.sqrt(result.n_paths)).tolist() if result.n_paths > 1
                           else [0.0] * result.terminal.shape[1],
        "max_norm_dev": result.max_norm_dev,
        "clamp_fraction": result.clamp_fraction,
    }
    if args.out:
        if not to_csv:
            with open(args.out, "w") as fh:
                json.dump(out, fh, sort_keys=True, indent=1, allow_nan=False)
        out["out"] = args.out
    return _json_out(out)


def _cmd_twin(args):
    x0 = _parse_vector(args.x0)
    d = len(x0)
    drive = sim.SkewDrive.zero(d)
    report = sim.twin_path_experiment(args.kappa, args.nu, drive, x0, args.T, args.h,
                                      args.seeds, seed=args.seed, eps=args.eps)
    return _json_out({
        "max_divergence": report.max_divergence.tolist(),
        "eps": report.eps,
        "kappa_nu_ratio": report.kappa_nu_ratio,
        "uniqueness_condition": report.uniqueness_condition,
        "threshold": np.sqrt(2.0) - 1.0,
        "T": report.T,
        "h": report.h,
    })


def _cmd_density(args):
    mdl = _load_model(args.model)
    x0 = _parse_vector(args.x0)
    drive, refusal = _drive_from_model(mdl, args.tol)
    if drive is None:
        return _json_out(refusal)
    if mdl.space == "sphere":
        report = liealg.density_check_sphere(drive, x0, args.tol)
    else:
        report = liealg.density_check_ball(drive, mdl.alpha, x0, args.tol)
    out = report.to_json()
    out["space"] = mdl.space
    return _json_out(out)


def _tolerance(text):
    """argparse type of --tol: a positive finite float, or a usage error."""
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quadricdiff",
        description="Polynomial diffusions on the unit ball and sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension formulas for the coefficient space")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("validate", help="admissibility checks for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="default 1e-7 for a ball model, 1e-9 for a sphere model")
    p.set_defaults(func=_cmd_validate)

    for name, fn in (("sos-check", _cmd_sos_check), ("decompose", _cmd_decompose)):
        p = sub.add_parser(name, help=f"{name} for an m x m coefficient matrix")
        p.add_argument("--H", required=True, help="'id', 'zero', inline JSON, or @file")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--tol", type=_tolerance, default=1e-9)
        p.add_argument("--max-iter", type=int, default=50000,
                       help="iteration budget: Newton steps of the SOS solver")
        p.set_defaults(func=fn)

    p = sub.add_parser("counterexample", help="dimension-six non-SOS construction report")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
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
                        "match; the scalar scheme takes only its tangential drive")
    p.add_argument("--scheme", choices=["sphere", "ball", "scalar"], required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--keep-paths", action="store_true",
                   help="write every state, not only the terminal ones; needs a .csv --out")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

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
    p.add_argument("--tol", type=_tolerance, default=1e-9)
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
    except ValueError as exc:
        # Domain errors are part of the computed output, not process failures.
        return _json_out({"error": str(exc)})


if __name__ == "__main__":
    raise SystemExit(main())
