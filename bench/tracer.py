"""Span tracing around the program's layers, from the benchmark's own files.

``Tracer.install`` wraps every public function (the names in ``__all__``)
of each layer module, plus scipy's ``expm`` as ``generator`` calls it.  A
wrapper replaces the original wherever a module of the package holds a
reference to it, which is where its callers look it up: ``sos.k_basis``,
``simulate.path_normals``, ``generator.expm``, and the module attributes
that ``cli`` reaches through ``cli.sos``, ``cli.sim`` and ``cli.generator``.
Each call records a span (name, start, end, parent) in memory; ``spans`` are
written out by the caller when the run ends.  Nothing in the program changes.
"""

import functools
import inspect
import sys
import time
from math import comb

PKG = "quadricdiff"
LAYERS = ("cspace", "sos", "model", "generator", "simulate", "liealg", "cli")


def _sos_info(args, kwargs, verdict):
    H = args[0] if args else kwargs["H"]
    return {"status": verdict.status, "iterations": int(verdict.iterations),
            "m": int(len(H))}


def _normals_info(args, kwargs, out):
    return {"steps": int(out.shape[0]), "cols": int(out.shape[1])}


def _gk_info(args, kwargs, gk):
    return {"n": int(gk.G.shape[0]), "nnz": int((gk.G != 0).sum())}


# Extra facts recorded from a call's arguments and result.
INFO = {
    "sos.sos_check": _sos_info,
    "simulate.path_normals": _normals_info,
    "generator.build_Gk": _gk_info,
}


class Tracer:
    """Records nested spans; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, info]
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def _wrap(self, name, fn):
        info = INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PKG}.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        expm = sys.modules[f"{PKG}.generator"].expm
        targets[id(expm)] = (expm, "generator.expm")
        wrappers = {key: self._wrap(name, obj) for key, (obj, name) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != PKG and not modname.startswith(PKG + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is targets[id(value)][0]:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _self_times(spans):
    """Duration minus the time covered by direct children, for each span."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _under(spans, i, name):
    """True if span i has an ancestor with the given name."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, block_paths):
    """Per-layer metrics of one pass from its spans.

    ``block_paths`` is the simulator's block size, which bounds how many
    paths' noise one block holds at once.
    """
    own = _self_times(spans)
    total, self_s, calls = {}, {}, {}
    for i, s in enumerate(spans):
        total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        self_s[s[0]] = self_s.get(s[0], 0.0) + own[i]
        calls[s[0]] = calls.get(s[0], 0) + 1

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def own_of(prefix, exclude=()):
        return sum(v for n, v in self_s.items() if n.startswith(prefix) and n not in exclude)

    # Noise held by one block: paths in the block x steps x columns x 8 B.
    noise_mb, path_steps = 0.0, 0
    per_parent = {}
    for s in spans:
        if s[0] == "simulate.path_normals":
            path_steps += s[4]["steps"]
            key = (s[3], s[4]["steps"], s[4]["cols"])
            per_parent[key] = per_parent.get(key, 0) + 1
    for (_, steps, cols), n in per_parent.items():
        noise_mb = max(noise_mb, min(n, block_paths) * steps * cols * 8 / 1e6)

    checks = [s for s in spans if s[0] == "sos.sos_check"]
    khat_mb = 0.0
    for s in checks:
        m = s[4]["m"]
        d = int(round((1 + (1 + 8 * m) ** 0.5) / 2))
        khat_mb = max(khat_mb, comb(d, 4) * m * m * 8 / 1e6)
    gks = [s[4] for s in spans if s[0] == "generator.build_Gk"]
    largest = max(gks, key=lambda g: g["n"]) if gks else {"n": 0, "nnz": 0}

    return {
        "simulate.ensemble_self_s": own_of(
            "simulate.", ("simulate.path_normals", "simulate.expm_skew")),
        "simulate.path_normals_s": tot("simulate.path_normals"),
        "simulate.path_normals_calls": calls.get("simulate.path_normals", 0),
        "simulate.expm_skew_s": tot("simulate.expm_skew"),
        "simulate.noise_block_mb": noise_mb,
        "simulate.path_steps": path_steps,
        "sos.sos_check_self_s": self_s.get("sos.sos_check", 0.0),
        "sos.iterations": sum(s[4]["iterations"] for s in checks),
        "sos.undecided": sum(s[4]["status"] == "Undecided" for s in checks),
        "sos.verify_certificate_s": tot("sos.verify_certificate"),
        "sos.sos_decompose_s": tot("sos.sos_decompose"),
        "sos.nonneg_check_s": tot("sos.nonneg_check"),
        "cspace.k_basis_s": tot("cspace.k_basis"),
        "cspace.k_basis_calls": calls.get("cspace.k_basis", 0),
        "cspace.h_from_c_s": tot("cspace.h_from_c"),
        "cspace.khat_stack_mb": khat_mb,
        "model.validate_self_s": sum(self_s.get(n, 0.0) for n in (
            "model.validate_ball", "model.validate_sphere", "model.boundary_attainment")),
        "generator.build_Gk_s": tot("generator.build_Gk"),
        "generator.expm_s": tot("generator.expm"),
        "generator.gk_dense_mb": largest["n"] ** 2 * 8 / 1e6,
        "generator.gk_nnz": largest["nnz"],
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.sos_rechecks": sum(1 for i, s in enumerate(spans)
                                if s[0] == "sos.sos_check" and _under(spans, i, "cli.main")),
        "liealg.g_ideal_s": tot("liealg.g_ideal"),
    }
