import json
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO

import numpy as np
import pytest

from kept import Kept, kept_run
from quadricdiff.cli import _jsonable, main
from quadricdiff.model import BallModel, SphereModel
from quadricdiff.skew import skew_dim
from quadricdiff.sos import counterexample_d6
from refs import model_to_json


def run(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("models")
    files = {}
    sphere = SphereModel(H=np.eye(3), B=-np.eye(3))
    files["sphere"] = tmp / "sphere.json"
    files["sphere"].write_text(json.dumps(model_to_json(sphere)))
    jacobi = BallModel(alpha=[[0.49]], H=np.zeros((0, 0)), b=[0.0], B=[[-1.0]])
    files["jacobi"] = tmp / "jacobi.json"
    files["jacobi"].write_text(json.dumps(model_to_json(jacobi)))
    ball = BallModel(alpha=np.eye(2), H=np.eye(1), b=np.zeros(2), B=-2 * np.eye(2))
    files["ball"] = tmp / "ball.json"
    files["ball"].write_text(json.dumps(model_to_json(ball)))
    files["tmp"] = tmp
    return files


@pytest.mark.parametrize("d,m,dim_c,dim_k", [
    (2, 1, 1, 0), (3, 3, 6, 0), (4, 6, 20, 1), (5, 10, 50, 5), (6, 15, 105, 15),
])
def test_dims(d, m, dim_c, dim_k):
    j = run_json(["dims", "--d", str(d)])
    assert (j["m"], j["dim_C"], j["dim_K"]) == (m, dim_c, dim_k)


def test_sos_check_identity():
    j = run_json(["sos-check", "--H", "id", "--d", "3"])
    assert j["status"] == "Feasible"
    assert j["iterations"] >= 1


def test_sos_check_prints_the_verdict_without_its_stats(model_files):
    ce = model_files["tmp"] / "ce.json"
    ce.write_text(json.dumps(counterexample_d6().h.tolist()))
    for H, d, budget, status in (("id", 6, [], "Feasible"), (f"@{ce}", 6, [], "Infeasible"),
                                 (f"@{ce}", 6, ["--max-iter", "1"], "Undecided")):
        j = run_json(["sos-check", "--H", H, "--d", str(d)] + budget)
        assert j["status"] == status
        assert set(j) == {"status", "iterations", "margins", "witness"}


def test_jsonable_makes_plain_json_of_results():
    @dataclass
    class Inner:
        flag: np.bool_
        values: np.ndarray

    @dataclass
    class Outer:
        count: np.int64
        scale: np.float64
        inner: Inner
        items: list
        missing: None = None

    obj = Outer(np.int64(3), np.float64(0.25), Inner(np.bool_(True), np.arange(2.0)),
                [np.eye(2), (np.int64(1), None)])
    out = _jsonable(obj)
    assert out == {"count": 3, "scale": 0.25, "inner": {"flag": True, "values": [0.0, 1.0]},
                   "items": [[[1.0, 0.0], [0.0, 1.0]], [1, None]], "missing": None}
    assert type(out["count"]) is int and type(out["inner"]["flag"]) is bool
    assert json.loads(json.dumps(out, allow_nan=False)) == out


def test_sos_check_inline_matrix():
    m = skew_dim(3)
    H = (-np.eye(m)).tolist()
    j = run_json(["sos-check", "--H", json.dumps(H), "--d", "3"])
    assert j["status"] == "Infeasible"


def test_a_negative_dimension_is_a_usage_error():
    for H in ("id", "zero"):
        j = run_json(["sos-check", "--H", H, "--d", "-3"])
        assert j == {"error": "d must be nonnegative, got -3"}
    assert run_json(["dims", "--d", "-2"]) == {"error": "d must be nonnegative, got -2"}


def test_sos_check_witness_holds_the_factors():
    j = run_json(["sos-check", "--H", "id", "--d", "3"])
    assert j["status"] == "Feasible" and np.asarray(j["witness"]["factors"]).shape == (3, 3, 3)


def test_counterexample_report():
    j = run_json(["counterexample"])
    assert j["sos_status"] == "Infeasible"
    assert j["inner_hb"] < -0.1
    assert j["k_orth_max"] <= 1e-10
    assert j["components"]["c_11"] == "x2^2 + x3^2 + 2 x4^2 + 2 x5^2 + 2 x6^2"
    assert np.asarray(j["H"]).shape == (15, 15)


def test_validate_sphere_and_ball(model_files):
    j = run_json(["validate", "--model", str(model_files["sphere"])])
    assert j["admissible"] and j["space"] == "sphere" and j["boundary"] is None
    j = run_json(["validate", "--model", str(model_files["jacobi"])])
    assert j["admissible"]
    assert j["boundary"]["status"] == "InteriorInvariant"


def test_tol_is_a_positive_finite_number(model_files, monkeypatch):
    sphere = str(model_files["sphere"])
    commands = [["validate", "--model", sphere], ["sos-check", "--H", "id", "--d", "3"],
                ["counterexample"],
                ["simulate", "--model", sphere, "--scheme", "sphere", "--x0", "[1,0,0]",
                 "--T", "0.1", "--h", "0.01", "--seed", "0"],
                ["density", "--model", sphere, "--x0", "[1,0,0]"]]
    for argv in commands:
        for tol in ("0", "-1e-9", "nan", "inf", "tiny"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--tol", tol])
            assert exc.value.code == 2, (argv, tol)
    # validate's default depends on the space; a given --tol reaches the check as is
    from quadricdiff import model

    seen = []
    original = model._drift_check

    def drift_check(mdl, tol, boundary=False):
        if not boundary:
            seen.append(tol)
        return original(mdl, tol, boundary)

    monkeypatch.setattr(model, "_drift_check", drift_check)
    for name, tol in (("jacobi", []), ("sphere", []), ("jacobi", ["--tol", "1e-5"])):
        run_json(["validate", "--model", str(model_files[name])] + tol)
    assert seen == [1e-7, 1e-9, 1e-5]


def test_max_iter_is_a_positive_integer(capsys):
    # a usage error, as a bad --tol is, not an {"error": ...} document
    for budget in ("0", "-5", "2.5"):
        with pytest.raises(SystemExit) as exc:
            main(["sos-check", "--H", "id", "--d", "3", "--max-iter", budget])
        assert exc.value.code == 2, budget
        assert "--max-iter" in capsys.readouterr().err
    assert run_json(["sos-check", "--H", "id", "--d", "3", "--max-iter", "1"])


def test_tol_defaults_are_read_from_the_library(model_files, monkeypatch, capsys):
    # the help text of --tol and density's membership tolerance have one home each
    import inspect

    from quadricdiff import cli, liealg, model

    for check in (liealg.density_check, liealg._density_check_sphere,
                  liealg._density_check_ball):
        assert inspect.signature(check).parameters["tol"].default is None
    monkeypatch.setitem(model._DEFAULT_TOL, "ball", 2.5e-6)
    monkeypatch.setitem(model._DEFAULT_TOL, "sphere", 3.5e-8)
    monkeypatch.setattr(liealg, "_DEFAULT_TOL", 4.5e-10)
    seen = []
    original = liealg.g_ideal
    monkeypatch.setattr(liealg, "g_ideal",
                        lambda drive, tol: seen.append(tol) or original(drive, tol))
    for name, x0 in (("sphere", "[1,0,0]"), ("jacobi", "[0]")):
        run_json(["density", "--model", str(model_files[name]), "--x0", x0])
    assert seen == [4.5e-10, 4.5e-10]   # the library resolves density's default
    cli._build_parser.cache_clear()
    try:
        helps = {}
        for command in ("validate", "density"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            helps[command] = " ".join(capsys.readouterr().out.split())
    finally:
        cli._build_parser.cache_clear()
    admission = "default 2.5e-06 for a ball model, 3.5e-08 for a sphere model"
    assert all(admission in text for text in helps.values()), helps
    assert "membership test: default 4.5e-10" in helps["density"], helps


def test_sos_defaults_are_read_from_the_library(model_files, monkeypatch, capsys):
    import inspect

    from quadricdiff import cli, sos

    # omitting the flags is passing the library's defaults
    assert cli._sos_check is sos.sos_check
    defaults = inspect.signature(sos.sos_check).parameters
    tol = ["--tol", repr(defaults["tol"].default)]
    budget = tol + ["--max-iter", str(defaults["max_iter"].default)]
    ce = model_files["tmp"] / "ce_defaults.json"
    ce.write_text(json.dumps(counterexample_d6().h.tolist()))
    for argv, given in ((["sos-check", "--H", "id", "--d", "4"], budget),
                        (["sos-check", "--H", f"@{ce}", "--d", "6"], budget),
                        (["counterexample"], tol)):
        assert run(argv) == run(argv + given), argv

    # and --help prints the defaults of the function that the parser reads
    def sos_check(H, tol=2.5e-8, max_iter=123):
        raise AssertionError("only the parser reads it here")

    monkeypatch.setattr(cli, "_sos_check", sos_check)
    cli._build_parser.cache_clear()
    try:
        helps = {}
        for command in ("sos-check", "counterexample"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            helps[command] = " ".join(capsys.readouterr().out.split())
    finally:
        cli._build_parser.cache_clear()
    assert all("witnesses: default 2.5e-08" in text for text in helps.values()), helps
    assert "default 123" in helps["sos-check"]


def test_moments_and_domain_error(model_files):
    q = json.dumps({"terms": [{"exp": [1, 0, 0], "coef": 1.0}]})
    j = run_json(["moments", "--model", str(model_files["sphere"]), "--q", q,
                  "--x0", "[1,0,0]", "--t", "1.0"])
    assert j["value"] == pytest.approx(np.exp(-1.0), abs=1e-12)
    j = run_json(["moments", "--model", str(model_files["sphere"]), "--q", q,
                  "--x0", "[2,0,0]", "--t", "1.0"])
    assert "error" in j  # domain error still exits 0


def test_moments_malformed_exponent_is_a_domain_error(model_files):
    q = json.dumps({"terms": [{"exp": [1, 0], "coef": 1}]})
    j = run_json(["moments", "--model", str(model_files["sphere"]), "--q", q,
                  "--x0", "[1,0,0]", "--t", "1.0"])
    assert "(1, 0)" in j["error"]
    # documents that are not {"terms": [{"exp": ..., "coef": ...}, ...]}
    for q in ("{}", "[1]", '{"terms": [{"exp": [1, 0]}]}',
              '{"terms": [{"exp": [1, 0, 0], "coef": [1]}]}'):
        j = run_json(["moments", "--model", str(model_files["sphere"]), "--q", q,
                      "--x0", "[1,0,0]", "--t", "1.0"])
        assert set(j) == {"error"} and j["error"].startswith("q must be "), (q, j)


def test_validate_refuses_a_malformed_model_file(model_files):
    sphere = json.loads(model_files["sphere"].read_text())
    del sphere["B"]
    ball = json.loads(model_files["ball"].read_text())
    cases = {"no_b.json": (sphere, "a sphere model needs the keys d, H, B; missing B"),
             "list.json": ([1, 2], "model must be a JSON object, got [1, 2]"),
             "torus.json": (dict(ball, space="torus"),
                            'space must be "ball" or "sphere", got \'torus\''),
             "b_object.json": (dict(ball, b={"a": 1}),
                               "b must be an array of numbers, got {'a': 1}")}
    for d in (2.5, "2", [3], True, -1):
        cases[f"d_{d}.json"] = (dict(sphere, B=[[0.0] * 3] * 3, d=d),
                                f"d must be a nonnegative integer, got {d!r}")
    for name, (doc, error) in cases.items():
        path = model_files["tmp"] / name
        path.write_text(json.dumps(doc))
        assert run_json(["validate", "--model", str(path)]) == {"error": error}


def test_simulate_sphere_with_csv(model_files):
    out_csv = model_files["tmp"] / "paths.csv"
    j = run_json(["simulate", "--model", str(model_files["sphere"]), "--scheme", "sphere",
                  "--x0", "[1,0,0]", "--T", "0.5", "--h", "0.01", "--paths", "200",
                  "--seed", "42", "--out", str(out_csv)])
    assert j["max_norm_dev"] <= 1e-12
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "path_id,t,x1,x2,x3"
    assert len(lines) == 201  # terminal states only


def test_simulate_full_paths_csv(model_files):
    out_csv = model_files["tmp"] / "full.csv"
    run_json(["simulate", "--model", str(model_files["sphere"]), "--scheme", "sphere",
              "--x0", "[1,0,0]", "--T", "0.1", "--h", "0.01", "--paths", "3",
              "--seed", "4", "--keep-paths", "--out", str(out_csv)])
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 11  # header + paths x (steps + 1)


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_simulate_csv_values_round_trip(model_files):
    from quadricdiff.model import ensemble

    x0, T, h, seed, n = [0.1, -0.2, 0.3], 0.05, 0.01, 7, 4
    ens, paths = kept_run(ensemble, BallModel.scalar(2.0, 1.0, 3), x0, T, h, seed, n)
    argv = ["simulate", "--scheme", "scalar", "--kappa", "2", "--nu", "1",
            "--x0", json.dumps(x0), "--T", str(T), "--h", str(h), "--paths", str(n),
            "--seed", str(seed)]
    full = model_files["tmp"] / "round_trip_full.csv"
    run_json(argv + ["--keep-paths", "--out", str(full)])
    header, rows = _read_csv(full)
    k = len(ens.times)
    assert header == "path_id,t,x1,x2,x3"
    assert np.array_equal(rows[:, 0], np.repeat(np.arange(n), k))
    assert rows[:, 1].tobytes() == np.tile(ens.times, n).tobytes()
    assert rows[:, 2:].tobytes() == paths.reshape(n * k, 3).tobytes()
    terminal = model_files["tmp"] / "round_trip_terminal.csv"
    run_json(argv + ["--out", str(terminal)])
    _, rows = _read_csv(terminal)
    assert np.array_equal(rows[:, 0], np.arange(n))
    assert rows[:, 1].tobytes() == np.full(n, ens.times[-1]).tobytes()
    assert rows[:, 2:].tobytes() == ens.terminal.tobytes()


def test_csv_writer_blocks_are_exact(model_files):
    # 30001 rows per path: the writer's 4096-row blocks straddle the paths
    from quadricdiff.cli import _CsvFile, _write_paths

    r = np.random.default_rng(5)
    n, k, d = 3, 30001, 2
    paths = r.standard_normal((n, k, d)) * 10.0 ** r.integers(-300, 300, (n, k, d))
    times = np.linspace(0.0, 0.3, k)
    out = model_files["tmp"] / "blocks.csv"
    with _CsvFile(out, d) as fh:
        _write_paths(fh, 0, times, paths)
    header, rows = _read_csv(out)
    assert header == "path_id,t,x1,x2"
    assert np.array_equal(rows[:, 0], np.repeat(np.arange(n), k))
    assert rows[:, 1].tobytes() == np.tile(times, n).tobytes()
    assert rows[:, 2:].tobytes() == paths.reshape(n * k, d).tobytes()


def test_csv_writer_matches_savetxt(model_files):
    # 15001 rows per path, written in 4096-row blocks
    from quadricdiff.cli import _CsvFile, _write_paths

    r = np.random.default_rng(6)
    n, k, d = 5, 15001, 3
    paths = r.standard_normal((n, k, d)) * 10.0 ** r.integers(-320, 300, (n, k, d))
    paths[0, 0] = [-0.0, 5e-324, -1.0]
    times = np.linspace(0.0, 0.7, k)
    out = model_files["tmp"] / "savetxt.csv"
    with _CsvFile(out, d) as fh:
        _write_paths(fh, 0, times, paths)
    rows = np.column_stack([np.repeat(np.arange(n), k), np.tile(times, n),
                            paths.reshape(-1, d)])
    ref = StringIO()
    ref.write("path_id,t,x1,x2,x3\n")
    np.savetxt(ref, rows, fmt=["%d"] + ["%.17g"] * (d + 1), delimiter=",")
    assert out.read_text() == ref.getvalue()


def test_csv_writer_memory_is_bounded(model_files):
    import tracemalloc

    from quadricdiff.cli import _CsvFile, _write_paths

    n, k, d = 100, 1001, 3
    paths = np.random.default_rng(7).standard_normal((n, k, d))
    times = np.linspace(0.0, 1.0, k)
    tracemalloc.start()
    try:
        with _CsvFile(model_files["tmp"] / "memory.csv", d) as fh:
            _write_paths(fh, 0, times, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text of all 100,100 rows is about 8 MB
    assert peak < 4e6


def test_csv_terminal_export_is_savetxt_in_blocks(model_files, monkeypatch):
    import builtins

    from quadricdiff import cli

    writes = []

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text.count("\n"))
            return self.fh.write(text)

    monkeypatch.setattr(cli, "open", lambda *a, **kw: Counting(builtins.open(*a, **kw)),
                        raising=False)
    r = np.random.default_rng(8)
    n, d = 70_000, 2
    terminal = r.standard_normal((n, d)) * 10.0 ** r.integers(-320, 300, (n, d))
    terminal[0] = [-0.0, 5e-324]
    times = np.linspace(0.0, 0.9, 301)
    out = model_files["tmp"] / "terminal.csv"
    with cli._CsvFile(out, d) as fh:
        cli._write_paths(fh, 0, times[-1:], terminal[:, None, :])
    rows = np.column_stack([np.arange(n), np.full(n, times[-1]), terminal])
    ref = StringIO()
    ref.write("path_id,t,x1,x2\n")
    np.savetxt(ref, rows, fmt=["%d"] + ["%.17g"] * (d + 1), delimiter=",")
    assert out.read_text() == ref.getvalue()
    # the header, then blocks of many rows each
    assert writes[0] == 1 and sum(writes[1:]) == n
    assert len(writes) <= 1 + n // 1000 and min(writes[1:-1]) > 1000


def test_keep_paths_csv_in_pieces_is_savetxt(model_files, monkeypatch):
    from quadricdiff import simulate
    from quadricdiff.model import ensemble

    # 50 noise values: blocks of one path, pieces of 16 steps, 7 pieces a path
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 50)
    x0, T, h, seed, n = [0.2, -0.1, 0.4], 0.1, 1e-3, 9, 3
    sink = Kept()
    ens = ensemble(BallModel.scalar(2.0, 1.0, 3), x0, T, h, seed, n, sink=sink)
    assert len(sink.pieces) == 7 * n
    out = model_files["tmp"] / "pieces.csv"
    run_json(["simulate", "--scheme", "scalar", "--kappa", "2", "--nu", "1",
              "--x0", json.dumps(x0), "--T", str(T), "--h", str(h), "--paths", str(n),
              "--seed", str(seed), "--keep-paths", "--out", str(out)])
    k = len(ens.times)
    rows = np.column_stack([np.repeat(np.arange(n), k), np.tile(ens.times, n),
                            sink.paths.reshape(-1, 3)])
    ref = StringIO()
    ref.write("path_id,t,x1,x2,x3\n")
    np.savetxt(ref, rows, fmt=["%d"] + ["%.17g"] * 4, delimiter=",")
    assert out.read_text() == ref.getvalue()


def test_keep_paths_memory_does_not_grow_with_steps(model_files, monkeypatch):
    import tracemalloc

    from quadricdiff import simulate

    # 1024 noise values: blocks of one 16-d path, pieces of 64 steps
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 1 << 10)
    out = model_files["tmp"] / "kept_memory.csv"
    for steps in (250, 1000):
        argv = ["simulate", "--scheme", "scalar", "--kappa", "2", "--nu", "1",
                "--x0", json.dumps([0.0] * 16), "--T", "1", "--h", str(1.0 / steps),
                "--paths", "4", "--seed", "3", "--keep-paths", "--out", str(out)]
        # untraced first: the first simulation of a process imports scipy.special
        # and concurrent.futures, whatever tests ran before this one
        run_json(argv)
        tracemalloc.start()
        try:
            run_json(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 1 + 4 * (steps + 1)
        # the whole (4, 251, 16) path array and the text of its 1004 rows take
        # 1.2 MB at 250 steps, and the 1000-step ones 4.7 MB
        assert peak < 1e6, steps


def test_simulate_rejects_bad_inputs(model_files):
    # A drift-only drive whose h A_0 has 1-norm 1e20, 65 squarings in expm_skew
    fast = model_files["tmp"] / "fast_turn.json"
    fast.write_text(json.dumps({"space": "sphere", "d": 3, "H": np.zeros((3, 3)).tolist(),
                                "B": [[0, 1e22, 0], [-1e22, 0, 0], [0, 0, 0]]}))
    base = ["simulate", "--model", str(model_files["sphere"]), "--scheme", "sphere",
            "--x0", "[1,0,0]", "--T", "0.1", "--h", "0.01", "--paths", "4", "--seed", "0"]
    for flag, value in (("--seed", "-1"), ("--seed", str(2 ** 64)), ("--paths", "0"),
                        ("--T", "inf"), ("--h", "nan"), ("--model", str(fast))):
        argv = list(base)
        argv[argv.index(flag) + 1] = value
        code, out = run(argv)
        assert code == 0, out
        assert "error" in json.loads(out), (flag, value)


def test_simulate_refuses_a_rotation_too_large_to_keep(model_files):
    # A d = 3 model that passes validate, whose h A_0 has a 1-norm of 1e17:
    # past 52 squarings the rotation kernel refuses rather than losing the sphere.
    big = model_files["tmp"] / "big_turn.json"
    B = -np.eye(3)
    B[0, 1], B[1, 0] = 1e20, -1e20
    big.write_text(json.dumps({"space": "sphere", "d": 3, "H": np.eye(3).tolist(),
                               "B": B.tolist()}))
    assert run_json(["validate", "--model", str(big)])["admissible"] is True
    code, out = run(["simulate", "--model", str(big), "--scheme", "sphere", "--x0", "[0.6,0.8,0]",
                     "--T", "0.01", "--h", "1e-3", "--seed", "0", "--paths", "4"])
    assert code == 0
    assert json.loads(out)["error"].startswith(
        "M must be finite with a 1-norm of at most 2.42e+16, got a 1-norm of 1e+17")


def test_validate_ball_runs_one_sos_check(model_files, monkeypatch):
    from quadricdiff import sos

    calls = []
    original = sos.sos_check

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sos, "sos_check", counting)
    ball = BallModel(alpha=0.5 * np.eye(3), H=np.eye(3), b=np.zeros(3), B=-2 * np.eye(3))
    path = model_files["tmp"] / "ball3.json"
    path.write_text(json.dumps(model_to_json(ball)))
    j = run_json(["validate", "--model", str(path)])
    assert j["admissible"] and j["boundary"]["status"] == "InteriorInvariant"
    assert len(calls) == 1


def test_refused_keep_paths_run_leaves_no_file(model_files):
    out = model_files["tmp"] / "refused.csv"
    base = ["simulate", "--scheme", "scalar", "--kappa", "2", "--nu", "1", "--T", "0.1",
            "--h", "0.01", "--paths", "3", "--keep-paths", "--out", str(out)]
    for bad in (["--x0", "[2,0]", "--seed", "0"], ["--x0", "[0.5,0]", "--seed", "-1"],
                ["--x0", "[0.5,0]", "--seed", "0", "--kappa", "inf"]):
        assert set(run_json(base + bad)) == {"error"}, bad
        assert not out.exists(), bad


def test_simulate_usage_errors_exit_before_simulating(model_files, monkeypatch, capsys):
    from quadricdiff import cli, simulate

    def refuse(*args, **kwargs):
        raise AssertionError("no ensemble may run on a usage error")

    monkeypatch.setattr(cli.model_mod, "ensemble", refuse)
    for name in ("sphere_ensemble", "ball_ensemble"):
        monkeypatch.setattr(simulate, name, refuse)
    common = ["--x0", "[0.5,0,0]", "--T", "0.1", "--h", "0.01", "--paths", "4", "--seed", "0"]
    scalar = ["simulate", "--scheme", "scalar", "--kappa", "2", "--nu", "1"] + common
    cases = [
        (["simulate", "--scheme", "sphere"] + common, "requires --model"),
        (["simulate", "--scheme", "ball"] + common, "requires --model"),
        (scalar + ["--keep-paths"], "--keep-paths"),
        (scalar + ["--keep-paths", "--out", str(model_files["tmp"] / "kept.json")],
         "--keep-paths"),
        (["simulate", "--scheme", "scalar"] + common, "--kappa and --nu"),
    ]
    # sphere and ball take their drift from the model, so the scalar rates are refused
    for scheme in ("sphere", "ball"):
        for rate in (["--kappa", "2"], ["--nu", "1"]):
            cases.append((["simulate", "--model", str(model_files[scheme]), "--scheme", scheme]
                          + rate + common, "takes no --kappa or --nu"))
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        # argparse's usage error: the usage line and the message on stderr, exit 2
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv
    assert not (model_files["tmp"] / "kept.json").exists()


def test_simulate_scheme_must_match_the_model_space(model_files):
    j = run_json(["simulate", "--model", str(model_files["sphere"]), "--scheme", "ball",
                  "--x0", "[0.5,0,0]", "--T", "0.1", "--h", "0.01", "--seed", "0"])
    assert j == {"error": "--scheme ball needs a ball model, got a sphere model"}
    j = run_json(["simulate", "--model", str(model_files["ball"]), "--scheme", "sphere",
                  "--x0", "[1,0]", "--T", "0.1", "--h", "0.01", "--seed", "0"])
    assert j == {"error": "--scheme sphere needs a sphere model, got a ball model"}
    # the scalar scheme simulates BallModel.scalar: a --model of either space is a usage error
    for name, x0 in (("sphere", "[0.5,0,0]"), ("ball", "[0.5,0]")):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--model", str(model_files[name]), "--scheme", "scalar",
                 "--kappa", "2", "--nu", "1", "--x0", x0, "--T", "0.1", "--h", "0.01",
                 "--seed", "0"])
        assert exc.value.code == 2, name


@pytest.mark.parametrize("scheme,name,x0", [("sphere", "sphere", "[1,0,0]"),
                                            ("ball", "ball", "[0.5,0]"),
                                            ("scalar", None, "[0.5,0]")])
def test_simulate_with_model_runs_one_sos_check(model_files, monkeypatch, scheme, name, x0):
    from quadricdiff import sos

    calls = []
    original = sos.sos_check

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sos, "sos_check", counting)
    # the scalar scheme admits BallModel.scalar(--kappa, --nu, d) as the others admit --model
    given = ["--kappa", "2", "--nu", "1"] if name is None else ["--model", str(model_files[name])]
    j = run_json(["simulate", "--scheme", scheme, *given, "--x0", x0, "--T", "0.1", "--h", "0.01",
                  "--paths", "3", "--seed", "0"])
    assert j["scheme"] == scheme
    assert len(calls) == 1


def _result_bytes(result, paths):
    return [np.asarray(v).tobytes() for v in (result.times, result.terminal, result.max_radius,
                                              result.max_norm_dev, result.clamp_fraction, paths)]


def test_ensemble_is_the_drive_level_ensemble_of_the_admitted_model(model_files):
    # one path from a model to a run: admission, then the ensemble of its space
    from quadricdiff.model import _simulator_drive, ensemble, model_from_json
    from quadricdiff.simulate import SkewDrive, ball_ensemble, sphere_ensemble

    files = [(model_from_json(json.loads(model_files[name].read_text())), x0, False)
             for name, x0 in (("sphere", [0.6, 0.8, 0.0]), ("jacobi", [0.3]),
                              ("ball", [0.5, -0.1]))]
    scalars = [(BallModel.scalar(2.0, 1.0, d), x0, True) for d in (1, 2, 3)
               for x0 in (np.zeros(d), np.full(d, 0.4))]
    for mdl, x0, scalar in files + scalars:
        run = (x0, 0.05, 1e-2, 3, 5)
        drive, Bhat = _simulator_drive(mdl)
        if mdl.space == "sphere":
            ref = kept_run(sphere_ensemble, drive, *run)
        else:
            ref = kept_run(ball_ensemble, mdl.b, Bhat, mdl.alpha, drive, *run)
        got = kept_run(ensemble, mdl, *run)
        assert _result_bytes(*got) == _result_bytes(*ref), (mdl, x0)
        if scalar:
            # the coefficients that the scalar ball's own entry ran, in their bits
            d = mdl.d
            old = kept_run(ball_ensemble, np.zeros(d), -2.0 * np.eye(d), np.eye(d),
                           SkewDrive.zero(d), *run)
            assert _result_bytes(*got) == _result_bytes(*old), (d, x0)


@pytest.mark.parametrize("name,x0,tol", [("sphere", "[1,0,0]", []), ("ball", "[0.5,0]", []),
                                         ("ball", "[0.5,0]", ["--tol", "1e-3"])])
def test_density_with_model_runs_one_sos_check_as_validate_does(model_files, monkeypatch,
                                                                name, x0, tol):
    # density admits the model as validate does: one sos_check, with validate's
    # arguments, whatever --tol says
    from quadricdiff import sos

    calls = []
    original = sos.sos_check

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(sos, "sos_check", counting)
    j = run_json(["density", "--model", str(model_files[name]), "--x0", x0] + tol)
    assert j["has_smooth_density"] and j["space"] == name
    assert calls == [{"max_iter": 20000}]


def test_simulate_and_density_admit_the_models_that_validate_admits(model_files):
    # The drift maximum over the sphere is 5e-8: admissible at validate's ball
    # default 1e-7, which simulate and density now share.
    mdl = BallModel(alpha=np.eye(2), H=[[1.0]], b=np.zeros(2), B=(-0.5 + 5e-8) * np.eye(2))
    path = str(model_files["tmp"] / "edge_ball.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(model_to_json(mdl)))
    j = run_json(["validate", "--model", path])
    assert j["admissible"] is True and j["positivity"] == "verified"
    assert j["checks"]["drift"]["max_value"] == pytest.approx(5e-8)
    j = run_json(["density", "--model", path, "--x0", "[0,0]"])
    assert "error" not in j and j["has_smooth_density"] is True
    # Admitted, the ball scheme's Bhat = B_sym + 1/2 A^T A = 5e-8 I is clipped
    # to 0, within the drift tolerance, and the ball scheme runs.
    run = ["--model", path, "--x0", "[0,0]", "--T", "0.1", "--h", "0.01", "--seed", "0"]
    j = run_json(["simulate", "--scheme", "ball"] + run)
    assert "error" not in j and j["scheme"] == "ball"
    j = run_json(["simulate", "--scheme", "scalar", "--kappa", "2", "--nu", "1"] + run[2:])
    assert j["scheme"] == "scalar"
    # a --tol below the maximum refuses the model at admission, as validate does
    assert run_json(["validate", "--model", path, "--tol", "1e-9"])["admissible"] is False
    for argv in (["density", "--model", path, "--x0", "[0,0]"],
                 ["simulate", "--scheme", "ball"] + run):
        j = run_json(argv + ["--tol", "1e-9"])
        assert j["error"] == "the ball model's drift fails validation", argv


@pytest.mark.parametrize("d", [2, 3])
def test_validate_simulate_and_density_agree_on_ball_models_at_the_drift_edge(model_files, d):
    # B = -C/2 + s I puts the drift maximum at s: validate admits exactly s <= 1e-7,
    # and every model it admits simulates and has a density verdict.
    from quadricdiff.cspace import trace_form

    m = d * (d - 1) // 2
    x0 = json.dumps([0.0] * d)
    for s in (-1e-3, 0.0, 5e-8, 9e-8, 2e-7):
        mdl = BallModel(alpha=np.eye(d), H=np.eye(m), b=np.zeros(d),
                        B=-0.5 * trace_form(np.eye(m), d) + s * np.eye(d))
        path = model_files["tmp"] / f"edge_{d}_{s}.json"
        path.write_text(json.dumps(model_to_json(mdl)))
        admitted = run_json(["validate", "--model", str(path)])["admissible"]
        assert admitted is (s <= 1e-7), s
        outs = [run_json(["simulate", "--scheme", "ball", "--model", str(path), "--x0", x0,
                          "--T", "0.02", "--h", "0.01", "--paths", "4", "--seed", "0"]),
                run_json(["density", "--model", str(path), "--x0", x0])]
        for j in outs:
            if admitted:
                assert "error" not in j, (s, j)
            else:
                assert j["error"] == "the ball model's drift fails validation", (s, j)


def test_simulate_and_density_refuse_an_unverified_model(model_files):
    # admissible with positivity "unverified": there is no SOS witness to drive with
    from quadricdiff.cspace import trace_form
    from quadricdiff.sos import counterexample_d6

    H = counterexample_d6().h
    mdl = BallModel(alpha=np.eye(6), H=H, b=np.zeros(6), B=-0.5 * trace_form(H, 6) - np.eye(6))
    path = model_files["tmp"] / "unverified.json"
    path.write_text(json.dumps(model_to_json(mdl)))
    j = run_json(["validate", "--model", str(path)])
    assert j["admissible"] is True and j["positivity"] == "unverified"
    x0 = json.dumps([0.0] * 6)
    for argv in (["simulate", "--scheme", "ball", "--model", str(path), "--x0", x0, "--T", "0.02",
                  "--h", "0.01", "--seed", "0"],
                 ["density", "--model", str(path), "--x0", x0]):
        assert run_json(argv) == {"error": "no sum-of-squares representation found",
                                  "sos_status": "Infeasible"}, argv


def test_simulate_ball_model_mean_matches_exact_moment(model_files):
    # The CLI maps the model's Ito drift b + Bx to the simulator's drive and
    # (bhat, Bhat); a wrong correction or a dropped skew part moves the mean by
    # about 10 standard errors at this size.
    from quadricdiff.cspace import trace_form
    from quadricdiff.generator import moment
    from quadricdiff.model import validate

    r = np.random.default_rng(3)
    G = r.standard_normal((3, 3))
    H = G @ G.T / 6 + 0.5 * np.eye(3)
    A = r.standard_normal((3, 3))
    b = np.array([0.3, -0.2, 0.1])
    skew = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 0.8], [0.5, -0.8, 0.0]])
    B = -0.5 * trace_form(H, 3) - (np.linalg.norm(b) + 0.1) * np.eye(3) + skew
    mdl = BallModel(alpha=A @ A.T / 6, H=H, b=b, B=B)
    assert validate(mdl).admissible
    path = model_files["tmp"] / "ball_drift.json"
    path.write_text(json.dumps(model_to_json(mdl)))
    x0, T = np.array([0.6, 0.0, 0.0]), 0.5
    j = run_json(["simulate", "--model", str(path), "--scheme", "ball", "--x0", "[0.6,0,0]",
                  "--T", str(T), "--h", "5e-3", "--paths", "2000", "--seed", "1"])
    exact = [moment(mdl, {tuple(e): 1.0}, x0, T) for e in np.eye(3, dtype=int)]
    z = (np.array(j["terminal_mean"]) - exact) / np.array(j["terminal_stderr"])
    assert np.abs(z).max() < 4.0, z


def test_simulate_deterministic_output(model_files):
    argv = ["simulate", "--model", str(model_files["sphere"]), "--scheme", "sphere",
            "--x0", "[1,0,0]", "--T", "0.5", "--h", "0.01", "--paths", "100",
            "--seed", "9"]
    _, out1 = run(argv)
    _, out2 = run(argv)
    assert out1 == out2


def test_simulate_ball_and_scalar(model_files):
    j = run_json(["simulate", "--model", str(model_files["ball"]), "--scheme", "ball",
                  "--x0", "[0,0]", "--T", "0.5", "--h", "0.005", "--paths", "200",
                  "--seed", "3"])
    assert j["n_paths"] == 200
    j = run_json(["simulate", "--scheme", "scalar", "--kappa", "2.0", "--nu", "1.0",
                  "--x0", "[0.5]", "--T", "1.0", "--h", "0.01", "--paths", "2000",
                  "--seed", "1"])
    assert j["terminal_mean"][0] == pytest.approx(np.exp(-2.0) * 0.5, abs=0.03)


def test_twin_command():
    j = run_json(["twin", "--kappa", "1.0", "--nu", "1.0", "--x0", "[1.0]",
                  "--T", "0.2", "--h", "0.001", "--seeds", "3", "--seed", "0"])
    assert j["uniqueness_condition"] is True
    assert max(j["max_divergence"]) == 0.0
    assert j["threshold"] == pytest.approx(np.sqrt(2.0) - 1.0)


@pytest.mark.parametrize("nu", ["1e200", "1e-200"])
def test_nu_squared_out_of_range_is_a_domain_error(nu):
    # nu^2 overflows, or underflows to 0: an "error" key, not a traceback.
    rates = ["--kappa", "2", "--nu", nu, "--T", "0.01", "--h", "1e-3", "--seed", "0"]
    for argv in (["simulate", "--scheme", "scalar", "--x0", "[0.5,0]", "--paths", "2"],
                 ["twin", "--x0", "[1,0]", "--seeds", "2"]):
        j = run_json(argv + rates)
        assert set(j) == {"error"} and "nu^2" in j["error"], argv


def test_density_command(model_files):
    j = run_json(["density", "--model", str(model_files["sphere"]), "--x0", "[1,0,0]"])
    assert j["has_smooth_density"] and j["dim_g"] == 3
    j = run_json(["density", "--model", str(model_files["ball"]), "--x0", "[1,0]"])
    assert j["has_smooth_density"] and j["space"] == "ball"
    # an x0 outside the state space, not finite or of the wrong length is refused
    for name, x0 in (("ball", "[5,0]"), ("ball", "[NaN,0]"), ("ball", "[0.5,0,0]"),
                     ("sphere", "[0.5,0,0]"), ("sphere", "[1,0]")):
        j = run_json(["density", "--model", str(model_files[name]), "--x0", x0])
        assert set(j) == {"error"}, (name, x0)


@pytest.mark.parametrize("name,x0", [("sphere", [1.0, 0.0, 0.0]), ("ball", [0.5, 0.0])])
def test_density_check_is_the_drive_level_check_on_the_admitted_drive(model_files, name, x0):
    from quadricdiff import liealg
    from quadricdiff.model import _simulator_drive, model_from_json

    mdl = model_from_json(json.loads(model_files[name].read_text()))
    for tol in (None, 1e-3):
        drive, _ = _simulator_drive(mdl, tol)
        expected = (liealg._density_check_sphere(drive, x0, tol) if name == "sphere" else
                    liealg._density_check_ball(drive, mdl.alpha, x0, tol))
        report = liealg.density_check(mdl, x0, tol)
        assert report == expected, tol
        flags = ["--tol", repr(tol)] if tol else []
        j = run_json(["density", "--model", str(model_files[name]), "--x0", json.dumps(x0)]
                     + flags)
        assert j == dict(_jsonable(report), space=name)


def test_refused_models_raise_the_report_that_the_cli_prints(model_files):
    # one ValueError subclass carries the refusal: a failed drift check, or no SOS witness
    from quadricdiff.cspace import trace_form
    from quadricdiff.liealg import density_check
    from quadricdiff.model import ModelRefused

    H = counterexample_d6().h
    cases = {
        "outward": (BallModel(alpha=np.eye(2), H=[[1.0]], b=np.zeros(2), B=np.eye(2)),
                    [0.0, 0.0], "drift"),
        "unverified": (BallModel(alpha=np.eye(6), H=H, b=np.zeros(6),
                                 B=-0.5 * trace_form(H, 6) - np.eye(6)), [0.0] * 6, "sos_status"),
    }
    for name, (mdl, x0, key) in cases.items():
        with pytest.raises(ModelRefused) as exc:
            density_check(mdl, x0)
        assert isinstance(exc.value, ValueError) and str(exc.value) == exc.value.report["error"]
        assert set(exc.value.report) == {"error", key}, name
        path = model_files["tmp"] / f"refused_{name}.json"
        path.write_text(json.dumps(model_to_json(mdl)))
        for argv in (["density"], ["simulate", "--scheme", "ball", "--T", "0.02", "--h", "0.01",
                                   "--seed", "0"]):
            j = run_json(argv + ["--model", str(path), "--x0", json.dumps(x0)])
            assert j == _jsonable(exc.value.report), (name, argv)


def test_every_readme_command_parses():
    # README's command-line block lists no flag or command that the parser refuses
    import os
    import shlex

    from quadricdiff.cli import _build_parser

    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("quadricdiff ")]
    assert {argv[1] for argv in commands} == {"dims", "sos-check", "counterexample", "validate",
                                              "moments", "simulate", "twin", "density"}
    for argv in commands:
        assert _build_parser().parse_args(argv[1:]).func, argv


def test_exit_codes():
    r = subprocess.run([sys.executable, "-m", "quadricdiff.cli", "dims", "--d", "4"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    r = subprocess.run([sys.executable, "-m", "quadricdiff.cli", "bogus"],
                       capture_output=True, text=True)
    assert r.returncode == 2  # usage error
    r = subprocess.run([sys.executable, "-m", "quadricdiff.cli", "validate",
                        "--model", "/no/such/file.json"], capture_output=True, text=True)
    assert r.returncode == 1  # IO error


def test_validate_tol_reaches_the_boundary_step(tmp_path):
    # the boundary margin is 1e-5: MayAttainBoundary at 1e-7, InteriorInvariant at 1e-3
    from quadricdiff.model import validate

    mdl = BallModel(alpha=[[1.0]], H=np.zeros((0, 0)), b=[0.0], B=[[-1.0 + 1e-5]])
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(model_to_json(mdl)))
    statuses = []
    for tol in (1e-7, 1e-3):
        j = run_json(["validate", "--model", str(path), "--tol", str(tol)])
        report = validate(mdl, tol=tol).boundary
        assert j["boundary"] == {"status": report.status, "margin": report.margin,
                                 "argmax": report.argmax.tolist()}
        statuses.append(j["boundary"]["status"])
    assert statuses == ["MayAttainBoundary", "InteriorInvariant"]


def test_the_one_parser_serves_every_call_alike():
    # main builds its parser once per process; a usage error in between
    # leaves no trace in it, and defaults do not carry over from one call.
    from quadricdiff import cli

    assert cli._build_parser() is cli._build_parser()
    good = ["simulate", "--scheme", "scalar", "--kappa", "2", "--nu", "1", "--x0", "[0.1,0.2]",
            "--T", "0.01", "--h", "1e-3", "--paths", "3", "--seed", "4"]
    first = run(good)
    assert first[0] == 0 and json.loads(first[1])["n_paths"] == 3
    for bad in (["simulate", "--scheme", "ball", "--paths", "5", "--T", "soon"],
                ["simulate", "--scheme", "bogus"], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            run(bad)
        assert exc.value.code == 2
    assert run(good) == first
    # --paths takes its default again
    assert run_json(good[:-4] + good[-2:])["n_paths"] == 1
    assert run(good) == first
