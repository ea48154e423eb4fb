"""Command-line interface: generate, solve, verify."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathevac import cli
from pathevac.cli import main


def run_cli(*args: str):
    """Run the CLI in-process, capturing exit code; stdout via capsys at call site."""
    return main(list(args))


def run_cli_subprocess(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "pathevac.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def inst_path(tmp_path):
    path = str(tmp_path / "inst.json")
    rc = run_cli(
        "gen", "--n", "10", "--coord-max", "100", "--w-max", "20",
        "--seed", "7", "-o", path,
    )
    assert rc == 0
    return path


def test_gen_is_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    args = ["gen", "--n", "8", "--coord-max", "50", "--w-max", "9", "--seed", "3"]
    assert run_cli(*args, "-o", a) == 0
    assert run_cli(*args, "-o", b) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    different = str(tmp_path / "c.json")
    assert run_cli("gen", "--n", "8", "--coord-max", "50", "--w-max", "9",
                   "--seed", "4", "-o", different) == 0
    assert open(a, "rb").read() != open(different, "rb").read()


def test_gen_rejects_bad_args(tmp_path):
    out = str(tmp_path / "x.json")
    assert run_cli("gen", "--n", "10", "--coord-max", "5", "-o", out) == 2
    assert run_cli("gen", "--n", "-1", "-o", out) == 2
    assert run_cli("gen", "--n", "2", "--w-max", "0", "-o", out) == 2


def test_solve_opt_then_verify(tmp_path, inst_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    rc = run_cli("solve-opt", inst_path, "--k", "3", "--all-plus",
                 "--cost-model", "discrete", "-o", plan_path)
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("objective ")
    rc = run_cli("verify", inst_path, plan_path, "--all-plus",
                 "--cost-model", "discrete")
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS")


def test_verify_catches_tampered_plan(tmp_path, inst_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    assert run_cli("solve-opt", inst_path, "--k", "2", "--all-minus",
                   "-o", plan_path) == 0
    capsys.readouterr()
    obj = json.load(open(plan_path))
    obj["objective"] += 1
    json.dump(obj, open(plan_path, "w"))
    rc = run_cli("verify", inst_path, plan_path, "--all-minus")
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL")


def test_verify_rejects_unknown_objective_kind(tmp_path, inst_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    assert run_cli("solve-mmr", inst_path, "--k", "2", "-o", plan_path) == 0
    obj = json.load(open(plan_path))
    obj["objective_kind"] = "speed"
    json.dump(obj, open(plan_path, "w"))
    capsys.readouterr()
    assert run_cli("verify", inst_path, plan_path) == 2
    assert "unknown objective_kind" in capsys.readouterr().err


def test_solve_opt_scenario_file(tmp_path, inst_path, capsys):
    inst = json.load(open(inst_path))
    w = [v["w_min"] for v in inst["vertices"]]
    sc_path = str(tmp_path / "s.json")
    json.dump({"w": w}, open(sc_path, "w"))
    rc = run_cli("solve-opt", inst_path, "--k", "2", "--scenario", sc_path)
    assert rc == 0
    assert capsys.readouterr().out.startswith("objective ")
    # a weight below 1 is rejected as the file is read
    json.dump({"w": [0] * len(w)}, open(sc_path, "w"))
    capsys.readouterr()
    assert run_cli("solve-opt", inst_path, "--k", "2", "--scenario", sc_path) == 2
    assert "cannot read scenario" in capsys.readouterr().err
    # out-of-bounds scenario is rejected
    json.dump({"w": [v["w_max"] + 1 for v in inst["vertices"]]}, open(sc_path, "w"))
    assert run_cli("solve-opt", inst_path, "--k", "2", "--scenario", sc_path) == 2
    assert "violate the instance's intervals" in capsys.readouterr().err
    # wrong length
    json.dump({"w": w + [1]}, open(sc_path, "w"))
    assert run_cli("solve-opt", inst_path, "--k", "2", "--scenario", sc_path) == 2


def test_solve_mmr_both_algos_agree(tmp_path, inst_path, capsys):
    p1 = str(tmp_path / "dp.json")
    p2 = str(tmp_path / "bs.json")
    assert run_cli("solve-mmr", inst_path, "--k", "2", "--algo", "dp", "-o", p1) == 0
    assert run_cli("solve-mmr", inst_path, "--k", "2", "--algo", "bs", "-o", p2) == 0
    capsys.readouterr()
    a = json.load(open(p1))
    b = json.load(open(p2))
    assert a["objective"] == b["objective"]
    assert a["objective_kind"] == "max_regret"
    rc = run_cli("verify", inst_path, p1)
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_small_verify_checks_optimality(tmp_path, capsys):
    inst_path = str(tmp_path / "small.json")
    assert run_cli("gen", "--n", "5", "--coord-max", "30", "--w-max", "6",
                   "--seed", "2", "-o", inst_path) == 0
    plan_path = str(tmp_path / "plan.json")
    assert run_cli("solve-mmr", inst_path, "--k", "2", "-o", plan_path) == 0
    capsys.readouterr()
    rc = run_cli("verify", inst_path, plan_path)
    out = capsys.readouterr().out
    assert rc == 0
    assert "optimal" in out


def test_verify_max_regret_above_candidate_threshold(tmp_path, capsys):
    """At n = 800 a plan's 1,604 candidates reach the lane count from which
    ``max_regret_of_plan`` solves only the candidates that can attain the
    maximum; the verdict, value and witness are pinned."""
    inst_path = str(tmp_path / "big.json")
    plan_path = str(tmp_path / "plan.json")
    assert run_cli("gen", "--n", "800", "--seed", "1", "-o", inst_path) == 0
    assert run_cli("solve-mmr", inst_path, "--k", "2", "-o", plan_path) == 0
    capsys.readouterr()
    assert run_cli("verify", inst_path, plan_path) == 0
    assert capsys.readouterr().out == (
        "PASS: max regret 3757 matches (witness scenario (0, 205); "
        "instance too large for brute-force check)\n"
    )
    obj = json.load(open(plan_path))
    obj["objective"] += 1
    json.dump(obj, open(plan_path, "w"))
    assert run_cli("verify", inst_path, plan_path) == 1
    assert capsys.readouterr().out == "FAIL: plan has max regret 3757, file claims 3758\n"


def test_verify_max_regret_at_ten_thousand(tmp_path, capsys):
    """``verify`` of a k = 5 ``max_regret`` plan at n = 10^4 passes on the
    audit's value and fails on that value plus 1, with no (n+2)^2 array:
    its traced peak stays far below the dense int64 matrix's 763 MiB."""
    import random
    import tracemalloc

    from pathevac.model import Plan, load_instance, save_plan
    from pathevac.regret import max_regret_of_plan

    n = 10_000
    inst_path = str(tmp_path / "big.json")
    assert run_cli("gen", "--n", str(n), "--coord-max", str(10 * n),
                   "--seed", "3", "-o", inst_path) == 0
    rng = random.Random(26)
    ends = sorted(rng.sample(range(n), 4)) + [n]
    sinks, lo = [], 0
    for e in ends:
        sinks.append(rng.randint(lo, e))
        lo = e + 1
    plan = Plan(tuple(ends), tuple(sinks))
    value, witness = max_regret_of_plan(load_instance(inst_path), plan)
    for objective, rc in ((value, 0), (value + 1, 1)):
        plan_path = str(tmp_path / f"plan{rc}.json")
        save_plan(plan, objective, "max_regret", plan_path)
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run_cli("verify", inst_path, plan_path) == rc
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak / 2**20
        out = capsys.readouterr().out
        if rc == 0:
            assert out == (
                f"PASS: max regret {value} matches (witness scenario "
                f"({witness.t1}, {witness.t2}); instance too large for brute-force check)\n")
        else:
            assert out == f"FAIL: plan has max regret {value}, file claims {value + 1}\n"


def test_invalid_instance_reports_violations(tmp_path):
    bad_path = str(tmp_path / "bad.json")
    obj = {
        "vertices": [
            {"x": 0, "w_min": 1, "w_max": 2},
            {"x": 0, "w_min": 2, "w_max": 1},
        ],
        "capacity": 0,
        "tau": 1,
    }
    json.dump(obj, open(bad_path, "w"))
    res = run_cli_subprocess("solve-opt", bad_path, "--k", "1")
    assert res.returncode == 2
    assert "coords not strictly increasing at index 1" in res.stderr
    assert "weight interval empty at index 1" in res.stderr
    assert "capacity not positive" in res.stderr


def test_int64_overflow_instance_exits_2(tmp_path, capsys):
    path = str(tmp_path / "far.json")
    obj = {
        "vertices": [
            {"x": (1 << 62) - 3, "w_min": 1, "w_max": 5},
            {"x": (1 << 62) - 1, "w_min": 2, "w_max": 4},
        ],
        "capacity": 1,
        "tau": 4,
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
    assert run_cli("solve-mmr", path, "--k", "1") == 2
    assert "int64 headroom" in capsys.readouterr().err


def test_console_entry_point_runs():
    res = run_cli_subprocess("--help")
    assert res.returncode == 0
    assert "solve-mmr" in res.stdout


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """``main`` builds its parser once per process.  A sequence of calls, run
    twice on that one parser, prints and returns per call exactly what it
    does on a fresh parser: no flag or default leaks into a later call."""
    inst = str(tmp_path / "inst.json")
    opt, simple, mmr = (str(tmp_path / f"{name}.json") for name in ("opt", "simple", "mmr"))
    calls = [
        ["gen", "--n", "9", "--coord-max", "60", "--w-max", "12", "--seed", "8", "-o", inst],
        ["solve-opt", inst, "--k", "2", "--all-plus", "-o", opt],
        ["solve-opt", inst, "--k", "3", "--cost-model", "simplified", "-o", simple],
        ["verify", inst, opt, "--all-plus"],
        ["verify", inst, simple, "--cost-model", "simplified"],
        ["verify", inst, opt],
        ["solve-mmr", inst, "--k", "2", "-o", mmr],
        ["verify", inst, mmr],
        ["solve-opt", inst, "--all-plus"],
        ["solve-opt", inst, "--k", "2"],
    ]

    def run(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for args in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(args))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 1, 0, 0, 2, 0]
    for _ in range(2):
        assert [run(args) for args in calls] == fresh


# Runs the CLI in a process in which importing numpy fails.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import pathevac, pathevac.cli
sys.exit(pathevac.cli.main(sys.argv[1:]))
"""


def test_import_does_not_load_numpy():
    # A module once loaded stays in sys.modules, so this covers ``import pathevac`` too.
    code = ("import sys, pathevac, pathevac.cli; "
            "print([m for m in ('numpy', 'pathevac._batch') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_gen_solve_opt_verify_run_without_numpy(tmp_path):
    inst = str(tmp_path / "inst.json")
    plan = str(tmp_path / "plan.json")
    runs = [
        ["gen", "--n", "6", "--coord-max", "40", "--w-max", "9", "--seed", "5", "-o", inst],
        ["solve-opt", inst, "--k", "2", "--all-plus", "-o", plan],
        ["verify", inst, plan, "--all-plus"],
    ]
    results = [subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *args],
                              capture_output=True, text=True) for args in runs]
    assert [r.returncode for r in results] == [0, 0, 0], [r.stderr for r in results]
    assert results[2].stdout.startswith("PASS")


BAD_INTS = [1.7, "5", True, float("inf"), float("nan")]


def _with_bad_int(path, edit, value):
    obj = json.load(open(path))
    edit(obj, value)
    json.dump(obj, open(path, "w"))  # inf/nan are written as Infinity/NaN


@pytest.mark.parametrize("value", BAD_INTS, ids=repr)
@pytest.mark.parametrize("field", ["x", "w_min", "capacity"])
def test_instance_rejects_non_integer(inst_path, capsys, field, value):
    def edit(obj, v):
        if field == "capacity":
            obj["capacity"] = v
        else:
            obj["vertices"][1][field] = v

    _with_bad_int(inst_path, edit, value)
    assert run_cli("solve-mmr", inst_path, "--k", "2") == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", BAD_INTS, ids=repr)
def test_scenario_rejects_non_integer(tmp_path, inst_path, capsys, value):
    inst = json.load(open(inst_path))
    sc_path = str(tmp_path / "s.json")
    json.dump({"w": [v["w_min"] for v in inst["vertices"]]}, open(sc_path, "w"))
    _with_bad_int(sc_path, lambda obj, v: obj["w"].__setitem__(0, v), value)
    assert run_cli("solve-opt", inst_path, "--k", "2", "--scenario", sc_path) == 2
    assert "w must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", BAD_INTS, ids=repr)
@pytest.mark.parametrize("field", ["r", "objective"])
def test_plan_rejects_non_integer(tmp_path, inst_path, capsys, field, value):
    plan_path = str(tmp_path / "plan.json")
    assert run_cli("solve-opt", inst_path, "--k", "2", "-o", plan_path) == 0

    def edit(obj, v):
        if field == "objective":
            obj["objective"] = v
        else:
            obj["parts"][-1]["r"] = v

    _with_bad_int(plan_path, edit, value)
    capsys.readouterr()
    assert run_cli("verify", inst_path, plan_path) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("kind", ["instance", "plan", "scenario"])
def test_deeply_nested_file_exits_2(tmp_path, inst_path, capsys, kind):
    deep_path = str(tmp_path / "deep.json")
    with open(deep_path, "w") as fh:
        fh.write(DEEP)
    argv = {
        "instance": ["solve-opt", deep_path, "--k", "1"],
        "plan": ["verify", inst_path, deep_path],
        "scenario": ["solve-opt", inst_path, "--k", "1", "--scenario", deep_path],
    }[kind]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert f"cannot read {kind} {deep_path}" in capsys.readouterr().err


# -- fuzzing of malformed files ------------------------------------------------


@dataclass(frozen=True)
class _Raw:
    """JSON text spliced into a file as is (for values json.dumps cannot write)."""

    text: str


_RAW_MARK = "\u0000raw\u0000"

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 12), max_size=4),
    st.dictionaries(st.sampled_from(["x", "w", "r", "l"]), st.integers(-3, 12), max_size=2),
    st.sampled_from([1 << 63, -(1 << 63) - 1, 10 ** 40, -(10 ** 40)]),
    st.sampled_from([_Raw("9" * 5000), _Raw("[" * 3000 + "]" * 3000),
                     _Raw('{"a":' * 3000 + "0" + "}" * 3000), _Raw("[[[[1]]]]")]),
)

# For each file kind, the fields a value may replace: () is the whole file,
# "*" one element of the list at that point.
_FIELDS = {
    "instance": [(), ("vertices",), ("vertices", "*"), ("vertices", "*", "x"),
                 ("vertices", "*", "w_min"), ("vertices", "*", "w_max"),
                 ("capacity",), ("tau",)],
    "plan": [(), ("parts",), ("parts", "*"), ("parts", "*", "l"), ("parts", "*", "r"),
             ("parts", "*", "sink"), ("objective",), ("objective_kind",)],
    "scenario": [(), ("w",), ("w", "*")],
}


def _put(obj, path, value, index):
    if not path:
        return value
    key = index % len(obj) if path[0] == "*" else path[0]
    obj[key] = _put(obj[key], path[1:], value, index)
    return obj


def _dump_with_raw(obj) -> str:
    raw = []

    def default(v):
        raw.append(v.text)
        return _RAW_MARK

    text = json.dumps(obj, default=default)
    for piece in raw:
        text = text.replace(json.dumps(_RAW_MARK), piece, 1)
    return text


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A valid small instance with a minmax-regret plan, an evacuation-time
    plan and a scenario, as JSON objects."""
    d = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(d / f"{name}.json") for name in ("instance", "mmr", "opt")}
    assert main(["gen", "--n", "5", "--coord-max", "30", "--w-max", "6",
                 "--seed", "4", "-o", paths["instance"]]) == 0
    assert main(["solve-mmr", paths["instance"], "--k", "2", "-o", paths["mmr"]]) == 0
    assert main(["solve-opt", paths["instance"], "--k", "2", "-o", paths["opt"]]) == 0
    objs = {name: json.load(open(path)) for name, path in paths.items()}
    objs["scenario"] = {"w": [v["w_min"] for v in objs["instance"]["vertices"]]}
    return objs


# Per file kind, the commands that read it (f maps a file name to its path).
_READERS = {
    "instance": lambda f: [["solve-opt", f["instance"], "--k", "2"],
                           ["solve-mmr", f["instance"], "--k", "2"],
                           ["verify", f["instance"], f["mmr"]]],
    "mmr": lambda f: [["verify", f["instance"], f["mmr"]]],
    "opt": lambda f: [["verify", f["instance"], f["opt"]]],
    "scenario": lambda f: [["solve-opt", f["instance"], "--k", "2", "--scenario", f["scenario"]],
                           ["verify", f["instance"], f["opt"], "--scenario", f["scenario"]]],
}


@settings(max_examples=150, deadline=None)
@given(
    target=st.sampled_from(sorted(_READERS)),
    data=st.data(),
    value=_JUNK,
    index=st.integers(0, 10),
)
def test_malformed_file_fields_exit_cleanly(fuzz_base, target, data, value, index):
    """One junk value in one field of one input file: the CLI exits 0, 1 or 2."""
    kind = "plan" if target in ("mmr", "opt") else target
    path = data.draw(st.sampled_from(_FIELDS[kind]))
    with tempfile.TemporaryDirectory() as d:
        f = {name: os.path.join(d, f"{name}.json") for name in fuzz_base}
        for name, obj in fuzz_base.items():
            obj = copy.deepcopy(obj)
            if name == target:
                obj = _put(obj, path, value, index)
            with open(f[name], "w") as fh:
                fh.write(_dump_with_raw(obj))
        argv = data.draw(st.sampled_from(_READERS[target](f)))
        assert main(argv) in (0, 1, 2)
