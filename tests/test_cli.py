import dataclasses
import json
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbcontrol
from fbcontrol import cli, model
from fbcontrol.cli import build_parser, run, write_csv


def _names(outdir):
    return sorted(p.name for p in outdir.iterdir())


def test_unknown_subcommand_and_flag_exit_2(capsys):
    assert run(["definitely-not-a-command"]) == 2
    assert run(["planner", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_config_rejected_where_not_read(tmp_path, capsys):
    # a subcommand declares only the flags it reads, so any other one is refused
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"params": {"gamma": 5.0}}))
    unread = [(cmd, "--config", str(cfg))
              for cmd in ("stackelberg", "meanvar", "planner", "selftest")]
    unread += [(cmd, "--seed", "3") for cmd in ("lq-riccati", "meanfield-lq", "planner",
                                                 "stackelberg", "pde-solve")]
    unread += [(cmd, "--steps", "100") for cmd in ("stackelberg", "pde-solve", "mc-verify",
                                                    "inconsistency", "fk-check", "selftest")]
    for cmd in ("meanvar", "fk-check"):
        unread += [(cmd, "--grid-ny", "9"), (cmd, "--grid-x-lo", "-1"),
                   (cmd, "--grid-x-hi", "1")]
    unread.append(("fk-check", "--tol", "1e-6"))
    unread.append(("pde-solve", "--grid-ny", "9"))   # pde-solve grids have no y-axis
    assert len(unread) == 23
    for cmd, flag, value in unread:
        out = tmp_path / f"{cmd}{flag}"
        assert run([cmd, flag, value, "--out", str(out)]) == 2, (cmd, flag)
        assert not out.exists(), (cmd, flag)
    capsys.readouterr()


def test_lq_riccati_writes_artifacts(tmp_path):
    out = tmp_path / "lq"
    assert run(["lq-riccati", "--out", str(out), "--steps", "200"]) == 0
    assert "lq_riccati.csv" in _names(out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "lq-riccati"
    assert "lq_riccati.csv" in manifest["outputs"]
    digest = hashlib.sha256((out / "lq_riccati.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["lq_riccati.csv"] == digest


def test_lq_riccati_reruns_reproduce_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["lq-riccati", "--out", str(out1), "--steps", "200"]) == 0
    assert run(["lq-riccati", "--out", str(out2), "--steps", "200"]) == 0
    assert (out1 / "lq_riccati.csv").read_bytes() == (out2 / "lq_riccati.csv").read_bytes()


def test_meanfield_and_planner(tmp_path):
    assert run(["meanfield-lq", "--out", str(tmp_path / "mf"), "--steps", "200"]) == 0
    assert run(["planner", "--out", str(tmp_path / "pl"), "--steps", "200"]) == 0
    header = (tmp_path / "pl" / "planner.csv").read_text().splitlines()[0]
    assert header == "t,theta1,theta2,consumption_coeff"


def test_planner_bad_parameters_exit_2(tmp_path, capsys):
    assert run(["planner", "--out", str(tmp_path / "p"), "--gamma", "1.0"]) == 2
    capsys.readouterr()


def test_stackelberg_summary_mentions_equilibrium(tmp_path, capsys):
    out = tmp_path / "stk"
    assert run(["stackelberg", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "-0.5" in captured
    assert "stackelberg_gap.csv" in _names(out)


def test_inconsistency_csv(tmp_path):
    out = tmp_path / "inc"
    assert run(["inconsistency", "--example", "ex31", "--out", str(out)]) == 0
    lines = (out / "gap.csv").read_text().splitlines()
    assert lines[0] == "tau,gap"
    assert len(lines) == 10


def test_inconsistency_reads_config_params(tmp_path, capsys):
    # the file's taus pick the tabulated times, its family parameters reach the gap
    def gap_rows(example, params, *flags):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"params": params}))
        out = tmp_path / f"{example}_{len(params)}"
        argv = ["inconsistency", "--example", example, "--out", str(out)] + list(flags)
        assert run(argv + ["--config", str(cfg)] if params else argv) == 0
        lines = (out / "gap.csv").read_text().splitlines()
        assert lines[0] == "tau,gap"
        return [[float(v) for v in line.split(",")] for line in lines[1:]]

    assert len(gap_rows("ex31", {})) == 9
    assert gap_rows("ex31", {"taus": [0.2, 0.6]}) == [[0.2, 0.1], [0.6, 0.3]]
    sampled = ("--paths", "2000")
    base = gap_rows("meanvar_precommit", {"taus": [0.5]}, *sampled)
    steeper = gap_rows("meanvar_precommit", {"taus": [0.5], "gamma": 5.0}, *sampled)
    assert base[0][0] == steeper[0][0] == 0.5 and base[0][1] != steeper[0][1]
    cfg = tmp_path / "unknown.json"
    cfg.write_text(json.dumps({"params": {"no_such_parameter": 1.0}}))
    assert run(["inconsistency", "--example", "ex31", "--config", str(cfg),
                "--out", str(tmp_path / "unknown")]) == 2
    capsys.readouterr()


# Runs subcommands in one fresh interpreter and prints, after the import and
# after each run, its exit code and the scipy modules loaded so far.
_COLD_START = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import fbcontrol
seen = {"import fbcontrol": [0, scipy_modules()]}
from fbcontrol.cli import run
seen["import fbcontrol.cli"] = [0, scipy_modules()]
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [run(argv), scipy_modules()]
print(json.dumps(seen))
"""


def test_cold_start_loads_scipy_only_for_the_banded_solve(tmp_path):
    # a subprocess, since this pytest process has imported scipy already;
    # fk-check samples closed-form fields and never solves a band system
    ex31 = tmp_path / "ex31.json"
    ex31.write_text(json.dumps({"family": "ex31"}))
    mc = ["--times", "0.3", "--eps", "0.05"]
    runs = [("lq-riccati", ["lq-riccati", "--steps", "200"]),
            ("meanfield-lq", ["meanfield-lq", "--steps", "200"]),
            ("planner", ["planner", "--steps", "200"]),
            ("stackelberg", ["stackelberg"]),
            ("mc-verify mean_variance", ["mc-verify", "--paths", "500"] + mc),
            ("mc-verify ex31", ["mc-verify", "--config", str(ex31)] + mc),
            ("inconsistency", ["inconsistency"]),
            ("fk-check", ["fk-check", "--paths", "500", "--grid-nt", "65"]),
            ("pde-solve", ["pde-solve", "--grid-nx", "17", "--grid-nt", "33"])]
    runs = [(name, argv + ["--out", str(tmp_path / f"out{k}")])
            for k, (name, argv) in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=str(Path(fbcontrol.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen) == ["import fbcontrol", "import fbcontrol.cli"] + [n for n, _ in runs]
    pde_rc, pde_loaded = seen.pop("pde-solve")
    assert pde_rc == 0 and "scipy.linalg" in pde_loaded
    for name, (rc, loaded) in seen.items():
        assert rc in ((0, 3) if name == "mc-verify mean_variance" else (0,)), name
        assert loaded == [], name


def test_pde_solve_with_config(tmp_path):
    cfg = tmp_path / "prob.json"
    cfg.write_text(json.dumps({"family": "recursive_lq", "T": 1.0}))
    out = tmp_path / "pde"
    assert run(["pde-solve", "--config", str(cfg), "--out", str(out),
                "--grid-nx", "33", "--grid-nt", "65",
                "--grid-x-lo", "-2", "--grid-x-hi", "2"]) == 0
    names = _names(out)
    for expected in ("theta.csv", "theta0.csv", "strategy.csv", "iterations.csv"):
        assert expected in names
    header = (out / "iterations.csv").read_text().splitlines()[0]
    assert header == "iter,residual_D,residual_Dx,residual_Dy,residual_psi"


def test_pde_solve_domain_bounds_come_in_pairs(tmp_path, capsys):
    for flags in (["--grid-x-lo", "-0.5"], ["--grid-x-hi", "0.5"]):
        out = tmp_path / flags[0]
        assert run(["pde-solve", "--out", str(out)] + flags) == 2, flags
        assert "config error: --grid-x-lo and --grid-x-hi" in capsys.readouterr().err
        assert not out.exists()


def test_refused_runs_leave_no_output_directory(tmp_path, capsys):
    # inputs are checked and solves done before the output directory is made
    gbm, stackelberg = tmp_path / "gbm.json", tmp_path / "stackelberg.json"
    gbm.write_text(json.dumps({"family": "gbm"}))
    # no terminal split: its cost field needs a y grid
    stackelberg.write_text(json.dumps({"family": "stackelberg"}))
    refused = [["meanvar", "--grid-nx", "5"], ["lq-riccati", "--steps", "0"],
               ["meanfield-lq", "--steps", "0"], ["planner", "--steps", "0"],
               ["pde-solve", "--config", str(stackelberg)],
               # general cost class: refused before the closed loop is simulated
               ["mc-verify", "--config", str(gbm), "--strategy-const", "0"],
               ["mc-verify", "--config", str(tmp_path / "missing.json")]]
    for k, argv in enumerate(refused):
        out = tmp_path / f"out{k}"
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert "config error" in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    # a document or a params entry that is not a JSON object is a config error
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    bad_params = tmp_path / "params.json"
    bad_params.write_text(json.dumps({"params": [1]}))
    refused = [(cmd, not_object) for cmd in ("pde-solve", "mc-verify", "fk-check",
                                             "lq-riccati", "meanfield-lq", "inconsistency")]
    refused += [(cmd, bad_params) for cmd in ("pde-solve", "mc-verify", "fk-check",
                                              "inconsistency")]
    for k, (cmd, cfg) in enumerate(refused):
        out = tmp_path / f"out{k}"
        assert run([cmd, "--config", str(cfg), "--out", str(out)]) == 2, (cmd, cfg.name)
        assert "config error" in capsys.readouterr().err, (cmd, cfg.name)
        assert not out.exists(), (cmd, cfg.name)


# every subcommand at sizes that run in about a second or less
SMALL_RUNS = {
    "lq-riccati": ["--steps", "200"],
    "meanfield-lq": ["--steps", "200"],
    "meanvar": ["--steps", "200", "--grid-nx", "17", "--grid-nt", "33", "--paths", "200",
                "--times", "0.3", "--eps", "0.05"],
    "planner": ["--steps", "200"],
    "stackelberg": [],
    "pde-solve": ["--grid-nx", "17", "--grid-nt", "33"],
    "mc-verify": ["--paths", "200", "--times", "0.3", "--eps", "0.05"],
    "inconsistency": ["--example", "ex31"],
    "fk-check": ["--paths", "200", "--grid-nx", "17", "--grid-nt", "33"],
    "selftest": [],
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_manifest_lists_exactly_the_run_directory(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run([command] + SMALL_RUNS[command] + ["--out", str(out)]) in (0, 3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["outputs"]) == set(_names(out)) - {"manifest.json"}
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert capsys.readouterr().out.endswith((out / "summary.txt").read_text())


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_subcommand_functions_write_no_file(tmp_path, monkeypatch, capsys, command):
    # only the publish step in run() writes, so a subcommand called alone
    # leaves the working directory and --out untouched
    monkeypatch.chdir(tmp_path)
    args = build_parser().parse_args([command] + SMALL_RUNS[command] + ["--out", "out"])
    tables, lines, *rc = args.func(args)
    assert list(tmp_path.iterdir()) == []
    assert tables and lines and rc in ([], [0], [3])
    capsys.readouterr()


def test_fixed_point_tolerance_must_be_finite_and_positive(tmp_path, capsys):
    # no residual is below a tol <= 0 or NaN, so such a run would only spend
    # every Picard iteration and report converged=False
    for tol in ("-1", "0", "nan"):
        for cmd in ("pde-solve", "meanvar"):
            out = tmp_path / f"{cmd}_{tol}"
            assert run([cmd, "--tol", tol, "--out", str(out)]) == 2, (cmd, tol)
            assert "config error: fixed-point tolerance" in capsys.readouterr().err
            assert not out.exists(), (cmd, tol)


@pytest.mark.parametrize("argv, doc", [
    (["inconsistency", "--example", "ex31"], {"params": {"taus": "abc"}}),
    (["pde-solve"], {"family": "mean_variance", "T": "abc"}),
    (["mc-verify"], {"family": "mean_variance", "U": 5}),
    (["pde-solve"], {"family": "mean_variance", "params": {"gamma": "abc"}}),
    (["pde-solve"], {"family": "recursive_lq", "params": {"x0": [1]}})])
def test_malformed_config_values_are_config_errors(argv, doc, tmp_path, capsys):
    cfg, out = tmp_path / "bad.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, doc, name", [
    (["inconsistency", "--example", "ex31"], {"params": {"taus": "abc"}}, "taus"),
    (["pde-solve"], {"family": "mean_variance", "T": "abc"}, "T"),
    (["mc-verify"], {"family": "mean_variance", "U": 5}, "U"),
    (["pde-solve"], {"family": "mean_variance", "params": {"gamma": "abc"}}, "gamma"),
    (["pde-solve"], {"family": "recursive_lq", "params": {"x0": [1]}}, "x0"),
    # non-finite numbers (JSON NaN, Infinity) and an unknown terminal name
    (["pde-solve"], {"family": "mean_variance", "params": {"gamma": math.nan}}, "'gamma'"),
    (["mc-verify"], {"params": {"sigma": math.inf}}, "'sigma'"),
    (["pde-solve"], {"family": "linear_heat", "params": {"terminal": "abc"}},
     "terminal must be one of ['gaussians', 'x', 'x2']"),
    # a non-finite horizon and a non-finite tau
    (["mc-verify"], {"family": "ex31", "T": math.inf}, "T must be a finite number, got T=inf"),
    (["mc-verify"], {"family": "ex31", "T": math.nan}, "T must be a finite number, got T=nan"),
    (["inconsistency", "--example", "ex31"], {"params": {"taus": [math.nan, 0.5]}},
     "taus must be a list of finite numbers")])
def test_config_errors_name_the_bad_value(argv, doc, name, tmp_path, capsys):
    cfg, out = tmp_path / "bad.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert not out.exists()


def test_pde_solve_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": "no_such_family"}))
    assert run(["pde-solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_mc_verify_verdict_exit_codes(tmp_path):
    cfg = tmp_path / "mv.json"
    cfg.write_text(json.dumps({
        "family": "mean_variance",
        "params": {"r": 0.0, "mu": 0.1, "sigma": 0.2, "gamma": 1.0, "x0": 1.0}}))
    ok = run(["mc-verify", "--config", str(cfg), "--out", str(tmp_path / "pass"),
              "--paths", "3000", "--times", "0.2,0.6"])
    assert ok == 0
    fail = run(["mc-verify", "--config", str(cfg), "--out", str(tmp_path / "fail"),
                "--paths", "3000", "--times", "0.2,0.6", "--strategy-const", "0.0"])
    assert fail == 3
    header = (tmp_path / "pass" / "verify.csv").read_text().splitlines()[0]
    assert header == "t,eps,u,quotient,stderr"


def test_mc_verify_out_of_range_seed_is_config_error(tmp_path, capsys):
    for seed in ("-1", str(2 ** 64)):
        rc = run(["mc-verify", "--out", str(tmp_path / "seed"), "--paths", "10",
                  "--seed", seed])
        assert rc == 2
        assert "config error: seed" in capsys.readouterr().err
    assert run(["selftest", "--out", str(tmp_path / "self"), "--seed", "-1"]) == 2
    assert "config error: seed" in capsys.readouterr().err


def test_malformed_number_lists_are_config_errors(tmp_path, capsys):
    # checked before any solve, so meanvar fails fast as well
    refused = [["mc-verify", "--eps", "abc"], ["mc-verify", "--times", "0.3,"],
               ["meanvar", "--times", "0.1,abc"], ["meanvar", "--eps", "1e"]]
    for k, argv in enumerate(refused):
        out = tmp_path / f"out{k}"
        assert run(argv + ["--paths", "10", "--out", str(out)]) == 2, argv
        assert "config error: malformed number list" in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_non_finite_mc_verify_inputs_are_config_errors(tmp_path, capsys):
    # NaN fails every check of a window, a probe time and the tolerance; with
    # T = 1e-300 a NaN window used to reach the Euler step as a negative dt
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"family": "mean_variance", "T": 1e-300}))
    ex31 = tmp_path / "ex31.json"
    ex31.write_text(json.dumps({"family": "ex31"}))
    refused = [["--eps", "nan"], ["--eps", "0.1,nan"], ["--config", str(tiny), "--eps", "nan"],
               ["--times", "nan"], ["--times", "0.2,inf"], ["--tol-eq", "nan"],
               ["--tol-eq", "inf"], ["--config", str(ex31), "--times", "nan"],
               ["--config", str(ex31), "--tol-eq", "nan"]]
    for k, argv in enumerate(refused):
        out = tmp_path / f"out{k}"
        assert run(["mc-verify", "--paths", "10", "--out", str(out)] + argv) == 2, argv
        assert "config error: " in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_non_finite_deterministic_flow_is_a_solver_error(tmp_path, capsys):
    # under a NaN control the leader's state x' = u goes non-finite at once;
    # ex31's state x' = 0 x stays finite, and the NaN control itself is caught
    for family, message in (("stackelberg", "blow-up detected"),
                            ("ex31", "non-finite evaluation of coefficient 'control'")):
        cfg = tmp_path / f"{family}.json"
        cfg.write_text(json.dumps({"family": family}))
        out = tmp_path / f"nan_{family}"
        assert run(["mc-verify", "--config", str(cfg), "--strategy-const", "nan",
                    "--out", str(out)]) == 1, family
        assert f"solver error: {message}" in capsys.readouterr().err, family
        assert not out.exists(), family


def test_fk_check_reads_its_problem_from_config(tmp_path, capsys):
    def fk_csv(name, doc=None):
        argv = ["fk-check", "--paths", "2000", "--grid-nt", "65", "--out", str(tmp_path / name)]
        if doc is not None:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
        assert run(argv) == 0, name
        return (tmp_path / name / "fk.csv").read_bytes()

    default = {"family": "mean_variance",
               "params": {"r": 0.0, "mu": 0.1, "sigma": 0.2, "gamma": 1.0, "x0": 1.0}}
    base = fk_csv("default")
    assert fk_csv("explicit", default) == base
    steeper = dict(default, params=dict(default["params"], gamma=2.0))
    assert fk_csv("gamma2", steeper) != base
    manifest = json.loads((tmp_path / "default" / "manifest.json").read_text())
    assert manifest["config"]["config"] is None
    capsys.readouterr()


def test_fk_check_refuses_what_it_cannot_check(tmp_path, capsys):
    cfg = tmp_path / "rlq.json"
    cfg.write_text(json.dumps({"family": "recursive_lq"}))   # no closed-form fields
    assert run(["fk-check", "--config", str(cfg), "--out", str(tmp_path / "rlq")]) == 2
    assert "config error" in capsys.readouterr().err
    # the sample points sit 5 x-nodes either side of the middle
    for nx in ("8", "9", "10"):
        out = tmp_path / f"nx{nx}"
        assert run(["fk-check", "--grid-nx", nx, "--paths", "10", "--out", str(out)]) == 2
        assert "config error: fk-check needs --grid-nx >= 11" in capsys.readouterr().err
        assert not out.exists()


def _ex31_renamed(T=1.0, x0=0.0, U=(-5.0, 5.0)):
    return dataclasses.replace(model.ex31(T=T, x0=x0, U=U), name="ex31_renamed")


def _heat_renamed(T=1.0):
    return dataclasses.replace(model.linear_heat(T=T), name="heat_renamed")


def test_registered_family_closed_forms_drive_the_cli(tmp_path, capsys):
    model.register_family("ex31_renamed", _ex31_renamed)
    model.register_family("heat_renamed", _heat_renamed)
    try:
        flags = ["--times", "0.3", "--eps", "0.05", "--tol-eq", "1e-8"]
        for family in ("ex31", "ex31_renamed"):
            cfg = tmp_path / f"{family}.json"
            cfg.write_text(json.dumps({"family": family}))
            assert run(["mc-verify", "--config", str(cfg),
                        "--out", str(tmp_path / f"mc_{family}")] + flags) == 0
        assert ((tmp_path / "mc_ex31_renamed" / "verify.csv").read_bytes()
                == (tmp_path / "mc_ex31" / "verify.csv").read_bytes())
        out = tmp_path / "inc"
        assert run(["inconsistency", "--example", "ex31_renamed", "--out", str(out)]) == 0
        table = np.loadtxt(out / "gap.csv", delimiter=",", skiprows=1)
        assert table.shape == (9, 2) and np.array_equal(table[:, 1], table[:, 0] / 2.0)
        capsys.readouterr()
        heat = tmp_path / "heat.json"
        heat.write_text(json.dumps({"family": "heat_renamed"}))
        assert run(["mc-verify", "--config", str(heat), "--out", str(tmp_path / "heat")]) == 2
        assert "config error" in capsys.readouterr().err
        assert run(["inconsistency", "--example", "heat_renamed",
                    "--out", str(tmp_path / "heat_inc")]) == 2
        assert "config error" in capsys.readouterr().err
    finally:
        model.FAMILIES.pop("ex31_renamed", None)
        model.FAMILIES.pop("heat_renamed", None)


# ---------------------------------------------------------------------------
# The CSV writer
# ---------------------------------------------------------------------------

def _reference_csv(header, rows):
    """The writer's bytes by definition: every row through one %.17g line."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    return ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)


NAN_PAYLOAD = float(np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)[0])
SPECIAL = [0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf, 5e-324,
           -2.5e-310, 1e300, -1e-300, 1.0, 0.1, -3.0]
CELLS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
# 0, 1 and 2 rows, block edges, and tables longer than one block
N_ROWS = st.one_of(st.sampled_from([0, 1, 2, 3, cli._CSV_BLOCK - 1, cli._CSV_BLOCK,
                                    cli._CSV_BLOCK + 1, 2 * cli._CSV_BLOCK + 577]),
                   st.integers(0, 300))
# 65 and 1000 do not divide the block; 1500 is longer than one
SPANS = st.one_of(st.sampled_from([1, 2, 3, 7, 65, 1000, cli._CSV_BLOCK, 1500]),
                  st.integers(1, 80))


@st.composite
def _columns(draw, n):
    """One column of n doubles: runs of one value, a period repeated, a period
    broken at the end, a constant, or values with no structure."""
    # a permutation of the special values puts 0.0 next to -0.0, or a NaN
    # next to a NaN with another payload, in runs and periods
    pool = np.array(draw(st.one_of(st.lists(CELLS, min_size=1, max_size=8),
                                   st.permutations(SPECIAL))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.concatenate([pool, rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)])
    kind = draw(st.sampled_from(["runs", "period", "broken", "constant", "free"]))
    span = draw(SPANS)
    rows = np.arange(n)
    idx = {"runs": rows // span, "period": rows % span, "broken": rows % span,
           "constant": 0 * rows, "free": rng.integers(0, pool.size, n)}[kind]
    if kind == "broken":
        tail = min(draw(st.integers(1, 3)), n)
        idx[n - tail:] = rng.integers(0, pool.size, tail)
    return pool[idx % pool.size]


@st.composite
def _tables(draw):
    n, k = draw(N_ROWS), draw(st.integers(1, 5))
    table = np.column_stack([draw(_columns(n)) for _ in range(k)]).reshape(n, k)
    if draw(st.booleans()):
        table = np.asfortranarray(table)        # strided column views
    return tuple(f"c{i}" for i in range(k)), table


@settings(max_examples=120, deadline=None)
@given(table=_tables())
def test_write_csv_bytes_match_the_row_formatter(table, tmp_path_factory):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, rows)
    assert path.read_text() == _reference_csv(header, rows)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), data=st.data())
def test_write_csv_list_rows_match_the_row_formatter(k, data, tmp_path_factory):
    # list rows hold Python floats and ints, as the report tables do
    cell = st.one_of(CELLS, st.integers(-2 ** 70, 2 ** 70))
    rows = data.draw(st.lists(st.lists(cell, min_size=k, max_size=k), max_size=40))
    header = tuple(f"c{i}" for i in range(k))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, rows)
    assert path.read_text() == _reference_csv(header, rows)


@pytest.mark.parametrize("column", [np.repeat([0.0, -0.0, 0.0, math.nan, NAN_PAYLOAD], 300),
                                    np.tile([0.0, 1.0, -0.0, 1.0], 300)],
                         ids=["runs", "period"])
def test_write_csv_keeps_signed_zeros_apart(column, tmp_path):
    # repeats are found by bit pattern, so 0.0 and -0.0 are not one value
    rows = np.column_stack([column, -column])
    write_csv(tmp_path / "z.csv", ("a", "b"), rows)
    assert (tmp_path / "z.csv").read_text() == _reference_csv(("a", "b"), rows)


def test_write_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    # a meshgrid table is written a block at a time: the traced peak of the
    # writer is the same at 2e4 and 2e5 rows
    peaks = []
    for nt in (200, 2000):
        s, x = np.meshgrid(np.linspace(0.0, 1.0, nt), np.linspace(-2.0, 2.0, 100),
                           indexing="ij")
        table = np.column_stack([s.ravel(), x.ravel(), np.sin(s * x).ravel()])
        tracemalloc.start()
        try:
            write_csv(tmp_path / f"mesh{nt}.csv", ("s", "x", "psi"), table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_artifact_lines_are_their_own_values_at_17_digits(tmp_path):
    # every line of every CSV artifact re-renders byte for byte from its values
    runs = {"pde": ["pde-solve", "--grid-nx", "17", "--grid-nt", "33"],
            "lq": ["lq-riccati", "--steps", "200"]}
    for name, argv in runs.items():
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 0
        for path in sorted(out.glob("*.csv")):
            for line in path.read_text().splitlines()[1:]:
                assert ",".join("%.17g" % float(v) for v in line.split(",")) == line, path.name
