"""Tests of the benchmark harness itself; not part of the tier-1 suite.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload is run twice traced and once untraced at its benchmark size,
so the module takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_fbcontrol()

import fbcontrol  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REPEATED_COUNTS = ("pde.banded_solves", "model.coeff_calls", "mc.stream_builds",
                   "mc.path_steps", "riccati.rhs_evals")
SELF_TIMES = ("bench.self_s", "cli.overhead_s", "pde.self_s", "mc.self_s", "riccati.self_s")


@pytest.fixture(scope="module", params=run.WORKLOADS)
def sequences(request, tmp_path_factory):
    ops = workloads.build(request.param, 7, tmp_path_factory.mktemp(request.param))
    return [worker.run_sequence(ops, traced) for traced in (True, True, False)]


def test_operations_pass_and_tracing_leaves_outputs_unchanged(sequences):
    attempted, failed, notes = run.count_failures(sequences)
    assert attempted == 3 * len(sequences[0]["ops"])
    assert failed == 0, notes


def test_counts_repeat_exactly_across_traced_runs(sequences):
    first, second = (s["layer"] for s in sequences[:2])
    counts = [n for n, (unit, *_) in tracing.PER_LAYER.items() if unit != "s"]
    assert set(REPEATED_COUNTS) <= set(counts)
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert not sequences[0]["missing"]


def test_layer_self_times_sum_to_traced_wall_time(sequences):
    for seq in sequences[:2]:
        layer = seq["layer"]
        assert sum(layer[n] for n in SELF_TIMES) == pytest.approx(
            layer["bench.traced_wall_s"], rel=1e-9)
        # the op spans enclose exactly the timed calls, plus span bookkeeping
        assert layer["bench.traced_wall_s"] == pytest.approx(seq["seconds"], rel=1e-2)


def _targets():
    probe = tracing.Tracer()
    tracing.install_fbcontrol(probe)
    saved = list(probe._saved)
    probe.restore()
    return saved


def test_wrappers_are_restored_even_when_an_operation_raises():
    saved = _targets()
    assert len(saved) >= 15
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)

    def broken():
        fbcontrol.pde.solve_banded(None, None, None)   # raises inside a counted wrapper

    rep = worker.run_sequence([workloads.Op("broken", broken, lambda _: (True, "", {}))],
                              traced=True)
    assert not rep["ops"][0]["ok"] and rep["ops"][0]["error"]
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)


def test_forced_failure_is_counted_not_fatal(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise fbcontrol.FBControlError("forced failure")

    monkeypatch.setattr(fbcontrol.riccati, "solve_planner", refuse)
    ops = [op for op in workloads.build("ode_routes", 7, tmp_path)
           if op.name in ("planner", "meanvar_equilibrium")]
    ops.insert(0, workloads.Op("raises", lambda: 1 / 0, lambda _: (True, "", {})))
    rep = worker.run_sequence(ops, traced=False)
    assert [op["ok"] for op in rep["ops"]] == [False, False, True]
    assert "ZeroDivisionError" in rep["ops"][0]["error"]
    assert run.count_failures([rep])[:2] == (3, 2)


def test_output_mismatch_between_repetitions_is_a_failure():
    reps = [{"ops": [{"name": "a", "ok": True, "digest": d, "error": None}]}
            for d in ("x", "x", "y")]
    attempted, failed, notes = run.count_failures(reps)
    assert (attempted, failed) == (3, 1)
    assert "differ" in notes[0]


def test_missing_wrapped_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(fbcontrol.pde, "extract_diagonal")
    tracer = tracing.Tracer()
    tracing.install_fbcontrol(tracer)
    tracer.restore()
    assert tracer.missing == ["fbcontrol.pde:extract_diagonal"]
    metrics, missing = tracing.layer_metrics(tracer)
    assert {"pde.diagonal_s", "pde.minimize_s"} <= set(missing)
    assert "pde.diagonal_s" not in metrics and "pde.solve_theta_s" in metrics


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ode_routes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert not (tmp_path / ".perfbench_work").exists()


def test_benchmark_json_lists_what_run_reports(sequences):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "solve_s", "peak_rss_mb"]
    layer = {m["name"] for m in doc["per_layer"]}
    assert layer == set(sequences[0]["layer"]) | set(run.UNITS)


def test_solve_time_sums_each_operations_median_scaled_time():
    ref = run.CALIB_REF_S
    ops = ((3.0, ref), (1.0, 2 * ref)), ((2.0, 2 * ref), (4.0, ref)), ((5.0, ref), (4.0, ref))
    reps = [{"ops": [{"seconds": s, "calib_s": c} for s, c in rep]} for rep in ops]
    assert run.solve_time(reps) == pytest.approx(3.0 + 4.0)
