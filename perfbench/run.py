"""fbcontrol benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload mv_fixed_point --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters importing fbcontrol and building the inputs),
``solve_s`` (wall time of the operation sequence, each operation at its median
over the repetitions) and ``peak_rss_mb`` (peak resident memory of the
workload process).  Both times are scaled to a host speed set by a fixed
calibration kernel, timed beside them (``worker.calibrate``).  With
``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones, plus the tracing overhead.

Every operation is checked; a failed check, an unexpected exit code, an
exception or an output hash that differs between repetitions of one seed
(traced or not) counts as a failed operation.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with the
environment, goes to ``.perfbench_work/``.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("mv_fixed_point", "anchored_cost_field", "mc_spike_verify", "ode_routes")
SETUP_PROBES = 3        # before the workload process, and as many after it
CALIB_REF_S = 0.02      # the calibration kernel's time at the reference host speed
TIMEOUT_S = 170.0
THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# per-layer metrics that do not come from spans or counters
UNITS = {"pde.strategy_rel_err": "ratio", "mc.quotient_se": "cost/s",
         "bench.trace_overhead_frac": "ratio"}


def spawn(args, extra, deadline):
    """Start worker.py, wait for it, and return its last stdout line as JSON."""
    env = dict(os.environ, **{k: THREAD_CAP for k in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(reps):
    """(attempted, failed, notes): failed checks plus output-hash mismatches."""
    attempted = failed = 0
    first, notes = {}, []
    for i, rep in enumerate(reps):
        for op in rep["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                notes.append(f"rep {i} {op['name']}: failed"
                             + (f"\n{op['error']}" if op["error"] else ""))
                continue
            ref = first.setdefault(op["name"], op["digest"])
            if op["digest"] != ref:
                failed += 1
                notes.append(f"rep {i} {op['name']}: outputs differ from the first repetition")
    return attempted, failed, notes


def scaled(seconds, calib_s):
    """``seconds`` at the reference host speed: the speed at which the
    calibration kernel takes CALIB_REF_S.  The kernel was timed beside them."""
    return seconds * CALIB_REF_S / calib_s


def solve_time(reps):
    """Sum over the operations of each one's median scaled time in ``reps``."""
    return sum(statistics.median(scaled(r["ops"][i]["seconds"], r["ops"][i]["calib_s"])
                                 for r in reps)
               for i in range(len(reps[0]["ops"])))


def end_to_end(setups, result):
    return {
        "setup_s": (statistics.median(scaled(p["setup_s"], p["calib_s"]) for p in setups), "s"),
        "solve_s": (solve_time(result["reps"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result):
    traced = [r for r in result["reps"] if r["traced"]]
    untraced = [r for r in result["reps"] if not r["traced"]]
    out = {}
    for name in traced[0]["layer"]:
        unit = PER_LAYER[name][0] if name in PER_LAYER else "s"
        out[name] = (statistics.median_low(r["layer"][name] for r in traced), unit)
    # accuracy figures; 0 on workloads that do not compute them
    for name in ("pde.strategy_rel_err", "mc.quotient_se"):
        vals = [r["values"].get(name, 0.0) for r in result["reps"]]
        out[name] = (statistics.median_low(vals), UNITS[name])
    overhead = solve_time(traced) / solve_time(untraced) - 1.0
    out["bench.trace_overhead_frac"] = (overhead, UNITS["bench.trace_overhead_frac"])
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fbcontrol" / "__init__.py").is_file():
        print(f"perfbench: no fbcontrol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [spawn(args, ["--setup-only"], deadline) for _ in range(probes)]
        result = spawn(args, [], deadline)
        setups += [spawn(args, ["--setup-only"], deadline) for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, notes = count_failures(result["reps"])
    if args.trace:
        metrics = per_layer(result)
        missing = sorted({m for r in result["reps"] for m in r.get("missing", [])})
    else:
        metrics = end_to_end(setups, result)
        missing = []
    env = dict(result["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               seed=args.seed, workload=args.workload, trace=args.trace,
               seconds=args.seconds)
    record = {"env": env, "calib_ref_s": CALIB_REF_S, "setup_probes": setups,
              "reps": [{"traced": r["traced"], "seconds": r["seconds"],
                        "ops": {op["name"]: {"seconds": op["seconds"], "calib_s": op["calib_s"]}
                                for op in r["ops"]}}
                       for r in result["reps"]],
              "attempted": attempted, "failed": failed, "failures": notes,
              "missing_metrics": missing,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    WORK.mkdir(exist_ok=True)
    path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"repetitions: {len(result['reps'])}; result file: {path.relative_to(ROOT)}")
    if args.trace:
        print("waiting time: none; one process, one thread, no queue, so every layer's "
              "time is busy time")
    for note in notes:
        print(f"FAILED {note}")
    if missing:
        print(f"missing metrics (wrapped name no longer exists): {', '.join(missing)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
