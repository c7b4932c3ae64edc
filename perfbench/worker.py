"""One workload in one process: set up, then repeat its operation sequence.

Started by run.py, which caps the BLAS and OpenMP pools in its environment.
Prints one JSON object on its last stdout line.  Run directly only for
debugging:

    python3 perfbench/worker.py --workload ode_routes --seed 1 --seconds 5 \
        --trace 0 --t0 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

from tracing import Tracer, install_fbcontrol, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3
CALIB_SOLVES = 1000
SETUP_CALIBRATIONS = 3


def import_fbcontrol():
    """Import fbcontrol from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fbcontrol
    if Path(fbcontrol.__file__).resolve().parent != src / "fbcontrol":
        raise ImportError(f"fbcontrol imported from {fbcontrol.__file__}, not {src}")
    return fbcontrol


def calibrate():
    """Seconds that a fixed kernel from outside fbcontrol takes right now.

    The kernel is CALIB_SOLVES scipy tridiagonal solves of 65 unknowns: the
    call pattern of the pde sweeps, a Python call around a small LAPACK solve.
    Other tenants of a shared host slow every process on it by up to 2x, for
    seconds to minutes at a time.  That slowdown hits this kernel and an
    operation run beside it alike, so dividing one by the other removes most
    of it, while a change to fbcontrol moves only the operation.
    """
    import numpy as np
    from scipy.linalg import solve_banded

    ab = np.array([[0.0] + [-1.0] * 64, [4.0] * 65, [-1.0] * 64 + [0.0]])
    rhs = np.linspace(-1.0, 1.0, 65)
    solve_banded((1, 1), ab, rhs)
    start = time.perf_counter()
    for _ in range(CALIB_SOLVES):
        solve_banded((1, 1), ab, rhs)
    return time.perf_counter() - start


def run_sequence(ops, traced):
    """Run every operation once; failures are recorded, never raised.

    Only ``op.run`` is timed.  When traced, fbcontrol is wrapped around each
    run alone, so checks leave no spans, and restored even if the run raises.
    The calibration kernel runs untraced just before and after each run, and
    ``calib_s`` is the mean of the two.
    """
    tracer = Tracer() if traced else None
    results, values = [], {}
    for op in ops:
        if op.reset is not None:
            op.reset()
        error = None
        calib_s = calibrate()
        if tracer is not None:
            install_fbcontrol(tracer)
            idx = tracer.open(f"bench.{op.name}")
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        finally:
            took = time.perf_counter() - start
            if tracer is not None:
                tracer.close(idx)
                tracer.restore()
        calib_s = (calib_s + calibrate()) / 2
        ok, digest = False, None
        if error is None:
            try:
                ok, digest, found = op.check(out)
                values.update(found)
            except Exception:
                error = traceback.format_exc(limit=3)
        results.append({"name": op.name, "ok": bool(ok), "digest": digest, "error": error,
                        "seconds": took, "calib_s": calib_s})
    rep = {"traced": traced, "seconds": sum(r["seconds"] for r in results), "ops": results,
           "values": values}
    if tracer is not None:
        rep["layer"], rep["missing"] = layer_metrics(tracer)
        rep["spans"] = tracer.spans
    return rep


def environment():
    import numpy
    import scipy
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_THREADS")},
        "python_threads": threading.active_count(),
        "os_threads": threads,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_fbcontrol()
    import workloads
    ops = workloads.build(args.workload, args.seed, WORK / args.workload)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        calib_s = sorted(calibrate() for _ in range(SETUP_CALIBRATIONS))
        print(json.dumps({"setup_s": setup_s, "calib_s": calib_s[SETUP_CALIBRATIONS // 2]}))
        return 0

    # Untraced and traced repetitions alternate, so drift hits both alike.
    reps, start = [], time.perf_counter()
    while True:
        reps.append(run_sequence(ops, traced=bool(args.trace) and len(reps) % 2 == 1))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > args.seconds:
            break
    spans = [{"rep": i, "spans": r.pop("spans")} for i, r in enumerate(reps) if "spans" in r]
    if spans:
        (WORK / args.workload / "spans.json").write_text(json.dumps(spans))
    print(json.dumps({
        "setup_s": setup_s,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
