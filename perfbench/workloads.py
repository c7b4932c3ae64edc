"""The four benchmark workloads: fbcontrol operations with their correctness checks.

Each workload is a list of operations.  ``run`` is the timed call into
fbcontrol (the CLI in-process wherever a subcommand covers the work, because
that is the path users run); ``check`` is untimed and returns
``(ok, digest, values)``, where ``digest`` fingerprints the outputs for the
determinism check and ``values`` carries accuracy figures.

The seed draws the Riccati coefficient cases and is the Monte Carlo seed.
The PDE instances are fixed: their Picard iteration count depends on the
parameters, so a random draw would time the draw rather than the code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import fbcontrol.cli
import fbcontrol.mc
import fbcontrol.model
import fbcontrol.pde
import fbcontrol.riccati

# Sizes chosen so most operations take under a second on a 2-core machine and a
# run holds several repetitions; on ode_routes the Riccati solves and the ex31
# quadrature take about equal time.
MV_GRID = (65, 63)                  # pde-solve mean_variance (nx, nt)
BKM_GRID = (65, 26)                 # pde-solve bkm_separable (nx, nt)
TENSOR_N, TENSOR_NY = 9, 9          # general tensor: nx = nt = TENSOR_N
MC_PATHS = 5000
ODE_STEPS = 10000                   # the CLI default
STRONG = {"r": 0.0, "mu": 0.1, "sigma": 0.2, "gamma": 1.0}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    reset: Optional[Callable[[], None]] = None


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def cli_op(name, argv, out, expect_rc=0, verify=None):
    """A CLI subcommand run in-process; its manifest hashes are the digest."""
    argv = list(argv) + ["--out", str(out)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return fbcontrol.cli.run(argv)

    def check(rc):
        if rc != expect_rc:
            return False, None, {}
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        ok, values = verify(out) if verify is not None else (True, {})
        return ok, digest, values

    return Op(name, run, check, reset=lambda: shutil.rmtree(out, ignore_errors=True))


def _converged(out):
    return "converged=True" in (out / "summary.txt").read_text().splitlines()[0]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def mv_fixed_point(seed, work):
    cfg = _write_json(work / "mean_variance.json", {"family": "mean_variance"})
    spec = fbcontrol.model.mean_variance()
    p = spec.params
    vbar = fbcontrol.riccati.meanvar_closed_form(p["r"], p["mu"], p["sigma"], p["gamma"],
                                                 spec.horizon)["vbar"]

    def verify(out):
        table = _csv(out / "strategy.csv")          # s, x, psi
        ref = vbar(table[:, 0])
        err = float(np.max(np.abs(table[:, 2] - ref) / np.abs(ref)))
        return _converged(out) and err < 1e-2, {"pde.strategy_rel_err": err}

    nx, nt = MV_GRID
    return [cli_op("pde_solve_mean_variance",
                   ["pde-solve", "--config", cfg, "--grid-nx", str(nx), "--grid-nt", str(nt)],
                   work / "mv", verify=verify)]


def anchored_cost_field(seed, work):
    cfg = _write_json(work / "bkm_separable.json", {"family": "bkm_separable"})
    grid = fbcontrol.pde.GridSpec(-2.0, 2.0, TENSOR_N, TENSOR_N, 1.0,
                                  y_lo=-3.0, y_hi=3.0, ny=TENSOR_NY)
    zero = fbcontrol.model.StrategyTable(-1.0, 1.0,
                                         fn=lambda s, x: 0.0 * np.asarray(x, dtype=float))

    def tensor():
        pde = fbcontrol.pde
        spec = fbcontrol.model.make_spec("bkm_separable")
        theta = pde.solve_theta(spec, zero, grid)
        general = pde.solve_theta0_family(replace(spec, terminal_split=None), zero,
                                          theta, None, grid)
        separable = pde.solve_theta0_family(spec, zero, theta, None, grid)
        return pde.extract_diagonal(general, theta), pde.extract_diagonal(separable, theta)

    def tensor_check(result):
        bg, bs = result
        ok = float(np.max(np.abs(bg.d - bs.d))) < 1e-10
        return ok, _digest(bg.d, bg.dx, bg.dy, bg.dxx), {}

    nx, nt = BKM_GRID
    return [
        cli_op("pde_solve_bkm_separable",
               ["pde-solve", "--config", cfg, "--grid-nx", str(nx), "--grid-nt", str(nt)],
               work / "bkm", verify=lambda out: (_converged(out), {})),
        Op("general_tensor_diagonal", tensor, tensor_check),
    ]


def mc_spike_verify(seed, work):
    eq_cfg = _write_json(work / "mean_variance.json", {"family": "mean_variance"})
    strong_cfg = _write_json(work / "strong.json", {"family": "mean_variance",
                                                    "params": STRONG})
    common = ["--paths", str(MC_PATHS), "--seed", str(seed)]

    def quotient_se(out):
        rows = _csv(out / "verify.csv")            # t, eps, u, quotient, stderr
        smallest = rows[rows[:, 1] == rows[:, 1].min()]
        return True, {"mc.quotient_se": float(np.max(smallest[:, 4]))}

    return [
        cli_op("mc_verify_equilibrium", ["mc-verify", "--config", eq_cfg] + common,
               work / "eq", verify=quotient_se),
        cli_op("mc_verify_zero_strategy",
               ["mc-verify", "--config", strong_cfg, "--strategy-const", "0"] + common,
               work / "zero", expect_rc=3),
    ]


def draw_cases(seed):
    """Riccati coefficient cases, in the ranges of acceptance criteria 02 and 09."""
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    lq = {"A": u(-0.8, 0.8), "B": u(-0.8, 0.8), "C": u(-0.8, 0.8), "D": u(-0.7, 0.7),
          "Q": u(0.0, 1.0), "R": u(0.5, 2.0), "G1": u(0.0, 1.5), "G2": u(0.0, 1.5),
          "H": 1.0, "T": 1.0}
    rho_lo, rho_hi = sorted((u(0.01, 0.1), u(0.01, 0.1)))
    r = u(0.0, 0.05)
    planner = {"r": r, "mu": r + u(0.02, 0.08), "sigma": u(0.15, 0.35),
               "gamma": u(0.2, 0.9), "alpha": u(0.1, 0.9), "rho1": rho_hi,
               "rho2": rho_lo, "lam": u(0.0, 1.0)}
    r = u(0.0, 0.05)
    meanvar = {"r": r, "mu": r + u(0.02, 0.1), "sigma": u(0.15, 0.35),
               "gamma": u(0.5, 3.0)}
    return lq, planner, meanvar


def ode_routes(seed, work):
    lq, planner, meanvar = draw_cases(seed)
    lq_cfg = _write_json(work / "lq.json", lq)
    ex31_cfg = _write_json(work / "ex31.json", {"family": "ex31"})
    steps = ["--steps", str(ODE_STEPS)]
    planner_argv = ["planner"] + steps + [a for k, v in planner.items()
                                          for a in (f"--{k}", repr(v))]
    lq_out, mf_out = work / "lq", work / "mf"

    def cross_route(out):
        mf = _csv(mf_out / "meanfield.csv")        # t, phi, phihat, psi
        seven = _csv(lq_out / "lq_riccati.csv")    # t, phi1..phi7, psi, v
        phi1, phi2, phi6 = seven[:, 1], seven[:, 2], seven[:, 6]
        err = max(float(np.max(np.abs(mf[:, 1] - phi1))),
                  float(np.max(np.abs(mf[:, 2] - (phi1 + phi6 * phi2 * phi6)))))
        return err < 1e-8, {}

    def planner_order(out):
        table = _csv(out / "planner.csv")          # t, theta1, theta2, consumption
        th1, th2 = table[:, 1], table[:, 2]
        return bool(np.all(th1 <= th2 + 1e-12) and np.all(th1 > 0.0)), {}

    def meanvar_run():
        return fbcontrol.riccati.meanvar_equilibrium(T=1.0, steps=ODE_STEPS, **meanvar)

    def meanvar_check(res):
        ok = res.max_rel_err_phi1 < 1e-8 and res.max_rel_err_v < 1e-8
        return ok, _digest(res.phi1, res.phi4, res.phi6, res.phi7, res.v), {}

    def ex31_cost():
        spec = fbcontrol.model.make_spec("ex31")
        committed = fbcontrol.model.StrategyTable(   # optimal control announced at t = 0
            spec.u_lo, spec.u_hi,
            fn=lambda s, x: (s - 1.0) / 2.0 + 0.0 * np.asarray(x, dtype=float))
        cost, _ = fbcontrol.mc.evaluate_cost(spec, committed, 0.0, 0.0,
                                             fbcontrol.mc.MCConfig(n_paths=2))
        return cost

    def ex31_check(cost):
        return abs(cost + 1.0 / 12.0) < 1e-10, _digest([cost]), {}

    return [
        cli_op("lq_riccati", ["lq-riccati", "--config", lq_cfg] + steps, lq_out),
        cli_op("meanfield_lq", ["meanfield-lq", "--config", lq_cfg] + steps, mf_out,
               verify=cross_route),
        cli_op("planner", planner_argv, work / "planner", verify=planner_order),
        Op("meanvar_equilibrium", meanvar_run, meanvar_check),
        Op("ex31_cost", ex31_cost, ex31_check),
        cli_op("mc_verify_ex31",
               ["mc-verify", "--config", ex31_cfg, "--times", "0.3", "--eps", "0.05",
                "--tol-eq", "1e-8"], work / "ex31"),
    ]


WORKLOADS = {
    "mv_fixed_point": mv_fixed_point,
    "anchored_cost_field": anchored_cost_field,
    "mc_spike_verify": mc_spike_verify,
    "ode_routes": ode_routes,
}


def build(name, seed, work: Path):
    """Inputs and operations of one workload; files go under ``work``.

    The seed is reduced to 32 bits, the range Philox keys and numpy seeds take.
    """
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed % 2 ** 32, work)
