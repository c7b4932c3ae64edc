"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the per-criterion
PASS lines).  The heavier criteria share module-scoped solves.
"""

import math

import numpy as np
import pytest

from fbcontrol import mc, model, pde, riccati
from fbcontrol.cli import run as cli_run
from fbcontrol.mc import MCConfig, path_normals, verify_equilibrium
from fbcontrol.model import StrategyTable
from fbcontrol.riccati import (LQSpec, meanvar_closed_form, meanvar_equilibrium,
                               solve_meanfield_riccati, solve_planner,
                               solve_riccati_lq, stackelberg_leader)

CANON = dict(r=0.03, mu=0.08, sigma=0.2, gamma=2.0, T=1.0)
# the zero-strategy FAIL verdict needs a market price of risk large enough that
# the best spike deficit on the +-1 control grid clears the 0.05 tolerance
STRONG = dict(r=0.0, mu=0.1, sigma=0.2, gamma=1.0)


def _announce(n, detail):
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def closed_strategy(spec, params):
    closed = meanvar_closed_form(params["r"], params["mu"], params["sigma"],
                                 params["gamma"], spec.horizon)
    return StrategyTable(spec.u_lo, spec.u_hi,
                         fn=lambda s, x: closed["vbar"](s) + 0.0 * np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def mv_strong_fields():
    spec = model.mean_variance(x0=1.0, **STRONG)
    grid = pde.default_grid(spec, nx=129, nt=1001)
    theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid)
    assert log.converged
    return spec, grid, theta, theta0


def test_criterion_01_mean_variance_riccati():
    res = meanvar_equilibrium(CANON["r"], CANON["mu"], CANON["sigma"],
                              CANON["gamma"], CANON["T"], steps=10000)
    assert res.max_rel_err_phi1 < 1e-8
    assert res.max_rel_err_v < 1e-8
    lq = LQSpec(A=CANON["r"], B=CANON["mu"] - CANON["r"], C=0.0, D=CANON["sigma"],
                H=1.0, G1=CANON["gamma"], G2=-CANON["gamma"], G3=0.0, g=-1.0,
                T=CANON["T"])
    traj = solve_riccati_lq(lq, steps=10000)
    gam = CANON["gamma"]
    assert np.max(np.abs(traj.phi[1] + gam)) < 1e-8
    assert np.max(np.abs(traj.phi[2])) < 1e-8
    assert np.max(np.abs(traj.phi[0] - gam * traj.phi[5] ** 2)) < 1e-8
    _announce(1, f"phi1/v rel errs {res.max_rel_err_phi1:.1e}/{res.max_rel_err_v:.1e}, "
                 "structural identities within 1e-8")


def test_criterion_02_lq_cross_route():
    cases = [dict(A=0.0, B=1.0, C=1.0, D=0.0, Q=0.0, R=2.0, G1=0.0, G2=2.0)]
    rng = np.random.default_rng(2024)
    for _ in range(10):
        cases.append(dict(A=rng.uniform(-0.8, 0.8), B=rng.uniform(-0.8, 0.8),
                          C=rng.uniform(-0.8, 0.8), D=rng.uniform(-0.7, 0.7),
                          Q=rng.uniform(0.0, 1.0), R=rng.uniform(0.5, 2.0),
                          G1=rng.uniform(0.0, 1.5), G2=rng.uniform(0.0, 1.5)))
    worst = 0.0
    for c in cases:
        grid, phi, phihat, _ = solve_meanfield_riccati(T=1.0, steps=10000, **c)
        lq = LQSpec(A=c["A"], B=c["B"], C=c["C"], D=c["D"], H=1.0,
                    Q=c["Q"], R=c["R"], G1=c["G1"], G2=c["G2"], T=1.0)
        traj = solve_riccati_lq(lq, steps=10000)
        worst = max(worst,
                    float(np.max(np.abs(phi - traj.phi[0]))),
                    float(np.max(np.abs(phihat - (traj.phi[0]
                                                  + traj.phi[5] * traj.phi[1] * traj.phi[5])))))
        assert worst < 1e-8
    _announce(2, f"substitution route matches on 11 coefficient sets, worst {worst:.1e}")


def test_criterion_03_stackelberg():
    res = stackelberg_leader()
    assert res.equilibrium_value == -0.5
    assert float(res.equilibrium_strategy(0.37, 1.3)) == -0.5
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = rng.uniform(0.0, 1.0)
        s = rng.uniform(t, 1.0)
        assert abs(float(res.precommitted(s, t))
                   - (math.log(2.0 - t) - math.log(2.0 - s) - 1.0) / 2.0) < 1e-15
    gap_half = float(res.gap(0.5))
    assert abs(gap_half - 0.5 * math.log(4.0 / 3.0)) < 1e-9
    assert round(gap_half, 7) == 0.1438410
    worst_q = max(abs(res.leader_cost_quadrature(t) - res.leader_cost(t))
                  for t in (0.0, 0.2, 0.5, 0.8))
    assert worst_q < 1e-10
    _announce(3, f"equilibrium -1/2 exact, gap(0.5)={gap_half:.7f}, "
                 f"cost quadrature err {worst_q:.1e}")


def test_criterion_04_running_y_benchmark():
    spec = model.ex31()
    committed = StrategyTable(spec.u_lo, spec.u_hi,
                              fn=lambda s, x: (s - 1.0) / 2.0 + 0.0 * np.asarray(x, dtype=float))
    cost, _ = mc.evaluate_cost(spec, committed, 0.0, 0.0, MCConfig(n_paths=2))
    assert abs(cost - (-1.0 / 12.0)) < 1e-10
    rep = mc.demonstrate_inconsistency("ex31")
    assert all(row["gap"] == row["tau"] / 2.0 for row in rep["rows"])
    # strategy re-derived at every instant: u(s) = (s - s - 1)/2 = -1/2
    naive = StrategyTable(spec.u_lo, spec.u_hi,
                          fn=lambda s, x: -0.5 + 0.0 * np.asarray(x, dtype=float))
    report = verify_equilibrium(spec, naive, (0.0, 0.3, 0.6),
                                MCConfig(n_paths=2), tol_eq=1e-8)
    assert report.verdict
    min_q = min(r["quotient"] for r in report.rows)
    assert min_q >= -1e-8
    _announce(4, f"cost -1/12 within 1e-10, gap tau/2 exact, min quotient {min_q:.1e}")


def test_criterion_05_linear_pde_validation():
    zero = StrategyTable(-1.0, 1.0, fn=lambda s, x: 0.0 * np.asarray(x, dtype=float))
    grid = pde.GridSpec(-5.0, 5.0, 201, 1001, 1.0)   # dx = 0.05, dt = 1e-3
    theta_lin = pde.solve_theta(model.linear_heat(a=1.0, terminal="x"), zero, grid)
    err_lin = float(np.max(np.abs(theta_lin.values - grid.xs[None, :])))
    assert err_lin < 1e-12
    theta_sq = pde.solve_theta(model.linear_heat(a=1.0, terminal="x2"), zero, grid)
    ref = grid.xs[None, :] ** 2 + 2.0 * (1.0 - grid.times[:, None])
    interior = np.abs(grid.xs) <= 4.0
    err_sq = float(np.max(np.abs(theta_sq.values - ref)[:, interior]))
    assert err_sq < 5e-3
    # kernel route against the stepping route on a bounded terminal
    spec_g = model.linear_heat(a=1.0, terminal="gaussians")
    gridk = pde.GridSpec(-6.0, 6.0, 97, 33, 1.0)
    thk = pde.kernel_solve_linear(spec_g, gridk)
    gridf = pde.GridSpec(-6.0, 6.0, 97, 1001, 1.0)
    thf = pde.solve_theta(spec_g, zero, gridf)
    mask = np.abs(gridk.xs) <= 4.0
    err_k = float(np.max(np.abs(thk.values[0] - thf.values[0])[mask]))
    assert err_k < 5e-3
    mu = np.linspace(-8.0, 8.0, 2049)
    vals = np.array([model.heat_kernel(lambda r, m: 0.5, 0.0, 0.0, 1.0, m) for m in mu])
    mass = riccati._simpson(vals, mu[1] - mu[0])
    assert abs(mass - 1.0) < 1e-8
    _announce(5, f"linear exact {err_lin:.1e}, quadratic {err_sq:.1e}, "
                 f"kernel-vs-FD {err_k:.1e}, normalization {abs(mass-1.0):.1e}")


def test_criterion_06_pde_fixed_point_mean_variance():
    spec = model.mean_variance(x0=1.0, **CANON)
    closed = meanvar_closed_form(**CANON)

    def solve(nx, nt):
        grid = pde.default_grid(spec, nx=nx, nt=nt)
        theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid)
        assert log.converged and log.iterations <= 50
        assert log.residuals()[-1] < 1e-6
        ref = closed["vbar"](grid.times)[:, None] + 0.0 * grid.xs[None, :]
        return float(np.max(np.abs(strat.values - ref) / np.abs(ref))), log

    err_default, log = solve(129, 1001)
    assert err_default < 1e-2
    err_refined, _ = solve(257, 2001)
    ratio = err_default / err_refined
    assert ratio >= 1.8
    _announce(6, f"converged in {log.iterations} iterations, strategy rel err "
                 f"{err_default:.2e}, refinement ratio {ratio:.2f}")


def test_criterion_07_spike_verification_both_verdicts():
    spec = model.mean_variance(x0=1.0, **STRONG)
    cfg = MCConfig(n_paths=100000, seed=20260809,
                   eps_list=(0.1, 0.05, 0.025), u_list=(-1.0, -0.5, 0.0, 0.5, 1.0))
    t_list = (0.0, 0.45, 0.9)
    rep_eq = verify_equilibrium(spec, closed_strategy(spec, STRONG), t_list, cfg,
                                tol_eq=0.05)
    assert rep_eq.verdict
    assert all(r["quotient"] >= -0.05 for r in rep_eq.rows)
    zero = StrategyTable(spec.u_lo, spec.u_hi,
                         fn=lambda s, x: 0.0 * np.asarray(x, dtype=float))
    rep_zero = verify_equilibrium(spec, zero, t_list, cfg, tol_eq=0.05)
    assert not rep_zero.verdict
    assert any(r["quotient"] < -0.05 for r in rep_zero.rows)
    _announce(7, f"equilibrium min quotient {rep_eq.min_quotient_smallest_eps:+.4f} "
                 f"(PASS), zero strategy min {rep_zero.min_quotient_smallest_eps:+.4f} (FAIL)")


def test_criterion_08_perturbation_route_vs_monte_carlo(mv_strong_fields):
    spec, grid, theta, theta0 = mv_strong_fields
    strat = closed_strategy(spec, STRONG)
    cfg = MCConfig(n_paths=100000, seed=31)
    t, eps = 0.2, 0.1
    i0 = int(np.argmin(np.abs(grid.xs - spec.x0)))
    x_eval = float(grid.xs[i0])
    n_steps = int(round((spec.horizon - t) * cfg.steps_per_unit))
    z = path_normals(cfg.seed, cfg.n_paths, n_steps)
    from fbcontrol.mc import _quotient_mc
    worst_z = 0.0
    for u in (-1.0, 0.0, 1.0):
        res = pde.solve_perturbation(spec, theta, theta0, t, eps, u, grid)
        q_pde = (res.j_perturbed[i0] - res.j_base[i0]) / eps
        q_mc, se = _quotient_mc(spec, strat, t, x_eval, cfg, z, eps, u)
        worst_z = max(worst_z, abs(q_pde - q_mc) / se)
        assert abs(q_pde - q_mc) <= 3.0 * se
    sups = [pde.solve_perturbation(spec, theta, theta0, t, e, 1.0, grid).sup_theta_diff
            for e in (0.2, 0.1, 0.05)]
    assert sups[0] > sups[1] > sups[2]
    _announce(8, f"PDE/MC quotient agreement worst |z| {worst_z:.2f}, "
                 "window norm decreasing in eps")


def test_criterion_09_planner():
    sym = solve_planner(0.03, 0.08, 0.2, 0.5, 0.3, 0.05, 0.05, 0.4, steps=10000)
    sym_err = float(np.max(np.abs(sym.theta1 - sym.theta2)))
    assert sym_err < 1e-12
    rng = np.random.default_rng(909)
    for _ in range(10):
        rhos = np.sort(rng.uniform(0.01, 0.1, size=2))
        sol = solve_planner(rng.uniform(0.0, 0.05), 0.03 + rng.uniform(0.0, 0.08),
                            rng.uniform(0.15, 0.35), rng.uniform(0.2, 0.9),
                            rng.uniform(0.1, 0.9), rhos[1], rhos[0],
                            rng.uniform(0.0, 1.0), steps=4000)
        assert np.all(sol.theta1 <= sol.theta2 + 1e-12)
        assert np.all(sol.theta1 > 0.0)
    r, mu, sg, gamma, rho = 0.03, 0.08, 0.2, 0.5, 0.05
    merton = solve_planner(r, mu, sg, gamma, 1.0 - gamma, rho, rho, 0.5, steps=10000)
    q = r + (mu - r) ** 2 / (2.0 * gamma * sg * sg)
    k = ((1.0 - gamma) * q - rho) / gamma
    phi = np.exp(k * (1.0 - merton.s)) + (np.exp(k * (1.0 - merton.s)) - 1.0) / k
    merton_err = float(np.max(np.abs(merton.theta1 - phi ** gamma) / phi ** gamma))
    assert merton_err < 1e-6
    _announce(9, f"symmetry {sym_err:.1e}, ordering on 10 draws, "
                 f"power-utility reduction rel err {merton_err:.1e}")


def test_criterion_10_feynman_kac():
    spec = model.mean_variance(x0=1.0, **CANON)
    grid = pde.default_grid(spec, nx=129, nt=257)
    theta, theta0 = pde.reference_fields(spec, grid)
    strat = closed_strategy(spec, CANON)
    pts = [(grid.times[0], spec.x0), (grid.times[64], grid.xs[40]),
           (grid.times[128], grid.xs[64]), (grid.times[128], grid.xs[90]),
           (grid.times[192], grid.xs[70])]
    rows = mc.check_feynman_kac(spec, theta, theta0, strat, pts,
                                MCConfig(n_paths=100000, seed=77))
    worst = max(max(abs(r["z_y"]), abs(r["z_y0"])) for r in rows)
    assert worst <= 3.0
    _announce(10, f"representation z-scores at 5 points, worst |z| {worst:.2f}")


def test_criterion_11_selftest_reproducibility(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_run(["selftest", "--out", str(out1), "--seed", "123"]) == 0
    assert cli_run(["selftest", "--out", str(out2), "--seed", "123"]) == 0
    csvs = sorted(p.name for p in out1.iterdir() if p.suffix == ".csv")
    assert csvs
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _announce(11, f"selftest exit 0; {len(csvs)} CSV artifacts bit-identical across reruns")
