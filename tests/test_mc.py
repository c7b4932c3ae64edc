import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcontrol import cli, mc, model
from fbcontrol.cli import _gap_table, _verify_table, _work_unit, write_csv
from fbcontrol.errors import (BlowUpError, DomainError, EvaluationError,
                             UnsupportedCostClassError)
from fbcontrol.mc import (BLOCK_PATHS, FK_STREAM, MCConfig, check_feynman_kac,
                          demonstrate_inconsistency, evaluate_cost, path_normals,
                          perturbed_strategy, simulate_forward, verify_equilibrium)
from fbcontrol.model import ControlProblemSpec, StrategyTable
from fbcontrol.pde import GridSpec, default_grid, reference_fields, solve_theta, \
    solve_theta0_family
from fbcontrol.riccati import meanvar_closed_form
from oracles import NUMPY_DRIFTS, quotient_mc


def const_strategy(value, spec):
    return StrategyTable(spec.u_lo, spec.u_hi,
                         fn=lambda s, x, _v=value: _v + 0.0 * np.asarray(x, dtype=float))


def mv_r0():
    return model.mean_variance(r=0.0, mu=0.1, sigma=0.2, gamma=1.0, x0=1.0)


def mv_r0_equilibrium(spec):
    closed = meanvar_closed_form(0.0, 0.1, 0.2, 1.0, 1.0)
    return StrategyTable(spec.u_lo, spec.u_hi,
                         fn=lambda s, x: closed["vbar"](s) + 0.0 * np.asarray(x, dtype=float))


def test_config_invariants():
    with pytest.raises(DomainError):
        MCConfig(n_paths=1)
    with pytest.raises(DomainError):
        MCConfig(n_paths=10, steps_per_unit=0)
    for bad in (-0.1, math.nan):
        with pytest.raises(DomainError):
            MCConfig(n_paths=10, eps_list=(0.1, bad))
    # no window at all, which verify_equilibrium would meet as max() of nothing
    for empty in ((), []):
        with pytest.raises(DomainError, match="window list eps_list is empty"):
            MCConfig(n_paths=10, eps_list=empty)


def test_config_seed_bounds():
    for seed in (-1, 2 ** 64):
        with pytest.raises(DomainError):
            MCConfig(seed=seed)
    for seed in (0, 2 ** 64 - 1):
        assert path_normals(MCConfig(seed=seed).seed, 3, 2).shape == (2, 3)


def _columns(z):
    return {col.tobytes() for col in z.T}


def test_adjacent_seeds_share_no_column():
    n = 2 * BLOCK_PATHS + 6
    for k in (0, 21):
        a = path_normals(2 * k, n, 4)
        b = path_normals(2 * k + 1, n, 4)
        assert not _columns(a) & (_columns(b) | _columns(-b))
        anti = path_normals(2 * k + 1, n, 4, antithetic=True)
        assert not _columns(np.abs(a)) & _columns(np.abs(anti))


def test_stream_tags_share_no_column():
    # stream 0, the first probe-time tags of verify_equilibrium, and the first
    # sample-point tags of check_feynman_kac
    tags = [0, 1, 2, 3, FK_STREAM, FK_STREAM + 1, FK_STREAM + 2]
    cols = [_columns(path_normals(31, BLOCK_PATHS + 10, 3, stream=tag)) for tag in tags]
    assert len(set().union(*cols)) == sum(len(c) for c in cols) == len(tags) * (BLOCK_PATHS + 10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 2 ** 33),
       n_paths=st.integers(2, 3 * BLOCK_PATHS), extra_paths=st.integers(0, 2 * BLOCK_PATHS),
       n_steps=st.integers(1, 5), extra_steps=st.integers(0, 3),
       antithetic=st.booleans())
def test_path_normals_prefix_stable(seed, stream, n_paths, extra_paths, n_steps,
                                    extra_steps, antithetic):
    small = path_normals(seed, n_paths, n_steps, antithetic, stream)
    big = path_normals(seed, n_paths + extra_paths, n_steps + extra_steps, antithetic, stream)
    assert small.shape == (n_steps, n_paths)
    assert np.array_equal(big[:n_steps, :n_paths], small)
    if antithetic:
        pairs = n_paths // 2
        assert np.array_equal(small[:, 1:2 * pairs:2], -small[:, 0:2 * pairs:2])


def test_frozen_dynamics_stay_put():
    spec = ControlProblemSpec(
        name="still", drift=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        generator=lambda s, x, u, y, z: 0.0 * np.asarray(x, dtype=float),
        terminal=lambda x: np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0,
        cost_terminal=lambda t, xt, x, y: y, u_lo=-1.0, u_hi=1.0, horizon=1.0)
    ens = simulate_forward(spec, const_strategy(0.0, spec), 0.0, 0.7,
                           MCConfig(n_paths=50, seed=1))
    assert np.all(ens.paths_tn == 0.7)


def test_gbm_mean_and_weak_order():
    spec = model.gbm(mu=1.0, sigma=0.2, T=1.0, x0=1.0)
    strat = const_strategy(0.0, spec)
    # sample mean within 3 SE of the closed-form mean
    cfg = MCConfig(n_paths=100000, seed=2, steps_per_unit=100, antithetic=True)
    ens = simulate_forward(spec, strat, 0.0, 1.0, cfg)
    xt = ens.paths_tn[-1]
    se = xt.std(ddof=1) / math.sqrt(xt.size)
    assert abs(xt.mean() - math.e) < 3 * se + abs((1 + 0.01) ** 100 - math.e)
    # weak order 1: the mean bias halves when the step halves (30% slack)
    bias = {}
    for spu in (20, 40):
        cfg_k = MCConfig(n_paths=100000, seed=2, steps_per_unit=spu, antithetic=True)
        ens_k = simulate_forward(spec, strat, 0.0, 1.0, cfg_k)
        bias[spu] = abs(ens_k.paths_tn[-1].mean() - math.e)
    ratio = bias[20] / bias[40]
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3


def test_mean_variance_equilibrium_mean():
    spec = mv_r0()
    strat = mv_r0_equilibrium(spec)
    cfg = MCConfig(n_paths=100000, seed=3)
    ens = simulate_forward(spec, strat, 0.0, 1.0, cfg)
    xt = ens.paths_tn[-1]
    # linear ODE for the mean: m(T) = x0 + (mu - r) vbar T at r = 0
    target = 1.0 + 0.1 * 2.5
    se = xt.std(ddof=1) / math.sqrt(xt.size)
    assert abs(xt.mean() - target) < 3 * se


def test_determinism_and_prefix_stability():
    spec = model.gbm(mu=0.3, sigma=0.25)
    strat = const_strategy(0.0, spec)
    cfg = MCConfig(n_paths=2000, seed=9, steps_per_unit=50)
    e1 = simulate_forward(spec, strat, 0.0, 1.0, cfg)
    e2 = simulate_forward(spec, strat, 0.0, 1.0, cfg)
    assert np.array_equal(e1.paths_tn, e2.paths_tn)
    bigger = MCConfig(n_paths=3000, seed=9, steps_per_unit=50)
    e3 = simulate_forward(spec, strat, 0.0, 1.0, bigger)
    assert np.array_equal(e3.paths_tn[:, :2000], e1.paths_tn)


def test_antithetic_mean_and_variance():
    spec = model.gbm(mu=0.5, sigma=0.2)
    strat = const_strategy(0.0, spec)
    plain = simulate_forward(spec, strat, 0.0, 1.0,
                             MCConfig(n_paths=40000, seed=4))
    anti = simulate_forward(spec, strat, 0.0, 1.0,
                            MCConfig(n_paths=40000, seed=4, antithetic=True))
    xp, xa = plain.paths_tn[-1], anti.paths_tn[-1]
    se = xp.std(ddof=1) / math.sqrt(xp.size)
    assert abs(xp.mean() - xa.mean()) < 3 * se
    pair_means = 0.5 * (xa[0::2] + xa[1::2])
    var_anti = pair_means.var(ddof=1) / pair_means.size
    var_plain = xp.var(ddof=1) / xp.size
    assert var_anti < var_plain


def test_perturbed_strategy_window_semantics():
    spec = mv_r0()
    base = mv_r0_equilibrium(spec)
    pert = perturbed_strategy(base, 0.3, 0.1, 1.5, spec)
    assert float(pert(0.3, 0.0)) == 1.5          # closed left end
    assert float(pert(0.39999, 2.0)) == 1.5
    assert float(pert(0.4, 2.0)) == float(base(0.4, 2.0))   # open right end
    assert float(pert(0.2, 2.0)) == float(base(0.2, 2.0))
    # idempotence: perturbing a constant strategy with its own value
    vbar = 2.5
    eq = const_strategy(vbar, spec)
    same = perturbed_strategy(eq, 0.3, 0.1, vbar, spec)
    for s in (0.0, 0.3, 0.35, 0.8):
        assert float(same(s, 1.0)) == vbar


def test_perturbed_strategy_validation():
    spec = mv_r0()
    base = mv_r0_equilibrium(spec)
    for t in (0.95, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError, match="outside the horizon"):
            perturbed_strategy(base, t, 0.1, 0.0, spec)
    for u in (1e6, math.nan):
        with pytest.raises(DomainError, match="outside the control interval"):
            perturbed_strategy(base, 0.1, 0.1, u, spec)
    # the checks need the spec's horizon and U, so a spike without one is refused
    with pytest.raises(TypeError, match="spec"):
        perturbed_strategy(base, math.nan, 0.1, 0.0)
    for eps in (-0.1, math.nan):
        with pytest.raises(DomainError):
            perturbed_strategy(base, 0.1, eps, 0.0, spec)


def test_paths_agree_before_window():
    spec = mv_r0()
    base = mv_r0_equilibrium(spec)
    pert = perturbed_strategy(base, 0.5, 0.1, 0.0, spec)
    cfg = MCConfig(n_paths=500, seed=6)
    e_base = simulate_forward(spec, base, 0.0, 1.0, cfg)
    e_pert = simulate_forward(spec, pert, 0.0, 1.0, cfg)
    j = int(np.argmin(np.abs(e_base.times - 0.5)))
    assert np.array_equal(e_base.paths_tn[: j + 1], e_pert.paths_tn[: j + 1])
    assert not np.array_equal(e_base.paths_tn[-1], e_pert.paths_tn[-1])


# ---------------------------------------------------------------------------
# evaluate_cost
# ---------------------------------------------------------------------------

def test_cost_running_y_benchmark_quadrature():
    spec = model.ex31()
    committed = StrategyTable(spec.u_lo, spec.u_hi,
                              fn=lambda s, x: (s - 1.0) / 2.0 + 0.0 * np.asarray(x, dtype=float))
    val, se = evaluate_cost(spec, committed, 0.0, 0.0, MCConfig(n_paths=2))
    assert abs(val - (-1.0 / 12.0)) < 1e-10
    assert se == 0.0
    # general t: J(t) = -((T - t - 1)^3 + 1)/12 under u(s) = (s - t - 1)/2
    for t in (0.2, 0.6):
        strat = StrategyTable(spec.u_lo, spec.u_hi,
                              fn=lambda s, x, _t=t: (s - _t - 1.0) / 2.0 + 0.0 * np.asarray(x, dtype=float))
        val, _ = evaluate_cost(spec, strat, t, 0.0, MCConfig(n_paths=2))
        assert abs(val - (-((1.0 - t - 1.0) ** 3 + 1.0) / 12.0)) < 1e-10


def test_cost_mean_field_benchmark_monte_carlo():
    spec = model.ex41()
    u0 = -1.0 / 2.0
    committed = const_strategy(u0, spec)
    val, se = evaluate_cost(spec, committed, 0.0, 1.0,
                            MCConfig(n_paths=100000, seed=8))
    assert abs(val - 0.5) < 3 * se


def test_cost_leader_quadrature():
    spec = model.stackelberg()
    from fbcontrol.riccati import stackelberg_leader
    res = stackelberg_leader()
    strat = StrategyTable(spec.u_lo, spec.u_hi,
                          fn=lambda s, x: res.precommitted(s, 0.0) + 0.0 * np.asarray(x, dtype=float))
    val, _ = evaluate_cost(spec, strat, 0.0, 0.0, MCConfig(n_paths=2))
    assert abs(val - res.leader_cost(0.0)) < 1e-10


def test_cost_general_class_rejected():
    spec = model.linear_heat()
    with pytest.raises(UnsupportedCostClassError):
        evaluate_cost(spec, const_strategy(0.0, spec), 0.0, 0.0, MCConfig(n_paths=10))


# ---------------------------------------------------------------------------
# verify_equilibrium
# ---------------------------------------------------------------------------

def test_verify_refuses_a_nan_window_past_the_config_check():
    # MCConfig refuses a NaN window first; past it, the room test refuses one too
    spec = mv_r0()
    cfg = MCConfig(n_paths=10)
    object.__setattr__(cfg, "eps_list", (math.nan,))
    with pytest.raises(DomainError, match="leaves no room for the window"):
        verify_equilibrium(spec, const_strategy(0.0, spec), (0.2,), cfg)


def test_verify_refuses_a_general_spec_before_simulating(monkeypatch):
    # gbm has neither a reduced running integrand nor a Monte Carlo cost
    # decomposition, so its cost class is general and no route can price it
    def simulate(*args, **kwargs):
        raise AssertionError("simulate_forward was called")

    monkeypatch.setattr(mc, "simulate_forward", simulate)
    spec = model.gbm()
    assert spec.cost_class == "general"
    with pytest.raises(UnsupportedCostClassError,
                       match=r"^general recursive costs are not simulated; use the "
                             r"perturbation-field route \(pde\.solve_perturbation\)$"):
        verify_equilibrium(spec, const_strategy(0.0, spec), (0.0,), MCConfig(n_paths=10))

def test_crn_quotient_exactly_zero_for_identical_strategies():
    spec = mv_r0()
    eq = const_strategy(2.5, spec)
    cfg = MCConfig(n_paths=300, seed=10, eps_list=(0.1,), u_list=(2.5,))
    report = verify_equilibrium(spec, eq, (0.2,), cfg)
    assert all(r["quotient"] == 0.0 for r in report.rows)
    assert report.verdict
    # the closed-loop run, then per evaluation state one base and one perturbed ensemble
    n_states = len({d["state"] for d in report.details})
    assert report.work == 1 + n_states * 2
    assert _work_unit(spec) == "simulated ensembles"


def test_verify_equilibrium_smoke_mean_variance():
    spec = mv_r0()
    report = verify_equilibrium(spec, mv_r0_equilibrium(spec), (0.0, 0.45),
                                MCConfig(n_paths=20000, seed=12))
    assert report.verdict
    report_zero = verify_equilibrium(spec, const_strategy(0.0, spec), (0.0, 0.45),
                                     MCConfig(n_paths=20000, seed=12))
    assert not report_zero.verdict
    # MC rows carry positive standard errors
    assert all(r["stderr"] > 0 for r in report.rows)


def test_verify_equilibrium_deterministic_exact():
    from fbcontrol.riccati import stackelberg_leader
    spec = model.stackelberg()
    res = stackelberg_leader()
    report = verify_equilibrium(spec, res.equilibrium_strategy, (0.0, 0.4),
                                MCConfig(n_paths=2), tol_eq=1e-8)
    assert report.verdict
    at_eq = [r for r in report.rows if r["u"] == -0.5]
    assert all(abs(r["quotient"]) < 1e-10 for r in at_eq)


def _hex(records):
    """The records with every float as its hex text, so that -0.0 and NaN count."""
    return [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()} for r in records]


def _spread(fn):
    """The x-free callable fn spread over the shape of x, as a broadcast form."""
    return lambda s, x: fn(s, x) + 0.0 * np.asarray(x, dtype=float)


@pytest.mark.parametrize("kind", ["equilibrium", "constant"])
def test_scalar_mean_variance_forms_keep_the_bits_of_the_broadcast_forms(kind, monkeypatch):
    spec = model.mean_variance()
    sigma = spec.params["sigma"]
    spread = dataclasses.replace(spec, diffusion=lambda s, x, u: sigma * u + 0.0 * x)
    fn = spec.closed_forms.equilibrium if kind == "equilibrium" else model.constant_control(0.5)
    scalar = StrategyTable(spec.u_lo, spec.u_hi, fn=fn)
    wide = StrategyTable(spec.u_lo, spec.u_hi, fn=_spread(fn))
    # the steppers read the scalar form as a float
    assert type(mc._natural(scalar)(0.3, np.ones((2, 3)))) is float
    assert type(spec.diffusion(0.3, np.ones(3), 0.5)) is float
    cfg = MCConfig(n_paths=600, seed=31, eps_list=(0.1, 0.05))

    def outputs(spec, strat):
        pert = perturbed_strategy(strat, 0.3, 0.1, -1.0, spec)
        report = verify_equilibrium(spec, strat, (0.2, 0.5), cfg)
        return ([simulate_forward(spec, s, 0.0, spec.x0, cfg).paths_tn.tobytes()
                 for s in (strat, pert)], _hex(report.rows), _hex(report.details))

    natural = outputs(spec, scalar)
    assert natural == outputs(spread, wide)
    # and with the steppers calling StrategyTable.__call__, which fills the shape of x
    monkeypatch.setattr(mc, "_natural", lambda strategy: strategy)
    assert natural == outputs(spec, scalar)


def test_scalar_ex31_controls_keep_the_quadrature_bits_of_the_broadcast_forms():
    spec = model.ex31()
    cfg = MCConfig(n_paths=2)
    for fn in (model.constant_control(-0.5), lambda s, x: (s - 1.0) / 2.0):
        scalar = StrategyTable(spec.u_lo, spec.u_hi, fn=fn)
        wide = StrategyTable(spec.u_lo, spec.u_hi, fn=_spread(fn))
        for a, b in ((scalar, wide), (perturbed_strategy(scalar, 0.3, 0.1, 1.25, spec),
                                      perturbed_strategy(wide, 0.3, 0.1, 1.25, spec))):
            assert (evaluate_cost(spec, a, 0.3, 0.2, cfg)[0].hex()
                    == evaluate_cost(spec, b, 0.3, 0.2, cfg)[0].hex())
        a = verify_equilibrium(spec, scalar, (0.5,), cfg, tol_eq=1e-8)
        b = verify_equilibrium(spec, wide, (0.5,), cfg, tol_eq=1e-8)
        assert _hex(a.rows) == _hex(b.rows) and _hex(a.details) == _hex(b.details)


def _scalar_rk4_flow(f, x, nodes):
    """Scalar RK4 of dx/ds = f(s, x) along the nodes; the state at every node."""
    xs = [x]
    for k in range(nodes.size - 1):
        h, s, xc = nodes[k + 1] - nodes[k], nodes[k], xs[-1]
        k1 = f(s, xc)
        k2 = f(s + 0.5 * h, xc + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, xc + 0.5 * h * k2)
        k4 = f(s + h, xc + h * k3)
        xs.append(xc + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return xs


def _scalar_quadrature_cost(spec, strategy, t, x, panels=2048):
    """Reference deterministic cost: one state at a time, one scalar RK4 flow
    per piece and one control call per node (no shared code)."""
    T = spec.horizon
    w = getattr(strategy, "window", ())
    breaks = sorted({t, T} | {e for e in w if t < e < T})
    total = 0.0
    for s0, s1 in zip(breaks[:-1], breaks[1:]):
        if s1 - s0 < 1e-15:
            continue
        s_in = np.nextafter(s1, s0)
        ctrl = lambda s, xx: float(np.asarray(strategy(min(s, s_in), xx)))
        f = lambda s, xx: float(np.asarray(spec.drift(s, xx, ctrl(s, xx))))
        nodes = np.linspace(s0, s1, panels + 1)
        xs = _scalar_rk4_flow(f, x, nodes)
        vals = spec.reduced_running(t, nodes, np.array([ctrl(s, xx) for s, xx in zip(nodes, xs)]))
        h = nodes[1] - nodes[0]
        total += (h / 3.0) * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2])
                              + 2.0 * np.sum(vals[2:-1:2]))
        x = xs[-1]
    return total


def _test_strategy(kind, spec):
    if kind == "time":
        return StrategyTable(spec.u_lo, spec.u_hi,
                             fn=lambda s, x: -0.5 + 0.1 * s + 0.0 * np.asarray(x, dtype=float))
    if kind == "state":
        return StrategyTable(spec.u_lo, spec.u_hi, fn=lambda s, x: -0.5 + 0.3 * x)
    # grid table varying in s and x; its edges clamp to U
    s_grid = np.linspace(0.0, spec.horizon, 5)
    x_grid = np.linspace(-2.0, 2.0, 9)
    values = -0.5 + 0.2 * s_grid[:, None] + 0.8 * np.sin(x_grid)[None, :]
    return StrategyTable(spec.u_lo, spec.u_hi, s_grid=s_grid, x_grid=x_grid, values=values)


class _DistinctStatesSpy:
    """Strategy wrapper recording the most distinct states of one call."""

    def __init__(self, strategy):
        self.strategy = strategy
        self.u_lo, self.u_hi = strategy.u_lo, strategy.u_hi
        self.most_distinct_states = 0

    def __call__(self, s, x):
        n = 1 if isinstance(x, float) else np.unique(np.asarray(x, dtype=float)).size
        self.most_distinct_states = max(self.most_distinct_states, n)
        return self.strategy(s, x)


@pytest.mark.parametrize("kind", ["time", "state", "grid"])
@pytest.mark.parametrize("family", sorted(NUMPY_DRIFTS))
def test_float_drifts_keep_the_bits_of_the_numpy_drifts(family, kind):
    spec = model.make_spec(family, {"x0": 0.2})
    numpy_drift = dataclasses.replace(spec, drift=NUMPY_DRIFTS[family])
    strat = _test_strategy(kind, spec)
    cfg = MCConfig(n_paths=2, eps_list=(0.1, 0.05), u_list=(spec.u_lo, -0.5, 1.25))

    def outputs(spec):
        costs = [evaluate_cost(spec, s, 0.3, 0.2, cfg)[0].hex()
                 for s in (strat, perturbed_strategy(strat, 0.3, 0.05, 1.25, spec))]
        report = verify_equilibrium(spec, strat, (0.3, 0.9), cfg, tol_eq=1e-8)
        return costs, _hex(report.rows), _hex(report.details), report.verdict

    assert outputs(spec) == outputs(numpy_drift)


@pytest.mark.parametrize("kind", ["time", "state"])
@pytest.mark.parametrize("family", ["ex31", "stackelberg"])
def test_a_one_control_spike_column_equals_its_single_cost(family, kind):
    # one window control steps as a one-state flow, on floats
    spec = model.make_spec(family, {"x0": 0.2})
    strat = _test_strategy(kind, spec)
    costs, flows = mc._spike_costs(spec, strat, 0.3, 0.2, 0.05, (1.25,))
    pert = perturbed_strategy(strat, 0.3, 0.05, 1.25, spec)
    assert (costs.tolist(), flows) == ([mc._deterministic_cost(spec, pert, 0.3, 0.2)[0]], 2)


@pytest.mark.parametrize("kind", ["time", "state", "grid"])
@pytest.mark.parametrize("family", ["ex31", "stackelberg"])
def test_batched_deterministic_quotients_equal_single_costs(family, kind):
    spec = model.make_spec(family, {"x0": 0.2})
    eq = _DistinctStatesSpy(_test_strategy(kind, spec))
    # both bounds of U; t = 0.9 with eps = 0.1 ends the window exactly at T,
    # which leaves the post-window piece empty
    u_list = (spec.u_lo, -0.5, 1.25, spec.u_hi)
    cfg = MCConfig(n_paths=2, eps_list=(0.1, 0.05), u_list=u_list)
    assert 0.9 + 0.1 == spec.horizon
    report = verify_equilibrium(spec, eq, (0.3, 0.9), cfg, tol_eq=1e-8)
    assert len(report.details) == 2 * 2 * len(u_list)
    # stackelberg's drift is u, so the column leaves each window in distinct
    # states and the strategy is evaluated on them together; ex31's drift is
    # zero and the column stays at one state
    assert eq.most_distinct_states == (len(u_list) if family == "stackelberg" else 1)
    base = {}       # the unperturbed cost, once per (t, x)
    for d in report.details:
        t, x, eps = d["t"], d["x"], d["eps"]
        if (t, x) not in base:
            base[t, x] = evaluate_cost(spec, eq, t, x, cfg)[0]
        pert = perturbed_strategy(eq, t, eps, d["u"], spec)
        assert d["quotient"] == (evaluate_cost(spec, pert, t, x, cfg)[0] - base[t, x]) / eps
    # single costs equal the scalar one-state-at-a-time quadrature
    for t, eps, u in ((0.3, 0.05, spec.u_hi), (0.9, 0.1, spec.u_lo)):
        pert = perturbed_strategy(eq, t, eps, u, spec)
        assert evaluate_cost(spec, pert, t, 0.2, cfg)[0] == _scalar_quadrature_cost(spec, pert, t, 0.2)
    # one flow from 0, one base flow per probe time, two pieces per window
    # except the window that ends at T
    assert report.work == 1 + (1 + 2 + 2) + (1 + 1 + 2)
    assert _work_unit(spec) == "RK4 flow integrations"


@pytest.mark.parametrize("kind", ["time", "state", "grid"])
def test_one_state_flow_equals_scalar_rk4(kind):
    spec = model.make_spec("stackelberg", {"x0": 0.2})
    strat = _test_strategy(kind, spec)
    nodes = np.linspace(0.15, 0.85, 301)
    f = lambda s, xx: float(np.asarray(spec.drift(s, xx, strat(s, xx))))
    want = _scalar_rk4_flow(f, 0.2, nodes)
    queried = []

    def spy(s, xx):
        queried.append(xx)
        return strat(s, xx)

    xs, us = mc._flow_ode(spec, spy, np.array([0.2]), nodes)
    assert xs.tolist() == [want]
    assert us.tolist() == [[strat(s, x) for s, x in zip(nodes, want)]]
    # float states, four stages per step and one query at the last node: the
    # node controls are the first stages' controls
    assert all(type(x) is float for x in queried)
    assert len(queried) == 4 * (nodes.size - 1) + 1


def test_flows_stop_at_the_first_non_finite_state():
    spec = model.make_spec("stackelberg", {"x0": 0.2})
    nan_late = StrategyTable(spec.u_lo, spec.u_hi, fn=lambda s, x: (
        math.nan if s >= 0.5 else -0.5) + 0.0 * np.asarray(x, dtype=float))
    # node 1024 of 2048 panels is 0.5, the last stage of the step that ends there
    with pytest.raises(BlowUpError) as err:
        evaluate_cost(spec, nan_late, 0.0, 0.2, MCConfig(n_paths=2))
    assert err.value.time == 0.5
    # a column of spike flows stops the same way, at a node just past 0.5
    with pytest.raises(BlowUpError) as err:
        mc._spike_costs(spec, nan_late, 0.3, 0.2, 0.1, (-1.0, 1.0))
    assert 0.5 <= err.value.time < 0.5 + 0.6 / 2048


def test_non_finite_control_on_a_control_free_flow_is_an_evaluation_error():
    # ex31's drift is 0 * x, so its flow stays finite under a NaN control
    spec = model.make_spec("ex31", {"x0": 0.2})
    nan_late = StrategyTable(spec.u_lo, spec.u_hi, fn=lambda s, x: (
        math.nan if s >= 0.5 else -0.5) + 0.0 * np.asarray(x, dtype=float))
    with pytest.raises(EvaluationError) as err:
        evaluate_cost(spec, nan_late, 0.0, 0.2, MCConfig(n_paths=2))
    assert err.value.coefficient == "control" and err.value.where == "s=0.5"
    with pytest.raises(EvaluationError) as err:
        mc._spike_costs(spec, nan_late, 0.3, 0.2, 0.1, (-1.0, 1.0))
    assert err.value.coefficient == "control"
    # a finite control whose running integrand is not finite
    bad_rate = dataclasses.replace(spec, reduced_running=lambda t, s, u: np.where(
        s > 0.75, math.inf, u * u))
    with pytest.raises(EvaluationError) as err:
        evaluate_cost(bad_rate, model.equilibrium_strategy(spec), 0.0, 0.2,
                      MCConfig(n_paths=2))
    assert err.value.coefficient == "reduced_running"
    assert err.value.where == f"s={0.75 + 1 / 2048:.6g}"


def _quotient_family(family):
    if family == "mean_variance":
        spec = mv_r0()
        # an x-dependent strategy that leaves U on part of the ensemble
        strat = StrategyTable(-3.0, 3.0, fn=lambda s, x: 2.5 - 1.5 * x + s)
        return spec, strat, 0.2, 1.1
    spec = model.ex41()                   # mc.running = u^2
    strat = StrategyTable(spec.u_lo, spec.u_hi, fn=lambda s, x: -0.5 * x)
    return spec, strat, 0.3, 0.8


@pytest.mark.parametrize("chunk_cells", [None, 5 * 700, 7 * 100, 600])
@pytest.mark.parametrize("family", ["mean_variance", "ex41"])
def test_crn_batch_equals_per_ensemble_quotients(family, chunk_cells, monkeypatch):
    if chunk_cells is not None:
        # blocks of 7 or 5 ensembles of 700 paths: chunks of 500 or 700, 100 or
        # 140, 85 or 120 columns; a single ensemble steps whole, whole, or in
        # chunks of 600
        monkeypatch.setattr(mc, "_CHUNK_CELLS", chunk_cells)
    spec, strat, t, x = _quotient_family(family)
    # an interior probe time; u = 5.0, which the mean-variance strategy's
    # bounds [-3, 3] clip inside U = [-20, 20]; and t = 0.9, whose widest
    # window ends exactly at T
    assert 0.9 + 0.1 == spec.horizon
    for t, u_list in ((t, (-1.0, 0.0, 2.0)), (t, (-1.0, 5.0)), (0.9, (-1.0, 2.0))):
        cfg = MCConfig(n_paths=700, seed=41, eps_list=(0.1, 0.05), u_list=u_list)
        n_steps = int(round((spec.horizon - t) * cfg.steps_per_unit))
        z = path_normals(cfg.seed, cfg.n_paths, n_steps, stream=5)
        batch, ensembles = mc._spike_quotients_mc(spec, strat, t, x, cfg, z)
        assert ensembles == 1 + len(batch)
        assert [spike for spike, _ in batch] == [(e, u) for e in cfg.eps_list for u in cfg.u_list]
        for (eps, u), (q, se) in batch:
            assert (q, se) == quotient_mc(spec, strat, t, x, cfg, z, eps, u)
            assert se > 0
    clipped = mc._spike_columns(spec, strat, 0.2, [(0.1, 5.0)])[1].tolist()
    assert clipped == ([3.0] if family == "mean_variance" else [5.0])


def test_chunked_artifacts_equal_whole_block(tmp_path, monkeypatch):
    # mc-verify at 600 paths steps blocks of 16 ensembles and the one-row
    # closed loop; fk-check steps one row per sample point
    (tmp_path / "ex41.json").write_text('{"family": "ex41"}')
    runs = {"verify.csv": [["mc-verify", "--times", "0.2,0.5"],
                           ["mc-verify", "--config", str(tmp_path / "ex41.json"),
                            "--strategy-const", "-0.5", "--times", "0.2,0.5"]],
            "fk.csv": [["fk-check", "--grid-nt", "65"]]}

    def artifacts(cells):
        monkeypatch.setattr(mc, "_CHUNK_CELLS", cells)
        out = []
        for name, argvs in runs.items():
            for k, argv in enumerate(argvs):
                run_dir = tmp_path / f"{cells}-{name}-{k}"
                # ex41 under the constant -0.5 fails verification (exit 3)
                assert cli.run(argv + ["--paths", "600", "--out", str(run_dir)]) in (0, 3), argv
                out.append((run_dir / name).read_bytes())
        return out

    whole = artifacts(1 << 62)
    # columns per chunk of the 16-row block and of one row: 150 (dividing
    # 600) and all 600; 18 and 300 (dividing 600); 28 and 448
    for cells in (16 * 150, 300, 448):
        assert artifacts(cells) == whole, cells


_ID_TIMES = np.linspace(0.0, 1.0, 11)


def _stepped_ids(shape, bad, cells, monkeypatch):
    """Step cells holding their own flat ids under a control that turns NaN
    at step k in cell i for each bad[i] = k; returns the BlowUpError and the
    latest step each chunk's control saw."""
    monkeypatch.setattr(mc, "_CHUNK_CELLS", cells)
    starts = np.full(math.prod(shape), np.inf)
    for i, k in bad.items():
        starts[i] = _ID_TIMES[k]
    latest = {}

    def control(s, x):
        first = int(x.flat[0]) % shape[-1]
        latest[first] = max(latest.get(first, s), s)
        return np.where(s >= starts[x.astype(int)], math.nan, 0.0)

    frozen = SimpleNamespace(drift=lambda s, x, u: 0.0 * u, diffusion=lambda s, x, u: 0.0 * x)
    x = np.arange(math.prod(shape), dtype=float).reshape(shape)
    with pytest.raises(BlowUpError) as err:
        mc._euler_steps(frozen, control, x, _ID_TIMES, 0.1, np.zeros((10, shape[-1])))
    return err.value, latest


@pytest.mark.parametrize("shape, bad, step, path, latest", [
    # one row: the last chunk blows up at an earlier step than the first two
    ((10,), {2: 6, 6: 4, 9: 2}, 2, 9, (6, 4, 2)),
    # three rows: chunks 0 and 1 blow up at the same step, and the first
    # non-finite entry in row-major order (row 0, path 5) is in chunk 1;
    # chunk 2 would blow up later and stops at that step
    ((3, 10), {21: 3, 13: 3, 5: 3, 18: 5}, 3, 5, (3, 3, 3)),
])
def test_chunked_blow_up_names_the_whole_block_time_and_path(shape, bad, step, path, latest,
                                                             monkeypatch):
    whole, _ = _stepped_ids(shape, bad, 1 << 62, monkeypatch)
    # chunks of 4 paths: columns 0-3, 4-7 and 8-9
    chunked, seen = _stepped_ids(shape, bad, 4 * math.prod(shape[:-1]), monkeypatch)
    assert (whole.time, str(whole)) == (chunked.time, str(chunked))
    assert chunked.time == _ID_TIMES[step + 1] and str(chunked).endswith(f"path {path}")
    # a chunk steps no further than the earliest bad step found before it
    assert seen == {c0: _ID_TIMES[k] for c0, k in zip((0, 4, 8), latest)}


def test_a_nan_quotient_is_the_least_wherever_it_stands():
    pairs = [(0.5, "a"), (-0.25, "b"), (math.nan, "c"), (-0.25, "d")]
    for order in (pairs, pairs[::-1], pairs[2:] + pairs[:2]):
        assert min(order, key=lambda p: mc._nan_first(p[0]))[1] == "c"
    # without a NaN the first of the least, as min gives it
    assert min(pairs[:2] + pairs[3:], key=lambda p: mc._nan_first(p[0]))[1] == "b"


@pytest.mark.parametrize("smallest, passes", [
    ((0.0, 0.5), True),
    ((math.nan, 0.5), False), ((0.5, math.nan), False),
    ((math.inf, 0.5), True), ((-math.inf, 0.5), False),
    ((-0.01, 0.5), True), ((-0.2, 0.5), False),
])
def test_verdict_needs_every_smallest_window_minimum_within_tolerance_and_not_nan(
        smallest, passes, monkeypatch):
    # quotients set per spike; the larger window's NaN does not enter the
    # verdict.  A +inf quotient is a spike infinitely worse than the strategy,
    # which the equilibrium inequality allows.
    spec = model.make_spec("ex31")
    cfg = MCConfig(n_paths=2, eps_list=(0.1, 0.05), u_list=(-1.0, 1.0))
    quotients = {(0.1, -1.0): math.nan, (0.1, 1.0): 0.0,
                 (0.05, -1.0): smallest[0], (0.05, 1.0): smallest[1]}
    monkeypatch.setattr(mc, "_spike_quotients_flow", lambda spec, psi_bar, t, x, cfg: (
        [(spike, (q, 0.0)) for spike, q in quotients.items()], 0))
    report = verify_equilibrium(spec, model.equilibrium_strategy(spec), (0.3,), cfg, tol_eq=0.1)
    assert report.verdict is passes
    least = min(smallest, key=mc._nan_first)
    assert report.min_quotient_smallest_eps.hex() == least.hex()


def _terminal_spec(spec, terminal):
    return dataclasses.replace(spec, mc_cost=dataclasses.replace(spec.mc_cost, terminal=terminal))


def test_a_nan_quotient_at_the_last_evaluation_state_fails_the_verdict(tmp_path, monkeypatch,
                                                                       capsys):
    # r = 0 and an x-free equilibrium: the ensembles from the four evaluation
    # states are one another shifted, so a terminal that is NaN above the
    # highest state the q75 ensemble alone reaches makes only q75's costs NaN
    spec = mv_r0()
    eq = mv_r0_equilibrium(spec)
    cfg = MCConfig(n_paths=200, seed=7, eps_list=(0.05,))
    terminal = spec.mc_cost.terminal
    highs = []
    spied = _terminal_spec(spec, lambda x: highs.append(float(np.max(x))) or terminal(x))
    report = verify_equilibrium(spied, eq, (0.5,), cfg, tol_eq=1e3)
    states = list(dict.fromkeys(d["state"] for d in report.details))
    assert report.verdict and states == ["mean", "q25", "q50", "q75"] and len(highs) == 4
    assert highs[-1] > max(highs[:-1])
    cut = 0.5 * (max(highs[:-1]) + highs[-1])
    bad = _terminal_spec(spec, lambda x: np.where(x > cut, math.nan, terminal(x)))
    report = verify_equilibrium(bad, eq, (0.5,), cfg, tol_eq=1e3)
    assert {d["state"] for d in report.details if math.isnan(d["quotient"])} == {"q75"}
    assert any(math.isnan(r["quotient"]) for r in report.rows)
    assert not report.verdict and math.isnan(report.min_quotient_smallest_eps)
    # the same family registered and run through the CLI: a FAIL, exit 3
    monkeypatch.setitem(model.FAMILIES, "nan_above_q75", None)
    model.register_family("nan_above_q75", lambda: bad)
    config = tmp_path / "nan_above_q75.json"
    config.write_text('{"family": "nan_above_q75"}')
    out = tmp_path / "out"
    assert cli.run(["mc-verify", "--config", str(config), "--paths", "200", "--seed", "7",
                    "--eps", "0.05", "--times", "0.5", "--tol-eq", "1000",
                    "--out", str(out)]) == 3
    summary = (out / "summary.txt").read_text()
    assert "verdict=FAIL" in summary and "min quotient at smallest window = nan" in summary
    capsys.readouterr()


def test_verify_without_spike_controls_counts_the_base_flows():
    # the closed-loop flow and the unperturbed cost flow from t = 0.3; no row
    # at the smallest window, so the minimum quotient is NaN and the verdict fails
    spec = model.make_spec("ex31")
    report = verify_equilibrium(spec, model.equilibrium_strategy(spec), (0.3,),
                                MCConfig(n_paths=2, u_list=()))
    assert report.work == 2 and report.rows == [] and report.details == []
    assert report.verdict is False and math.isnan(report.min_quotient_smallest_eps)


def test_verify_details_use_probe_time_streams():
    spec = mv_r0()
    strat = mv_r0_equilibrium(spec)
    cfg = MCConfig(n_paths=400, seed=8, eps_list=(0.1,), u_list=(0.0, 3.0))
    t_list = (0.2, 0.5)
    report = verify_equilibrium(spec, strat, t_list, cfg)
    # the closed-loop run keeps only its probe-time rows, equal to the full run's
    full = simulate_forward(spec, strat, 0.0, spec.x0, cfg)
    kept = simulate_forward(spec, strat, 0.0, spec.x0, cfg, keep_times=t_list)
    assert kept.paths_tn.shape == (2, cfg.n_paths)
    for t in t_list:
        assert np.array_equal(kept.state_at(t), full.state_at(t))
    for t_idx, t in enumerate(t_list):
        n_steps = int(round((spec.horizon - t) * cfg.steps_per_unit))
        z = path_normals(cfg.seed, cfg.n_paths, n_steps, stream=1 + t_idx)
        for d in (d for d in report.details if d["t"] == t):
            q, se = quotient_mc(spec, strat, t, d["x"], cfg, z, d["eps"], d["u"])
            assert (d["quotient"], d["stderr"]) == (q, se)


def test_closed_loop_stops_at_the_last_probe_time(tmp_path, monkeypatch):
    drawn = []
    normals = mc.path_normals

    def spy(seed, n_paths, n_steps, *args, **kwargs):
        drawn.append(n_steps)
        return normals(seed, n_paths, n_steps, *args, **kwargs)

    simulate = mc.simulate_forward

    def full_horizon(spec, strategy, t0, x0, cfg, normals=None, keep_times=None):
        return simulate(spec, strategy, t0, x0, cfg)

    def artifacts(tag):
        spec = mv_r0()
        cfg = MCConfig(n_paths=400, seed=8, eps_list=(0.1, 0.05), u_list=(0.0, 3.0))
        report = verify_equilibrium(spec, mv_r0_equilibrium(spec), (0.2, 0.45), cfg)
        gap = demonstrate_inconsistency("ex41", MCConfig(n_paths=400, seed=13),
                                        {"taus": [0.1, 0.35]})
        write_csv(tmp_path / f"verify-{tag}.csv", *_verify_table(report))
        write_csv(tmp_path / f"gap-{tag}.csv", *_gap_table(gap))
        return (report.details, (tmp_path / f"verify-{tag}.csv").read_bytes(),
                (tmp_path / f"gap-{tag}.csv").read_bytes())

    monkeypatch.setattr(mc, "path_normals", spy)
    kept = artifacts("kept")
    # the closed loops draw 45 and 35 steps, not 100
    assert drawn[0] == 45 and 35 in drawn and 100 not in drawn
    monkeypatch.setattr(mc, "simulate_forward", full_horizon)
    assert artifacts("full") == kept
    assert 100 in drawn


def test_deterministic_closed_loop_stops_past_the_last_probe_time(monkeypatch):
    spec = model.make_spec("stackelberg", {"x0": 0.2})     # x' = u
    eq = _test_strategy("state", spec)
    flows = []
    flow_ode = mc._flow_ode

    def spy(spec, control, x, s_nodes):
        flows.append(s_nodes)
        return flow_ode(spec, control, x, s_nodes)

    monkeypatch.setattr(mc, "_flow_ode", spy)
    cfg = MCConfig(n_paths=2, eps_list=(0.05,), u_list=(-1.0, 0.5))
    report = verify_equilibrium(spec, eq, (0.1, 0.3), cfg)
    # 0.3 lies between nodes 614 and 615 of 2048 panels: the flow ends at 615
    nodes = np.linspace(0.0, spec.horizon, 2049)
    assert np.array_equal(flows[0], nodes[:616])
    full = flow_ode(spec, eq, np.array([0.2]), nodes)[0][0]
    assert [d["x"] for d in report.details] == [float(np.interp(t, nodes, full))
                                                for t in (0.1, 0.1, 0.3, 0.3)]


def test_perturbed_strategy_clips_only_a_non_clamping_base():
    spec = mv_r0()
    base = StrategyTable(-1.0, 1.0, fn=lambda s, x: 3.0 * np.asarray(x, dtype=float))
    pert = perturbed_strategy(base, 0.3, 0.1, 5.0, spec)      # 5 lies in the spec's U
    assert pert.outside is base
    x = np.array([-1.0, 0.25, 0.9])
    assert np.array_equal(pert(0.5, x), base(0.5, x))
    assert np.array_equal(pert(0.3, x), np.ones(3))         # clip(5) inside the window


def test_verify_rejects_window_past_horizon():
    spec = mv_r0()
    with pytest.raises(DomainError):
        verify_equilibrium(spec, mv_r0_equilibrium(spec), (0.95,),
                           MCConfig(n_paths=10))


@pytest.mark.parametrize("family", ["mean_variance", "stackelberg"])
def test_verify_refuses_empty_probe_times_before_simulating(family, monkeypatch):
    # the Monte Carlo route (mean_variance) and the quadrature route
    # (stackelberg) both refuse an empty t_list before any closed loop or flow
    def simulate(*args, **kwargs):
        raise AssertionError("a closed loop or a flow was run")

    monkeypatch.setattr(mc, "simulate_forward", simulate)
    monkeypatch.setattr(mc, "_flow_ode", simulate)
    spec = model.FAMILIES[family]()
    for t_list in ((), [], np.array([])):
        with pytest.raises(DomainError, match="no probe times"):
            verify_equilibrium(spec, const_strategy(0.0, spec), t_list, MCConfig(n_paths=10))


def test_an_euler_grid_too_large_to_draw_is_refused():
    # at T = 1e300 the grid of 1e302 steps reached np.arange as a ValueError,
    # and at 1e307 the step count is inf, which round() refuses
    for T in (1e300, 1e307):
        spec = model.gbm(T=T)
        with pytest.raises(DomainError, match="would draw more than"):
            simulate_forward(spec, const_strategy(0.0, spec), 0.0, 1.0, MCConfig(n_paths=2))


def test_simulate_forward_refuses_empty_keep_times():
    spec = mv_r0()
    with pytest.raises(DomainError, match="keep_times is empty"):
        simulate_forward(spec, const_strategy(0.0, spec), 0.0, 1.0, MCConfig(n_paths=10),
                         keep_times=())
    # an inconsistency gap refuses no taus before it simulates
    with pytest.raises(DomainError, match="taus is empty"):
        demonstrate_inconsistency("ex41", MCConfig(n_paths=10), {"taus": []})


# ---------------------------------------------------------------------------
# demonstrate_inconsistency
# ---------------------------------------------------------------------------

def test_gap_running_y_benchmark_exact():
    rep = demonstrate_inconsistency("ex31")
    for row in rep["rows"]:
        assert row["gap"] == row["tau"] / 2.0
    assert rep["exact"]


def test_gap_leader_closed_form():
    rep = demonstrate_inconsistency("stackelberg")
    half = [r for r in rep["rows"] if abs(r["tau"] - 0.5) < 1e-12][0]
    assert abs(half["gap"] - 0.5 * math.log(4.0 / 3.0)) < 1e-15


def test_gap_mean_field_benchmark_fraction():
    rep = demonstrate_inconsistency("ex41", MCConfig(n_paths=20000, seed=13))
    for row in rep["rows"]:
        assert row["fraction_gt_1e-3"] > 0.99


def test_gap_wealth_variance_precommitted():
    rep = demonstrate_inconsistency("meanvar_precommit", MCConfig(n_paths=5000, seed=14))
    assert all(row["gap"] > 0 for row in rep["rows"])
    assert all(row["fraction_gt_1e-3"] > 0.9 for row in rep["rows"])


def test_gap_unknown_example():
    with pytest.raises(DomainError):
        demonstrate_inconsistency("nope")
    with pytest.raises(DomainError):            # a family without a closed-form gap
        demonstrate_inconsistency("gbm")


# ---------------------------------------------------------------------------
# check_feynman_kac
# ---------------------------------------------------------------------------

def test_fk_no_noise_is_exact():
    spec = ControlProblemSpec(
        name="flat", drift=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        generator=lambda s, x, u, y, z: 0.0 * np.asarray(x, dtype=float),
        terminal=lambda x: np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0 * np.asarray(x, dtype=float),
        cost_terminal=lambda t, xt, x, y: y,
        u_lo=-1.0, u_hi=1.0, horizon=1.0,
        terminal_split=model.TerminalSplit(
            fhat=lambda t, xt, x: 0.0 * np.asarray(x, dtype=float),
            ghat=lambda t, xt, y: np.asarray(y, dtype=float),
            ghat_y=lambda t, xt, y: np.ones_like(np.asarray(y, dtype=float)),
            xtilde_free=True))
    grid = GridSpec(-2.0, 2.0, 17, 17, 1.0)
    strat = const_strategy(0.0, spec)
    theta = solve_theta(spec, strat, grid)
    theta0 = solve_theta0_family(spec, strat, theta, None, grid)
    rows = check_feynman_kac(spec, theta, theta0, strat,
                             [(0.0, grid.xs[4]), (grid.times[8], grid.xs[12])],
                             MCConfig(n_paths=100, seed=15))
    for row in rows:
        assert row["y_mc"] == row["y_field"]
        assert row["z_y"] == 0.0 and row["z_y0"] == 0.0


def test_fk_mean_variance_reference_fields():
    spec = mv_r0()
    grid = default_grid(spec, nx=65, nt=65)
    theta, theta0 = reference_fields(spec, grid)
    strat = mv_r0_equilibrium(spec)
    rows = check_feynman_kac(spec, theta, theta0, strat,
                             [(0.0, spec.x0), (grid.times[32], grid.xs[40])],
                             MCConfig(n_paths=20000, seed=16))
    for row in rows:
        assert abs(row["z_y"]) <= 3.0
        assert abs(row["z_y0"]) <= 3.0


def test_fk_rejects_field_dependent_generators():
    spec = model.stackelberg()   # generator depends on y
    grid = GridSpec(-1.0, 1.0, 9, 9, 1.0)
    strat = const_strategy(-0.5, spec)
    theta = solve_theta(spec, strat, grid)
    with pytest.raises(UnsupportedCostClassError):
        check_feynman_kac(spec, theta, None, strat, [(0.0, 0.0)],
                          MCConfig(n_paths=10))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_emit_csvs(tmp_path):
    spec = mv_r0()
    report = verify_equilibrium(spec, const_strategy(2.5, spec), (0.2,),
                                MCConfig(n_paths=100, seed=17, eps_list=(0.1,),
                                         u_list=(0.0, 2.5)))
    p = tmp_path / "verify.csv"
    write_csv(p, *_verify_table(report))
    lines = p.read_text().splitlines()
    assert lines[0] == "t,eps,u,quotient,stderr"
    assert len(lines) == 1 + len(report.rows)

    rep = demonstrate_inconsistency("ex31")
    g = tmp_path / "gap.csv"
    write_csv(g, *_gap_table(rep))
    lines = g.read_text().splitlines()
    assert lines[0] == "tau,gap"
