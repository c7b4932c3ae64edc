import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcontrol import model
from fbcontrol.errors import DegeneracyError, DomainError
from fbcontrol.model import (ControlProblemSpec, StrategyTable, hamiltonian_H,
                             hamiltonian_H0_hat, heat_kernel, make_probe_grid,
                             make_spec, spec_from_json, spec_to_json, validate_spec)
from fbcontrol.riccati import _simpson


def _bare_spec(drift, diffusion, generator=None, m=1, U=(-10.0, 10.0), T=1.0,
               cost_generator=None):
    zero = lambda s, x, u, y, z: 0.0 * np.asarray(x, dtype=float)
    return ControlProblemSpec(
        name="custom", drift=drift, diffusion=diffusion,
        generator=generator or zero,
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        cost_generator=cost_generator or (lambda t, s, xt, x, u, y, z, y0, z0: 0.0),
        cost_terminal=lambda t, xt, x, y: 0.0,
        u_lo=U[0], u_hi=U[1], horizon=T)


def test_hamiltonian_vanishes_without_coefficients():
    spec = _bare_spec(lambda s, x, u: 0.0, lambda s, x, u: 0.0)
    for theta, p, P in ((0.0, 0.0, 0.0), (1.3, -2.0, 5.0), (0.1, 7.0, -3.0)):
        assert hamiltonian_H(spec, 0.2, 0.5, 1.0, theta, p, P) == 0.0


def test_hamiltonian_three_term_sum():
    # b = u, sigma = 1, g = 0: H = P/2 + p u
    spec = _bare_spec(lambda s, x, u: u, lambda s, x, u: 1.0)
    assert hamiltonian_H(spec, 0.0, 0.0, 3.0, 0.0, 2.0, 4.0) == 8.0


def test_hamiltonian_matches_independent_classical_generator():
    # re-implemented recursive generator, compared on random points
    spec = model.recursive_lq()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        s, x, u, theta, p, P = rng.uniform(-2, 2, size=6)
        sig = 1.0
        a = 0.5 * sig * sig
        g = 0.5 * (u * u + x * x)
        oracle = P * a + p * u + g
        worst = max(worst, abs(hamiltonian_H(spec, s, x, u, theta, p, P) - oracle))
    assert worst == 0.0


def test_hamiltonian_affine_in_P_and_p():
    spec = model.recursive_lq()
    rng = np.random.default_rng(11)
    for _ in range(20):
        s, x, u, theta, p, P1, P2 = rng.uniform(-1.5, 1.5, size=7)
        mid = hamiltonian_H(spec, s, x, u, theta, p, 0.5 * (P1 + P2))
        ends = 0.5 * (hamiltonian_H(spec, s, x, u, theta, p, P1)
                      + hamiltonian_H(spec, s, x, u, theta, p, P2))
        assert abs(mid - ends) < 1e-12
        p1, p2 = rng.uniform(-1.5, 1.5, size=2)
        mid = hamiltonian_H(spec, s, x, u, theta, 0.5 * (p1 + p2), P1)
        ends = 0.5 * (hamiltonian_H(spec, s, x, u, theta, p1, P1)
                      + hamiltonian_H(spec, s, x, u, theta, p2, P1))
        assert abs(mid - ends) < 1e-12


def test_h0_hat_trivial_zero():
    spec = _bare_spec(lambda s, x, u: 0.0, lambda s, x, u: 0.0)
    val = hamiltonian_H0_hat(spec, 0.1, 0.4, 0.2, 0.3, 1.0,
                             theta=0.7, p=1.1, P=2.0, theta0=0.5, p0=0.0,
                             q0=0.0, P0=0.0)
    assert val == 0.0


def test_h0_hat_mean_variance_quadratic_oracle():
    spec = model.mean_variance(r=0.03, mu=0.08, sigma=0.2, gamma=2.0)
    r, mu, sg = 0.03, 0.08, 0.2
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0, 1)
        s = rng.uniform(t, 1)
        xt, x, u, theta, p, P, theta0, p0, q0, P0 = rng.uniform(-2, 2, size=10)
        val = hamiltonian_H0_hat(spec, t, s, xt, x, u, theta, p, P, theta0, p0, q0, P0)
        a2 = 0.5 * sg * sg * (P0 + q0 * P)
        a1 = (mu - r) * (p0 + q0 * p)
        a0 = r * x * (p0 + q0 * p)
        oracle = a2 * u * u + a1 * u + a0
        assert abs(val - oracle) < 1e-12 * max(1.0, abs(oracle))


def test_h0_hat_leader_linear_coefficient_one_gives_minus_half():
    spec = model.stackelberg()
    s, y = 0.3, 0.7
    # q0 = 0, p0 = 0: objective reduces to y + u + u^2
    us = np.linspace(-2.0, 2.0, 1601)
    vals = [hamiltonian_H0_hat(spec, s, s, 0.0, 0.0, u, theta=y, p=0.0, P=0.0,
                               theta0=0.0, p0=0.0, q0=0.0, P0=0.0) for u in us]
    assert abs(us[int(np.argmin(vals))] + 0.5) < 1e-2
    # nonzero (p0, q0) arranged so the net linear coefficient is still 1
    p0, q0 = 0.5, 1.0
    p = 1.0 / (2.0 - s) - p0
    vals = [hamiltonian_H0_hat(spec, s, s, 0.0, 0.0, u, theta=y, p=p, P=0.0,
                               theta0=0.0, p0=p0, q0=q0, P0=0.0) for u in us]
    assert abs(us[int(np.argmin(vals))] + 0.5) < 1e-2


def test_h0_hat_affine_in_q0_with_slope_H():
    spec = model.recursive_lq()
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = rng.uniform(0, 0.5)
        s = rng.uniform(t, 1)
        xt, x, u, theta, p, P, theta0, p0, P0 = rng.uniform(-1.5, 1.5, size=9)
        h0 = hamiltonian_H0_hat(spec, t, s, xt, x, u, theta, p, P, theta0, p0, 0.0, P0)
        h2 = hamiltonian_H0_hat(spec, t, s, xt, x, u, theta, p, P, theta0, p0, 2.0, P0)
        slope = (h2 - h0) / 2.0
        assert abs(slope - hamiltonian_H(spec, s, x, u, theta, p, P)) < 1e-12
        # q0 = 0 leaves the pure cost Hamiltonian: P0 a + p0 b (g0 = 0 here)
        assert abs(h0 - (P0 * 0.5 + p0 * u)) < 1e-12


# the built-in families with one backward component, the only ones the
# Hamiltonians take
SCALAR_Y_FAMILIES = sorted(name for name, build in model.FAMILIES.items() if build().m == 1)


@pytest.mark.parametrize("family", SCALAR_Y_FAMILIES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_declared_hamiltonians_are_quadratic_in_u(family, data):
    # every built-in Hamiltonian is quadratic in u, so the minimizer's fast path
    # solves it without Brent: at random scalar (s, x, theta, theta_x, theta_xx,
    # d, d_x, d_y, d_xx), the third difference of H0_hat over four equally
    # spaced controls of U vanishes to rounding
    spec = model.FAMILIES[family]()
    value = st.floats(-10.0, 10.0)
    s = data.draw(st.floats(0.0, spec.horizon))
    x, theta, theta_x, theta_xx, d, d_x, d_y, d_xx = (data.draw(value) for _ in range(8))
    H = np.array([hamiltonian_H0_hat(spec, s, s, x, x, u, theta, theta_x, theta_xx,
                                     d, d_x, d_y, d_xx)
                  for u in np.linspace(spec.u_lo, spec.u_hi, 4)])
    third = H[3] - 3.0 * H[2] + 3.0 * H[1] - H[0]
    assert abs(third) <= 64.0 * np.spacing(np.max(np.abs(H)))


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("family", SCALAR_Y_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_block_hamiltonian_equals_node_calls(family, rows, data):
    # the minimizer's call: an (rows, 1) column of times, an (n,) row of states
    # and (rows, n) controls, fields and weights; every entry has the bits of
    # the scalar call at its node, a one-row block included
    spec = model.FAMILIES[family]()
    n = data.draw(st.integers(1, 5))
    value = st.floats(-10.0, 10.0)
    s = np.array([data.draw(st.floats(0.0, spec.horizon)) for _ in range(rows)])[:, None]
    x = np.array([data.draw(value) for _ in range(n)])
    u, *args = (np.array([[data.draw(value) for _ in range(n)] for _ in range(rows)])
                  for _ in range(8))
    u = np.clip(u, spec.u_lo, spec.u_hi)
    block = hamiltonian_H0_hat(spec, s, s, x, x, u, *args)
    assert block.shape == (rows, n)
    nodes = np.array([[hamiltonian_H0_hat(spec, s[i, 0], s[i, 0], x[j], x[j], u[i, j],
                                          *(float(a[i, j]) for a in args))
                       for j in range(n)] for i in range(rows)])
    assert np.array_equal(block.view(np.int64), nodes.view(np.int64))


def test_scalar_fields_broadcast_against_a_row_of_states():
    # scalar fields next to an (n,) row of states and controls: each node
    # gets the value of its own scalar call, none is summed or dropped
    spec = model.recursive_lq()
    x, u = np.array([0.0, 1.0, 2.0]), np.array([0.5, -0.5, 0.25])
    theta_p_P = (0.3, 1.0, 2.0)
    H = hamiltonian_H(spec, 0.1, x, u, *theta_p_P)
    assert np.array_equal(H, [hamiltonian_H(spec, 0.1, xi, ui, *theta_p_P) for xi, ui in zip(x, u)])
    weights = (0.4, -0.7, 1.5, 0.2)
    H0 = hamiltonian_H0_hat(spec, 0.1, 0.1, x, x, u, *theta_p_P, *weights)
    assert np.array_equal(H0, [hamiltonian_H0_hat(spec, 0.1, 0.1, xi, xi, ui, *theta_p_P, *weights)
                               for xi, ui in zip(x, u)])


def test_hamiltonians_refuse_two_backward_components():
    # the Hamiltonians are scalar in Y, like the PDE route that minimizes them:
    # ex31 (m = 2) is refused as the PDE entries refuse it
    spec = model.ex31()
    with pytest.raises(DomainError, match="has m = 2"):
        hamiltonian_H(spec, 0.2, 0.0, 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="has m = 2"):
        hamiltonian_H0_hat(spec, 0.1, 0.2, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_heat_kernel_values():
    assert abs(heat_kernel(lambda r, m: 0.5, 0.0, 0.0, 1.0, 0.0)
               - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    val = heat_kernel(lambda r, m: 1.0, 0.0, 1.0, 0.25, 0.0)
    assert abs(val - (4.0 * math.pi * 0.25) ** -0.5 * math.exp(-1.0)) < 1e-12


def test_heat_kernel_normalizes():
    mu = np.linspace(-8.0, 8.0, 2049)
    vals = np.array([heat_kernel(lambda r, m: 0.5, 0.0, 0.0, 1.0, m) for m in mu])
    assert abs(_simpson(vals, mu[1] - mu[0]) - 1.0) < 1e-9


def test_heat_kernel_domain_and_degeneracy_errors():
    with pytest.raises(DomainError):
        heat_kernel(lambda r, m: 1.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(DegeneracyError):
        heat_kernel(lambda r, m: 0.0, 0.0, 0.0, 1.0, 0.0)


def test_validate_spec_flags():
    mv = model.mean_variance()
    rep = validate_spec(mv, {"s": [0.0, 0.5], "x": [0.8, 1.2], "u": [0.0, 0.5]})
    assert rep["finite"]
    assert not rep["nondegenerate"]          # u = 0 probe makes sigma u vanish
    assert rep["suggested_route"] == "ode"

    heat = model.linear_heat(a=1.0)
    rep = validate_spec(heat, make_probe_grid(heat))
    assert rep["nondegenerate"] and abs(rep["lambda0"] - 1.0) < 1e-12
    assert rep["suggested_route"] == "pde"

    stk = model.stackelberg()
    rep = validate_spec(stk, make_probe_grid(stk))
    assert not rep["nondegenerate"]
    assert rep["suggested_route"] == "ode"
    assert rep["cost_class_detected"] == "deterministic"


def test_cost_class_follows_the_cost_data():
    assert "cost_class" not in {f.name for f in fields(ControlProblemSpec)}
    classes = {name: make_spec(name).cost_class for name in model.FAMILIES}
    assert classes == {"mean_variance": "bolza_condexp", "recursive_lq": "bolza_condexp",
                       "linear_heat": "general", "bkm_separable": "general",
                       "stackelberg": "deterministic", "ex31": "deterministic",
                       "ex41": "bolza_condexp", "gbm": "general"}
    mv = model.mean_variance()
    assert replace(mv, mc_cost=None).cost_class == "general"
    assert replace(mv, reduced_running=lambda t, s, u: u).cost_class == "deterministic"
    for name in model.FAMILIES:
        spec = make_spec(name)
        assert validate_spec(spec)["cost_class_detected"] == spec.cost_class, name


def test_validate_spec_probes_column_s():
    # the PDE minimizer hands coefficients s as an (rows, 1) column
    for name in model.FAMILIES:
        assert validate_spec(make_spec(name))["column_s_failures"] == [], name
    stk = model.stackelberg()
    scalar_only = replace(stk, generator=lambda s, x, u, y, z:
                          -(np.asarray(y) + u) / (2.0 - math.log1p(s)))
    collapsed = replace(stk, drift=lambda s, x, u: u + 0.0 * x + float(np.max(s)))
    assert validate_spec(scalar_only)["column_s_failures"] == ["generator"]
    assert validate_spec(collapsed)["column_s_failures"] == ["drift"]


def test_validate_spec_measures_a_control_free_diffusion():
    # sigma at every probed control against the first: only mean-variance's
    # sigma u moves with u; ex41's sigma = x does not
    free = {name: validate_spec(make_spec(name))["diffusion_control_free"]
            for name in model.FAMILIES}
    assert free == {name: name != "mean_variance" for name in model.FAMILIES}
    # 1 + u^2 agrees at both ends of the probe u = -1 .. 1 and moves in between
    even = replace(model.linear_heat(), diffusion=lambda s, x, u: 1.0 + u * u + 0.0 * x)
    assert validate_spec(even)["diffusion_control_free"] is False


def test_validate_spec_records_raising_probes():
    # the Lipschitz probe at x + dx and the control-free diffusion probe
    # raise past x = 2 and u = 0.4; validate_spec reports and never raises
    def drift(s, x, u):
        if np.any(np.asarray(x) > 2.0):
            raise ValueError("drift undefined past x = 2")
        return u + 0.0 * x

    def diffusion(s, x, u):
        if np.any(np.asarray(u) > 0.4):
            raise ValueError("diffusion undefined past u = 0.4")
        return 1.0 + 0.0 * x

    heat = model.linear_heat(a=1.0)
    rep = validate_spec(replace(heat, drift=drift), {"s": [0.0], "x": [1.0, 2.0], "u": [0.0]})
    assert rep["bad_points"] == [(0.0, 2.0, 0.0)] and not rep["finite"]
    rep = validate_spec(replace(heat, diffusion=diffusion),
                        {"s": [0.0], "x": [1.0], "u": [0.0, 0.5]})
    assert rep["bad_points"] == [(0.0, 1.0, 0.5)] and rep["diffusion_control_free"]


def test_validate_spec_records_non_finite_lipschitz_probes():
    # NaN past x = 2: finite at every probed x, not at the Lipschitz probe 2 + dx
    heat = model.linear_heat(a=1.0)
    nan_past_2 = lambda s, x, u: np.where(np.asarray(x) > 2.0, np.nan, 1.0 + 0.0 * u)
    probe = {"s": [0.0], "x": [1.0, 2.0], "u": [0.0]}
    rep = validate_spec(replace(heat, drift=nan_past_2), probe)
    assert rep["bad_points"] == [(0.0, 2.0, 0.0, "drift_dx")] and not rep["finite"]
    rep = validate_spec(replace(heat, diffusion=nan_past_2), probe)
    assert rep["bad_points"] == [(0.0, 2.0, 0.0, "diffusion_dx")] and not rep["finite"]


def test_probe_grid_must_be_nonempty():
    with pytest.raises(DomainError):
        validate_spec(model.linear_heat(), {"s": [], "x": [0.0], "u": [0.0]})


def test_strategy_table_outputs_stay_in_interval():
    rng = np.random.default_rng(19)
    s_grid = np.linspace(0.0, 1.0, 9)
    x_grid = np.linspace(-2.0, 2.0, 11)
    values = rng.uniform(-5.0, 5.0, size=(9, 11))
    tab = StrategyTable(-1.0, 1.0, s_grid=s_grid, x_grid=x_grid, values=values)
    for _ in range(300):
        s = rng.uniform(-0.5, 1.5)
        x = rng.uniform(-6.0, 6.0)          # includes out-of-grid extrapolation
        u = tab(s, x)
        assert -1.0 <= u <= 1.0
    xs = rng.uniform(-6.0, 6.0, size=50)
    out = tab(0.3, xs)
    assert np.all((-1.0 <= out) & (out <= 1.0))


def test_strategy_table_exact_at_grid_nodes():
    s_grid = np.linspace(0.0, 1.0, 5)
    x_grid = np.linspace(-1.0, 1.0, 7)
    values = np.outer(np.linspace(0.1, 0.9, 5), np.linspace(-0.8, 0.8, 7))
    tab = StrategyTable(-1.0, 1.0, s_grid=s_grid, x_grid=x_grid, values=values)
    for j, s in enumerate(s_grid):
        for i, x in enumerate(x_grid):
            assert abs(tab(s, x) - values[j, i]) < 1e-14


def _strategy_table_reference(tab, s, x):
    """StrategyTable.__call__ written with np.clip and zeros_like, the form the
    ufunc path must reproduce bit for bit."""
    if tab.fn is not None:
        out = tab.fn(s, x)
    else:
        sg = tab.s_grid
        j = int(np.clip(np.searchsorted(sg, s) - 1, 0, sg.size - 2))
        w = 0.0 if sg[j + 1] == sg[j] else (s - sg[j]) / (sg[j + 1] - sg[j])
        w = min(max(w, 0.0), 1.0)
        row = (1.0 - w) * tab.values[j] + w * tab.values[j + 1]
        out = np.interp(x, tab.x_grid, row)
    out = np.asarray(out, dtype=float) + np.zeros_like(np.asarray(x, dtype=float))
    out = np.clip(out, tab.u_lo, tab.u_hi)
    return out if out.ndim else float(out)


def test_strategy_table_call_bit_identical_to_clip_form():
    rng = np.random.default_rng(23)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.5, -3.0, 1.0, -1.0])
    inputs = [0.3, -0.0, 0.0, np.nan, specials, rng.normal(size=(3, 7)) * 3.0,
              np.array([[0.0, -0.0], [np.nan, 5.0]])]
    grid = dict(s_grid=np.linspace(0.0, 1.0, 5), x_grid=np.linspace(-2.0, 2.0, 9),
                values=rng.normal(size=(5, 9)) * 2.0)
    fns = [lambda s, x: 2.0 * np.asarray(x, dtype=float) - s,
           lambda s, x: -0.0 * np.asarray(x, dtype=float),
           lambda s, x: -0.0,
           lambda s, x: np.nan]
    checked = 0
    with np.errstate(invalid="ignore"):
        for lo, hi in ((-1.0, 1.0), (0.0, 1.0), (-1.0, -0.0)):
            tables = [StrategyTable(lo, hi, fn=f) for f in fns]
            tables.append(StrategyTable(lo, hi, **grid))
            for tab in tables:
                for s in (-0.2, 0.0, 0.3, 1.0, 1.5):
                    for x in inputs:
                        got = tab(s, x)
                        want = _strategy_table_reference(tab, s, x)
                        assert type(got) is type(want)
                        assert np.shape(got) == np.shape(want)
                        # bytes, so that -0.0 and 0.0 and NaN payloads count
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                        checked += 1
    assert checked == 3 * 5 * 5 * len(inputs)


_SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -3.0, 1.0, -1.0]
_SPECIAL_X = st.one_of(
    st.sampled_from(_SPECIALS),
    st.lists(st.sampled_from(_SPECIALS), min_size=1, max_size=9).map(np.array),
    st.lists(st.sampled_from(_SPECIALS), min_size=4, max_size=4).map(
        lambda v: np.reshape(v, (2, 2))))


@settings(max_examples=300, deadline=None)
@given(bounds=st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-1.0, -0.0)]),
       kind=st.sampled_from(["float", "float64", "0-d", "shaped", "grid"]),
       v=st.sampled_from(_SPECIALS), s=st.sampled_from([-0.2, 0.0, 0.3, 1.0, 1.5]),
       x=_SPECIAL_X)
def test_strategy_table_clamped_filled_to_x_has_the_call_bytes(bounds, kind, v, s, x):
    # a clamped -0.0 bound must stay -0.0 when the value fills the shape of x
    fns = {"float": lambda s_, x_: v,
           "float64": lambda s_, x_: np.float64(v),
           "0-d": lambda s_, x_: np.array(v),
           "shaped": lambda s_, x_: v - 2.0 * np.asarray(x_, dtype=float)}
    if kind == "grid":
        tab = StrategyTable(*bounds, s_grid=[0.0, 0.5, 1.0], x_grid=[-2.0, 0.0, 2.0],
                            values=np.array(_SPECIALS).reshape(3, 3))
    else:
        tab = StrategyTable(*bounds, fn=fns[kind])
    with np.errstate(invalid="ignore"):
        natural = tab.clamped(s, x)
        called = tab(s, x)
    if kind in ("float", "float64", "0-d"):
        assert type(natural) is float           # whatever x is
    assert np.full(np.shape(x), natural).tobytes() == np.asarray(called).tobytes()


_BOUNDS = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2, unique=True).map(sorted)
_QUERY_X = st.one_of(st.floats(-1e3, 1e3),
                     st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6).map(np.array))


def _assert_in_interval(out, x, lo, hi):
    if np.ndim(x) == 0:
        assert type(out) is float
    else:
        assert np.shape(out) == np.shape(x)
    assert np.all((lo <= np.asarray(out)) & (np.asarray(out) <= hi))


@settings(max_examples=200, deadline=None)
@given(bounds=_BOUNDS, s=st.floats(-10.0, 10.0), x=_QUERY_X, data=st.data())
def test_strategy_table_fn_output_always_in_interval(bounds, s, x, data):
    # raw outputs far outside U or infinite (never NaN), one per queried state
    raw = np.array(data.draw(st.lists(
        st.one_of(st.floats(-1e300, 1e300), st.sampled_from([math.inf, -math.inf])),
        min_size=np.size(x), max_size=np.size(x))))
    lo, hi = bounds
    tab = StrategyTable(lo, hi, fn=lambda s_, x_: raw.reshape(np.shape(x_)))
    _assert_in_interval(tab(s, x), x, lo, hi)


@settings(max_examples=200, deadline=None)
@given(bounds=_BOUNDS, s=st.floats(-10.0, 10.0), x=_QUERY_X, data=st.data())
def test_strategy_table_grid_output_always_in_interval(bounds, s, x, data):
    # s in [-10, 10] and x in [-1e3, 1e3] mostly fall outside the grids
    s_grid = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5, unique=True))
    x_grid = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6, unique=True))
    n = len(s_grid) * len(x_grid)
    values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    lo, hi = bounds
    tab = StrategyTable(lo, hi, s_grid=sorted(s_grid), x_grid=sorted(x_grid),
                        values=np.reshape(values, (len(s_grid), len(x_grid))))
    with np.errstate(over="ignore"):    # subnormal node spacing overflows the weight to inf
        _assert_in_interval(tab(s, x), x, lo, hi)


_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(bounds=st.one_of(_BOUNDS, st.sampled_from([(-1.0, -0.0), (0.0, 1.0), (-0.0, 0.0)])),
       grid=st.booleans(), shaped=st.booleans(), s=st.floats(-10.0, 10.0), x=_ANY_FLOAT,
       data=st.data())
def test_strategy_table_scalar_query_bit_equal_to_array_query(bounds, grid, shaped, s, x,
                                                              data):
    # raw outputs beyond U, on its bounds, signed zeros and NaN; s and x mostly
    # outside the grids
    lo, hi = bounds
    raw = st.one_of(_ANY_FLOAT, st.sampled_from([lo, hi]))
    if grid:
        s_grid = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4, unique=True))
        x_grid = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4, unique=True))
        n = len(s_grid) * len(x_grid)
        values = data.draw(st.lists(raw, min_size=n, max_size=n))
        tab = StrategyTable(lo, hi, s_grid=sorted(s_grid), x_grid=sorted(x_grid),
                            values=np.reshape(values, (len(s_grid), len(x_grid))))
    else:
        v = data.draw(raw)
        # an elementwise fn, or one that returns a float whatever x is
        fn = (lambda s_, x_: v * np.ones_like(np.asarray(x_, dtype=float))) if shaped \
            else (lambda s_, x_: v)
        tab = StrategyTable(lo, hi, fn=fn)
    with np.errstate(over="ignore", invalid="ignore"):
        got = tab(s, float(x))
        want = tab(s, np.array([x]))[0]
    assert type(got) is float
    assert got.hex() == float(want).hex()


DETERMINISTIC_FAMILIES = sorted(name for name, build in model.FAMILIES.items()
                                if build().cost_class == "deterministic")


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(DETERMINISTIC_FAMILIES), s=st.floats(0.0, 1.0), x=_ANY_FLOAT,
       u=_ANY_FLOAT)
def test_deterministic_drifts_are_floats_at_a_float_state(family, s, x, u):
    # the RK4 stages of a one-state flow call the drift on floats
    drift = model.make_spec(family).drift
    got = drift(s, x, u)
    with np.errstate(invalid="ignore"):
        want = np.asarray(drift(s, np.array([x]), np.array([u])), dtype=float)
    assert type(got) is float
    assert want.shape == (1,) and got.hex() == float(want[0]).hex()


_TABLE_VALUE = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 3.0, -3.0]))


@settings(max_examples=300, deadline=None)
@given(bounds=st.one_of(_BOUNDS, st.sampled_from([(-1.0, -0.0), (0.0, 1.0), (-0.0, 0.0)])),
       data=st.data())
def test_strategy_table_rows_bit_equal_to_stacked_calls(bounds, data):
    # s on nodes, between them and outside the grid; repeated time nodes; x off
    # the grid and on its nodes; table values beyond U and signed zeros
    lo, hi = bounds
    s_nodes = sorted(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                        min_size=2, max_size=6)))
    if s_nodes[0] == s_nodes[-1]:
        s_nodes[-1] += 1.0
    x_grid = sorted(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6,
                                       unique=True)))
    n = len(s_nodes) * len(x_grid)
    values = np.reshape(data.draw(st.lists(_TABLE_VALUE, min_size=n, max_size=n)),
                        (len(s_nodes), len(x_grid)))
    tab = StrategyTable(lo, hi, s_grid=s_nodes, x_grid=x_grid, values=values)
    s = np.array(data.draw(st.lists(st.one_of(st.sampled_from(s_nodes + [-0.0]),
                                              st.floats(-1.0, 2.0)), max_size=8)))
    x = np.array(data.draw(st.lists(st.one_of(st.sampled_from(x_grid + [-0.0]),
                                              st.floats(-5.0, 5.0)), min_size=1, max_size=8)))
    with np.errstate(invalid="ignore", over="ignore"):
        got = tab.rows(s, x)
        want = np.array([tab(si, x) for si in s]).reshape(s.size, x.size)
    assert got.shape == want.shape == (s.size, x.size)
    assert got.tobytes() == want.tobytes()


def test_strategy_table_rows_call_an_fn_table_once_per_time():
    seen = []
    tab = StrategyTable(-1.0, 1.0, fn=lambda s, x: seen.append(s) or 2.0 * s - np.asarray(x))
    s, x = np.array([0.0, 0.5, -0.0, 2.0]), np.linspace(-1.0, 1.0, 5)
    got = tab.rows(s, x)
    assert [np.float64(v).tobytes() for v in seen] == [v.tobytes() for v in s]
    assert got.tobytes() == np.array([tab(si, x) for si in s]).tobytes()


def test_strategy_table_requires_one_backend():
    with pytest.raises(DomainError):
        StrategyTable(-1, 1)
    with pytest.raises(DomainError):
        StrategyTable(-1, 1, fn=lambda s, x: 0.0, values=np.zeros((2, 2)),
                      s_grid=[0, 1], x_grid=[0, 1])


def test_spec_json_round_trip():
    spec = model.mean_variance(r=0.01, mu=0.07, sigma=0.3, gamma=1.5, T=2.0, x0=0.5)
    doc = spec_to_json(spec)
    back = spec_from_json(doc)
    assert back.name == "mean_variance"
    assert back.horizon == 2.0
    assert back.params["sigma"] == 0.3
    assert back.drift(0.0, 1.0, 0.0) == spec.drift(0.0, 1.0, 0.0)
    for name in list(model.FAMILIES):
        spec = make_spec(name, {"x0": 0.25}, T=2.0)
        doc = json.loads(json.dumps(spec_to_json(spec)))
        back = spec_from_json(doc)
        assert spec_to_json(back) == doc
        assert (back.name, back.horizon, back.x0, back.u_lo, back.u_hi) == \
            (spec.name, 2.0, 0.25, spec.u_lo, spec.u_hi)


def test_linear_heat_refuses_a_terminal_that_is_not_a_name():
    # params record the terminal's name, from which spec_from_json rebuilds it
    for terminal in (lambda x: x ** 3, 3, None, ["x"]):
        with pytest.raises(DomainError, match="terminal must be one of"):
            model.linear_heat(terminal=terminal)


def test_closed_forms_live_on_the_spec():
    mv = model.mean_variance()
    # the expression default_grid has always used, not equilibrium(T, x0)
    assert mv.closed_forms.grid_control == (0.08 - 0.03) / (2.0 * 0.2 ** 2)
    assert model.equilibrium_strategy(mv)(1.0, 5.0) == (0.08 - 0.03) / (2.0 * 0.2 * 0.2)   # vbar(T)
    assert model.equilibrium_strategy(model.stackelberg())(0.3, np.ones(3)).tolist() == [-0.5] * 3
    # parameters without closed forms still build a spec
    assert model.mean_variance(sigma=0.0).closed_forms == model.ClosedForms()
    with pytest.raises(DomainError):
        model.equilibrium_strategy(model.gbm())
    with pytest.raises(DomainError):
        model.ex41(T=-1.0)          # refused as a horizon, not a division by zero


def test_make_spec_rejects_unknown_family():
    with pytest.raises(DomainError):
        make_spec("no_such_family")


def test_register_family():
    model.register_family("custom_heat", lambda T=1.0: model.linear_heat(T=T))
    try:
        spec = make_spec("custom_heat", T=0.5)
        assert spec.horizon == 0.5
    finally:
        del model.FAMILIES["custom_heat"]


def test_spec_invariant_guards():
    with pytest.raises(DomainError):
        model.mean_variance(T=-1.0)
    with pytest.raises(DomainError):
        model.mean_variance(U=(2.0, -2.0))
