import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fbcontrol import mc, model, pde
from fbcontrol.cli import run
from fbcontrol.errors import (DegeneracyError, DomainError, EvaluationError, FBControlError,
                              YRangeError)
from fbcontrol.model import ControlProblemSpec, StrategyTable
from fbcontrol.riccati import meanvar_closed_form


def const_strategy(value, U=(-1.0, 1.0)):
    return StrategyTable(U[0], U[1],
                         fn=lambda s, x, _v=value: _v + 0.0 * np.asarray(x, dtype=float))


ZERO = const_strategy(0.0)


# ---------------------------------------------------------------------------
# step_parabolic
# ---------------------------------------------------------------------------

def test_step_preserves_linear_terminal():
    xs = np.linspace(-5.0, 5.0, 101)
    v = xs.copy()
    for _ in range(50):
        v = pde.step_parabolic(v, np.ones_like(xs), np.zeros_like(xs),
                               np.zeros_like(xs), 1e-3, xs[1] - xs[0])
    assert np.max(np.abs(v - xs)) < 1e-12


def test_step_quadratic_growth():
    # a = 1, h = x^2: theta(s, x) = x^2 + 2 (T - s)
    xs = np.arange(-5.0, 5.0 + 1e-12, 0.05)
    v = xs ** 2
    n = 1000
    for _ in range(n):
        v = pde.step_parabolic(v, np.ones_like(xs), np.zeros_like(xs),
                               np.zeros_like(xs), 1e-3, 0.05)
    ref = xs ** 2 + 2.0 * (n * 1e-3)
    interior = np.abs(xs) <= 4.0
    assert np.max(np.abs(v - ref)[interior]) < 5e-3


def test_step_pure_source():
    xs = np.linspace(-1.0, 1.0, 21)
    v = np.zeros_like(xs)
    for _ in range(100):
        v = pde.step_parabolic(v, np.ones_like(xs), np.zeros_like(xs),
                               np.ones_like(xs), 1e-3, xs[1] - xs[0])
    assert np.max(np.abs(v - 0.1)) < 1e-12


_block_cases = dict(
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    n=st.integers(8, 40),
    dt=st.floats(1e-4, 0.5),
    dx=st.floats(1e-2, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**_block_cases)
def test_step_block_equals_single_field_steps(lead, n, dt, dx, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (n,)
    w = rng.normal(size=shape)
    a = rng.uniform(0.0, 2.0, size=n)
    drift = rng.normal(size=n)
    src = rng.normal(size=shape)
    block = pde.step_parabolic(w, a, drift, src, dt, dx)
    assert block.shape == shape
    for idx in np.ndindex(*lead):
        single = pde.step_parabolic(w[idx], a, drift, src[idx], dt, dx)
        assert np.array_equal(block[idx], single)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 64), a=st.floats(0.0, 2.0), dt=st.floats(1e-4, 0.5),
       dx=st.floats(1e-2, 1.0), c0=st.floats(-3.0, 3.0), c1=st.floats(-3.0, 3.0))
def test_step_exact_on_linear_data(n, a, dt, dx, c0, c1):
    # zero drift and source: linear data has no curvature, so diffusion leaves
    # it in place up to rounding, which the banded solve amplifies by ~(1 + 4 mu)
    xs = dx * np.arange(n)
    v = c0 + c1 * xs
    out = pde.step_parabolic(v, a, 0.0, 0.0, dt, dx)
    mu = dt * a / (dx * dx)
    assert np.max(np.abs(out - v)) <= 1e-13 * (1.0 + mu) * (1.0 + np.max(np.abs(v)))


def test_step_degeneracy_error():
    xs = np.linspace(-1.0, 1.0, 21)
    with pytest.raises(DegeneracyError):
        pde.step_parabolic(np.zeros_like(xs), np.full_like(xs, -0.5), np.zeros_like(xs),
                           np.zeros_like(xs), 1e-3, 0.1)


@np.errstate(invalid="ignore")   # inf * 0 in the explicit step, before the check
def test_step_rejects_non_finite_drift_and_field():
    xs = np.linspace(-1.0, 1.0, 21)
    ones, zeros = np.ones_like(xs), np.zeros_like(xs)
    for bad in (np.nan, np.inf, -np.inf):
        for lead in ((), (3,)):
            drift = zeros.copy()
            drift[7] = bad
            with pytest.raises(EvaluationError) as exc:
                pde.step_parabolic(np.zeros(lead + xs.shape), ones, drift, zeros, 1e-3, 0.1)
            assert exc.value.coefficient == "drift"
            field = np.zeros(lead + xs.shape)
            field[..., 0] = bad
            with pytest.raises(FBControlError, match="non-finite field"):
                pde.step_parabolic(field, ones, zeros, zeros, 1e-3, 0.1)


def test_sweep_maps_a_non_finite_drift_to_an_evaluation_error():
    spec = replace(model.linear_heat(a=1.0, terminal="x"),
                   drift=lambda s, x, u: np.where(np.asarray(x) > 1.0, np.nan, 0.0))
    with pytest.raises(EvaluationError, match="'drift'"):
        pde.solve_theta(spec, ZERO, pde.GridSpec(-2.0, 2.0, 17, 9, 1.0))


def test_solve_banded_singular_band():
    with pytest.raises(np.linalg.LinAlgError):
        pde.solve_banded((2, 2), np.zeros((5, 8)), np.ones(8))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 70), k=st.one_of(st.none(), st.integers(1, 6)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solve_banded_bit_equal_to_scipy(n, k, seed):
    # diagonally dominant (2, 2) bands; pde.solve_banded overwrites its rhs
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(5, n))
    ab[2] = np.sign(ab[2]) * (np.abs(np.delete(ab, 2, axis=0)).sum(axis=0) + rng.uniform(0.1, 2.0, n))
    b = rng.normal(size=(n,) if k is None else (n, k))
    ref = scipy.linalg.solve_banded((2, 2), ab, b)
    ab_in = ab.copy()
    x = pde.solve_banded((2, 2), ab_in, np.asfortranarray(b))
    assert x.shape == b.shape and np.array_equal(x, ref)
    assert np.array_equal(ab_in, ab)


# ---------------------------------------------------------------------------
# solve_theta
# ---------------------------------------------------------------------------

def test_solve_theta_linear_identity():
    spec = model.linear_heat(a=1.0, terminal="x")
    grid = pde.GridSpec(-4.0, 4.0, 81, 101, 1.0)
    theta = pde.solve_theta(spec, ZERO, grid)
    assert np.max(np.abs(theta.values - grid.xs[None, :])) < 1e-12


def test_solve_theta_mean_variance_drift_oracle():
    # under the x-free equilibrium control the field is the conditional mean:
    # m(s, x) = x e^{r(T-s)} + (mu-r) c (T-s), c = (mu-r)/(gamma sigma^2)
    r, mu, sg, gam = 0.03, 0.08, 0.2, 2.0
    spec = model.mean_variance(r=r, mu=mu, sigma=sg, gamma=gam, x0=1.0)
    closed = meanvar_closed_form(r, mu, sg, gam, 1.0)
    strat = StrategyTable(spec.u_lo, spec.u_hi,
                          fn=lambda s, x: closed["vbar"](s) + 0.0 * np.asarray(x, dtype=float))
    grid = pde.default_grid(spec, nx=129, nt=501)
    theta = pde.solve_theta(spec, strat, grid)
    c = (mu - r) / (gam * sg * sg)
    ref = grid.xs[None, :] * np.exp(r * (1.0 - grid.times))[:, None] \
        + (mu - r) * c * (1.0 - grid.times)[:, None]
    interior = slice(5, -5)
    assert np.max(np.abs(theta.values[:, interior] - ref[:, interior])) < 1e-2


def test_solve_theta_maximum_principle():
    spec = model.linear_heat(a=1.0, terminal="gaussians")
    grid = pde.GridSpec(-6.0, 6.0, 121, 201, 1.0)
    theta = pde.solve_theta(spec, ZERO, grid)
    h = spec.terminal(grid.xs)
    assert theta.values.min() >= h.min() - 1e-8
    assert theta.values.max() <= h.max() + 1e-8


def test_grid_spec_guards():
    with pytest.raises(DomainError):
        pde.GridSpec(-1.0, 1.0, 4, 33, 1.0)
    with pytest.raises(DomainError):
        pde.GridSpec(1.0, -1.0, 33, 33, 1.0)


@pytest.mark.parametrize("y_lo, y_hi", [(-1.0, None), (None, 1.0)])
def test_grid_spec_needs_both_y_bounds(y_lo, y_hi):
    with pytest.raises(DomainError, match="both y_lo and y_hi"):
        pde.GridSpec(-1.0, 1.0, 9, 9, 1.0, y_lo=y_lo, y_hi=y_hi)


@pytest.mark.parametrize("y_lo, y_hi", [(1.0, 1.0), (2.0, -2.0)])
def test_grid_spec_needs_y_lo_below_y_hi(y_lo, y_hi):
    with pytest.raises(DomainError, match="y_lo must be below y_hi"):
        pde.GridSpec(-1.0, 1.0, 9, 9, 1.0, y_lo=y_lo, y_hi=y_hi)


@pytest.mark.parametrize("ny", [0, 1])
def test_grid_spec_needs_two_y_nodes(ny):
    with pytest.raises(DomainError, match="at least 2 y nodes"):
        pde.GridSpec(-1.0, 1.0, 9, 9, 1.0, y_lo=-1.0, y_hi=1.0, ny=ny)


@pytest.mark.parametrize("ny", [2, 3])
def test_grid_spec_takes_two_and_three_y_nodes(ny):
    grid = pde.GridSpec(-1.0, 1.0, 9, 9, 1.0, y_lo=-1.0, y_hi=1.0, ny=ny)
    assert np.array_equal(grid.ys, np.linspace(-1.0, 1.0, ny))


# ---------------------------------------------------------------------------
# cost field and diagonal extraction
# ---------------------------------------------------------------------------

def test_theta0_trivial_identity_in_y():
    # h0 = y, zero cost generator: the cost field equals y at every anchor
    spec = replace(model.linear_heat(a=0.5, terminal="x"), terminal_split=None)
    grid = pde.GridSpec(-3.0, 3.0, 9, 9, 1.0, y_lo=-4.0, y_hi=4.0, ny=5)
    theta = pde.solve_theta(spec, ZERO, grid)
    t0 = pde.solve_theta0_family(spec, ZERO, theta, None, grid)
    assert isinstance(t0, pde.GeneralCostField)
    for k in (0, 3):
        for l in (0, 4):
            for y in (-2.0, 0.5, 3.0):
                assert abs(t0.value(k, k, l, 3, y) - y) == 0.0


def test_theta0_upper_triangle_guard_and_y_range():
    spec = replace(model.linear_heat(a=0.5, terminal="x"), terminal_split=None)
    grid = pde.GridSpec(-3.0, 3.0, 9, 9, 1.0, y_lo=-4.0, y_hi=4.0, ny=5)
    theta = pde.solve_theta(spec, ZERO, grid)
    t0 = pde.solve_theta0_family(spec, ZERO, theta, None, grid)
    with pytest.raises(DomainError):
        t0.value(5, 3, 0, 0, 0.0)
    with pytest.raises(YRangeError):
        t0.value(0, 5, 0, 0, 9.0)
    # only each anchor's first row (s = t) is kept
    for query in (t0.value, t0.value_dy):
        with pytest.raises(DomainError):
            query(3, 5, 0, 0, 0.0)


def test_theta0_separable_class_y_variation_and_dy():
    spec = model.bkm_separable()
    grid = pde.GridSpec(-2.0, 2.0, 9, 9, 1.0, y_lo=-3.0, y_hi=3.0, ny=5)
    theta = pde.solve_theta(spec, ZERO, grid)
    general = pde.solve_theta0_family(replace(spec, terminal_split=None), ZERO,
                                      theta, None, grid)
    split = spec.terminal_split
    worst = 0.0
    for k in (0, 3):
        for l in (2, 6):
            for i in (1, 4, 7):
                vals = [general.value(k, k, l, i, y)
                        - float(split.ghat(grid.times[k], grid.xs[l], y))
                        for y in (-1.0, 0.0, 2.0)]
                worst = max(worst, max(vals) - min(vals))
    assert worst < 1e-10

    separable = pde.solve_theta0_family(spec, ZERO, theta, None, grid)
    bg = pde.extract_diagonal(general, theta)
    bs = pde.extract_diagonal(separable, theta)
    assert np.max(np.abs(bg.d - bs.d)) < 1e-10
    dy_exact = split.ghat_y(grid.times[:, None], grid.xs[None, :], theta.values)
    assert np.max(np.abs(bs.dy - dy_exact)) == 0.0
    assert np.max(np.abs(bg.dy - dy_exact)) < 1e-8


def test_theta0_mean_variance_moment_oracle():
    # Gaussian moments under the equilibrium drift give the state-part field
    r, mu, sg, gam = 0.03, 0.08, 0.2, 2.0
    spec = model.mean_variance(r=r, mu=mu, sigma=sg, gamma=gam, x0=1.0)
    closed = meanvar_closed_form(r, mu, sg, gam, 1.0)
    strat = StrategyTable(spec.u_lo, spec.u_hi,
                          fn=lambda s, x: closed["vbar"](s) + 0.0 * np.asarray(x, dtype=float))
    grid = pde.default_grid(spec, nx=129, nt=501)
    theta = pde.solve_theta(spec, strat, grid)
    t0 = pde.solve_theta0_family(spec, strat, theta, None, grid)
    assert isinstance(t0, pde.SeparableCostField) and t0.anchor_free
    c = (mu - r) / (gam * sg * sg)
    m1 = grid.xs[None, :] * np.exp(r * (1.0 - grid.times))[:, None] \
        + (mu - r) * c * (1.0 - grid.times)[:, None]
    var = sg * sg * c * c * (1.0 - grid.times)[:, None]
    ref = -m1 + 0.5 * gam * (m1 * m1 + var)
    interior = slice(5, -5)
    assert np.max(np.abs(t0.hat[:, interior] - ref[:, interior])) < 1e-2


def _anchored_spec():
    # bkm_separable with a control in the dynamics and a cost generator that
    # sees every anchor and every field slot; anchors arrive as columns
    def cost_generator(t, s, xt, x, u, y, z, y0, z0):
        return (1.0 + t) * xt * x * u + 0.1 * z0 + 0.05 * y0 + 0.2 * y * z

    return replace(model.bkm_separable(), cost_generator=cost_generator,
                   drift=lambda s, x, u: 0.3 * u + 0.1 * x,
                   diffusion=lambda s, x, u: 1.0 + 0.2 * u * u + 0.0 * x)


X_STRATEGY = StrategyTable(-1.0, 1.0, fn=lambda s, x: 0.4 * np.sin(np.asarray(x) + s))


def _reference_anchor_sweep(spec, theta, diag, grid, t_anchor, xt, terminal, k=0):
    """One anchor stepped on its own, field by field (the per-anchor loop).

    t_anchor None is the separable family, whose generator gets t = s.
    """
    xs, times, dt, dx = grid.xs, grid.times, grid.dt, grid.dx
    fld = np.empty((times.size - k, xs.size))
    fld[-1] = np.asarray(terminal, dtype=float) + np.zeros_like(xs)
    for j in range(times.size - 2, k - 1, -1):
        s = times[j + 1]
        u = np.asarray(X_STRATEGY(s, xs), dtype=float) + np.zeros_like(xs)
        sig = np.asarray(spec.diffusion(s, xs, u), dtype=float) + np.zeros_like(xs)
        b = np.asarray(spec.drift(s, xs, u), dtype=float) + np.zeros_like(xs)
        w = fld[j + 1 - k]
        src = spec.cost_generator(s if t_anchor is None else t_anchor, s, xt, xs, u, theta.values[j + 1],
                                  theta.dx_slice(j + 1) * sig, diag.d[j + 1],
                                  pde._dx_rows(w, dx) * sig)
        fld[j - k] = pde.step_parabolic(w, 0.5 * sig * sig, b, src, dt, dx)
    return fld


def test_anchored_family_matches_per_anchor_loop():
    spec = _anchored_spec()
    grid = pde.GridSpec(-2.0, 2.0, 11, 9, 1.0)
    theta = pde.solve_theta(spec, X_STRATEGY, grid)
    diag = pde.DiagonalBundle(*(np.cos(np.arange(4)[:, None, None] + theta.values)))
    fam = pde.solve_theta0_family(spec, X_STRATEGY, theta, diag, grid)
    assert isinstance(fam, pde.SeparableCostField) and not fam.anchor_free
    for l, xt in enumerate(grid.xs):
        ref = _reference_anchor_sweep(spec, theta, diag, grid, None, xt,
                                      spec.terminal_split.fhat(grid.T, xt, grid.xs))
        assert np.array_equal(fam.hat[l], ref)


def test_general_tensor_matches_per_anchor_loop():
    spec = replace(_anchored_spec(), terminal_split=None)
    grid = pde.GridSpec(-2.0, 2.0, 9, 8, 1.0, y_lo=-3.0, y_hi=3.0, ny=4)
    theta = pde.solve_theta(spec, X_STRATEGY, grid)
    diag = pde.DiagonalBundle(*(np.sin(np.arange(4)[:, None, None] + theta.values)))
    fam = pde.solve_theta0_family(spec, X_STRATEGY, theta, diag, grid)
    assert isinstance(fam, pde.GeneralCostField)
    for k, t in enumerate(grid.times):
        for l, xt in enumerate(grid.xs):
            ref = np.stack([_reference_anchor_sweep(spec, theta, diag, grid, t, xt,
                                                    spec.cost_terminal(t, xt, grid.xs, y), k)
                            for y in grid.ys])
            assert np.array_equal(fam.first[k, l], ref[:, 0])


def _assert_diagonal_is_point_queries(fam, theta, bundle):
    """Every diagonal entry against one spline per queried column."""
    nt, nx = theta.values.shape
    for j in range(nt):
        for i in range(nx):
            y = theta.values[j, i]
            row = np.array([fam.value(j, j, i, ii, y) for ii in range(nx)])
            assert bundle.d[j, i] == fam.value(j, j, i, i, y)
            assert bundle.dy[j, i] == fam.value_dy(j, j, i, i, y)
            assert bundle.dx[j, i] == pde._dx_rows(row, fam.dx)[i]
            assert bundle.dxx[j, i] == pde._dxx_rows(row, fam.dx)[i]


def test_general_diagonal_matches_point_queries():
    spec = replace(_anchored_spec(), terminal_split=None)
    grid = pde.GridSpec(-2.0, 2.0, 9, 8, 1.0, y_lo=-4.0, y_hi=4.0, ny=5)
    theta = pde.solve_theta(spec, X_STRATEGY, grid)
    fam = pde.solve_theta0_family(spec, X_STRATEGY, theta, None, grid)
    _assert_diagonal_is_point_queries(fam, theta, pde.extract_diagonal(fam, theta))


@settings(max_examples=10, deadline=None)
@given(nx=st.integers(8, 12), nt=st.integers(8, 12), ny=st.integers(2, 9),
       seed=st.integers(0, 2 ** 32 - 1), on_knots=st.floats(0.0, 1.0))
def test_general_diagonal_is_point_queries_anywhere_on_the_y_grid(nx, nt, ny, seed, on_knots):
    # theta drawn over the whole y grid, a share of it exactly on the knots
    # (the last knot always among them), where a spline switches pieces
    spec = replace(_anchored_spec(), terminal_split=None)
    grid = pde.GridSpec(-2.0, 2.0, nx, nt, 1.0, y_lo=-3.0, y_hi=3.0, ny=ny)
    fam = pde.solve_theta0_family(spec, X_STRATEGY, pde.solve_theta(spec, X_STRATEGY, grid),
                                  None, grid)
    rng = np.random.default_rng(seed)
    th = rng.uniform(grid.ys[0], grid.ys[-1], (nt, nx))
    knots = rng.random((nt, nx)) < on_knots
    th[knots] = rng.choice(grid.ys, knots.sum())
    th[rng.integers(nt), rng.integers(nx)] = grid.ys[-1]
    theta = pde.FieldTheta(grid.times, grid.xs, th)
    _assert_diagonal_is_point_queries(fam, theta, pde.extract_diagonal(fam, theta))


@pytest.mark.parametrize("rows_per_fit", [1, 2, 3])
def test_general_diagonal_fits_in_blocks_of_rows(rows_per_fit, monkeypatch):
    # 8 rows: one-row fits, four 2-row fits, and 3-row fits with a 2-row remainder
    spec = replace(_anchored_spec(), terminal_split=None)
    grid = pde.GridSpec(-2.0, 2.0, 9, 8, 1.0, y_lo=-4.0, y_hi=4.0, ny=5)
    theta = pde.solve_theta(spec, X_STRATEGY, grid)
    fam = pde.solve_theta0_family(spec, X_STRATEGY, theta, None, grid)
    whole = fam.diagonal(theta)
    monkeypatch.setattr(pde, "_SPLINE_COLUMNS", rows_per_fit * 81 + 80)
    blocks = fam.diagonal(theta)
    assert all(np.array_equal(getattr(blocks, k), getattr(whole, k)) for k in ("d", "dx", "dy", "dxx"))


def test_general_diagonal_names_the_first_node_off_the_y_grid():
    # two nodes leave the grid; the first in row-major order is reported,
    # although the other one comes first column by column
    spec = replace(_anchored_spec(), terminal_split=None)
    grid = pde.GridSpec(-2.0, 2.0, 9, 8, 1.0, y_lo=-3.0, y_hi=3.0, ny=5)
    fam = pde.solve_theta0_family(spec, X_STRATEGY, pde.solve_theta(spec, X_STRATEGY, grid),
                                  None, grid)
    th = np.zeros((grid.nt, grid.nx))
    th[2, 5], th[4, 1] = 3.5, -4.0
    with pytest.raises(YRangeError) as err:
        fam.diagonal(pde.FieldTheta(grid.times, grid.xs, th))
    assert err.value.node == (grid.times[2], grid.xs[5], 3.5)


def test_general_diagonal_and_queries_refuse_a_nan_theta():
    # NaN fails every comparison, so it must not slip past the y-range check;
    # it is reported as the first bad node in row-major order
    spec = replace(_anchored_spec(), terminal_split=None)
    grid = pde.GridSpec(-2.0, 2.0, 9, 8, 1.0, y_lo=-3.0, y_hi=3.0, ny=5)
    fam = pde.solve_theta0_family(spec, X_STRATEGY, pde.solve_theta(spec, X_STRATEGY, grid),
                                  None, grid)
    th = np.zeros((grid.nt, grid.nx))
    th[3, 2], th[5, 0] = np.nan, 4.0
    with pytest.raises(YRangeError) as err:
        fam.diagonal(pde.FieldTheta(grid.times, grid.xs, th))
    s, x, y = err.value.node
    assert (s, x) == (grid.times[3], grid.xs[2]) and math.isnan(y)
    for query in (fam.value, fam.value_dy):
        with pytest.raises(YRangeError):
            query(2, 2, 1, 4, math.nan)


def test_general_cost_field_refuses_a_non_finite_terminal_row():
    # the anchor at T is never stepped, so its terminal row is checked on its own
    base = model.bkm_separable()

    def cost_terminal(t, xt, x, y):
        return base.cost_terminal(t, xt, x, y) + np.where(np.asarray(t) >= 1.0, np.inf, 0.0)

    spec = replace(base, terminal_split=None, cost_terminal=cost_terminal)
    grid = pde.GridSpec(-2.0, 2.0, 9, 8, 1.0, y_lo=-3.0, y_hi=3.0, ny=5)
    with pytest.raises(EvaluationError, match="'cost_terminal'"):
        pde.solve_theta0_family(spec, ZERO, pde.solve_theta(spec, ZERO, grid), None, grid)


@settings(max_examples=60, deadline=None)
@given(ny=st.integers(2, 12), start=st.floats(-5.0, 5.0),
       gaps=st.lists(st.floats(0.01, 3.0), min_size=11, max_size=11),
       batch=st.sampled_from([(), (1,), (6,), (3, 4), (2, 3, 17)]),
       scale=st.sampled_from([1e-6, 1.0, 1e4]), seed=st.integers(0, 2 ** 32 - 1))
def test_spline_fit_and_evaluation_are_scipys_bits(ny, start, gaps, batch, scale, seed):
    # the y-spline of the general cost field against scipy's CubicSpline, the
    # route it replaces: coefficients, values and y-slopes on the knots, at both
    # ends and between knots, compared by their bytes
    from scipy.interpolate import CubicSpline
    ys = start + np.concatenate(([0.0], np.cumsum(gaps[:ny - 1])))
    rng = np.random.default_rng(seed)
    vals = scale * rng.normal(size=(ny,) + batch)
    ref = CubicSpline(ys, vals)
    c = pde._spline_fit(ys, vals)
    assert c.tobytes() == ref.c.tobytes()
    y = np.concatenate((ys, rng.uniform(ys[0], ys[-1], 9)))
    piece, off = pde._spline_piece(ys, y)
    off = off.reshape(off.shape + (1,) * len(batch))
    for nu in (0, 1):
        assert pde._spline_at(c[:, piece], off, nu).tobytes() == ref(y, nu).tobytes()


# Solves a general tensor at ny = 2, 3 and 5 (each knot-slope route of the
# y-spline), takes its diagonal and point queries, and prints the scipy
# modules loaded.
_GENERAL_IMPORTS = """
import json, sys
from dataclasses import replace
import numpy as np
from fbcontrol import model, pde
spec = replace(model.bkm_separable(), terminal_split=None)
zero = model.StrategyTable(-1.0, 1.0, fn=lambda s, x: 0.0 * np.asarray(x, dtype=float))
for ny in (2, 3, 5):
    grid = pde.GridSpec(-2.0, 2.0, 9, 9, 1.0, y_lo=-3.0, y_hi=3.0, ny=ny)
    theta = pde.solve_theta(spec, zero, grid)
    fam = pde.solve_theta0_family(spec, zero, theta, None, grid)
    pde.extract_diagonal(fam, theta)
    fam.value(2, 2, 3, 4, 0.5), fam.value_dy(2, 2, 3, 4, 0.5)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_general_cost_field_loads_no_scipy_interpolate():
    # a subprocess, since this pytest process has imported scipy.interpolate
    env = dict(os.environ, PYTHONPATH=str(Path(pde.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _GENERAL_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "scipy.linalg" in loaded
    assert [m for m in loaded if m.startswith("scipy.interpolate")] == []


def _per_anchor_separable_diagonal(fam):
    """The x-anchored diagonal read off each anchor's full field (the per-anchor loop)."""
    nt, nx = fam.times.size, fam.xs.size
    hat_diag, hat_dx, hat_dxx = np.empty((3, nt, nx))
    for l in range(nx):
        fld = fam.hat[l]
        hat_diag[:, l] = fld[:, l]
        hat_dx[:, l] = pde._dx_rows(fld, fam.dx)[:, l]
        hat_dxx[:, l] = pde._dxx_rows(fld, fam.dx)[:, l]
    return hat_diag, hat_dx, hat_dxx


@pytest.mark.parametrize("nx", [8, 9])
def test_x_anchored_diagonal_matches_per_anchor_loop(nx):
    # anchors 0, 1, nx - 2 and nx - 1 read the edge windows, columns 0..3 and nx - 4..nx - 1
    spec = _anchored_spec()
    grid = pde.GridSpec(-2.0, 2.0, nx, 9, 1.0)
    theta = pde.solve_theta(spec, X_STRATEGY, grid)
    fam = pde.solve_theta0_family(spec, X_STRATEGY, theta, None, grid)
    assert isinstance(fam, pde.SeparableCostField) and not fam.anchor_free
    bundle = fam.diagonal(theta)
    hat_diag, hat_dx, hat_dxx = _per_anchor_separable_diagonal(fam)
    split = spec.terminal_split
    tt, xx = grid.times[:, None], grid.xs[None, :]
    assert np.array_equal(bundle.d, hat_diag + split.ghat(tt, xx, theta.values))
    assert np.array_equal(bundle.dx, hat_dx)
    assert np.array_equal(bundle.dxx, hat_dxx)
    assert np.array_equal(bundle.dy, split.ghat_y(tt, xx, theta.values) + np.zeros((9, nx)))


def test_general_tensor_never_evaluates_below_anchor_time():
    base = _anchored_spec()

    def cost_generator(t, s, xt, x, u, y, z, y0, z0):
        if np.any(np.asarray(t) > s):
            raise AssertionError("cost generator evaluated at s < t")
        return base.cost_generator(t, s, xt, x, u, y, z, y0, z0)

    spec = replace(base, terminal_split=None, cost_generator=cost_generator)
    grid = pde.GridSpec(-2.0, 2.0, 9, 9, 1.0, y_lo=-4.0, y_hi=4.0, ny=5)
    theta = pde.solve_theta(spec, X_STRATEGY, grid)
    fam = pde.solve_theta0_family(spec, X_STRATEGY, theta, None, grid)
    bundle = pde.extract_diagonal(fam, theta)
    assert np.all(np.isfinite(bundle.d)) and np.all(np.isfinite(bundle.dxx))


def test_general_tensor_keeps_first_rows_only():
    # the traced peak of the general solve and its diagonal stays below the
    # bytes of one (nt, nx, ny, nt, nx) tensor, which held every anchor's rows
    spec = model.bkm_separable()
    nx, nt, ny = 17, 33, 17
    grid = pde.GridSpec(-2.0, 2.0, nx, nt, 1.0, y_lo=-3.0, y_hi=3.0, ny=ny)
    theta = pde.solve_theta(spec, ZERO, grid)
    tracemalloc.start()
    try:
        fam = pde.solve_theta0_family(replace(spec, terminal_split=None), ZERO, theta, None, grid)
        pde.extract_diagonal(fam, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nt * nx * ny * nt * nx * 8, f"traced peak {peak / 2 ** 20:.1f} MiB"
    assert fam.first.shape == (nt, nx, ny, nx)


@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from(["bkm_separable", "recursive_lq", "mean_variance", "linear_heat"]),
       nx=st.integers(8, 13), nt=st.integers(8, 13), ny=st.integers(5, 11),
       x_lo=st.floats(-3.0, -1.0), x_hi=st.floats(1.0, 3.0), u=st.floats(-1.0, 1.0))
def test_separable_and_general_cost_fields_agree(family, nx, nt, ny, x_lo, x_hi, u):
    # the same cost field carried analytically in y and as the full anchor tensor
    spec = model.make_spec(family)
    grid = pde.GridSpec(x_lo, x_hi, nx, nt, spec.horizon, y_lo=-12.0, y_hi=12.0, ny=ny)
    strat = const_strategy(u, U=(spec.u_lo, spec.u_hi))
    theta = pde.solve_theta(spec, strat, grid)
    separable = pde.solve_theta0_family(spec, strat, theta, None, grid)
    general = pde.solve_theta0_family(replace(spec, terminal_split=None), strat, theta, None,
                                      grid)
    assert isinstance(separable, pde.SeparableCostField)
    assert isinstance(general, pde.GeneralCostField)
    bs, bg = pde.extract_diagonal(separable, theta), pde.extract_diagonal(general, theta)
    for k in ("d", "dx", "dy", "dxx"):
        s, g = getattr(bs, k), getattr(bg, k)
        assert np.all(np.abs(g - s) <= 1e-10 * np.maximum(1.0, np.abs(s))), k


def test_extract_diagonal_identity_costs():
    # h0 = y: D = theta, Dy = 1, Dx = 0
    spec = model.recursive_lq()
    grid = pde.GridSpec(-2.0, 2.0, 33, 33, 1.0)
    strat = const_strategy(0.3, U=(spec.u_lo, spec.u_hi))
    theta = pde.solve_theta(spec, strat, grid)
    t0 = pde.solve_theta0_family(spec, strat, theta, None, grid)
    b = pde.extract_diagonal(t0, theta)
    assert np.max(np.abs(b.d - theta.values)) == 0.0
    assert np.max(np.abs(b.dy - 1.0)) == 0.0
    assert np.max(np.abs(b.dx)) == 0.0


# ---------------------------------------------------------------------------
# minimize_hamiltonian
# ---------------------------------------------------------------------------

def _quadratic_cost_spec():
    # cost generator u^2 - u with trivial dynamics: argmin 0.5
    return ControlProblemSpec(
        name="quad", drift=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        generator=lambda s, x, u, y, z: 0.0 * np.asarray(x, dtype=float),
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: u * u - u,
        cost_terminal=lambda t, xt, x, y: 0.0,
        u_lo=-10.0, u_hi=10.0, horizon=1.0)


def test_minimize_quadratic_vertex():
    spec = _quadratic_cost_spec()
    u = pde.minimize_hamiltonian(spec, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert abs(u - 0.5) < 1e-10


def test_minimize_stackelberg_constant():
    spec = model.stackelberg()
    for s, x, th in ((0.0, 0.0, 0.2), (0.5, 1.0, -0.4), (0.9, -2.0, 1.0)):
        u = pde.minimize_hamiltonian(spec, s, x, th, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert abs(u + 0.5) < 1e-10


def test_minimize_mean_variance_matches_closed_form():
    r, mu, sg, gam = 0.03, 0.08, 0.2, 2.0
    spec = model.mean_variance(r=r, mu=mu, sigma=sg, gamma=gam, x0=1.0)
    grid = pde.default_grid(spec, nx=129, nt=251)
    theta, theta0 = pde.reference_fields(spec, grid)
    bundle = pde.extract_diagonal(theta0, theta)
    closed = meanvar_closed_form(r, mu, sg, gam, 1.0)
    for j in (0, 125):
        i = 64
        u = pde.minimize_hamiltonian(
            spec, grid.times[j], grid.xs[i],
            theta.values[j, i], theta.dx_slice(j)[i],
            pde._dxx_rows(theta.values[j], theta.dx)[i],
            bundle.d[j, i], bundle.dx[j, i], bundle.dy[j, i], bundle.dxx[j, i])
        ref = float(closed["vbar"](grid.times[j]))
        assert abs(u - ref) / ref < 1e-2


def test_reference_fields_need_closed_forms_and_an_anchor_free_split():
    spec = model.mean_variance(r=0.0, mu=0.1, sigma=0.2, gamma=1.0, x0=1.0)
    grid = pde.GridSpec(-1.0, 3.0, 9, 9, 1.0)
    theta, theta0 = pde.reference_fields(spec, grid)
    assert np.array_equal(theta.values[-1], grid.xs)        # m1(T, x) = x
    with pytest.raises(DomainError, match="no closed-form reference fields"):
        pde.reference_fields(model.recursive_lq(), grid)
    anchored = replace(spec.terminal_split, xtilde_free=False)
    with pytest.raises(DomainError, match="no anchor-free terminal split"):
        pde.reference_fields(replace(spec, terminal_split=anchored), grid)
    with pytest.raises(DomainError, match="no anchor-free terminal split"):
        pde.reference_fields(replace(spec, terminal_split=None), grid)


def test_minimize_needs_bounded_interval():
    spec = replace(_quadratic_cost_spec(), u_lo=-model.U_INF, u_hi=model.U_INF)
    with pytest.raises(DomainError):
        pde.minimize_hamiltonian(spec, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_fixed_point_needs_bounded_interval(monkeypatch):
    # refused before the first iteration: no field is solved
    spec = model.mean_variance(U=(-model.U_INF, model.U_INF))
    monkeypatch.setattr(pde, "solve_theta", None)
    with pytest.raises(DomainError, match="bounded control interval"):
        pde.equilibrium_fixed_point(spec, pde.GridSpec(-2.0, 4.0, 33, 17, 1.0))


def test_minimize_tie_breaks_toward_smaller_u():
    spec = replace(_quadratic_cost_spec(),
                   cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0 * u)
    u = pde.minimize_hamiltonian(spec, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert u == -10.0


# ---------------------------------------------------------------------------
# equilibrium_fixed_point
# ---------------------------------------------------------------------------

def test_fixed_point_immediate_on_decoupled_problem():
    # no feedback through the strategy or the diagonal: residuals vanish as
    # soon as successive iterates can be compared
    spec = model.linear_heat(a=1.0, terminal="gaussians")
    grid = pde.GridSpec(-4.0, 4.0, 33, 33, 1.0)
    theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid)
    assert log.converged and log.iterations <= 2


def test_fixed_point_mean_variance_small_grid():
    spec = model.mean_variance(r=0.03, mu=0.08, sigma=0.2, gamma=2.0, x0=1.0)
    grid = pde.default_grid(spec, nx=65, nt=251)
    theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid)
    assert log.converged
    closed = meanvar_closed_form(0.03, 0.08, 0.2, 2.0, 1.0)
    ref = closed["vbar"](grid.times)[:, None] + 0.0 * grid.xs[None, :]
    assert np.max(np.abs(strat.values - ref) / np.abs(ref)) < 1e-2
    # residual history is monotone non-increasing after the second iteration
    res = log.residuals()
    for a, b in zip(res[1:-1], res[2:]):
        assert b <= a * (1.0 + 1e-9)
    # strategy table output clamps to U
    assert np.all(strat.values >= spec.u_lo) and np.all(strat.values <= spec.u_hi)


def test_fixed_point_recursive_reduces_to_classical_hjb():
    spec = model.recursive_lq(T=1.0)
    grid = pde.GridSpec(-2.0, 2.0, 81, 201, 1.0)
    theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid)
    assert log.converged
    # equilibrium value = backward field itself
    b = pde.extract_diagonal(theta0, theta)
    assert np.max(np.abs(b.d - theta.values)) == 0.0
    # closed form 0.5 tanh(T-s) x^2 + 0.5 ln cosh(T-s)
    ref = 0.5 * np.tanh(1.0 - grid.times)[:, None] * grid.xs[None, :] ** 2 \
        + 0.5 * np.log(np.cosh(1.0 - grid.times))[:, None]
    interior = np.abs(grid.xs) <= 1.5
    assert np.max(np.abs(theta.values[:, interior] - ref[:, interior])) < 5e-3
    # residual of the pointwise-minimized dynamic-programming equation
    vals = theta.values
    worst = 0.0
    for j in range(1, grid.nt - 1, 10):
        th_s = (vals[j + 1] - vals[j - 1]) / (2 * grid.dt)
        th_x = pde._dx_rows(vals[j], grid.dx)
        th_xx = pde._dxx_rows(vals[j], grid.dx)
        u_star = np.clip(-th_x, spec.u_lo, spec.u_hi)
        resid = th_s + 0.5 * th_xx + th_x * u_star + 0.5 * (u_star ** 2 + grid.xs ** 2)
        worst = max(worst, float(np.max(np.abs(resid[interior]))))
    assert worst < 5e-3


def test_fixed_point_gbm_value_is_first_order_in_dt():
    # uncontrolled, so theta is E[X_T | X_s = x] = x e^{mu (T - s)}; the drift is
    # explicit, so the error halves with dt and does not move with nx
    spec = model.gbm()
    errors = []
    for nt in (201, 401, 801):
        grid = pde.default_grid(spec, nx=65, nt=nt)
        theta, _, _, log = pde.equilibrium_fixed_point(spec, grid)
        assert log.converged and log.iterations == 2
        exact = grid.xs * np.exp(spec.params["mu"] * (spec.horizon - grid.times))[:, None]
        errors.append(float(np.max(np.abs(theta.values - exact))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 0.9), (errors, orders)


def test_fixed_point_reports_nonconvergence_without_raising():
    spec = model.mean_variance(r=0.03, mu=0.08, sigma=0.2, gamma=2.0, x0=1.0)
    grid = pde.default_grid(spec, nx=65, nt=65)
    theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid, max_iters=1)
    assert not log.converged
    assert log.note != ""


# ---------------------------------------------------------------------------
# block minimizer against the row-by-row search
# ---------------------------------------------------------------------------

def _brent_row_reference(f, lo, hi):
    """The block minimizer's search on one row of x, element by element: a
    running scan minimum, then Brent's method and the stencil vertex as scalar
    code per element.  f is called once per stage on the whole row, with the
    controls of every element; an element that has stopped holds its best
    point.  The stencil centre is always evaluated."""
    us = np.linspace(lo, hi, pde._COARSE)
    cell = us[1] - us[0]
    tol = pde._BRENT_TOL * cell
    F = [np.asarray(f(u), dtype=float) for u in us]
    n = F[0].size
    k = np.zeros(n, dtype=int)
    best = F[0].copy()
    for j in range(1, us.size):
        k[F[j] < best] = j          # strict <: the first minimum is kept
        best = np.minimum(best, F[j])
    state = []
    for i in range(n):
        j, val = int(k[i]), [float(Fj[i]) for Fj in F]
        o1 = j - 1 if j > 0 else 1
        o2 = j + 1 if j < us.size - 1 else us.size - 2
        state.append(dict(a=float(us[max(j - 1, 0)]), b=float(us[min(j + 1, us.size - 1)]),
                          x=float(us[j]), fx=val[j], w=float(us[o1]), fw=val[o1],
                          v=float(us[o2]), fv=val[o2], d=2.0 * (hi - lo), e=2.0 * (hi - lo)))

    def stopped(st):
        return max(st["x"] - st["a"], st["b"] - st["x"]) <= 2.0 * tol

    while not all(stopped(st) for st in state):
        trial = []
        for st in state:
            if stopped(st):
                trial.append(st["x"])
                continue
            a, b, x, w, v = st["a"], st["b"], st["x"], st["w"], st["v"]
            mid = 0.5 * (a + b)
            r, q = (x - w) * (st["fx"] - st["fv"]), (x - v) * (st["fx"] - st["fw"])
            den = 2.0 * (r - q)
            step = ((x - v) * q - (x - w) * r) / den if den != 0.0 else math.nan
            e_prev = st["e"]
            if abs(e_prev) > tol and abs(step) < 0.5 * abs(e_prev) and a < x + step < b:
                st["e"] = st["d"]
                if x + step - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = math.copysign(tol, mid - x)
                st["d"] = step
            else:
                st["e"] = (a if x >= mid else b) - x
                st["d"] = (math.copysign(tol, st["e"]) if x in (a, b)
                           else pde._CGOLD * st["e"])
            d = st["d"]
            trial.append(x + (d if abs(d) >= tol else math.copysign(tol, d)))
        fu_row = np.asarray(f(np.array(trial)), dtype=float)
        for st, u, fu in zip(state, trial, fu_row.tolist()):
            if stopped(st):
                continue
            x, fx = st["x"], st["fx"]
            if fu < fx or (fu == fx and u < x):
                lost, f_lost = x, fx
                st["x"], st["fx"] = u, fu
            else:
                lost, f_lost = u, fu
            if lost < st["x"]:
                st["a"] = lost
            else:
                st["b"] = lost
            if f_lost <= st["fw"] or st["w"] == st["x"] or lost == x:
                st["v"], st["fv"], st["w"], st["fw"] = st["w"], st["fw"], lost, f_lost
            elif f_lost <= st["fv"] or st["v"] == st["x"] or st["v"] == st["w"]:
                st["v"], st["fv"] = lost, f_lost
    h = pde._STENCIL * cell
    c = np.array([min(max(st["x"], lo + 2.0 * h), hi - 2.0 * h) for st in state])
    fc, f_1, f1, f_2, f2 = (np.asarray(f(p), dtype=float).tolist()
                            for p in (c, c - h, c + h, c - 2.0 * h, c + 2.0 * h))
    out = np.empty(n)
    for i, st in enumerate(state):
        curv = f_1[i] + f1[i] - 2.0 * fc[i]
        slope = (8.0 * (f1[i] - f_1[i]) - (f2[i] - f_2[i])) / 12.0
        third = 0.5 * (f2[i] - f_2[i]) - (f1[i] - f_1[i])
        disc = curv * curv - 2.0 * slope * third
        root = math.sqrt(disc if disc > 0.0 else curv * curv)
        if curv > pde._RESOLVED * math.ulp(max(abs(f_1[i]), abs(f1[i]), abs(fc[i]))):
            out[i] = min(max(c[i] - 2.0 * h * slope / (curv + root), st["a"]), st["b"])
        else:
            out[i] = st["x"]
    return np.clip(out, lo, hi)


def _quadratic_row_reference(f, lo, hi):
    """The fast path on one row of x, element by element: f is called once per
    point on the whole row, and the two vertices and the check are scalar code
    per element.  A row with an element off its first parabola takes the
    Brent reference's answer there."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    h = float(np.linspace(lo, hi, pde._COARSE)[1] - lo)
    F = [np.asarray(f(u), dtype=float).tolist() for u in (lo, mid, hi)]
    fits, first = [], []
    for f_lo, f_mid, f_hi in zip(*F):
        slope, curv = 0.5 * (f_hi - f_lo), f_lo + f_hi - 2.0 * f_mid
        ulp = math.ulp(max(abs(f_lo), abs(f_mid), abs(f_hi)))
        if curv > pde._RESOLVED * ulp:
            first.append(min(max(mid - half * slope / curv, lo), hi))
        else:
            first.append(hi if f_hi < f_lo else lo)
        fits.append((f_mid, slope, curv, pde._RESOLVED * ulp))
    c = np.array([min(max(u, lo + h), hi - h) for u in first])
    points = [c - h, c, c + h]
    G = [np.asarray(f(p), dtype=float).tolist() for p in points]
    out, wrong = np.empty(c.size), np.zeros(c.size, dtype=bool)
    for i, (f_mid, slope, curv, bound) in enumerate(fits):
        for g, p in zip(G, points):
            t = (p[i] - mid) / half
            wrong[i] |= abs(g[i] - (f_mid + t * (slope + 0.5 * t * curv))) > bound
        g_1, g0, g1 = (g[i] for g in G)
        curv = g_1 + g1 - 2.0 * g0
        if curv > pde._RESOLVED * math.ulp(max(abs(g_1), abs(g1), abs(g0))):
            out[i] = min(max(c[i] - 0.5 * h * (g1 - g_1) / curv, lo), hi)
        else:
            out[i] = first[i]
    if wrong.any():
        out[wrong] = _brent_row_reference(f, lo, hi)[wrong]
    return out


def _row_by_row_table(spec, theta, bundle, search=_quadratic_row_reference):
    """One search per time row, with scalar s: by default the fast path's
    reference, which falls back to Brent's where its check fails."""
    xs, zero = theta.xs, np.zeros_like(theta.xs)
    out = np.empty(bundle.d.shape)
    for j, s in enumerate(theta.times):
        args = (theta.slice(j), theta.dx_slice(j), pde._dxx_rows(theta.slice(j), theta.dx),
                bundle.d[j], bundle.dx[j], bundle.dy[j], bundle.dxx[j])
        out[j] = search(
            lambda u: model.hamiltonian_H0_hat(spec, s, s, xs, xs,
                                               np.asarray(u, dtype=float) + zero, *args),
            spec.u_lo, spec.u_hi)
    return out


def _brent_only(monkeypatch):
    """Send every minimizer block straight to Brent's search, which keeps
    ``_brent_rows`` under test on the Hamiltonians that the fast path solves.
    Set after ``_counted(monkeypatch, "_brent_rows")``, it reaches the count."""
    monkeypatch.setattr(pde, "_quadratic_rows", pde._brent_rows)


def _block_and_row_by_row(spec, grid, monkeypatch, brent=False):
    """The fixed point's strategy table from the block minimizer, after checking
    that the row-by-row reference gives the same iterations and table; with
    ``brent``, both take Brent's search alone."""
    with monkeypatch.context() as mp:
        if brent:
            _brent_only(mp)
        block = pde.equilibrium_fixed_point(spec, grid, max_iters=8)
        search = _brent_row_reference if brent else _quadratic_row_reference
        mp.setattr(pde, "_minimize_table",
                   lambda *args: _row_by_row_table(*args, search=search))
        rows = pde.equilibrium_fixed_point(spec, grid, max_iters=8)
    assert block[3].rows == rows[3].rows
    assert np.array_equal(block[2].values, rows[2].values)
    return block[2].values


@pytest.mark.parametrize("family, nx, nt", [
    ("mean_variance", 33, 17), ("mean_variance", 65, 40),
    ("recursive_lq", 33, 17), ("recursive_lq", 65, 70),   # 65 x 70: chunks of 63 + 7 rows
    ("bkm_separable", 33, 17), ("bkm_separable", 47, 26),
    ("linear_heat", 33, 17), ("linear_heat", 65, 40)])
def test_block_minimizer_matches_row_by_row(family, nx, nt, monkeypatch):
    spec = model.make_spec(family)
    _block_and_row_by_row(spec, pde.default_grid(spec, nx=nx, nt=nt), monkeypatch)


@pytest.mark.parametrize("family, nx, nt", [
    ("mean_variance", 33, 17), ("mean_variance", 65, 40),
    ("recursive_lq", 33, 17), ("recursive_lq", 65, 70)])   # 65 x 70: chunks of 63 + 7 rows
def test_brent_block_minimizer_matches_row_by_row_without_the_declaration(family, nx, nt,
                                                                          monkeypatch):
    # Brent's search alone, on Hamiltonians that the fast path solves
    spec = model.make_spec(family)
    _block_and_row_by_row(spec, pde.default_grid(spec, nx=nx, nt=nt), monkeypatch, brent=True)


def test_block_minimizer_partial_last_chunk(monkeypatch):
    # 3-row chunks on 17 rows: five full chunks and a 2-row remainder
    monkeypatch.setattr(pde, "_MIN_POINTS", 3 * 33 + 5)
    spec = model.mean_variance()
    _block_and_row_by_row(spec, pde.default_grid(spec, nx=33, nt=17), monkeypatch)


def _heat_with_cost(g0):
    return replace(model.linear_heat(),
                   cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: g0(s, u) + 0.0 * x)


def test_block_minimizer_rows_on_a_bound(monkeypatch):
    # argmin of cosh(u - c(s)) on U = [-1, 1]: on the bound for s < 1/3, inside the
    # first coarse cell (a bracket with the scan minimum on the bound) for s < 2/3,
    # interior after; all three kinds of rows share one block.  Not quadratic, so
    # the final stencil depends on where Brent's search stopped.
    c = lambda s: np.where(s < 1.0 / 3.0, -1.5, np.where(s < 2.0 / 3.0, -0.97, 0.3))
    spec = _heat_with_cost(lambda s, u: np.cosh(u - c(s)))
    grid = pde.GridSpec(-2.0, 2.0, 33, 31, 1.0)
    table = _block_and_row_by_row(spec, grid, monkeypatch)
    ref = np.broadcast_to(np.maximum(c(grid.times), -1.0)[:, None], table.shape)
    assert np.all(table[grid.times < 1.0 / 3.0] == -1.0)
    assert np.max(np.abs(table - ref)) < 1e-8


def test_block_minimizer_ties_go_to_the_smaller_u(monkeypatch):
    # two equal minima at u = -0.5 and 0.5, both on the coarse scan
    spec = _heat_with_cost(lambda s, u: (u * u - 0.25) ** 2)
    table = _block_and_row_by_row(spec, pde.GridSpec(-2.0, 2.0, 33, 17, 1.0), monkeypatch)
    assert np.max(np.abs(table + 0.5)) < 1e-6


def _mean_variance_frozen_fields():
    """The mean-variance closed-form fields and diagonal at 129 x 251, and the
    vertex -B/(2A) of the Hamiltonian A u^2 + B u + C that they give each node,
    from its values at u = -1, 0, 1."""
    spec = model.mean_variance()
    grid = pde.default_grid(spec, nx=129, nt=251)
    theta, theta0 = pde.reference_fields(spec, grid)
    bundle = pde.extract_diagonal(theta0, theta)
    th = theta.values
    args = (th, pde._dx_rows(th, theta.dx), pde._dxx_rows(th, theta.dx), bundle.d, bundle.dx,
            np.broadcast_to(bundle.dy, th.shape), bundle.dxx)
    s = grid.times[:, None]
    H = lambda u: model.hamiltonian_H0_hat(spec, s, s, grid.xs, grid.xs,
                                           np.full(bundle.d.shape, u), *args)
    h_lo, h_0, h_hi = H(-1.0), H(0.0), H(1.0)
    vertex = 0.5 * (h_lo - h_hi) / (h_lo + h_hi - 2.0 * h_0)
    assert np.all(np.abs(vertex) < 1.0)
    return spec, theta, bundle, vertex


def test_minimizer_hits_the_vertex_of_a_quadratic_hamiltonian(monkeypatch):
    # Brent's search, whose stencil vertex is exact to rounding on a quadratic
    spec, theta, bundle, vertex = _mean_variance_frozen_fields()
    _brent_only(monkeypatch)
    table = pde._minimize_table(spec, theta, bundle)
    assert np.max(np.abs(table - vertex)) < 1e-12


def test_fast_path_hits_the_vertex_of_a_quadratic_hamiltonian():
    # two three-point vertices, the second one scan cell about the first
    spec, theta, bundle, vertex = _mean_variance_frozen_fields()
    assert np.max(np.abs(pde._minimize_table(spec, theta, bundle) - vertex)) < 1e-14


def _cosh_in_u(s, u):
    return np.cosh(u - 0.3)


def _cosh_late(s, u):
    return np.where(s < 0.5, 0.0, np.cosh(u - 0.3))


@pytest.mark.parametrize("g0", [_cosh_in_u, _cosh_late])
def test_a_non_quadratic_hamiltonian_falls_back_to_brent_bit_for_bit(g0, monkeypatch):
    # the mean-variance Hamiltonian plus g0: not quadratic in u where g0 is cosh.
    # Those nodes get Brent's answer bit for bit, after six evaluations of the
    # fast path; the others keep the fast path
    spec, theta, bundle, _ = _mean_variance_frozen_fields()
    plain = pde._minimize_table(spec, theta, bundle)
    spec = replace(spec, cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: g0(s, u) + 0.0 * x)
    with monkeypatch.context() as mp:
        _brent_only(mp)
        brent = pde._minimize_table(spec, theta, bundle)
    quadratic, fallback = _counted(monkeypatch, "_quadratic_rows"), _counted(monkeypatch,
                                                                            "_brent_rows")
    table = pde._minimize_table(spec, theta, bundle)
    late = theta.times >= 0.5 if g0 is _cosh_late else np.full(theta.times.size, True)
    assert np.array_equal(table[late], brent[late])
    assert np.array_equal(table[~late], plain[~late])
    # a block with such a node pays the fast path's 6 calls, then Brent's
    rows = pde._MIN_POINTS // theta.xs.size
    blocks = [late[j:j + rows].any() for j in range(0, late.size, rows)]
    assert len(quadratic) == len(blocks) and len(fallback) == sum(blocks)
    assert [n - 6 for n, back in zip(quadratic, blocks) if back] == fallback
    assert all(n == 6 for n, back in zip(quadratic, blocks) if not back)


def test_minimizer_is_accurate_where_f_is_not_quadratic():
    # e^u - g u has its minimum at ln g, with f''' = f'' there: a three-point
    # slope would shift the vertex by h^2/6, about 1e-8 on U = [-1, 1]
    g = np.exp(np.concatenate([[-1.5, -1.0, 1.0, 1.5], np.linspace(-0.999, 0.999, 61)]))
    calls = []

    def f(u):
        calls.append(u)
        return np.exp(u + np.zeros((1, g.size))) - g * u

    u = pde._brent_rows(f, -1.0, 1.0)[0]
    assert np.max(np.abs(u - np.clip(np.log(g), -1.0, 1.0))) < 1e-10
    assert np.all(u[[0, 1]] == -1.0) and np.all(u[[2, 3]] == 1.0)
    assert len(calls) <= 45


def _counted(monkeypatch, name):
    """The number of f calls in each call of the search ``pde.<name>`` from here
    on; calls that another counted search makes through it count for both."""
    calls, search = [], getattr(pde, name)

    def counted(f, lo, hi):
        calls.append(0)
        n = len(calls) - 1

        def f_counted(u):
            calls[n] += 1
            return f(u)
        return search(f_counted, lo, hi)

    monkeypatch.setattr(pde, name, counted)
    return calls


@pytest.mark.parametrize("family, iterations", [("mean_variance", 3), ("recursive_lq", 5)])
def test_minimizer_evaluates_the_hamiltonian_at_most_45_times_per_point(family, iterations,
                                                                       monkeypatch):
    # Brent's search alone
    calls = _counted(monkeypatch, "_brent_rows")
    _brent_only(monkeypatch)
    spec = model.make_spec(family)
    log = pde.equilibrium_fixed_point(spec, pde.default_grid(spec, nx=65, nt=63))[3]
    assert log.converged and log.iterations == iterations
    assert len(calls) == iterations          # 65 x 63 is one block per iteration
    assert max(calls) <= 45


@pytest.mark.parametrize("family, iterations", [("mean_variance", 3), ("recursive_lq", 5)])
def test_fast_path_evaluates_the_hamiltonian_6_times_per_point(family, iterations, monkeypatch):
    quadratic, brent = _counted(monkeypatch, "_quadratic_rows"), _counted(monkeypatch,
                                                                         "_brent_rows")
    spec = model.make_spec(family)
    log = pde.equilibrium_fixed_point(spec, pde.default_grid(spec, nx=65, nt=63))[3]
    assert log.converged and log.iterations == iterations
    assert quadratic == [6] * iterations and brent == []


def test_a_spec_built_directly_takes_the_fast_path(monkeypatch):
    # nothing declares the route: a spec made from recursive_lq's callables gets
    # 6 evaluations per node per iteration and recursive_lq's table, bit for bit
    lq = model.recursive_lq()
    spec = ControlProblemSpec(
        name="direct", drift=lq.drift, diffusion=lq.diffusion, generator=lq.generator,
        terminal=lq.terminal, cost_generator=lq.cost_generator, cost_terminal=lq.cost_terminal,
        u_lo=lq.u_lo, u_hi=lq.u_hi, horizon=lq.horizon, terminal_split=lq.terminal_split)
    grid = pde.default_grid(lq, nx=65, nt=63)
    table = pde.equilibrium_fixed_point(lq, grid)[2].values
    quadratic, brent = _counted(monkeypatch, "_quadratic_rows"), _counted(monkeypatch,
                                                                         "_brent_rows")
    _, _, strategy, log = pde.equilibrium_fixed_point(spec, grid)
    assert log.converged and log.iterations == 5
    assert quadratic == [6] * 5 and brent == []
    assert np.array_equal(strategy.values, table)


# ---------------------------------------------------------------------------
# one sweep per Picard iteration against the two-sweep loop
# ---------------------------------------------------------------------------

def _two_sweep_fields(spec, strategy, grid, diag_guess):
    """The value field, then the cost field: one sweep each."""
    theta = pde.solve_theta(spec, strategy, grid)
    return theta, pde.solve_theta0_family(spec, strategy, theta, diag_guess, grid)


def _cost_arrays(theta0):
    return [theta0.hat if isinstance(theta0, pde.SeparableCostField) else theta0.first]


@pytest.mark.parametrize("family, nx, nt, general", [
    ("mean_variance", 33, 17, False), ("mean_variance", 65, 40, False),
    ("recursive_lq", 33, 17, False), ("recursive_lq", 65, 40, False),
    ("bkm_separable", 33, 17, False), ("bkm_separable", 47, 26, False),
    ("linear_heat", 33, 17, False), ("linear_heat", 65, 40, False),
    ("x_anchored", 17, 17, False),      # one cost field per x-anchor
    ("recursive_lq", 9, 9, True), ("bkm_separable", 9, 9, True)])
def test_fused_sweep_matches_two_sweeps(family, nx, nt, general, monkeypatch):
    spec = _anchored_spec() if family == "x_anchored" else model.make_spec(family)
    if general:     # without a terminal split the cost field is the full anchor tensor
        spec = replace(spec, terminal_split=None)
        grid = pde.GridSpec(-2.0, 2.0, nx, nt, 1.0, y_lo=-4.0, y_hi=4.0, ny=9)
    else:
        grid = pde.default_grid(spec, nx=nx, nt=nt)
    runs = []
    for fields in (pde.solve_fields, _two_sweep_fields):
        bundles = []

        def recording(spec, strategy, grid, diag_guess, _fields=fields, _seen=bundles):
            _seen.append(diag_guess)
            return _fields(spec, strategy, grid, diag_guess)

        with monkeypatch.context() as mp:
            mp.setattr(pde, "solve_fields", recording)
            theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid, max_iters=6)
        runs.append((theta, theta0, strat, log, bundles + [pde.extract_diagonal(theta0, theta)]))
    (theta, theta0, strat, log, bundles), (r_theta, r_theta0, r_strat, r_log, r_bundles) = runs
    assert isinstance(theta0, pde.GeneralCostField if general else pde.SeparableCostField)
    assert log.rows == r_log.rows and log.converged == r_log.converged
    assert np.array_equal(strat.values, r_strat.values)
    assert np.array_equal(theta.values, r_theta.values)
    assert all(np.array_equal(a, b) for a, b in zip(_cost_arrays(theta0), _cost_arrays(r_theta0)))
    assert len(bundles) == len(r_bundles) == log.iterations + 1
    for b, r in zip(bundles, r_bundles):
        assert all(np.array_equal(getattr(b, k), getattr(r, k)) for k in ("d", "dx", "dy", "dxx"))


def test_fused_sweep_halves_the_banded_solves(monkeypatch):
    spec = model.mean_variance()
    grid = pde.default_grid(spec, nx=33, nt=17)
    counts = []
    for fields in (pde.solve_fields, _two_sweep_fields):
        solves = []
        with monkeypatch.context() as mp:
            mp.setattr(pde, "solve_fields", fields)
            mp.setattr(pde, "solve_banded", lambda lu, ab, b, _f=pde.solve_banded:
                       solves.append(1 if b.ndim == 1 else b.shape[1]) or _f(lu, ab, b))
            iters = pde.equilibrium_fixed_point(spec, grid)[3].iterations
        counts.append((len(solves), sum(solves)))
    assert counts[0] == (iters * (grid.nt - 1), 2 * iters * (grid.nt - 1))
    assert counts[1] == (2 * counts[0][0], counts[0][1])


# ---------------------------------------------------------------------------
# solve_perturbation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mv_r0_solution():
    spec = model.mean_variance(r=0.0, mu=0.1, sigma=0.2, gamma=1.0, x0=1.0)
    grid = pde.default_grid(spec, nx=65, nt=251)
    theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid)
    assert log.converged
    return spec, grid, theta, theta0


def test_perturbation_identity_window(mv_r0_solution):
    spec, grid, theta, theta0 = mv_r0_solution
    vbar = 0.1 / 0.04  # constant equilibrium control at r = 0
    res = pde.solve_perturbation(spec, theta, theta0, 0.2, 0.1, vbar, grid)
    assert res.sup_theta_diff < 1e-10
    assert np.max(np.abs(res.j_perturbed - res.j_base)) < 1e-10


def test_perturbation_quotient_positive_off_equilibrium(mv_r0_solution):
    spec, grid, theta, theta0 = mv_r0_solution
    res = pde.solve_perturbation(spec, theta, theta0, 0.2, 0.1, 0.0, grid)
    i0 = int(np.argmin(np.abs(grid.xs - 1.0)))
    assert (res.j_perturbed[i0] - res.j_base[i0]) / 0.1 > 0.0


def test_perturbation_window_shrinks(mv_r0_solution):
    spec, grid, theta, theta0 = mv_r0_solution
    sups = [pde.solve_perturbation(spec, theta, theta0, 0.2, eps, 1.0, grid).sup_theta_diff
            for eps in (0.2, 0.1, 0.04)]
    assert sups[0] > sups[1] > sups[2]
    # observed rate at least eps^{1/4}
    assert sups[1] / sups[0] <= 0.5 ** 0.25 + 1e-9
    assert sups[2] / sups[1] <= 0.5 ** 0.25 + 1e-9


def test_perturbation_window_validation(mv_r0_solution):
    spec, grid, theta, theta0 = mv_r0_solution
    with pytest.raises(DomainError):
        pde.solve_perturbation(spec, theta, theta0, 0.95, 0.1, 0.0, grid)
    with pytest.raises(DomainError):
        pde.solve_perturbation(spec, theta, theta0, 0.2, 0.1, 99.0, grid)


# ---------------------------------------------------------------------------
# every solve against a per-step reference loop
# ---------------------------------------------------------------------------

def _reference_step_parabolic(w, a, drift, src, dt, dx):
    """One IMEX step written out on its own, in the operation order the
    solver's bits follow: explicit drift and source, then one banded solve."""
    n = w.shape[-1]
    a = np.asarray(a, dtype=float) + np.zeros(n)
    if not np.all(np.isfinite(a)):
        raise EvaluationError("diffusion")
    if np.min(a) < 0.0:
        raise DegeneracyError(f"negative diffusion coefficient {np.min(a):.3g}")
    drift = np.asarray(drift, dtype=float) + np.zeros_like(w)
    src = np.asarray(src, dtype=float) + np.zeros_like(w)
    if not np.all(np.isfinite(src)):
        raise EvaluationError("source")
    mu = dt * a / (dx * dx)
    rhs = np.empty(w.shape)
    rhs[..., 1:-1] = w[..., 1:-1] + dt * (drift[..., 1:-1] * (w[..., 2:] - w[..., :-2]) / (2.0 * dx) + src[..., 1:-1])
    rhs[..., 0] = w[..., 0] + dt * (drift[..., 0] * (-3.0 * w[..., 0] + 4.0 * w[..., 1] - w[..., 2]) / (2.0 * dx) + src[..., 0])
    rhs[..., -1] = w[..., -1] + dt * (drift[..., -1] * (3.0 * w[..., -1] - 4.0 * w[..., -2] + w[..., -3]) / (2.0 * dx) + src[..., -1])
    if not np.all(np.isfinite(rhs)):
        raise FBControlError("non-finite right-hand side")
    ab = np.zeros((5, n))
    ab[2, 1:-1] = 1.0 + 2.0 * mu[1:-1]
    ab[1, 2:] = -mu[1:-1]
    ab[3, :-2] = -mu[1:-1]
    ab[2, 0], ab[1, 1], ab[0, 2] = 1.0 - mu[0], 2.0 * mu[0], -mu[0]
    ab[2, -1], ab[3, -2], ab[4, -3] = 1.0 - mu[-1], 2.0 * mu[-1], -mu[-1]
    return pde.solve_banded((2, 2), ab, rhs.reshape(-1, n).T).T.reshape(w.shape)


@settings(max_examples=60, deadline=None)
@given(**_block_cases)
def test_step_parabolic_matches_the_reference_step(lead, n, dt, dx, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (n,)
    w, src = rng.normal(size=shape), rng.normal(size=shape)
    a, drift = rng.uniform(0.0, 2.0, size=n), rng.normal(size=n)
    assert np.array_equal(pde.step_parabolic(w, a, drift, src, dt, dx),
                          _reference_step_parabolic(w, a, drift, src, dt, dx))


def _reference_step(spec, grid, s, u, w, source):
    """One step of the per-step loop: the control row u, the coefficients at the
    scalar s, the explicit source of the later rows w and one reference step."""
    xs = grid.xs
    zero = np.zeros_like(xs)
    u = np.asarray(u, dtype=float) + zero
    sig = np.asarray(spec.diffusion(s, xs, u), dtype=float) + zero
    b = np.asarray(spec.drift(s, xs, u), dtype=float) + zero
    src = np.asarray(source(u, sig), dtype=float) + np.zeros_like(w)
    return _reference_step_parabolic(w, 0.5 * sig * sig, b, src, grid.dt, grid.dx)


def _reference_theta(spec, strategy, grid):
    """The value field, (nt, nx), one step at a time."""
    xs, times = grid.xs, grid.times
    vals = np.empty((times.size, xs.size))
    vals[-1] = spec.terminal(xs)
    for j in range(times.size - 2, -1, -1):
        s, w = times[j + 1], vals[j + 1]

        def source(u, sig):
            return spec.generator(s, xs, u, w, pde._dx_rows(w, grid.dx) * sig)

        vals[j] = _reference_step(spec, grid, s, strategy(s, xs), w, source)
    return vals


def _reference_cost(spec, strategy, theta, diag, grid):
    """The cost field's stepped values: (nt, nx) anchor-free, (nx, nt, nx) one
    field per x-anchor, or the general tensor's first rows (nt, nx, ny, nx)."""
    xs, times = grid.xs, grid.times
    nt, nx = times.size, xs.size
    split = spec.terminal_split
    separable = split is not None
    if separable:
        xt = xs if split.xtilde_free else xs[:, None]
        vals = np.empty(((nt,) if split.xtilde_free else (nx, nt)) + (nx,))
        vals[..., -1, :] = np.asarray(split.fhat(grid.T, xt, xs), dtype=float) + 0.0
    else:
        t_col, xt = times[:, None, None, None], xs[None, :, None, None]
        vals = np.empty((nt, nx, grid.ys.size, nx))
        vals[...] = np.asarray(spec.cost_terminal(t_col, xt, xs, grid.ys[None, None, :, None]),
                               dtype=float) + 0.0
    for j in range(nt - 2, -1, -1):
        s = times[j + 1]
        w = vals[..., j + 1, :] if separable else vals[:j + 1]

        def source(u, sig):
            y = theta.values[j + 1]
            z = pde._dx_rows(y, grid.dx) * sig
            t = s if separable else t_col[:j + 1]
            return spec.cost_generator(t, s, xt, xs, u, y, z, diag.d[j + 1],
                                       pde._dx_rows(w, grid.dx) * sig)

        stepped = _reference_step(spec, grid, s, strategy(s, xs), w, source)
        if separable:
            vals[..., j, :] = stepped
        else:
            vals[:j + 1] = stepped
    return vals


def _reference_fields(spec, strategy, grid, diag_guess):
    """``solve_fields`` from the reference loops, wrapped in pde's field types."""
    theta = pde.FieldTheta(grid.times, grid.xs, _reference_theta(spec, strategy, grid))
    diag = pde.DiagonalBundle.zeros(grid.nt, grid.nx) if diag_guess is None else diag_guess
    vals = _reference_cost(spec, strategy, theta, diag, grid)
    split = spec.terminal_split
    if split is not None:
        return theta, pde.SeparableCostField(grid.times, grid.xs, vals, split, split.xtilde_free)
    return theta, pde.GeneralCostField(grid.times, grid.xs, grid.ys, vals)


def _reference_case(family, general, nx):
    spec = _anchored_spec() if family == "x_anchored" else model.make_spec(family)
    if general:
        spec = replace(spec, terminal_split=None)
        grid = pde.GridSpec(-2.0, 2.0, 9, 9, 1.0, y_lo=-4.0, y_hi=4.0, ny=5)
    else:
        grid = pde.default_grid(spec, nx=nx, nt=17)
    return spec, grid


def _grid_strategy(spec, grid, seed):
    """A grid table on the solver's nodes with values beyond U and signed zeros."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.5 * spec.u_lo, 1.5 * spec.u_hi, size=(grid.nt, grid.nx))
    values[::3, ::4] = -0.0
    return StrategyTable(spec.u_lo, spec.u_hi, s_grid=grid.times, x_grid=grid.xs, values=values)


# (family, general tensor, nx); at nx = 47 the default grids' xs[1] - xs[0]
# is not their spacing, so a slope taken with it would show
_REFERENCE_CASES = [pytest.param(family, general, nx, id=f"{family}-{general}"
                                 + ("" if nx == 21 else f"-nx{nx}"))
                    for family, general, nx in [
                        ("mean_variance", False, 21), ("recursive_lq", False, 21),
                        ("bkm_separable", False, 21), ("linear_heat", False, 21),
                        ("x_anchored", False, 21), ("recursive_lq", True, 21),
                        ("bkm_separable", True, 21), ("mean_variance", False, 47),
                        ("x_anchored", False, 47)]]


@pytest.mark.parametrize("family, general, nx", _REFERENCE_CASES)
@pytest.mark.parametrize("table", ["fn", "grid"])
@pytest.mark.parametrize("block", [None, 5])
def test_solves_match_the_per_step_loop(family, general, nx, table, block, monkeypatch):
    # block 5: the steps are assembled in blocks of 5, 5, 5 and 1 (or 5 and 3)
    if block:
        monkeypatch.setattr(pde, "_SWEEP_STEPS", block)
    spec, grid = _reference_case(family, general, nx)
    strategy = (StrategyTable(spec.u_lo, spec.u_hi,
                              fn=lambda s, x: 0.4 * np.sin(np.asarray(x) + s)
                              * (spec.u_hi - spec.u_lo))
                if table == "fn" else _grid_strategy(spec, grid, 5))
    ref_theta, ref_cost = _reference_fields(spec, strategy, grid, None)
    theta = pde.solve_theta(spec, strategy, grid)
    assert np.array_equal(theta.values, ref_theta.values)
    diag = pde.DiagonalBundle(*(np.cos(np.arange(4)[:, None, None] + theta.values)))
    cost = _cost_arrays(pde.solve_theta0_family(spec, strategy, theta, diag, grid))[0]
    assert np.array_equal(cost, _cost_arrays(_reference_fields(spec, strategy, grid, diag)[1])[0])
    fused_theta, fused_cost = pde.solve_fields(spec, strategy, grid, None)
    assert np.array_equal(fused_theta.values, ref_theta.values)
    assert np.array_equal(_cost_arrays(fused_cost)[0], _cost_arrays(ref_cost)[0])


def test_mean_variance_fixed_point_matches_the_per_step_loop(monkeypatch):
    spec = model.mean_variance()
    grid = pde.default_grid(spec, nx=65, nt=201)
    runs = []
    for fields in (pde.solve_fields, _reference_fields):
        with monkeypatch.context() as mp:
            mp.setattr(pde, "solve_fields", fields)
            runs.append(pde.equilibrium_fixed_point(spec, grid))
    (theta, theta0, strat, log), (r_theta, r_theta0, r_strat, r_log) = runs
    assert log.converged and log.rows == r_log.rows
    assert np.array_equal(theta.values, r_theta.values)
    assert np.array_equal(theta0.hat, r_theta0.hat)
    assert np.array_equal(strat.values, r_strat.values)


def test_every_field_reads_the_grids_own_spacing():
    # one x spacing: a slope taken by a field and one taken by a sweep agree
    for family in model.FAMILIES:
        spec = model.make_spec(family)
        for nx in range(8, 258):
            grid = pde.default_grid(spec, nx=nx, nt=8)
            rows = np.zeros((grid.nt, nx))
            fields = (pde.FieldTheta(grid.times, grid.xs, rows),
                      pde.SeparableCostField(grid.times, grid.xs, rows, None, True),
                      pde.GeneralCostField(grid.times, grid.xs, np.zeros(2), None))
            assert grid.dx == (grid.x_hi - grid.x_lo) / (nx - 1), (family, nx)
            assert all(f.dx == grid.dx for f in fields), (family, nx)


def _reference_perturbation(spec, theta, theta0, j0, j1, u, grid):
    """The window's value field and cost field, stacked: (2, window, nx)."""
    xs, times = grid.xs, grid.times
    vals = np.empty((2, j1 - j0 + 1, xs.size))
    vals[0, -1] = theta.slice(j1)
    vals[1, -1] = theta0.hat[j1]
    for j in range(j1 - j0 - 1, -1, -1):
        s, w = times[j0 + j + 1], vals[:, j + 1]

        def source(u_row, sig):
            y, z = w[0], pde._dx_rows(w[0], grid.dx) * sig
            src = np.empty_like(w)
            src[0] = spec.generator(s, xs, u_row, y, z)
            later = w[1] + np.asarray(spec.terminal_split.ghat(s, xs, y), dtype=float)
            src[1] = spec.cost_generator(s, s, xs, xs, u_row, y, z, later,
                                         pde._dx_rows(w[1], grid.dx) * sig)
            return src

        vals[:, j] = _reference_step(spec, grid, s, np.full(xs.size, float(u)), w, source)
    return vals


@pytest.mark.parametrize("t, eps, u", [(0.2, 0.1, 2.5), (0.0, 0.3, -1.0), (0.5, 0.004, 0.0)])
def test_perturbation_matches_the_per_step_loop(mv_r0_solution, t, eps, u):
    spec, grid, theta, theta0 = mv_r0_solution
    res = pde.solve_perturbation(spec, theta, theta0, t, eps, u, grid)
    j0, j1 = int(round(t / grid.dt)), int(round((t + eps) / grid.dt))
    ref = _reference_perturbation(spec, theta, theta0, j0, j1, u, grid)
    assert np.array_equal(res.theta_e.values, ref[0])
    assert np.array_equal(res.hat_e, ref[1])


@pytest.mark.parametrize("family", ["mean_variance", "recursive_lq"])
@pytest.mark.parametrize("nx", [65, 47])
def test_window_under_the_fields_own_control_reproduces_their_rows(family, nx):
    # the window steps the fixed point's own blocks, so under the constant
    # control the fields were solved with it gives their rows j0..j1 bit for
    # bit; these cost generators ignore the diagonal, which the window takes
    # from its own rows and the fields from the (zero) guess
    spec = model.make_spec(family)
    grid = pde.default_grid(spec, nx=nx, nt=41)
    u, j0, j1 = 0.5, 10, 25
    theta, theta0 = pde.solve_fields(spec, const_strategy(u, U=(spec.u_lo, spec.u_hi)), grid,
                                     None)
    t = grid.times[j0]
    res = pde.solve_perturbation(spec, theta, theta0, t, grid.times[j1] - t, u, grid)
    assert res.sup_theta_diff == 0.0
    assert np.array_equal(res.theta_e.values, theta.values[j0:j1 + 1])
    assert np.array_equal(res.hat_e, theta0.hat[j0:j1 + 1])


# ---------------------------------------------------------------------------
# which error a sweep raises, and at which step
# ---------------------------------------------------------------------------

def _faulty_heat(diffusion_bad, source_bad, seen):
    """linear_heat whose diffusion is bad for s < 0.3 and whose generator, which
    records the times it sees, is non-finite for s > 0.7 when ``source_bad``."""
    def diffusion(s, x, u):
        bad = np.asarray(s) < 0.3
        return np.where(bad, diffusion_bad, 1.0) + 0.0 * np.asarray(x)

    def generator(s, x, u, y, z):
        seen.append(s)
        return np.where(source_bad and s > 0.7, np.nan, 0.0) + 0.0 * np.asarray(x)

    return replace(model.linear_heat(), diffusion=diffusion, generator=generator)


@pytest.mark.parametrize("diffusion_bad", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("block", [None, 3])
def test_a_later_steps_source_error_wins_over_an_earlier_diffusion_fault(diffusion_bad, block,
                                                                          monkeypatch):
    if block:
        monkeypatch.setattr(pde, "_SWEEP_STEPS", block)
    seen = []
    spec = _faulty_heat(diffusion_bad, True, seen)
    grid = pde.GridSpec(-2.0, 2.0, 17, 11, 1.0)
    with pytest.raises(EvaluationError, match="'source'") as exc:
        pde.solve_theta(spec, ZERO, grid)
    assert exc.value.coefficient == "source"
    assert seen == [grid.times[-1]]   # the first step already fails


@pytest.mark.parametrize("diffusion_bad", [np.nan, np.inf])
@pytest.mark.parametrize("block", [None, 3])
def test_a_diffusion_fault_is_raised_at_its_own_step(diffusion_bad, block, monkeypatch):
    # block 3: the faulty rows s < 0.3 are assembled with steps that still run first
    if block:
        monkeypatch.setattr(pde, "_SWEEP_STEPS", block)
    seen = []
    spec = _faulty_heat(diffusion_bad, False, seen)
    grid = pde.GridSpec(-2.0, 2.0, 17, 11, 1.0)
    with pytest.raises(EvaluationError, match="'diffusion'") as exc:
        pde.solve_theta(spec, ZERO, grid)
    assert exc.value.coefficient == "diffusion"
    # every step down to the first s < 0.3 ran its source, and no step below it
    assert seen == [s for s in grid.times[:0:-1] if s >= grid.times[grid.times < 0.3][-1]]


def test_a_negative_diffusion_coefficient_keeps_its_message():
    with pytest.raises(DegeneracyError, match=r"^negative diffusion coefficient -0\.5$"):
        pde.step_parabolic(np.zeros(9), np.full(9, -0.5), 0.0, 0.0, 1e-3, 0.1)
    # a = sigma^2 / 2 is never negative: a negative sigma in a sweep steps like |sigma|
    grid = pde.GridSpec(-2.0, 2.0, 17, 11, 1.0)
    flipped = _faulty_heat(-math.sqrt(2.0), False, [])
    plain = _faulty_heat(math.sqrt(2.0), False, [])
    assert np.array_equal(pde.solve_theta(flipped, ZERO, grid).values,
                          pde.solve_theta(plain, ZERO, grid).values)


# ---------------------------------------------------------------------------
# kernel_solve_linear
# ---------------------------------------------------------------------------

def test_kernel_identity_and_second_moment():
    grid = pde.GridSpec(-6.0, 6.0, 49, 17, 1.0)
    th = pde.kernel_solve_linear(model.linear_heat(a=1.0, terminal="x"), grid)
    assert np.max(np.abs(th.values - grid.xs[None, :])) < 1e-6
    th2 = pde.kernel_solve_linear(model.linear_heat(a=1.0, terminal="x2"), grid)
    i0 = grid.nx // 2
    assert abs(th2.values[0, i0] - 2.0) < 1e-4


def test_kernel_agrees_with_finite_differences():
    rng = np.random.default_rng(41)
    a1, a2 = rng.uniform(0.5, 1.5, size=2)
    c1, c2 = rng.uniform(-1.5, 1.5, size=2)
    b1, b2 = rng.uniform(0.7, 2.0, size=2)
    h = lambda x: (a1 * np.exp(-b1 * (np.asarray(x) - c1) ** 2)
                   + a2 * np.exp(-b2 * (np.asarray(x) - c2) ** 2))
    spec = model.linear_heat(a=1.0, terminal=h)
    gridk = pde.GridSpec(-6.0, 6.0, 97, 33, 1.0)
    thk = pde.kernel_solve_linear(spec, gridk)
    gridf = pde.GridSpec(-6.0, 6.0, 97, 1001, 1.0)
    thf = pde.solve_theta(spec, ZERO, gridf)
    interior = np.abs(gridk.xs) <= 4.0
    assert np.max(np.abs(thk.values[0] - thf.values[0])[interior]) < 5e-3


def test_kernel_truncation_warning():
    grid = pde.GridSpec(-2.0, 2.0, 33, 9, 1.0)
    with pytest.warns(RuntimeWarning):
        pde.kernel_solve_linear(model.linear_heat(a=1.0, terminal="x"), grid, pad=0.5)


# ---------------------------------------------------------------------------
# more than one backward component
# ---------------------------------------------------------------------------

def _two_component_lq(T=1.0, x0=0.0, U=(-10.0, 10.0)):
    """recursive_lq with a decoupled second component, g2 = 3u and Y2(T) = 0,
    and the cost on Y1 only.  A route that read only Y1 would converge to a
    strategy 3 away from recursive_lq's."""
    base = model.recursive_lq(T, x0, U)

    def generator(s, x, u, y, z):
        u = np.asarray(u, dtype=float) + 0.0 * np.asarray(x, dtype=float)
        return np.stack([base.generator(s, x, u, y[0], z[0]), 3.0 * u])

    return replace(base, name="two_component_lq", m=2, generator=generator,
                   terminal=lambda x: np.zeros((2,) + np.shape(x)),
                   cost_terminal=lambda t, xt, x, y: np.asarray(y)[0])


def test_every_pde_entry_refuses_more_than_one_backward_component(monkeypatch, tmp_path,
                                                                  capsys):
    # setitem, not register_family: the family leaves FAMILIES with the test
    monkeypatch.setitem(model.FAMILIES, "two_component_lq", _two_component_lq)
    spec = model.make_spec("two_component_lq")
    grid = pde.GridSpec(-2.0, 2.0, 17, 17, 1.0)
    strat = const_strategy(0.0, U=(spec.u_lo, spec.u_hi))
    theta = pde.FieldTheta(grid.times, grid.xs, np.zeros((grid.nt, grid.nx)))
    entries = [lambda: pde.solve_theta(spec, strat, grid),
               lambda: pde.solve_theta0_family(spec, strat, theta, None, grid),
               lambda: pde.solve_fields(spec, strat, grid, None),
               lambda: pde.equilibrium_fixed_point(spec, grid),
               lambda: pde.kernel_solve_linear(spec, grid),
               lambda: pde.minimize_hamiltonian(spec, 0.0, 0.0, 0.0, 0.0, 0.0,
                                                0.0, 0.0, 1.0)]
    for entry in entries:
        with pytest.raises(DomainError, match="'two_component_lq' has m = 2"):
            entry()
    cfg, out = tmp_path / "two.json", tmp_path / "out"
    cfg.write_text(json.dumps({"family": "two_component_lq"}))
    assert run(["pde-solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: family 'two_component_lq' has m = 2" in capsys.readouterr().err
    assert not out.exists()


def test_feynman_kac_check_refuses_more_than_one_backward_component():
    # its fields and sampled sums are scalar in Y: an m = 2 spec is refused
    # before any path, not run on its first component or on scalar y, z
    spec = _two_component_lq()
    grid = pde.GridSpec(-2.0, 2.0, 17, 17, 1.0)
    theta = pde.FieldTheta(grid.times, grid.xs, np.zeros((grid.nt, grid.nx)))
    strat = const_strategy(0.0, U=(spec.u_lo, spec.u_hi))
    with pytest.raises(DomainError, match="'two_component_lq' has m = 2"):
        mc.check_feynman_kac(spec, theta, None, strat, [(0.0, 0.5)], mc.MCConfig(n_paths=200))
