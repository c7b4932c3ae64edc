"""Backward parabolic solver for the coupled nonlocal value system.

The backward field and the anchored cost field are stepped on a truncated 1-D
domain with implicit diffusion and explicit drift/source (IMEX); an outer
Picard loop alternates field solves with pointwise minimization of the
adjusted Hamiltonian, feeding the diagonal values of the cost field back into
the strategy until the diagonal bundle and the strategy stop moving.

Every field goes through one backward sweep kernel, ``_sweep``: one banded
factorization per time step (a direct LAPACK ``dgbsv`` call) is shared by
every field and anchor of the blocks it steps (the value field, x-anchors,
(t, x, y) anchors of the general tensor).  A sweep assembles the control rows
of all its steps, and sigma, b, the diffusion checks and the band matrices in
blocks of steps, ahead of the steps; the step loop keeps only the explicit
sources, the right-hand side and the solve.  Each Picard iteration is one
sweep of two blocks, the value field's and the cost field's (``_theta_block``,
``_cost_block``), which share each step's control, coefficients and
factorization; a spike-perturbation window sweeps the same two blocks on its
own times.  Grids and fields read one x spacing (``_OnGrid``).  Anchors reach
the coefficient callables as columns, so cost terminals and cost generators
must broadcast array t, xt and y against the x row.  The Hamiltonian is
defined only in ``model.py``.

Every field is scalar in Y, (nt, nx) like the strategy, so every entry
refuses a spec with m != 1 backward components (``model.require_scalar_y``).

Cost fields come in two storage modes.  When the cost terminal splits
additively into a state part and an anchored-y part (and the cost generator
never sees the anchor y), the y-dependence is carried analytically and only
state-part fields are stepped; a split promises that the state part ignores
the anchor t.  A spec whose ``terminal_split`` is None (select it with
``replace(spec, terminal_split=None)``) gets the general anchor tensor, which
needs a y grid on the GridSpec and keeps only each anchor's first row (s = t):
O(nt nx^2 ny) doubles, one rolling row per anchor.

No family is named here: closed-form fields come from the family's
``closed_forms`` (``reference_fields``), and the grid's diffusion probe from
its ``grid_control``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (DegeneracyError, DomainError, EvaluationError,
                     FBControlError, YRangeError)
from .model import StrategyTable, constant_control, hamiltonian_H0_hat, require_scalar_y

_trapz = getattr(np, "trapezoid", None) or np.trapz


class _OnGrid:
    """Equally spaced x nodes ``xs`` and their spacing (x_hi - x_lo)/(nx - 1); as
    ``linspace`` keeps both ends, a field has its grid's dx bit for bit."""

    @property
    def dx(self):
        return float((self.xs[-1] - self.xs[0]) / (self.xs.size - 1))


@dataclass(frozen=True)
class GridSpec(_OnGrid):
    x_lo: float
    x_hi: float
    nx: int
    nt: int
    T: float
    y_lo: Optional[float] = None
    y_hi: Optional[float] = None
    ny: int = 17

    def __post_init__(self):
        if self.nx < 8 or self.nt < 8:
            raise DomainError("need at least 8 nodes in each direction")
        if not self.x_lo < self.x_hi:
            raise DomainError("x_lo must be below x_hi")
        if not self.T > 0:
            raise DomainError("horizon must be positive")
        if (self.y_lo is None) != (self.y_hi is None):
            raise DomainError("set both y_lo and y_hi, or neither")
        if self.y_lo is not None:
            if not self.y_lo < self.y_hi:
                raise DomainError("y_lo must be below y_hi")
            if self.ny < 2:
                raise DomainError("need at least 2 y nodes")

    @property
    def xs(self):
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.nt)

    @property
    def dt(self):
        return self.T / (self.nt - 1)

    @property
    def ys(self):
        if self.y_lo is None or self.y_hi is None:
            return None
        return np.linspace(self.y_lo, self.y_hi, self.ny)


def default_grid(spec, nx=129, nt=1001):
    """Domain [x0 - 5 sigma_bar sqrt(T), x0 + 5 sigma_bar sqrt(T)] with no y grid.

    sigma_bar is the largest |sigma| at x0 over s in {0, T/2, T}, measured at the
    family's ``closed_forms.grid_control`` (else 1 clipped to U), and at least
    1e-2.  A grid for the general cost-field tensor sets y_lo/y_hi on GridSpec.
    """
    u_ref = spec.closed_forms.grid_control
    u_ref = float(np.clip(1.0, spec.u_lo, spec.u_hi)) if u_ref is None else u_ref
    sigma_bar = max(abs(float(np.asarray(spec.diffusion(s, spec.x0, u_ref))))
                    for s in (0.0, 0.5 * spec.horizon, spec.horizon))
    half = 5.0 * max(sigma_bar, 1e-2) * math.sqrt(spec.horizon)
    return GridSpec(spec.x0 - half, spec.x0 + half, nx, nt, spec.horizon)


def _diff_rows(vals):
    """The numerators of ``_dx_rows``: central differences, second-order
    one-sided at the edges."""
    out = np.empty_like(vals)
    out[..., 1:-1] = vals[..., 2:] - vals[..., :-2]
    out[..., 0] = -3.0 * vals[..., 0] + 4.0 * vals[..., 1] - vals[..., 2]
    out[..., -1] = 3.0 * vals[..., -1] - 4.0 * vals[..., -2] + vals[..., -3]
    return out


def _dx_rows(vals, dx):
    """Central first derivative, second-order one-sided at the edges."""
    return _diff_rows(vals) / (2.0 * dx)


def _dxx_rows(vals, dx):
    out = np.empty_like(vals)
    out[..., 1:-1] = (vals[..., 2:] - 2.0 * vals[..., 1:-1] + vals[..., :-2]) / (dx * dx)
    out[..., 0] = (2.0 * vals[..., 0] - 5.0 * vals[..., 1] + 4.0 * vals[..., 2] - vals[..., 3]) / (dx * dx)
    out[..., -1] = (2.0 * vals[..., -1] - 5.0 * vals[..., -2] + 4.0 * vals[..., -3] - vals[..., -4]) / (dx * dx)
    return out


def solve_banded(l_and_u, ab, b):
    """Solve A x = b for the band matrix A stored as ab[u + i - j, j] = A[i, j].

    The LAPACK ``dgbsv`` route of ``scipy.linalg.solve_banded`` without its
    argument checks; b (n or (n, k), float) is overwritten by the solution.
    scipy is imported here, not at module level, so that the routes which never
    solve a band system start without it.
    """
    from scipy.linalg.lapack import dgbsv
    l, u = l_and_u
    lu = np.zeros((2 * l + u + 1, ab.shape[1]), order="F")   # dgbsv's pivoting room
    lu[l:] = ab
    _, _, x, info = dgbsv(l, u, lu, b, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbsv")
    return x


def _check_diffusion(a):
    """Raise for a diffusion row a that is not finite, or negative somewhere."""
    if not np.all(np.isfinite(a)):
        raise EvaluationError("diffusion")
    if np.min(a) < 0.0:
        raise DegeneracyError(f"negative diffusion coefficient {np.min(a):.3g}")


def _bands(a, dt, dx):
    """The (2, 2) band matrices (..., 5, n) of the implicit diffusion, one per
    diffusion row a (..., n), stored as ``solve_banded`` reads them.  The ends
    close by carrying the adjacent curvature through a one-sided second
    difference."""
    mu = dt * a / (dx * dx)
    ab = np.zeros(a.shape[:-1] + (5, a.shape[-1]))
    ab[..., 2, 1:-1] = 1.0 + 2.0 * mu[..., 1:-1]
    ab[..., 1, 2:] = -mu[..., 1:-1]          # superdiagonal entries A[i, i+1]
    ab[..., 3, :-2] = -mu[..., 1:-1]         # subdiagonal entries A[i, i-1]
    # boundary rows: v_xx taken from the one-sided stencil (v0 - 2 v1 + v2)/dx^2
    ab[..., 2, 0] = 1.0 - mu[..., 0]
    ab[..., 1, 1] = 2.0 * mu[..., 0]
    ab[..., 0, 2] = -mu[..., 0]
    ab[..., 2, -1] = 1.0 - mu[..., -1]
    ab[..., 3, -2] = 2.0 * mu[..., -1]
    ab[..., 4, -3] = -mu[..., -1]
    return ab


def _explicit_rhs(w, diff, drift, src, dt, dx):
    """The right-hand side w + dt (drift w_x + src) of one step for the later
    rows w (k, n), whose ``_diff_rows`` are diff; drift broadcasts against w.
    A non-finite source raises EvaluationError("source"), and a non-finite
    result is traced to the drift, the field or an overflow."""
    if not np.isfinite(src).all():
        raise EvaluationError("source")
    rhs = w + dt * (drift * diff / (2.0 * dx) + src)
    # a non-finite drift or field entry always leaves a non-finite rhs entry
    if not np.isfinite(rhs).all():
        if not np.all(np.isfinite(drift)):
            raise EvaluationError("drift")
        raise FBControlError("non-finite field values entering the step"
                             if not np.all(np.isfinite(w)) else "explicit step overflowed")
    return rhs


def _implicit_solve(ab, rhs):
    """The rows (k, n) that the band matrix ab maps to the rows of rhs: one
    ``solve_banded`` call, a right-hand side per row."""
    try:
        v = solve_banded((2, 2), ab, rhs.T)
    except LinAlgError as exc:
        raise FBControlError(f"banded solve failed: {exc}") from exc
    if not np.isfinite(v).all():
        raise FBControlError("banded solve produced non-finite values")
    return v.T


def step_parabolic(field_slice, a_row, drift_row, source_row, dt, dx):
    """One backward IMEX step of  d_s v + a v_xx + drift v_x + source = 0.

    Diffusion is taken implicitly through a banded solve; drift and source are
    evaluated on the supplied (later-time) slice.  The ends close by carrying
    the adjacent curvature through a one-sided second difference, which is
    exact for quadratic data and degrades to linear extrapolation for linear
    data.  A block of fields along leading axes shares one band matrix and one
    solve, bit-identical to stepping each field on its own.  A negative
    diffusion entry raises DegeneracyError.  This is one step of ``_sweep``,
    from the same band, right-hand side and solve helpers.
    """
    w = np.asarray(field_slice, dtype=float)
    n = w.shape[-1]
    a = np.asarray(a_row, dtype=float) + np.zeros(n)
    _check_diffusion(a)
    # one right-hand side per row; reshape, since .T alone would reverse every
    # axis of a block with more than one leading axis
    rows = w.reshape(-1, n)
    drift, src = ((np.asarray(v, dtype=float) + np.zeros_like(w)).reshape(-1, n)
                  for v in (drift_row, source_row))
    rhs = _explicit_rhs(rows, _diff_rows(rows), drift, src, dt, dx)
    return _implicit_solve(_bands(a, dt, dx), rhs).reshape(w.shape)


_SWEEP_STEPS = 256   # steps assembled together: memory O(_SWEEP_STEPS nx), not O(nt nx)


def _assembled(spec, grid, times, u):
    """(sigma, b, faulty, band) of each step j = times.size - 2 .. 0, in that
    order: sigma and b at s = times[j + 1] under the control row u[j], whether
    the diffusion row a = sigma^2 / 2 is non-finite or negative somewhere, and
    the step's band matrix.  Up to ``_SWEEP_STEPS`` steps are assembled at a
    time, with one sigma and one b call on their column of s."""
    xs, dt, dx = grid.xs, grid.dt, grid.dx
    for stop in range(times.size - 1, 0, -_SWEEP_STEPS):
        first = max(stop - _SWEEP_STEPS, 0)
        s_col, us, shape = times[first + 1:stop + 1, None], u[first:stop], (stop - first, xs.size)
        # + 0.0 turns -0.0 into 0.0; a row or column is broadcast, not copied
        sig = np.broadcast_to(np.asarray(spec.diffusion(s_col, xs, us), dtype=float) + 0.0, shape)
        b = np.broadcast_to(np.asarray(spec.drift(s_col, xs, us), dtype=float) + 0.0, shape)
        a = 0.5 * sig * sig
        faulty = ~np.isfinite(a).all(axis=1) | (a.min(axis=1) < 0.0)
        ab = _bands(a, dt, dx)
        for i in range(stop - first - 1, -1, -1):
            yield sig[i], b[i], faulty[i], ab[i]


def _sweep(spec, grid, times, u, blocks):
    """Step every block from times[j + 1] to times[j], j = times.size - 2 .. 0.

    Each block is (values, source, rolling).  values is lead + (times.size, nx)
    and gets row j from row j + 1, unless ``rolling``: then it has no time axis,
    entry k of its first axis is anchored at times[k], and step j overwrites
    the live entries values[:j + 1], so no coefficient sees s below an anchor
    time and each entry ends at its first row.

    Everything that does not read the stepped rows is assembled ahead of the
    steps (``_assembled``): u holds the control rows at s = times[1:],
    (times.size - 1, nx); sigma and b take one call per block of steps on a
    column of s, and every step's band matrix is built and its diffusion row
    checked there.  Step j then keeps only the explicit sources, the
    right-hand side and one ``solve_banded`` call for the rows of all blocks
    together.  source(j + 1, s, u, sigma, w, w_x) gives the explicit source of
    the block's later rows w, with w_x = ``_dx_rows(w, grid.dx)``.  Errors come
    in ``step_parabolic``'s order, step by step: a faulty diffusion row of
    step j raises only when the loop reaches step j, after its sources.
    """
    nx, dt, dx = grid.nx, grid.dt, grid.dx
    steps = _assembled(spec, grid, times, u)
    for j, (sig, b, faulty, ab) in zip(range(times.size - 2, -1, -1), steps):
        s = times[j + 1]
        # (later rows, where their step goes) per block
        rows = [(values[:j + 1],) * 2 if rolling else (values[..., j + 1, :], values[..., j, :])
                for values, _, rolling in blocks]
        w = np.concatenate([later.reshape(-1, nx) for later, _ in rows])
        diff = _diff_rows(w)
        w_x = diff / (2.0 * dx)
        srcs, start = [], 0
        for (_, source, _), (later, _) in zip(blocks, rows):
            stop = start + later.size // nx
            g = np.asarray(source(j + 1, s, u[j], sig, later,
                                  w_x[start:stop].reshape(later.shape)), dtype=float)
            # + 0 broadcasts to the rows and turns -0.0 into 0.0
            srcs.append((g + (0.0 if g.shape == later.shape else np.zeros_like(later)))
                        .reshape(-1, nx))
            start = stop
        if faulty:
            _check_diffusion(0.5 * sig * sig)
        stepped = _implicit_solve(ab, _explicit_rhs(w, diff, b, np.concatenate(srcs), dt, dx))
        start = 0
        for later, target in rows:
            stop = start + later.size // nx
            target[...] = stepped[start:stop].reshape(later.shape)
            start = stop


def _control_rows(strategy, grid: GridSpec):
    """The strategy's rows at s = times[1:], (nt - 1, nx): row i as
    ``strategy(times[i + 1], xs)`` gives it, + 0.0 turning -0.0 into 0.0."""
    u = strategy.rows(grid.times[1:], grid.xs)
    u += 0.0
    return u


class FieldTheta(_OnGrid):
    """Grid-sampled backward value field Y(s, x) with difference accessors.

    values has shape (nt, nx); the terminal row is assigned from the
    terminal map exactly.
    """

    def __init__(self, times, xs, values):
        self.times = np.asarray(times, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def slice(self, j):
        return self.values[j]

    def dx_slice(self, j):
        return _dx_rows(self.values[j], self.dx)

    def at(self, s, x):
        ts = self.times
        j = int(np.clip(np.searchsorted(ts, s) - 1, 0, ts.size - 2))
        w = (s - ts[j]) / (ts[j + 1] - ts[j])
        w = min(max(w, 0.0), 1.0)
        row = (1.0 - w) * self.values[j] + w * self.values[j + 1]
        return np.interp(x, self.xs, row)


def _theta_block(spec, grid: GridSpec, times=None, term=None):
    """The value field's sweep block and the FieldTheta that shares its values:
    on times (the grid's by default), ending at the row term (the spec's
    terminal map by default)."""
    require_scalar_y(spec)
    xs = grid.xs
    times = grid.times if times is None else times
    values = np.empty((times.size, xs.size))
    values[-1] = spec.terminal(xs) if term is None else term

    def source(j, s, u, sig, w, w_x):
        return spec.generator(s, xs, u, w, w_x * sig)

    return FieldTheta(times, xs, values), (values, source, False)


def solve_theta(spec, strategy, grid: GridSpec) -> FieldTheta:
    """Backward-integrate the value field under a frozen feedback strategy.

    The semilinear source g(s, x, psi, theta, theta_x sigma) is taken from the
    explicit slice; sigma is evaluated at the frozen strategy, so control-
    scaled diffusions become state fields here.
    """
    theta, block = _theta_block(spec, grid)
    _sweep(spec, grid, grid.times, _control_rows(strategy, grid), [block])
    return theta


@dataclass
class DiagonalBundle:
    """Diagonal values of the cost field: value, x-slope, y-slope, x-curvature."""
    d: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dxx: np.ndarray

    def sup_diff(self, other):
        return {
            "d": float(np.max(np.abs(self.d - other.d))),
            "dx": float(np.max(np.abs(self.dx - other.dx))),
            "dy": float(np.max(np.abs(self.dy - other.dy))),
        }

    @staticmethod
    def zeros(nt, nx):
        """An all-zero bundle; its four fields share one read-only zero view."""
        z = np.broadcast_to(0.0, (nt, nx))
        return DiagonalBundle(z, z, z, z)


class SeparableCostField(_OnGrid):
    """Cost field stored as state-part fields plus an analytic anchored-y part.

    ``hat`` is (nt, nx) when the state part ignores both anchors, else
    (nx, nt, nx) with one field per x-anchor (anchor grids share the solver
    grids).  Anchored-y part and its derivative are closures from the split.
    """

    def __init__(self, times, xs, hat, split, anchor_free):
        self.times = np.asarray(times, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.hat = np.asarray(hat, dtype=float)
        self.split = split
        self.anchor_free = anchor_free

    def value(self, t_idx, s_idx, xt_idx, x_idx, y):
        if s_idx < t_idx:
            raise DomainError("cost field queried below the anchor time (t > s)")
        t = self.times[t_idx]
        xt = self.xs[xt_idx]
        hat = self.hat if self.anchor_free else self.hat[xt_idx]
        return float(hat[s_idx, x_idx]) + float(self.split.ghat(t, xt, y))

    def diagonal(self, theta: FieldTheta):
        """The diagonal D(s, x) = Theta0(s, s, x, x, theta(s, x)) and its slopes.

        With one field per x-anchor, anchor l is read at column l only, and its
        difference stencils there (the one-sided edge ones included) reach no
        further than the four columns c0 = clip(l - 1, 0, nx - 4) .. c0 + 3.  So
        one ``_dx_rows``/``_dxx_rows`` call on the (nx, nt, 4) block of those
        windows gives every anchor's slopes, with the bits of its full field.
        """
        th = theta.values
        if self.anchor_free:
            hat_diag = self.hat
            hat_dx = _dx_rows(self.hat, self.dx)
            hat_dxx = _dxx_rows(self.hat, self.dx)
        else:
            l = np.arange(self.xs.size)
            c0 = np.clip(l - 1, 0, l.size - 4)
            win = np.take_along_axis(self.hat, (c0[:, None] + np.arange(4))[:, None, :], axis=2)
            k = l - c0      # anchor l's own column in its window
            hat_diag, hat_dx, hat_dxx = (np.ascontiguousarray(a[l, :, k].T) for a in
                                         (win, _dx_rows(win, self.dx), _dxx_rows(win, self.dx)))
        tt = self.times[:, None]
        xx = self.xs[None, :]
        d = hat_diag + np.asarray(self.split.ghat(tt, xx, th), dtype=float)
        dy = np.asarray(self.split.ghat_y(tt, xx, th), dtype=float) + np.zeros_like(d)
        return DiagonalBundle(d=d, dx=hat_dx, dy=dy, dxx=hat_dxx)


def _spline_fit(ys, vals):
    """Coefficients of the not-a-knot cubic spline through vals (ny, ...) along
    axis 0, bit for bit scipy's ``CubicSpline(ys, vals).c``: c[:, p] holds
    piece p's powers of (y - ys[p]), cubic first, shape (4, ny - 1, ...).

    The knot slopes follow scipy's default route: the secant for two knots,
    its dense 3 x 3 system (``scipy.linalg.solve``) for three, and its
    tridiagonal system (LAPACK ``dgtsv``, what ``solve_banded((1, 1), ...)``
    calls) from four on; then the Hermite coefficients in its operation order.
    The dense solve's last bits depend on the right-hand sides solved with a
    column, so a fit reproduces scipy only for the same batch of columns.
    scipy.linalg is imported here, as in ``solve_banded``.
    """
    n = ys.size
    dx = np.diff(ys)
    dxr = dx.reshape((n - 1,) + (1,) * (vals.ndim - 1))
    slope = np.diff(vals, axis=0) / dxr
    if n == 2:
        s = np.concatenate((slope, slope))
    elif n == 3:
        from scipy.linalg import solve
        A = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.empty(vals.shape)
        b[0] = 2 * slope[0]
        b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
        b[2] = 2 * slope[1]
        s = solve(A, b.reshape(3, -1), overwrite_a=True, overwrite_b=True,
                  check_finite=False).reshape(b.shape)
    else:
        from scipy.linalg.lapack import dgtsv
        d0, d1 = ys[2] - ys[0], ys[-1] - ys[-3]
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        b = np.empty(vals.shape)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d0
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
        lower, upper = np.append(dx[1:], d1), np.insert(dx[:-1], 0, d0)
        _, _, _, s, info = dgtsv(lower, diag, upper, b.reshape(n, -1), overwrite_b=True)
        if info > 0:
            raise LinAlgError("singular matrix")
        s = s.reshape(b.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], vals[:-1]))


def _spline_piece(ys, y):
    """Piece index of y on the knots ys, the last piece closed on the right
    (PPoly's rule), and the offset y - ys[piece]."""
    p = np.clip(np.searchsorted(ys, y, "right") - 1, 0, ys.size - 2)
    return p, y - ys[p]


def _spline_at(c, s, nu=0):
    """Piece coefficients c (4, ...) at offsets s: the value, or the y-slope for
    nu = 1, in PPoly's operation order, so the bits are scipy's."""
    if nu == 0:
        return 0.0 + c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)
    return 0.0 + c[2] + c[1] * s * 2.0 + c[0] * (s * s) * 3.0


# (anchor, x) columns per y-spline fit of the general diagonal: whole time rows
# are fitted together up to this many columns, which bounds the fit's
# temporaries (about 10 ny doubles a column: the data's slopes, the knot-slope
# system's right-hand side, LAPACK's copy of it, the Hermite terms and the
# 4 (ny - 1) coefficients) on fine grids
_SPLINE_COLUMNS = 4096


class GeneralCostField(_OnGrid):
    """General anchor tensor, kept as each anchor's first row: first[k, l, r] is
    the x row at s = times[k] of the field anchored at (times[k], xs[l], ys[r]),
    all the diagonal reads.  Queries at s != t raise DomainError; y-interpolation
    is scipy's default (not-a-knot) cubic spline, fitted and evaluated here with
    its bits, and a y off the grid (NaN included) raises YRangeError.
    """

    def __init__(self, times, xs, ys, first):
        self.times = np.asarray(times, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.first = first  # (nt, nx, ny, nx)

    def _row_spline(self, t_idx, s_idx, xt_idx):
        """The y-spline coefficients (4, ny - 1, nx) of the anchor's whole x row
        at its birth, s_idx = t_idx.

        A query fits the whole row, not its one column, because the 3-knot fit
        solves a dense system whose last bits differ between one right-hand
        side and several; so a query and ``diagonal`` agree.
        """
        if s_idx != t_idx:
            raise DomainError(f"general cost field keeps s = t only (t index {t_idx}, s index {s_idx})")
        return _spline_fit(self.ys, self.first[t_idx, xt_idx])

    def _y_check(self, s, x, y):
        if not (self.ys[0] <= y <= self.ys[-1]):
            raise YRangeError(s, x, y, self.ys[0], self.ys[-1])

    def _query(self, t_idx, s_idx, xt_idx, x_idx, y, nu):
        self._y_check(self.times[s_idx], self.xs[x_idx], y)
        p, off = _spline_piece(self.ys, y)
        return float(_spline_at(self._row_spline(t_idx, s_idx, xt_idx)[:, p, x_idx], off, nu))

    def value(self, t_idx, s_idx, xt_idx, x_idx, y):
        return self._query(t_idx, s_idx, xt_idx, x_idx, y, 0)

    def value_dy(self, t_idx, s_idx, xt_idx, x_idx, y):
        return self._query(t_idx, s_idx, xt_idx, x_idx, y, 1)

    def diagonal(self, theta: FieldTheta):
        """The diagonal D(s, x) = Theta0(s, s, x, x, theta(s, x)) and its slopes.

        One cubic spline along y is fitted to the first rows of all diagonal
        anchors (j, l) of a block of whole time rows at once (every row, unless
        that exceeds ``_SPLINE_COLUMNS`` columns).  Anchor l of row j then
        evaluates only its own x row, on the piece that holds theta(s_j, x_l),
        which gives d at column l and, through the difference stencils, dx and
        dxx; dy is the y-slope of column l alone.  Every entry carries the bits
        of the point queries ``value`` and ``value_dy`` at that node.  The first
        node, in row-major order, whose theta is off the y grid or NaN raises
        YRangeError.
        """
        nt, nx = self.times.size, self.xs.size
        th = theta.values
        outside = np.argwhere(~((self.ys[0] <= th) & (th <= self.ys[-1])))    # row-major
        if outside.size:
            j, l = outside[0]
            self._y_check(self.times[j], self.xs[l], th[j, l])
        piece, off = _spline_piece(self.ys, th)
        l = np.arange(nx)
        d, dyv, dxv, dxxv = np.empty((4, nt, nx))
        step = max(1, _SPLINE_COLUMNS // (nx * nx))
        for j0 in range(0, nt, step):
            rows = slice(j0, min(j0 + step, nt))
            # axes (y-node, anchor time, x-anchor, x)
            c = _spline_fit(self.ys, self.first[rows].transpose(2, 0, 1, 3))
            b = np.arange(c.shape[2])[:, None]
            # (4, row, anchor l, x): anchor l's piece at theta of row j, node l
            c = c[:, piece[rows], b, l]
            vals = _spline_at(c, off[rows, :, None])
            d[rows] = vals[:, l, l]
            dyv[rows] = _spline_at(c[..., l, l], off[rows], 1)
            dxv[rows] = _dx_rows(vals, self.dx)[:, l, l]
            dxxv[rows] = _dxx_rows(vals, self.dx)[:, l, l]
        return DiagonalBundle(d=d, dx=dxv, dy=dyv, dxx=dxxv)


def _cost_block(spec, theta: FieldTheta, diag, grid: GridSpec, term=None):
    """The anchored cost field's sweep block, on theta's times, and the
    finisher that wraps its values.

    diag(j, s, w) is the diagonal row that the source at row j reads, given the
    block's later rows w; term an anchor-free terminal row (by default the
    spec's cost terminal at T).  The source at row j reads theta's row j, so in
    a sweep shared with theta's own block that row is filled before it is read.
    """
    require_scalar_y(spec)
    xs, times = grid.xs, theta.times
    nt, nx = times.size, xs.size
    split = spec.terminal_split
    separable = split is not None
    if separable:
        # one field when fhat ignores the x-anchor, else one per x-anchor
        anchor_free = split.xtilde_free
        t_col = None
        xt_col = xs if anchor_free else xs[:, None]
        values = np.empty(((nt,) if anchor_free else (nx, nt)) + (nx,))
        term = split.fhat(grid.T, xt_col, xs) if term is None else term
    else:
        ys = grid.ys
        if ys is None:
            raise DomainError("general cost field needs a y grid (set y_lo/y_hi on the grid)")
        # rolling block axes (t-anchor k, x-anchor l, y-node r, x); anchor k ends at row k
        t_col = times[:, None, None, None]
        xt_col = xs[None, :, None, None]
        values = np.empty((nt, nx, ys.size, nx))
        term = spec.cost_terminal(t_col, xt_col, xs, ys[None, None, :, None])
    last = values[..., -1, :] if separable else values
    last[...] = np.asarray(term, dtype=float) + 0.0   # + 0.0 also turns -0.0 into 0.0
    if not separable and not np.all(np.isfinite(values[-1])):
        # no step reads the anchor at T, whose first row is the terminal itself
        raise EvaluationError("cost_terminal")

    def source(j, s, u, sig, w, w_x):
        t = s if t_col is None else t_col[:w.shape[0]]
        return np.asarray(spec.cost_generator(t, s, xt_col, xs, u, theta.slice(j),
                                              theta.dx_slice(j) * sig, diag(j, s, w),
                                              w_x * sig), dtype=float)

    def finish():
        if separable:
            return SeparableCostField(times, xs, values, split, anchor_free)
        return GeneralCostField(times, xs, ys, values)

    return (values, source, not separable), finish


def _guess_rows(diag_guess, grid: GridSpec):
    """A fixed-point cost block's diag: the guess's rows of d, zero without a guess."""
    d = DiagonalBundle.zeros(grid.nt, grid.nx).d if diag_guess is None else diag_guess.d
    return lambda j, s, w: d[j]


def solve_theta0_family(spec, strategy, theta: FieldTheta, diag_guess, grid: GridSpec):
    """Backward-integrate the anchored cost field with the nonlocal diagonal
    replaced by the supplied guess.

    All anchors are stepped in one sweep.  The z0 slot always uses the stepped
    field's own explicit-slice gradient.
    """
    block, finish = _cost_block(spec, theta, _guess_rows(diag_guess, grid), grid)
    _sweep(spec, grid, grid.times, _control_rows(strategy, grid), [block])
    return finish()


def solve_fields(spec, strategy, grid: GridSpec, diag_guess):
    """The value field and the anchored cost field under one frozen strategy, in
    one sweep: ``solve_theta`` followed by ``solve_theta0_family``, with each
    step's coefficients and banded factorization shared by both fields."""
    theta, theta_block = _theta_block(spec, grid)
    cost_block, finish = _cost_block(spec, theta, _guess_rows(diag_guess, grid), grid)
    _sweep(spec, grid, grid.times, _control_rows(strategy, grid), [theta_block, cost_block])
    return theta, finish()


def extract_diagonal(theta0, theta: FieldTheta) -> DiagonalBundle:
    """Evaluate the cost field and its x-, y-derivatives at (s, s, x, x, theta)."""
    return theta0.diagonal(theta)


# The Hamiltonian minimizer: two three-point vertices (_quadratic_rows), exact
# for a Hamiltonian quadratic in u.  Where the Hamiltonian misses the first
# parabola, _brent_rows: a scan of _COARSE points, Brent's method on the
# bracket of the scan's first minimum, and a five-point stencil about Brent's
# best point.  Brent's tolerance and the stencil spacing are fractions of one
# scan cell.
_COARSE = 33
_BRENT_TOL = 2.0 ** -10
_STENCIL = 2.0 ** -8
# a stencil whose second difference is below this many ulps of its largest
# value is flat at float resolution and gives no vertex
_RESOLVED = 1024.0
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def _resolution(a, b, c):
    """``_RESOLVED`` ulps of max(|a|, |b|, |c|), elementwise: a second difference
    of the three values at or below it is flat at float resolution."""
    return _RESOLVED * np.spacing(np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c)))


def _scan(f, us):
    """The scan's first minimum x (strict <: ties go to the smaller u), the
    bracket [a, b] of its scan neighbours, and Brent's other two points w and
    v, the scan neighbours (twice the one inside a bound), with their values:
    (x, f(x), a, b, w, f(w), v, f(v))."""
    fx = f_prev = f_left = f_right = f(us[0])
    k = np.zeros(fx.shape, dtype=int)
    new = np.ones(fx.shape, dtype=bool)          # where k == j - 1
    for j in range(1, us.size):
        fj = f(us[j])
        f_right = np.where(new, fj, f_right)
        new = fj < fx
        k = np.where(new, j, k)
        f_left = np.where(new, f_prev, f_left)
        fx, f_prev = np.minimum(fj, fx), fj
    last = us.size - 1
    x, a, b = us[k], us[np.maximum(k - 1, 0)], us[np.minimum(k + 1, last)]
    return (x, fx, a, b, np.where(k > 0, a, b), np.where(k > 0, f_left, f_right),
            np.where(k < last, b, a), np.where(k < last, f_right, f_left))


def _brent_rows(f, lo, hi):
    """Minimizer of f over [lo, hi] at every element of a (rows, n) block.

    f maps a control (a scalar, or an array shaped like the block) to the
    values on the block.  Three stages:

    - a scan of ``_COARSE`` equally spaced controls.  Its first minimum (ties
      go to the smaller u) and the two scan points next to it bracket the
      search;
    - Brent's method on that bracket (Brent 1973, *Algorithms for
      Minimization without Derivatives*, ch. 5): a parabolic step through the
      three best points when it falls well inside the bracket, else a
      golden-section step into the larger part, and never a step shorter than
      tol = ``_BRENT_TOL`` scan cells.  The first parabola is the scan's own
      three-point stencil, so a quadratic is solved by the first step.  A best
      point on a bound probes tol inside it instead of a golden step, so a
      minimum on the bound costs one step.  Every element keeps its own state
      and stops when its bracket is within 2 tol of its best point; a block
      calls f as often as its slowest element needs;
    - a stencil c + (-2h, -h, 0, h, 2h), h = ``_STENCIL`` scan cells, about
      Brent's best point c (moved 2h inside [lo, hi] near a bound), wide
      enough that its values differ far above rounding.  Its three inner
      points give f'' at c, and the outer two refine f' to fourth order and
      give f'''.  The answer, clipped to Brent's bracket, is c + s for the
      root s nearest 0 of the model f' + f'' s + f''' s^2 / 2.  On a
      quadratic that is the vertex of the three inner points, exact to
      rounding; on other smooth f the cubic term shifts it neither by
      h^2 f'''/(6 f''), as that vertex would be, nor by s^2 f'''/(2 f'') where
      c sits 2h off a bound.  A stencil that is not convex above float
      resolution gives no answer, and the element keeps Brent's best point: a
      constant f keeps the smaller u, and a row on a bound keeps the bound
      exactly.

    f is called 40 times on a quadratic, 39 times on a constant and about 43
    times on a smooth convex f; a kink in f costs golden steps.  Every
    operation is elementwise, so an element's result does not depend on the
    block it is batched with.
    """
    us = np.linspace(lo, hi, _COARSE)
    cell = us[1] - us[0]
    tol = _BRENT_TOL * cell
    x, fx, a, b, w, fw, v, fv = _scan(f, us)
    d = e = np.full(x.shape, 2.0 * (hi - lo))    # the last two steps: the first may be parabolic
    live = np.maximum(x - a, b - x) > 2.0 * tol
    while live.any():
        mid = 0.5 * (a + b)
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ((x - v) * q - (x - w) * r) / (2.0 * (r - q))
        u = x + step
        parabolic = (np.abs(e) > tol) & (np.abs(step) < 0.5 * np.abs(e)) & (u > a) & (u < b)
        step = np.where((u - a < 2.0 * tol) | (b - u < 2.0 * tol), np.copysign(tol, mid - x), step)
        gold = np.where(x >= mid, a, b) - x
        on_bound = (x == a) | (x == b)
        e, d = np.where(parabolic, d, gold), np.where(
            parabolic, step, np.where(on_bound, np.copysign(tol, gold), _CGOLD * gold))
        u = np.where(live, x + np.where(np.abs(d) >= tol, d, np.copysign(tol, d)), x)
        del mid, r, q, step, parabolic, gold, on_bound     # before f's own temporaries
        fu = f(u)
        better = (fu < fx) | ((fu == fx) & (u < x))
        lost, f_lost = np.where(better, x, u), np.where(better, fx, fu)
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
        a, b = np.where(lost < x, lost, a), np.where(lost > x, lost, b)
        to_w = better | (f_lost <= fw) | (w == x)
        to_v = ~to_w & ((f_lost <= fv) | (v == x) | (v == w))
        v, fv = np.where(to_w, w, np.where(to_v, lost, v)), np.where(to_w, fw, np.where(to_v, f_lost, fv))
        w, fw = np.where(to_w, lost, w), np.where(to_w, f_lost, fw)
        live &= np.maximum(x - a, b - x) > 2.0 * tol
    h = _STENCIL * cell
    c = np.clip(x, lo + 2.0 * h, hi - 2.0 * h)
    fc = f(c) if np.any(c != x) else fx
    f_1, f1, f_2, f2 = f(c - h), f(c + h), f(c - 2.0 * h), f(c + 2.0 * h)
    curv = f_1 + f1 - 2.0 * fc
    # slope, curv and third are h f', h^2 f'' and h^3 f''' at c; the step is the
    # root nearest 0 of slope + curv t + third t^2 / 2 (times h), in the form
    # that tends to the vertex -slope/curv as third -> 0
    slope = (8.0 * (f1 - f_1) - (f2 - f_2)) / 12.0
    third = 0.5 * (f2 - f_2) - (f1 - f_1)
    disc = curv * curv - 2.0 * slope * third
    root = np.sqrt(np.where(disc > 0.0, disc, curv * curv))
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(c - 2.0 * h * slope / (curv + root), a, b)
    return np.clip(np.where(curv > _resolution(f_1, f1, fc), vertex, x), lo, hi)


def _quadratic_rows(f, lo, hi):
    """Minimizer of f over [lo, hi] at every element of a (rows, n) block,
    exact to rounding for an f that is a polynomial of degree <= 2 in u.

    f is read as ``_brent_rows`` reads it, six times:

    - at lo, mid = (lo + hi) / 2 and hi.  Where the second difference is above
      ``_RESOLVED`` ulps of the largest |f| of the three, the parabola is
      convex and the first answer is its vertex clipped to [lo, hi]; elsewhere
      it is the lower endpoint, and a tie keeps lo, so a constant f keeps lo;
    - at c - h, c and c + h, one scan cell h of ``_brent_rows`` about c, the
      first answer moved h inside [lo, hi].  Where these three are convex by
      the same test, the answer is their vertex clipped to [lo, hi], with the
      rounding of values taken near the minimum, not at the ends of U; else
      the first answer stands.

    The second three values also check that f is quadratic: an element where
    one of them misses the first parabola by more than ``_RESOLVED`` ulps of
    the largest |f(lo)|, |f(mid)|, |f(hi)| takes ``_brent_rows``' answer on
    the block, bit for bit, after its own six calls.  An f that is not
    quadratic costs six calls more per block, not correctness.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    f_lo, f_mid, f_hi = f(lo), f(mid), f(hi)
    slope, curv = 0.5 * (f_hi - f_lo), f_lo + f_hi - 2.0 * f_mid      # per half-width
    flat = _resolution(f_lo, f_mid, f_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(curv > flat, np.clip(mid - half * slope / curv, lo, hi),
                         np.where(f_hi < f_lo, hi, lo))
    us = np.linspace(lo, hi, _COARSE)
    h = us[1] - us[0]
    c = np.clip(first, lo + h, hi - h)
    points = (c - h, c, c + h)
    g_1, g0, g1 = (f(u) for u in points)
    miss = 0.0
    for u, g in zip(points, (g_1, g0, g1)):
        t = (u - mid) / half
        miss = np.maximum(miss, np.abs(g - (f_mid + t * (slope + 0.5 * t * curv))))
    curv = g_1 + g1 - 2.0 * g0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(curv > _resolution(g_1, g0, g1),
                       np.clip(c - 0.5 * h * (g1 - g_1) / curv, lo, hi), first)
    wrong = miss > flat
    return np.where(wrong, _brent_rows(f, lo, hi), out) if wrong.any() else out


# grid points per minimizer block: whole time rows are batched up to this many
# points, which bounds the Hamiltonian temporaries on fine grids
_MIN_POINTS = 4096


def _minimize_block(spec, s, x, theta, theta_x, theta_xx, d, d_x, d_y, d_xx):
    """Minimizer over U of ``hamiltonian_H0_hat`` at (s, s, x, x) on a (rows, n)
    block shaped like d: s is an (rows, 1) column of times, x an (n,) row, and
    theta, theta_x, theta_xx and the weights d_y are (1, rows, n): ``model``'s
    Hamiltonians would read the rows axis of a bare one-row block as their
    component axis.  Every block takes ``_quadratic_rows``, which hands the
    block to ``_brent_rows`` where the Hamiltonian is not quadratic in u."""
    zero = np.zeros(np.shape(d))
    return _quadratic_rows(lambda u: hamiltonian_H0_hat(spec, s, s, x, x, u + zero, theta,
                                                        theta_x, theta_xx, d, d_x, d_y, d_xx),
                           spec.u_lo, spec.u_hi)


def _minimize_table(spec, theta: FieldTheta, bundle: DiagonalBundle):
    """The minimizer on every (s, x) node of theta's grid, in blocks of whole rows."""
    th = theta.values
    th_x, th_xx = _dx_rows(th, theta.dx), _dxx_rows(th, theta.dx)
    nt, nx = bundle.d.shape
    step = max(1, _MIN_POINTS // nx)
    out = np.empty((nt, nx))
    for j in range(0, nt, step):
        r = slice(j, j + step)
        out[r] = _minimize_block(spec, theta.times[r, None], theta.xs, th[None, r],
                                 th_x[None, r], th_xx[None, r], bundle.d[r], bundle.dx[r],
                                 bundle.dy[None, r], bundle.dxx[r])
    return out


def minimize_hamiltonian(spec, s, x, theta, theta_x, theta_xx, d, d_x, d_y, d_xx=0.0):
    """Pointwise minimizer of the adjusted Hamiltonian over the control interval.

    The second-order terms enter with the diagonal curvature and dy-weighted
    field curvature.  The search is ``_minimize_block``'s on one node: six
    evaluations when the Hamiltonian is quadratic in u, Brent's search
    after them otherwise.
    """
    require_scalar_y(spec)
    if not spec.u_bounded:
        raise DomainError("numeric minimization needs a bounded control interval")
    col = lambda v, *lead: np.asarray(v, dtype=float).reshape(*lead, 1, 1)
    return float(_minimize_block(spec, s, np.array([x], dtype=float), col(theta, 1),
                                 col(theta_x, 1), col(theta_xx, 1), col(d), col(d_x),
                                 col(d_y, 1), col(d_xx))[0, 0])


@dataclass
class IterationLog:
    rows: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    strategy_max_jump: float = 0.0
    note: str = ""

    def add(self, it, res):
        self.rows.append({"iter": it, "residual_D": res["d"], "residual_Dx": res["dx"],
                          "residual_Dy": res["dy"], "residual_psi": res["psi"]})

    def residuals(self):
        return [max(r["residual_D"], r["residual_Dx"], r["residual_Dy"], r["residual_psi"])
                for r in self.rows]


def equilibrium_fixed_point(spec, grid: GridSpec, max_iters=50, tol=1e-6):
    """Outer Picard loop on (fields, diagonal bundle, strategy).

    The first iteration runs under the zero control clipped to U.  Returns
    (theta, theta0, strategy_table, log); non-convergence is reported
    through log.converged, never raised.  A tol that is not finite and positive,
    which no residual can pass, and an unbounded control interval raise
    DomainError before the first iteration, the latter as in
    ``minimize_hamiltonian``.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"fixed-point tolerance must be finite and > 0, got {tol}")
    if not spec.u_bounded:
        raise DomainError("numeric minimization needs a bounded control interval")
    xs, times = grid.xs, grid.times
    nt, nx = times.size, xs.size
    strategy = StrategyTable(spec.u_lo, spec.u_hi,
                             fn=constant_control(float(np.clip(0.0, spec.u_lo, spec.u_hi))))
    bundle = DiagonalBundle.zeros(nt, nx)
    psi_tab = np.full((nt, nx), np.nan)
    log = IterationLog()
    theta = theta0 = None
    for it in range(1, max_iters + 1):
        theta, theta0 = solve_fields(spec, strategy, grid, bundle)
        new_bundle = extract_diagonal(theta0, theta)
        psi_new = _minimize_table(spec, theta, new_bundle)
        res = new_bundle.sup_diff(bundle)
        res["psi"] = (float(np.max(np.abs(psi_new - psi_tab)))
                      if np.all(np.isfinite(psi_tab)) else math.inf)
        log.add(it, res)
        bundle = new_bundle
        psi_tab = psi_new
        strategy = StrategyTable(spec.u_lo, spec.u_hi, s_grid=times, x_grid=xs, values=psi_tab)
        log.iterations = it
        if max(res.values()) < tol:
            log.converged = True
            break
    log.strategy_max_jump = strategy.max_x_jump()
    if not log.converged:
        log.note = "fixed point did not reach tolerance; residual history retained"
    return theta, theta0, strategy, log


@dataclass
class PerturbationResult:
    times: np.ndarray
    theta_e: FieldTheta
    hat_e: np.ndarray
    j_perturbed: np.ndarray     # per x node, at the window start
    j_base: np.ndarray
    sup_theta_diff: float


def solve_perturbation(spec, theta: FieldTheta, theta0, t, eps, u, grid: GridSpec):
    """Re-solve both fields on [t, t + eps] under the constant control u.

    Terminal data are the unperturbed fields at t + eps; the evaluated cost at
    the window start is the diagonal of the windowed cost field at the
    windowed backward value.  The window sweeps the fixed point's own blocks
    on its times, so it steps the same sources; its cost source reads the
    window's own diagonal hat + ghat(s, x, theta) where the fixed point reads
    its guess.  Requires an anchor-free separable cost field.
    """
    if not isinstance(theta0, SeparableCostField) or not theta0.anchor_free:
        raise DomainError("perturbation solver requires an anchor-free separable cost field")
    times = grid.times
    j0 = int(round(t / grid.dt))
    j1 = int(round((t + eps) / grid.dt))
    if abs(times[j0] - t) > 1e-9 or abs(times[j1] - (t + eps)) > 1e-9:
        raise DomainError("t and t + eps must lie on the time grid")
    if j1 <= j0 or j1 >= times.size:
        raise DomainError("perturbation window must be a nonempty subinterval of [0, T)")
    if not (spec.u_lo <= u <= spec.u_hi):
        raise DomainError("perturbation control outside the control interval")
    xs, window = grid.xs, times[j0:j1 + 1]
    ghat = spec.terminal_split.ghat
    theta_e, theta_block = _theta_block(spec, grid, window, theta.slice(j1))

    def diag(j, s, w):      # the window's own diagonal at its later rows
        return w + np.asarray(ghat(s, xs, theta_e.values[j]), dtype=float)

    cost_block, finish = _cost_block(spec, theta_e, diag, grid, theta0.hat[j1])
    _sweep(spec, grid, window, np.full((window.size - 1, xs.size), float(u)),
           [theta_block, cost_block])
    hat = finish().hat
    j_pert = hat[0] + np.asarray(ghat(times[j0], xs, theta_e.values[0]), dtype=float)
    j_base = theta0.hat[j0] + np.asarray(ghat(times[j0], xs, theta.values[j0]), dtype=float)
    sup = float(np.max(np.abs(theta_e.values - theta.values[j0:j1 + 1])))
    return PerturbationResult(times=window, theta_e=theta_e, hat_e=hat,
                              j_perturbed=j_pert, j_base=j_base, sup_theta_diff=sup)


# kernel_solve_linear's Simpson panels, its sweeps at most, and the change that stops them
_KERNEL_PANELS, _KERNEL_SWEEPS, _KERNEL_TOL = 2048, 20, 1e-12


def kernel_solve_linear(spec, grid: GridSpec, pad=None):
    """Volterra-form solve of the fully linear problem via the Gaussian kernel.

    Valid for constant diffusion and coefficients independent of the field
    (read at u = 0); used to validate the finite-difference stepping.
    Quadrature is composite Simpson on a mu grid padded beyond the target
    domain; a truncation warning fires when the kernel mass outside the padded
    window exceeds 1e-6 for some target node.
    """
    require_scalar_y(spec)
    xs, times = grid.xs, grid.times
    sig0 = float(np.asarray(spec.diffusion(0.0, xs[xs.size // 2], 0.0)))
    a = 0.5 * sig0 * sig0
    if a <= 0:
        raise DegeneracyError("kernel route needs strictly positive diffusion")
    std = math.sqrt(2.0 * a * grid.T)
    if pad is None:
        pad = 8.0 * std
    mu = np.linspace(grid.x_lo - pad, grid.x_hi + pad, _KERNEL_PANELS + 1)
    dmu = mu[1] - mu[0]
    wts = np.ones(_KERNEL_PANELS + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    wts *= dmu / 3.0
    h_mu = np.asarray(spec.terminal(mu), dtype=float)
    worst_tail = math.erfc(pad / max(math.sqrt(2.0) * std, 1e-300))
    if worst_tail > 1e-6:
        warnings.warn("kernel quadrature window too small: tail mass %.2e" % worst_tail,
                      RuntimeWarning)

    def kernel_matrix(s, r):
        # rows: target x, cols: quadrature mu
        dt_ = r - s
        return np.exp(-(xs[:, None] - mu[None, :]) ** 2 / (4.0 * a * dt_)) / math.sqrt(4.0 * math.pi * a * dt_)

    def b_at(r, pts):
        return np.asarray(spec.drift(r, pts, 0.0), dtype=float) + np.zeros_like(pts)

    def g_at(r, pts):
        return np.asarray(spec.generator(r, pts, 0.0, 0.0, 0.0), dtype=float) + np.zeros_like(pts)

    theta = np.zeros((times.size, xs.size))
    theta[-1] = spec.terminal(xs)
    theta_x_grid = np.zeros((times.size, xs.size))
    term_mats = {j: kernel_matrix(times[j], grid.T) for j in range(times.size - 1)}
    for sweep in range(_KERNEL_SWEEPS):
        prev = theta.copy()
        for j in range(times.size - 2, -1, -1):
            s = times[j]
            acc = term_mats[j] @ (wts * h_mu)
            # time integral by trapezoid over r in [s, T]; the r -> s limit of the
            # mollified integrand is its value at the target point itself.
            rs = times[j:]
            fr = np.empty((rs.size, xs.size))
            fr[0] = theta_x_grid[j] * b_at(s, xs) + g_at(s, xs)
            for jr in range(1, rs.size):
                r = rs[jr]
                thx_mu = np.interp(mu, xs, theta_x_grid[j + jr])
                integrand = thx_mu * b_at(r, mu) + g_at(r, mu)
                fr[jr] = kernel_matrix(s, r) @ (wts * integrand)
            theta[j] = acc + _trapz(fr, rs, axis=0)
        theta_x_grid = _dx_rows(theta, grid.dx)
        if float(np.max(np.abs(theta - prev))) < _KERNEL_TOL:
            break
    return FieldTheta(times, xs, theta)


def reference_fields(spec, grid: GridSpec):
    """The family's closed-form value and cost fields, sampled on the grid.

    Raises DomainError when the family has no ``closed_forms.reference_fields``
    or its cost terminal has no anchor-free split to carry the y-part.
    """
    fields, split = spec.closed_forms.reference_fields, spec.terminal_split
    if fields is None:
        raise DomainError(f"family '{spec.name}' has no closed-form reference fields")
    if split is None or not split.xtilde_free:
        raise DomainError(f"family '{spec.name}' has no anchor-free terminal split")
    theta, hat = fields(grid.times, grid.xs)
    return (FieldTheta(grid.times, grid.xs, theta),
            SeparableCostField(grid.times, grid.xs, hat, split, anchor_free=True))
