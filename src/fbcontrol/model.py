"""Problem definitions, Hamiltonians, the Gaussian kernel, and validation.

A control problem bundles the forward drift/diffusion, the backward
generator and terminal map, the recursive cost generator and terminal,
a scalar control interval, and the horizon.  Built-in families are
registered by name so problems can be round-tripped through JSON.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegeneracyError, DomainError, EvaluationError

# Sentinel for unbounded control endpoints; the Hamiltonian minimizer scans U,
# so pde.equilibrium_fixed_point refuses a spec with an endpoint at or beyond it.
U_INF = 1.0e12


@dataclass(frozen=True)
class TerminalSplit:
    """Additive split h0(t, xt, x, y) = fhat(t, xt, x) + ghat(t, xt, y).

    Valid whenever the cost generator does not see the anchor y, which lets the
    y-dependence of the cost field be carried analytically.  A split also
    promises that fhat and the cost generator ignore the anchor t (a family
    whose state part depends on t sets ``terminal_split=None`` and gets the
    general anchor tensor); ``xtilde_free`` marks that they ignore the anchor
    xt as well, collapsing the anchor family to one backward solve.
    """

    fhat: Callable
    ghat: Callable
    ghat_y: Callable
    xtilde_free: bool = False


@dataclass(frozen=True)
class McCost:
    """Cost decomposition used by the Monte Carlo evaluator.

    J(t,x) = E[ integral of running(s, X, u) ds + terminal(X_T) ] + outer(E[X_T]).
    """

    running: Optional[Callable] = None
    terminal: Optional[Callable] = None
    outer: Optional[Callable] = None
    outer_prime: Optional[Callable] = None


@dataclass(frozen=True)
class ClosedForms:
    """Closed forms of a family, read by the family-independent code of pde, mc and cli.

    The inconsistency gap between the controls committed at 0 and at tau is
    exact, or sampled: paths run from (0, x0) under the committed control, and
    a path departs where its gap exceeds 1e-3 |gap_scale|.

    ``reference_fields(times, xs)`` returns the value field and the state part
    of the anchor-free cost field under the equilibrium, both (nt, nx);
    ``pde.reference_fields`` samples them for the representation check.
    """

    equilibrium: Optional[Callable] = None   # (s, x) -> time-consistent control
    grid_control: Optional[float] = None     # default_grid's sigma probe (else 1 in U)
    gap: Optional[Callable] = None           # tau -> exact gap
    committed: Optional[Callable] = None     # (s, x) -> control committed at (0, x0)
    path_gap: Optional[Callable] = None      # (tau, X_tau) -> gap per path
    gap_scale: float = 1.0
    reference_fields: Optional[Callable] = None   # (times, xs) -> (theta, hat)


@dataclass(frozen=True)
class ControlProblemSpec:
    name: str
    drift: Callable                 # b(s, x, u)
    diffusion: Callable             # sigma(s, x, u)
    generator: Callable             # g(s, x, u, y, z), shaped like x; (m, *x.shape) if m = 2
    terminal: Callable              # h(x), shaped like x; (m, *x.shape) if m = 2
    cost_generator: Callable        # g0(t, s, xt, x, u, y, z, y0, z0)
    cost_terminal: Callable         # h0(t, xt, x, y)
    u_lo: float
    u_hi: float
    horizon: float
    m: int = 1
    x0: float = 0.0
    params: dict = field(default_factory=dict)
    terminal_split: Optional[TerminalSplit] = None
    reduced_running: Optional[Callable] = None   # (t, s, u) -> cost rate
    mc_cost: Optional[McCost] = None
    closed_forms: ClosedForms = field(default_factory=ClosedForms)

    def __post_init__(self):
        if not self.horizon > 0:
            raise DomainError("horizon must be positive")
        if not self.u_lo < self.u_hi:
            raise DomainError("control interval requires u_lo < u_hi")
        if self.m not in (1, 2):
            raise DomainError("backward dimension m must be 1 or 2")

    @property
    def u_bounded(self):
        return abs(self.u_lo) < U_INF and abs(self.u_hi) < U_INF

    @property
    def cost_class(self):
        """The cost route its cost data allow: ``deterministic`` (a reduced running
        integrand), ``bolza_condexp`` (a Monte Carlo cost decomposition) or ``general``."""
        if self.reduced_running is not None:
            return "deterministic"
        return "bolza_condexp" if self.mc_cost is not None else "general"


def require_scalar_y(spec):
    """DomainError for a spec with m != 1, which the routes whose fields are
    scalar in Y (the PDE route, ``mc.check_feynman_kac``) cannot take."""
    if spec.m != 1:
        raise DomainError(f"family '{spec.name}' has m = {spec.m} backward components; "
                          "the PDE route takes m = 1 only")


def grid_interp(s_grid, x_grid, values, s, x):
    """A (len(s_grid), len(x_grid)) table at time s and states x: its two time
    rows around s blended linearly (s clamped to the grid; equal grid times
    take the earlier row), then ``np.interp`` in x, which holds the edge
    values outside the grid."""
    j = min(max(int(s_grid.searchsorted(s)) - 1, 0), s_grid.size - 2)
    lo, hi = s_grid[j], s_grid[j + 1]
    w = 0.0 if hi == lo else (s - lo) / (hi - lo)
    w = min(max(w, 0.0), 1.0)
    return np.interp(x, x_grid, (1.0 - w) * values[j] + w * values[j + 1])


class StrategyTable:
    """A feedback strategy: closed-form callable or interpolated grid table.

    Values are clamped to the control interval, so every query (including
    out-of-grid extrapolation, which holds the edge value) lands in U.
    """

    def __init__(self, u_lo, u_hi, fn=None, s_grid=None, x_grid=None, values=None):
        if (fn is None) == (values is None):
            raise DomainError("supply exactly one of fn or grid values")
        self.u_lo = float(u_lo)
        self.u_hi = float(u_hi)
        self.fn = fn
        if values is not None:
            self.s_grid = np.asarray(s_grid, dtype=float)
            self.x_grid = np.asarray(x_grid, dtype=float)
            self.values = np.asarray(values, dtype=float)
            if self.values.shape != (self.s_grid.size, self.x_grid.size):
                raise DomainError("strategy table shape mismatch")
        else:
            self.s_grid = self.x_grid = self.values = None

    def __call__(self, s, x):
        """The strategy at (s, x): a float for a float x, otherwise an array
        shaped like x (or like x broadcast against the values' shape)."""
        out = self.clamped(s, x)
        shape = np.shape(x)
        if np.shape(out) == shape:
            return out
        return np.full(np.broadcast_shapes(np.shape(out), shape), out)

    def clamped(self, s, x):
        """The strategy at (s, x), clamped to U, at the shape its values have:
        a float when they are a scalar (an ``fn`` that ignores x), whatever x
        is, and otherwise an array.  ``__call__`` fills the shape of x from it."""
        if self.fn is not None:
            out = self.fn(s, x)
        else:
            out = grid_interp(self.s_grid, self.x_grid, self.values, s, x)
        if isinstance(out, float) or getattr(out, "ndim", None) == 0:
            # the ufunc clip below on floats: on a tie each ufunc returns its
            # second operand, and a NaN passes both comparisons
            v = float(out) + 0.0
            v = self.u_lo if v < self.u_lo else v
            return self.u_hi if v > self.u_hi else v
        # adding zero turns -0.0 into 0.0; ufuncs with the bound first clip as
        # np.clip does, ties and NaN included
        out = np.minimum(self.u_hi, np.maximum(self.u_lo, np.asarray(out, dtype=float) + 0.0))
        return out if out.ndim else float(out)

    def rows(self, s, x):
        """The strategy on the times s (k,) and the states x (n,), as a (k, n)
        block whose row i has the bits of ``self(s[i], x)``.

        A grid table interpolates in time for all times at once, then each row
        in x through ``np.interp``; an ``fn`` table is called once per time, so
        the callable sees what ``__call__`` gives it.
        """
        s = np.asarray(s, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.fn is not None:
            return np.array([self(si, x) for si in s]).reshape(s.size, x.size)
        sg = self.s_grid
        j = np.clip(sg.searchsorted(s) - 1, 0, sg.size - 2)
        lo, hi = sg[j], sg[j + 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(hi == lo, 0.0, (s - lo) / (hi - lo))
        # Python's min(max(w, 0.0), 1.0): NaN and -0.0 pass both
        w = np.where(w > 1.0, 1.0, np.where(0.0 > w, 0.0, w))[:, None]
        # the blend and the clamp work in place: two (k, n) blocks at a time
        blend, later = self.values[j], self.values[j + 1]
        blend *= 1.0 - w
        later *= w
        blend += later
        del later
        out = np.empty((s.size, x.size))
        for i, row in enumerate(blend):
            out[i] = np.interp(x, self.x_grid, row)
        out += 0.0
        np.maximum(self.u_lo, out, out=out)
        return np.minimum(self.u_hi, out, out=out)


def equilibrium_strategy(spec):
    """The family's closed-form time-consistent strategy, clamped to U."""
    if spec.closed_forms.equilibrium is None:
        raise DomainError(f"no closed-form equilibrium strategy for family '{spec.name}'")
    return StrategyTable(spec.u_lo, spec.u_hi, fn=spec.closed_forms.equilibrium)


def _scalar(value):
    arr = np.asarray(value, dtype=float)
    return float(arr.reshape(-1)[0]) if arr.size else float(arr)


def _hamiltonians(spec, s, x, u, theta, p, P):
    """a, b, sigma, z = p sigma and the first Hamiltonian P a + p b + g."""
    b = spec.drift(s, x, u)
    sig = spec.diffusion(s, x, u)
    a = 0.5 * sig * sig
    z = p * sig
    return a, b, sig, z, P * a + p * b + spec.generator(s, x, u, theta, z)


def _finite(out, s, x, u):
    if not np.isfinite(out).all():
        raise EvaluationError("hamiltonian", (s, x, u) if np.ndim(x) == np.ndim(u) == 0 else s)
    return out if np.ndim(out) else float(out)


def hamiltonian_H(spec, s, x, u, theta, p, P):
    """First Hamiltonian: tr[P a] + p b + g(s, x, u, theta, p sigma), a = sigma^2/2.

    Scalar in Y, like the PDE route that minimizes it: theta, p and P are
    shaped like x (or broadcast against it), and a spec with m != 1 is
    refused (``require_scalar_y``).  Raises EvaluationError on a non-finite
    value.
    """
    require_scalar_y(spec)
    return _finite(_hamiltonians(spec, s, x, u, theta, p, P)[-1], s, x, u)


def hamiltonian_H0_hat(spec, t, s, xt, x, u, theta, p, P, theta0, p0, q0, P0):
    """Adjusted cost Hamiltonian: H0 + q0 H, with H0 = tr[P0 a] + p0 b + g0.

    Shaped and refused like ``hamiltonian_H``; q0 is shaped like theta.
    """
    require_scalar_y(spec)
    a, b, sig, z, h = _hamiltonians(spec, s, x, u, theta, p, P)
    g0 = spec.cost_generator(t, s, xt, x, u, theta, z, theta0, p0 * sig)
    return _finite(P0 * a + p0 * b + g0 + q0 * h, s, x, u)


def heat_kernel(a_fn, s, x, r, mu):
    """Gaussian kernel with diffusion matrix a evaluated at the target point.

    One space dimension: (4 pi (r-s))^{-1/2} a^{-1/2} exp(-(x-mu)^2 / (4 a (r-s))).
    """
    if not r > s:
        raise DomainError(f"heat kernel needs r > s, got r={r}, s={s}")
    a = np.asarray(a_fn(r, mu), dtype=float)
    if np.any(a < 1e-12):
        raise DegeneracyError(f"diffusion coefficient {np.min(a):.3g} below 1e-12")
    dt = r - s
    d = np.asarray(x, dtype=float) - np.asarray(mu, dtype=float)
    out = np.exp(-d * d / (4.0 * a * dt)) / np.sqrt(4.0 * math.pi * dt * a)
    return out if out.ndim else float(out)


def make_probe_grid(spec):
    """Default probe mesh for validate_spec: 5 times over [0, T], 7 states over
    x0 +- 2 and 5 controls over U clipped to [-10, 10]."""
    s = np.linspace(0.0, spec.horizon, 5)
    x = spec.x0 + np.linspace(-2.0, 2.0, 7)
    lo = max(spec.u_lo, -10.0)
    hi = min(spec.u_hi, 10.0)
    u = np.linspace(lo, hi, 5)
    return {"s": s, "x": x, "u": u}


def _column_s_failures(spec, s_arr, x_arr, u_arr):
    """Coefficients whose values at an (ns, 1) column of s and (ns, nx) states
    differ from their values at each scalar s by more than 1e-12, or that raise."""
    zero = np.zeros((s_arr.size, x_arr.size))
    y = zero if spec.m == 1 else np.zeros((spec.m,) + zero.shape)
    calls = {"drift": lambda s, u, y, y0: spec.drift(s, x_arr, u),
             "diffusion": lambda s, u, y, y0: spec.diffusion(s, x_arr, u),
             "generator": lambda s, u, y, y0: spec.generator(s, x_arr, u, y, y),
             "cost_generator": lambda s, u, y, y0: spec.cost_generator(
                 s, s, x_arr, x_arr, u, y, y, y0, y0)}

    def agrees(fn, u):
        try:
            col = np.asarray(fn(s_arr[:, None], u + zero, y, zero), dtype=float) + zero
            rows = np.stack([np.asarray(fn(s, u + zero[k], y[..., k, :], zero[k]), dtype=float)
                             + zero[k] for k, s in enumerate(s_arr)], axis=-2)
            return col.shape == rows.shape and np.allclose(col, rows, rtol=1e-12, atol=1e-12,
                                                           equal_nan=True)
        except Exception:
            return False

    return [name for name, fn in calls.items() if not all(agrees(fn, u) for u in u_arr)]


def validate_spec(spec, probe_grid=None):
    """Probe-grid diagnostics: finiteness, Lipschitz estimates, ellipticity.

    Never raises; returns a report dict.  The non-degeneracy flag refers to
    a = sigma^2/2 over the probed controls, so control-scaled diffusions are
    reported degenerate whenever u = 0 is probed.  ``diffusion_control_free``
    is measured: at every probed (s, x), sigma at each probed control agrees
    (to 1e-12 relative) with sigma at the first control that evaluated.
    ``column_s_failures`` lists the coefficients that break the PDE route's
    contract that s may be an (rows, 1) column broadcasting against (rows, nx)
    states.
    """
    probe = probe_grid or make_probe_grid(spec)
    s_arr, x_arr, u_arr = (np.asarray(probe[k], dtype=float) for k in ("s", "x", "u"))
    if s_arr.size == 0 or x_arr.size == 0 or u_arr.size == 0:
        raise DomainError("probe grid must be nonempty")
    y0 = np.zeros(spec.m)
    bad = []
    amin = math.inf
    lip_b = lip_sig = 0.0
    dx = 1e-5 * max(1.0, float(np.max(np.abs(x_arr))))
    ctrl_free = True
    for s in s_arr:
        for x in x_arr:
            sigs = []
            for u in u_arr:
                vals = {}
                try:
                    vals["drift"] = _scalar(spec.drift(s, x, u))
                    vals["diffusion"] = _scalar(spec.diffusion(s, x, u))
                    vals["generator"] = float(np.sum(spec.generator(s, x, u, y0, y0)))
                    vals["terminal"] = float(np.sum(spec.terminal(x)))
                    vals["cost_terminal"] = _scalar(
                        spec.cost_terminal(s, x, x, y0 if spec.m > 1 else 0.0))
                    vals["cost_generator"] = _scalar(
                        spec.cost_generator(s, s, x, x, u, y0, y0, 0.0, 0.0))
                    # Lipschitz probes at x + dx; a NaN would hide in max() below
                    vals["drift_dx"] = _scalar(spec.drift(s, x + dx, u))
                    vals["diffusion_dx"] = _scalar(spec.diffusion(s, x + dx, u))
                except Exception:
                    bad.append((float(s), float(x), float(u)))
                    continue
                for name, v in vals.items():
                    if not math.isfinite(v):
                        bad.append((float(s), float(x), float(u), name))
                sig = vals["diffusion"]
                sigs.append(sig)
                amin = min(amin, 0.5 * sig * sig)
                lip_b = max(lip_b, abs(vals["drift_dx"] - vals["drift"]) / dx)
                lip_sig = max(lip_sig, abs(vals["diffusion_dx"] - sig) / dx)
            # every probed control against the first; a point that raised is in bad
            if any(abs(sig - sigs[0]) > 1e-12 * (1.0 + abs(sigs[0])) for sig in sigs[1:]):
                ctrl_free = False
    nondegenerate = math.isfinite(amin) and amin > 0.0
    return {
        "finite": not bad,
        "bad_points": bad,
        "lipschitz": {"drift": lip_b, "diffusion": lip_sig},
        "lambda0": amin if math.isfinite(amin) else 0.0,
        "nondegenerate": nondegenerate,
        "diffusion_control_free": ctrl_free,
        "suggested_route": "pde" if nondegenerate else "ode",
        "cost_class_detected": spec.cost_class,
        "column_s_failures": _column_s_failures(spec, s_arr, x_arr, u_arr),
    }


# ---------------------------------------------------------------------------
# Built-in problem families
# ---------------------------------------------------------------------------

def _zero_generator(s, x, u, y, z):
    return np.zeros_like(np.asarray(x, dtype=float))


# the split of the cost terminal h0 = y: no state part, and the anchored-y part y
_Y_SPLIT = TerminalSplit(
    fhat=lambda t, xt, x: 0.0 * np.asarray(x, dtype=float),
    ghat=lambda t, xt, y: np.asarray(y, dtype=float),
    ghat_y=lambda t, xt, y: np.ones_like(np.asarray(y, dtype=float)),
    xtilde_free=True)


def constant_control(value):
    """The control (s, x) -> value, the scalar itself whatever x is; a
    StrategyTable gives it the shape of x."""
    return lambda s, x: value


def meanvar_closed_form(r, mu, sigma, gamma, T):
    """ODE-consistent closed forms for the wealth/variance system.

    phi1(t) = gamma e^{2r(T-t)} and vbar(t) = (mu - r)/(gamma sigma^2) e^{-r(T-t)}.
    """
    def phi1(t):
        return gamma * np.exp(2.0 * r * (T - np.asarray(t, dtype=float)))

    def vbar(t):
        return (mu - r) / (gamma * sigma * sigma) * np.exp(-r * (T - np.asarray(t, dtype=float)))

    return {"phi1": phi1, "vbar": vbar}


def _mean_variance_closed_forms(r, mu, sigma, gamma, T, x0):
    """Equilibrium vbar(s), and the control committed at (t, x): -(mu-r)/sigma^2
    (X - d(t, x) e^{-r(T-s)}), target d(t, x) = e^{theta^2 (T-t)}/gamma + e^{r(T-t)} x.

    Under the x-free equilibrium control the terminal state from (s, x) is
    Gaussian with mean m1 = x e^{r(T-s)} + (mu-r) c (T-s) and variance
    sigma^2 c^2 (T-s), c = (mu-r)/(gamma sigma^2): the value field is m1 and the
    state part of the cost field is -m1 + gamma/2 (m1^2 + variance)."""
    vbar = meanvar_closed_form(r, mu, sigma, gamma, T)["vbar"]
    theta2 = ((mu - r) / sigma) ** 2
    slope = (mu - r) / (sigma * sigma)
    c = (mu - r) / (gamma * sigma * sigma)

    def d_anchor(t, x):
        return math.exp(theta2 * (T - t)) / gamma + np.exp(r * (T - t)) * x

    def reference_fields(times, xs):
        tt = times[:, None]
        m1 = xs[None, :] * np.exp(r * (T - tt)) + (mu - r) * c * (T - tt)
        var = sigma * sigma * c * c * (T - tt)
        return m1, -m1 + 0.5 * gamma * (m1 * m1 + var)

    d0 = d_anchor(0.0, x0)
    return ClosedForms(
        equilibrium=lambda s, x: vbar(s),
        grid_control=(mu - r) / (gamma * sigma ** 2),
        committed=lambda s, x: -slope * (np.asarray(x, dtype=float) - d0 * math.exp(-r * (T - s))),
        path_gap=lambda tau, x: slope * np.abs(d0 - d_anchor(tau, x)),
        gap_scale=slope * d0,
        reference_fields=reference_fields)


def mean_variance(r=0.03, mu=0.08, sigma=0.2, gamma=2.0, T=1.0, x0=1.0,
                  U=(-20.0, 20.0)):
    """Wealth control with conditional-variance penalty.

    State drift r x + (mu - r) u, diffusion sigma u; backward component is the
    conditional mean of terminal wealth; cost -E_t[X_T] + gamma/2 Var_t[X_T].
    """
    r, mu, sigma, gamma = map(float, (r, mu, sigma, gamma))
    u_lo, u_hi = U
    try:
        closed = _mean_variance_closed_forms(r, mu, sigma, gamma, float(T), float(x0))
    except (ZeroDivisionError, OverflowError):
        closed = ClosedForms()          # gamma sigma^2 = 0 or an overflowing target

    def h0(t, xt, x, y):
        return -x + 0.5 * gamma * x * x - 0.5 * gamma * y * y

    split = TerminalSplit(
        fhat=lambda t, xt, x: -x + 0.5 * gamma * x * x,
        ghat=lambda t, xt, y: -0.5 * gamma * y * y,
        ghat_y=lambda t, xt, y: -gamma * y,
        xtilde_free=True)
    return ControlProblemSpec(
        name="mean_variance",
        drift=lambda s, x, u: r * x + (mu - r) * u,
        diffusion=lambda s, x, u: sigma * u,
        generator=_zero_generator,
        terminal=lambda x: np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0 * np.asarray(x, dtype=float),
        cost_terminal=h0,
        u_lo=u_lo, u_hi=u_hi, horizon=float(T), m=1, x0=float(x0),
        params={"r": r, "mu": mu, "sigma": sigma, "gamma": gamma, "x0": float(x0)},
        terminal_split=split,
        mc_cost=McCost(
            terminal=lambda x: -x + 0.5 * gamma * x * x,
            outer=lambda m1: -0.5 * gamma * m1 * m1,
            outer_prime=lambda m1: -gamma * m1),
        closed_forms=closed,
    )


def recursive_lq(T=1.0, x0=0.0, U=(-10.0, 10.0)):
    """Recursive control benchmark whose cost is the backward value itself.

    b = u, sigma = 1, g = (u^2 + x^2)/2, cost terminal h0 = y: the equilibrium
    collapses to the classical recursive HJB with pointwise minimization.
    """
    def g(s, x, u, y, z):
        return 0.5 * (np.asarray(u, dtype=float) ** 2 + np.asarray(x, dtype=float) ** 2)

    return ControlProblemSpec(
        name="recursive_lq",
        drift=lambda s, x, u: np.asarray(u, dtype=float) + 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda s, x, u: np.ones_like(np.asarray(x, dtype=float)),
        generator=g,
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0 * np.asarray(x, dtype=float),
        cost_terminal=lambda t, xt, x, y: y,
        u_lo=float(U[0]), u_hi=float(U[1]), horizon=float(T), m=1, x0=float(x0),
        params={"x0": float(x0)},
        terminal_split=_Y_SPLIT,
        mc_cost=McCost(running=lambda s, x, u: 0.5 * (u * u + x * x)),
    )


def linear_heat(a=1.0, T=1.0, terminal="x", x0=0.0):
    """Uncontrolled diffusion used for solver validation (b = 0, sigma = sqrt(2a))."""
    a = float(a)
    sig = math.sqrt(2.0 * a)
    terminals = {
        "x": lambda x: np.asarray(x, dtype=float),
        "x2": lambda x: np.asarray(x, dtype=float) ** 2,
        "gaussians": lambda x: (np.exp(-(np.asarray(x) - 0.7) ** 2)
                                + 0.5 * np.exp(-2.0 * (np.asarray(x) + 1.1) ** 2)),
    }
    if not (isinstance(terminal, str) and terminal in terminals):
        raise DomainError(f"linear_heat terminal must be one of {sorted(terminals)}, "
                          f"got {terminal!r}")
    return ControlProblemSpec(
        name="linear_heat",
        drift=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda s, x, u: sig * np.ones_like(np.asarray(x, dtype=float)),
        generator=_zero_generator,
        terminal=terminals[terminal],
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0 * np.asarray(x, dtype=float),
        cost_terminal=lambda t, xt, x, y: y,
        u_lo=-1.0, u_hi=1.0, horizon=float(T), m=1, x0=float(x0),
        params={"a": a, "terminal": terminal, "x0": float(x0)},
        terminal_split=_Y_SPLIT,
    )


def bkm_separable(T=1.0, x0=0.0):
    """Separable-cost benchmark: h0 = fhat(xt, x) + ghat(xt, y), zero cost generator."""
    def fhat(t, xt, x):
        return np.asarray(x, dtype=float) ** 2 + np.asarray(xt, dtype=float) * np.asarray(x, dtype=float)

    def ghat(t, xt, y):
        return np.asarray(xt, dtype=float) * np.asarray(y, dtype=float) - 0.5 * np.asarray(y, dtype=float) ** 2

    def ghat_y(t, xt, y):
        return np.asarray(xt, dtype=float) - np.asarray(y, dtype=float)

    split = TerminalSplit(fhat=fhat, ghat=ghat, ghat_y=ghat_y, xtilde_free=False)
    return ControlProblemSpec(
        name="bkm_separable",
        drift=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda s, x, u: np.ones_like(np.asarray(x, dtype=float)),
        generator=_zero_generator,
        terminal=lambda x: np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0 * np.asarray(x, dtype=float),
        cost_terminal=lambda t, xt, x, y: fhat(t, xt, x) + ghat(t, xt, y),
        u_lo=-1.0, u_hi=1.0, horizon=float(T), m=1, x0=float(x0),
        params={"x0": float(x0)}, terminal_split=split,
    )


def stackelberg(T=1.0, x0=0.0, U=(-5.0, 5.0)):
    """Leader's problem of the two-player game: deterministic FBSDE, T = 1 instance.

    Backward flow dY/ds = (Y + u)/(2 - s), Y(1) = 0; running cost y + u + u^2.
    The reduced running integrand anchored at t is [ln(2-s) - ln(2-t) + 1] u + u^2.
    """
    def g(s, x, u, y, z):
        return -(np.asarray(y, dtype=float) + np.asarray(u, dtype=float)) / (2.0 - s)

    def reduced(t, s, u):
        u = np.asarray(u, dtype=float)
        return (np.log(2.0 - s) - np.log(2.0 - t) + 1.0) * u + u * u

    def gap(tau):
        # re-anchoring at tau shifts the committed path by [ln 2 - ln(2 - tau)]/2
        return 0.5 * (math.log(2.0) - np.log(2.0 - np.asarray(tau, dtype=float)))

    return ControlProblemSpec(
        name="stackelberg",
        drift=lambda s, x, u: u + 0.0 * x,
        diffusion=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        generator=g,
        terminal=lambda x: 0.0 * np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: (
            np.asarray(y, dtype=float) + np.asarray(u, dtype=float) + np.asarray(u, dtype=float) ** 2),
        cost_terminal=lambda t, xt, x, y: 0.0,
        u_lo=float(U[0]), u_hi=float(U[1]), horizon=float(T), m=1, x0=float(x0),
        params={"x0": float(x0)},
        reduced_running=reduced,
        closed_forms=ClosedForms(equilibrium=constant_control(-0.5), gap=gap),
    )


def ex31(T=1.0, x0=0.0, U=(-5.0, 5.0)):
    """Two-component backward benchmark with cost Y2(t).

    dY1/ds = u and dY2/ds = -Y1 - u - u^2; the cost reduces to the running
    integrand (1 + t - s) u + u^2 anchored at t, minimized by (s - t - 1)/2: a shift of tau/2.
    """
    def g(s, x, u, y, z):
        u = np.asarray(u, dtype=float)
        base = np.zeros_like(u + np.asarray(x, dtype=float))
        return np.stack([-u + base, np.asarray(y)[0] + u + u * u + base])

    def reduced(t, s, u):
        u = np.asarray(u, dtype=float)
        return (1.0 + t - s) * u + u * u

    return ControlProblemSpec(
        name="ex31",
        drift=lambda s, x, u: 0.0 * x,
        diffusion=lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
        generator=g,
        terminal=lambda x: np.zeros((2,) + np.shape(np.asarray(x, dtype=float))),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0 * np.asarray(x, dtype=float),
        cost_terminal=lambda t, xt, x, y: np.asarray(y)[1],
        u_lo=float(U[0]), u_hi=float(U[1]), horizon=float(T), m=2, x0=float(x0),
        params={"x0": float(x0)},
        reduced_running=reduced,
        closed_forms=ClosedForms(equilibrium=constant_control(-0.5), gap=lambda tau: tau / 2.0),
    )


def ex41(T=1.0, x0=1.0, U=(-10.0, 10.0)):
    """Mean-field LQ benchmark: dX = u ds + X dW, cost E_t[int u^2] + (E_t[X_T])^2."""
    # committed at (t, x): the constant -x/(T - t + 1); a horizon T <= 0 is refused below
    u0 = -x0 / (T + 1.0) if T > 0 else math.nan
    return ControlProblemSpec(
        name="ex41",
        drift=lambda s, x, u: np.asarray(u, dtype=float) + 0.0 * np.asarray(x, dtype=float),
        diffusion=lambda s, x, u: np.asarray(x, dtype=float),
        generator=_zero_generator,
        terminal=lambda x: np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: np.asarray(u, dtype=float) ** 2,
        cost_terminal=lambda t, xt, x, y: np.asarray(y, dtype=float) ** 2,
        u_lo=float(U[0]), u_hi=float(U[1]), horizon=float(T), m=1, x0=float(x0),
        params={"x0": float(x0)},
        mc_cost=McCost(
            running=lambda s, x, u: u * u,
            outer=lambda m1: m1 * m1,
            outer_prime=lambda m1: 2.0 * m1),
        closed_forms=ClosedForms(
            committed=constant_control(u0),
            path_gap=lambda tau, x: np.abs(-x / (T - tau + 1.0) - u0),
            gap_scale=u0),
    )


def gbm(mu=0.5, sigma=0.2, T=1.0, x0=1.0):
    """Uncontrolled geometric Brownian motion probe."""
    mu, sigma = float(mu), float(sigma)
    return ControlProblemSpec(
        name="gbm",
        drift=lambda s, x, u: mu * np.asarray(x, dtype=float),
        diffusion=lambda s, x, u: sigma * np.asarray(x, dtype=float),
        generator=_zero_generator,
        terminal=lambda x: np.asarray(x, dtype=float),
        cost_generator=lambda t, s, xt, x, u, y, z, y0, z0: 0.0 * np.asarray(x, dtype=float),
        cost_terminal=lambda t, xt, x, y: y,
        u_lo=-1.0, u_hi=1.0, horizon=float(T), m=1, x0=float(x0),
        params={"mu": mu, "sigma": sigma, "x0": float(x0)},
        terminal_split=_Y_SPLIT,
    )


FAMILIES = {
    "mean_variance": mean_variance,
    "recursive_lq": recursive_lq,
    "linear_heat": linear_heat,
    "bkm_separable": bkm_separable,
    "stackelberg": stackelberg,
    "ex31": ex31,
    "ex41": ex41,
    "gbm": gbm,
}


# inconsistency examples that are not family names, and the family each runs
EXAMPLE_FAMILIES = {"meanvar_precommit": "mean_variance"}


def register_family(name, builder):
    FAMILIES[name] = builder


def family_params(params):
    """A copy of a family's parameters: a dict (a JSON object) or None for none."""
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise DomainError("family parameters must be a JSON object, "
                          f"got {type(params).__name__}")
    return dict(params)


def make_spec(family, params=None, T=None, U=None):
    """The spec of a registered family.  T is a finite number and U a pair of
    numbers (a JSON list); anything else, a parameter value that is a
    non-finite number, and one the family's builder cannot convert, is a
    DomainError."""
    if family not in FAMILIES:
        raise DomainError(f"unknown problem family '{family}'")
    builder = FAMILIES[family]
    accepted = set(inspect.signature(builder).parameters)
    kwargs = family_params(params)
    for name, value in kwargs.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"family '{family}' parameter '{name}' must be finite, got {value}")
    try:
        if T is not None:
            kwargs["T"] = float(T)
        if U is not None:
            u_lo, u_hi = (float(u) for u in U)
            kwargs["U"] = (u_lo, u_hi)
    except (TypeError, ValueError):
        raise DomainError(f"T must be a number and U a pair of numbers, got T={T!r}, "
                          f"U={U!r}") from None
    if T is not None and not math.isfinite(kwargs["T"]):
        raise DomainError(f"T must be a finite number, got T={T!r}")
    bad = sorted(set(kwargs) - accepted)
    if bad:
        raise DomainError(f"family '{family}' does not accept parameters {bad}")
    try:
        return builder(**kwargs)
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"family '{family}' parameters {kwargs}: {exc}") from None


def spec_to_json(spec):
    """The JSON document that ``spec_from_json`` rebuilds the spec from."""
    doc = {"family": spec.name, "params": dict(spec.params), "T": spec.horizon}
    builder = FAMILIES.get(spec.name)
    if builder is None or "U" in inspect.signature(builder).parameters:
        doc["U"] = [spec.u_lo, spec.u_hi]
    return doc


def spec_from_json(doc):
    return make_spec(doc["family"], doc.get("params"), doc.get("T"), doc.get("U"))
