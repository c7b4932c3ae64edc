"""Backward ODE solvers: the seven-function closed-loop system, its mean-field
reduction, the wealth/variance special case, the two-agent planner system, and
the leader benchmark with its closed forms.

All solvers use fixed-step RK4 (default 1e4 steps) with the feedback
coefficients recomputed algebraically inside every stage.  Terminal values are
assigned, never integrated, so terminal residuals are exactly zero.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowUpError, DomainError, PositivityError, SingularityError
from .model import StrategyTable, equilibrium_strategy, meanvar_closed_form
from .model import stackelberg as _stackelberg_spec

SINGULAR_TOL = 1e-12


_LQ_COEFFICIENTS = ("A", "B", "C", "D", "Ahat", "Bhat", "Chat", "Dhat", "Q", "M", "N", "R")


def _stage_coefficients(coeffs):
    """Map a stage time s to the tuple of coefficient values at s, as floats.

    Constants are converted once.  Callables are evaluated once per distinct
    stage time: the last time and its values are kept, so the feedback and the
    right-hand side of one stage, and the two middle RK4 stages, share one
    evaluation.  Coefficient callables must therefore be pure functions of s.
    """
    values = [None if callable(c) else float(c) for c in coeffs]
    varying = [(i, c) for i, c in enumerate(coeffs) if callable(c)]
    if not varying:
        fixed = tuple(values)
        return lambda s: fixed
    last = [None, None]

    def at(s):
        if s != last[0]:
            for i, c in varying:
                values[i] = float(c(s))
            last[0], last[1] = s, tuple(values)
        return last[1]

    return at


@dataclass(frozen=True)
class LQSpec:
    """Scalar coefficient bundle for the linear forward-backward control problem.

    Forward: dX = (A X + B u) ds + (C X + D u) dW.
    Backward: dY = -(Ahat X + Bhat u + Chat Y + Dhat Z) ds + Z dW, Y(T) = H X(T).
    Running weights Q, M, N, R; terminal weights G1 (X^2), G2 (Y(t)^2),
    G3 (X(t) Y(t) cross), g (linear).  Time-varying entries may be callables
    of s; each is evaluated once per RK4 stage time, so it must be pure.
    """

    A: object = 0.0
    B: object = 0.0
    C: object = 0.0
    D: object = 0.0
    Ahat: object = 0.0
    Bhat: object = 0.0
    Chat: object = 0.0
    Dhat: object = 0.0
    H: float = 1.0
    Q: object = 0.0
    M: object = 0.0
    N: object = 0.0
    R: object = 0.0
    G1: float = 0.0
    G2: float = 0.0
    G3: float = 0.0
    g: float = 0.0
    T: float = 1.0

    def __post_init__(self):
        if not self.T > 0:
            raise DomainError("horizon must be positive")


@dataclass
class RiccatiTrajectory:
    s: np.ndarray                 # ascending time grid
    phi: np.ndarray               # shape (7, len(s))
    psi: np.ndarray               # feedback slope samples
    v: np.ndarray                 # feedback offset samples
    terminal_residual: float


# The RK4 step loop for a state of n floats held in n locals.  Each {...} field
# is written out once per component j, with the operations, in their order, of
# a list comprehension over the components, so the results are its bits.
_STEP_LOOP = """\
def rk4_loop(rhs, y, nodes, hs, out, node):
    [{y}] = y
    i = 0
    for i, s, h in zip(count(1), nodes, hs):
        half = 0.5 * h
        [{k1}] = rhs(s, y)
        node()
        [{k2}] = rhs(s + half, [{stage2}])
        [{k3}] = rhs(s + half, [{stage3}])
        [{k4}] = rhs(s + h, [{stage4}])
        sixth = h / 6.0
        {update}
        y = [{y}]
        if not ({finite}):
            raise BlowUpError(nodes[i])
        out[i] = y
    if node is not no_node:
        rhs(nodes[i], y)
        node()
"""
_STEP_LOOPS = {}


def _step_loop(n):
    """The RK4 step loop for states of length n, generated from ``_STEP_LOOP``
    on first use and cached for the life of the process."""
    loop = _STEP_LOOPS.get(n)
    if loop is None:
        def each(term, sep=", "):
            return sep.join(term.format(j=j) for j in range(n))
        source = _STEP_LOOP.format(
            y=each("y{j}"), k1=each("a{j}"), k2=each("b{j}"), k3=each("c{j}"),
            k4=each("d{j}"), stage2=each("y{j} + half * a{j}"),
            stage3=each("y{j} + half * b{j}"), stage4=each("y{j} + h * c{j}"),
            update=each("y{j} = y{j} + sixth * (a{j} + 2.0 * b{j} + 2.0 * c{j} + d{j})",
                        "\n        ") or "pass",
            finite=each("isfinite(y{j})", " and ") or "True")
        scope = {"count": itertools.count, "isfinite": math.isfinite,
                 "BlowUpError": BlowUpError, "no_node": _no_node}
        exec(compile(source, f"<rk4 step loop, n={n}>", "exec"), scope)
        loop = _STEP_LOOPS[n] = scope["rk4_loop"]
    return loop


def _no_node():
    pass


def rk4_integrate(rhs, y, nodes, hs, out, node=_no_node):
    """Classical RK4 on a list of floats, one step per signed step size.

    Step i starts at nodes[i] with step h = hs[i]; its stages sit at nodes[i],
    nodes[i] + h/2 (twice) and nodes[i] + h, so a backward solve passes
    negative steps (negating h is exact).  ``rhs(s, y)`` receives the state as
    a list of floats and returns a sequence of exactly len(y) floats; another
    length raises ValueError.  ``node()`` is called with no arguments at every
    node right after ``rhs`` sees it with its state, so a caller can keep what
    ``rhs`` computed: after a step's first stage, and at the last node after
    one more ``rhs`` call, made only given a hook, whose derivative is
    discarded.  out[0] is set to y and out[i + 1] to the state after step i.
    Raises BlowUpError with the time nodes[i + 1] at the first non-finite state.

    The step loop holds the state as len(y) local floats.  It is generated
    once per state length and cached: about 0.5-1 ms at lengths up to 7 and
    about 20 ms at length 200, once per process.
    """
    out[0] = y
    _step_loop(len(y))(rhs, y, nodes, hs, out, node)


def rk4_backward(rhs, terminal_value, T, steps, node=_no_node):
    """Classical fixed-step RK4 from T down to 0; returns (grid, samples).

    ``rhs(s, y)`` receives the state as a list of floats and returns a
    sequence of as many floats.  samples[k] approximates y(grid[k]);
    samples[-1] is the terminal value exactly.  ``node()`` is called right
    after ``rhs`` is evaluated at each node grid[k], k = steps down to 0, as
    in ``rk4_integrate``, whose generated step loop this runs.  A horizon T
    that is not finite and > 0 is a DomainError.  Raises BlowUpError at the
    first non-finite state.
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"horizon must be positive and finite, got T={T}")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    y = np.asarray(terminal_value, dtype=float).ravel().tolist()
    grid = np.linspace(0.0, T, steps + 1)
    out = np.empty((steps + 1, len(y)))
    # steps run from the last row up, with stage times grid[k] - h/2 and grid[k] - h
    rk4_integrate(rhs, y, grid[::-1].tolist(), itertools.repeat(-(T / steps), steps),
                  out[::-1], node)
    return grid, out


def _lq_feedback(s, c, phi):
    """Feedback pair (psi, v) from the coefficient values c at s and the state phi.

    The denominator is D'Phi1 D + R + D'Phi6' N Phi6 D; the cross terms of the
    N weight carry the D factor required by the quadratic expansion.
    """
    A, B, C, D, Ah, Bh, Ch, Dh, Q, M, N, R = c
    p1, p2, p3, p4, p5, p6, p7 = phi
    den = D * p1 * D + R + D * p6 * N * p6 * D
    if abs(den) < SINGULAR_TOL:
        raise SingularityError(s, "in the feedback gain")
    psi = -(D * p1 * C + D * p6 * N * p6 * C + B * p1 + B * p6 * p2 * p6
            + Bh * p2 * p6 + D * p6 * Dh * p2 * p6
            + 0.5 * B * p6 * p3 + 0.5 * Bh * p3 + 0.5 * D * p6 * Dh * p3) / den
    v = -(B * p4 + (B * p6 + Bh + D * p6 * Dh) * p2 * p7) / den
    return psi, v


def solve_riccati_lq(lq: LQSpec, steps=10000) -> RiccatiTrajectory:
    """Integrate the seven coupled backward equations with the feedback pair
    recomputed inside every RK4 stage."""
    coef = _stage_coefficients([getattr(lq, k) for k in _LQ_COEFFICIENTS])
    fbs, fb = array("d"), None  # node feedback pairs, flat, last node first; latest stage's

    def rhs(s, y):
        nonlocal fb
        c = coef(s)
        A, B, C, D, Ah, Bh, Ch, Dh, Q, M, N, R = c
        p1, p2, p3, p4, p5, p6, p7 = y
        fb = psi, v = _lq_feedback(s, c, y)
        acl = A + B * psi
        ccl = C + D * psi
        f1 = -(2.0 * p1 * acl + ccl * p1 * ccl + Q + p6 * M * p6
               + ccl * p6 * N * p6 * ccl + psi * R * psi)
        f4 = -(v * B * p1 + p4 * acl + v * D * p1 * ccl + p7 * M * p6
               + v * D * p6 * N * p6 * ccl + v * R * psi)
        f5 = -(p4 * B * v + 0.5 * v * D * p1 * D * v + 0.5 * v * D * p6 * N * p6 * D * v
               + 0.5 * v * R * v + 0.5 * p7 * M * p7)
        f6 = -(p6 * acl + Ah + Bh * psi + Ch * p6 + Dh * p6 * ccl)
        f7 = -(p6 * B * v + Bh * v + Ch * p7 + Dh * p6 * D * v)
        return [f1, 0.0, 0.0, f4, f5, f6, f7]

    terminal = np.array([lq.G1, lq.G2, lq.G3, lq.g, 0.0, lq.H, 0.0])
    grid, out = rk4_backward(rhs, terminal, lq.T, steps, lambda: fbs.extend(fb))
    phi = out.T
    psis, vs = np.frombuffer(fbs).reshape(-1, 2)[::-1].T
    # phi2, phi3 have identically zero derivative; keep them bit-exact.
    resid = float(np.max(np.abs(phi[:, -1] - terminal)))
    assert float(np.max(np.abs(phi[1] - lq.G2))) == 0.0
    assert float(np.max(np.abs(phi[2] - lq.G3))) == 0.0
    return RiccatiTrajectory(s=grid, phi=phi, psi=psis, v=vs, terminal_residual=resid)


def solve_meanfield_riccati(A, B, C, D, Q, R, G1, G2, T=1.0, steps=10000):
    """Two-function reduction for the conditional-mean terminal weight.

    Returns (grid, Phi, Phihat, Psi) with Phi(T) = G1, Phihat(T) = G1 + G2 and
    Psi = -(D Phi D + R)^{-1} (D Phi C + B Phihat).
    """
    coef = _stage_coefficients((A, B, C, D, Q, R))
    psis, psi = array("d"), None    # node feedbacks, last node first; latest stage's

    def rhs(s, y):
        nonlocal psi
        Af, Bf, Cf, Df, Qf, Rf = coef(s)
        p, ph = y
        den = Df * p * Df + Rf
        if abs(den) < SINGULAR_TOL:
            raise SingularityError(s, "in the feedback gain")
        psi = -(Df * p * Cf + Bf * ph) / den
        acl = Af + Bf * psi
        ccl = Cf + Df * psi
        quad = ccl * p * ccl + Qf + psi * Rf * psi
        return [-(2.0 * p * acl + quad), -(2.0 * ph * acl + quad)]

    grid, out = rk4_backward(rhs, np.array([G1, G1 + G2]), T, steps,
                             lambda: psis.append(psi))
    return grid, out[:, 0], out[:, 1], np.frombuffer(psis)[::-1]


@dataclass
class MeanVarResult:
    s: np.ndarray
    phi1: np.ndarray
    phi4: np.ndarray
    phi6: np.ndarray
    phi7: np.ndarray
    v: np.ndarray
    closed: dict
    variants: dict
    strategy: StrategyTable
    max_rel_err_phi1: float
    max_rel_err_v: float


def _finite_floats(what="parameter", **params):
    """The parameters as floats; one that is not a finite number is a DomainError."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{what} '{name}' must be a finite number, got {value}")
    return {name: float(value) for name, value in params.items()}


def _mv_lq_spec(r, mu, sigma, gamma, T):
    """The mean-variance problem (wealth drift r x + (mu - r) u, diffusion
    sigma u) as the seven-function LQ system; ``meanvar_equilibrium`` integrates
    the four functions it reduces to."""
    return LQSpec(A=r, B=mu - r, C=0.0, D=sigma, H=1.0,
                  G1=gamma, G2=-gamma, G3=0.0, g=-1.0, T=T)


def meanvar_equilibrium(r, mu, sigma, gamma, T=1.0, steps=10000) -> MeanVarResult:
    """Integrate the four-function wealth/variance subsystem and report both the
    numeric trajectory and the closed forms it must reproduce.

    The reported closed forms are the ones consistent with the defining ODEs;
    transcription variants that fail them are surfaced under ``variants`` for
    comparison and are never used.
    """
    r, mu, sigma, gamma = _finite_floats(r=r, mu=mu, sigma=sigma, gamma=gamma).values()
    if not (sigma > 0 and gamma > 0):
        raise DomainError("sigma and gamma must be positive")
    s2, excess = sigma * sigma, mu - r
    vs, vk = array("d"), None   # node controls, last node first; latest stage's

    def rhs(s, y):
        nonlocal vk
        p1, p4, p6, p7 = y
        den = s2 * p1
        if abs(den) < SINGULAR_TOL:
            raise SingularityError(0.0, "sigma^2 phi1 vanished")
        vk = -excess * (p4 - gamma * p6 * p7) / den
        return [
            -2.0 * r * p1,
            -(vk * excess * p1 + r * p4),
            -r * p6,
            -(p6 * excess * vk),
        ]

    grid, out = rk4_backward(rhs, np.array([gamma, -1.0, 1.0, 0.0]), T, steps,
                             lambda: vs.append(vk))
    p1, p4, p6, p7 = out.T
    v = np.frombuffer(vs)[::-1]
    closed = meanvar_closed_form(r, mu, sigma, gamma, T)
    variants = {
        "phi1_alt": lambda t: np.exp(2.0 * gamma * (T - np.asarray(t, dtype=float))),
        "vbar_alt": lambda t: (mu - r) / (gamma * s2) * np.exp(r * (T - np.asarray(t, dtype=float))),
    }
    err1 = float(np.max(np.abs(p1 - closed["phi1"](grid)) / np.abs(closed["phi1"](grid))))
    vref = closed["vbar"](grid)
    scale = max(1e-300, float(np.max(np.abs(vref))))
    errv = float(np.max(np.abs(v - vref))) / scale
    strat = StrategyTable(-1e12, 1e12, fn=lambda s, x: closed["vbar"](s))
    return MeanVarResult(s=grid, phi1=p1, phi4=p4, phi6=p6, phi7=p7, v=v,
                         closed=closed, variants=variants, strategy=strat,
                         max_rel_err_phi1=err1, max_rel_err_v=errv)


@dataclass
class PlannerSolution:
    s: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    consumption_coeff: np.ndarray
    investment_coeff: float


def solve_planner(r, mu, sigma, gamma, alpha, rho1, rho2, lam, T=1.0, steps=10000):
    """Integrate the coupled two-agent value coefficients backward from 1.

    Aborts with PositivityError if either coefficient leaves the proven
    positive band (parameter set outside the admissible regime or step too
    coarse).  The linear investment coefficient is (mu - r)/(gamma sigma^2);
    the consumption coefficient table is returned per grid node.
    """
    params = _finite_floats(r=r, mu=mu, sigma=sigma, gamma=gamma, alpha=alpha, rho1=rho1,
                            rho2=rho2, lam=lam)
    r, mu, sigma, gamma, alpha, rho1, rho2, lam = params.values()
    if not (sigma > 0 and gamma > 0) or gamma == 1.0:
        raise DomainError("need sigma > 0, gamma > 0, gamma != 1")
    if not (alpha / (1.0 - gamma) > 0 and alpha != 1.0):       # NaN fails the first
        raise DomainError("need alpha/(1 - gamma) > 0 and alpha != 1")
    if not 0.0 <= lam <= 1.0:
        raise DomainError("weight lam must lie in [0, 1]")
    kappa = (1.0 - gamma - alpha) / (1.0 - gamma)
    try:
        q = r + (mu - r) ** 2 / (2.0 * gamma * sigma * sigma)
        invest = (mu - r) / (gamma * sigma * sigma)
    except (OverflowError, ZeroDivisionError):      # float powers and quotients raise
        q = invest = math.inf
    _finite_floats("planner coefficient", kappa=kappa, q=q, investment_coeff=invest)
    e1 = 1.0 / (alpha - 1.0)
    ea = alpha / (alpha - 1.0)
    # the left-most factors of the stage terms, formed once: the products
    # associate as before, so every stage keeps its bits
    g1, l1 = 1.0 - gamma, 1.0 - lam
    gr1, gr2, ga = g1 * rho1, g1 * rho2, g1 / alpha

    def rhs(s, th):
        th1, th2 = th
        if th1 <= 0.0 or th2 <= 0.0:
            raise PositivityError(
                f"theta left the positive band at t={s:.6g}: ({th1:.3g}, {th2:.3g})")
        try:
            k1, k2 = th1 ** kappa, th2 ** kappa
            mix = lam * th1 + l1 * th2
            mixk = lam * k1 + l1 * k2
            cons = mix ** e1 / mixk ** e1
            bump = mix ** ea / mixk ** ea
        except (OverflowError, ZeroDivisionError):
            # float powers raise where numpy scalars give inf; a non-finite
            # derivative makes the driver stop with BlowUpError as before
            return [math.nan, math.nan]
        gap = q - cons
        return [-(g1 * th1 * gap - gr1 * th1 / alpha + ga * k1 * bump),
                -(g1 * th2 * gap - gr2 * th2 / alpha + ga * k2 * bump)]

    grid, out = rk4_backward(rhs, np.array([1.0, 1.0]), T, steps)
    th1, th2 = out[:, 0], out[:, 1]
    if np.any(th1 <= 0.0) or np.any(th2 <= 0.0):
        raise PositivityError("theta non-positive at a grid node")
    mix = lam * th1 + (1.0 - lam) * th2
    mixk = lam * th1 ** kappa + (1.0 - lam) * th2 ** kappa
    return PlannerSolution(
        s=grid, theta1=th1, theta2=th2, consumption_coeff=mix ** e1 / mixk ** e1,
        investment_coeff=invest)


@dataclass
class StackelbergResult:
    equilibrium_value: float
    equilibrium_strategy: StrategyTable
    precommitted: Callable          # u(s; t) announced at anchor t
    gap: Callable                   # tau -> sup-norm control gap
    leader_cost: Callable           # t -> closed-form cost of the anchored optimum
    leader_cost_quadrature: Callable


def stackelberg_leader() -> StackelbergResult:
    """Closed forms for the leader benchmark, the T = 1 instance of ``model.stackelberg``.

    The control announced at anchor t is [ln(2-t) - ln(2-s) - 1]/2 and the
    time-consistent feedback is the constant -1/2; the reduced integrand, the
    equilibrium and the gap are those of ``model.stackelberg``.
    """
    spec = _stackelberg_spec()

    def precommitted(s, t=0.0):
        return 0.5 * (np.log(2.0 - np.asarray(t, dtype=float)) - np.log(2.0 - np.asarray(s, dtype=float)) - 1.0)

    def leader_cost(t):
        w = 2.0 - t
        return -(1.0 - t - math.log(w) ** 2) / 4.0

    def leader_cost_quadrature(t):
        s = np.linspace(t, spec.horizon, 4097)
        vals = spec.reduced_running(t, s, precommitted(s, t))
        return float(_simpson(vals, s[1] - s[0]))

    return StackelbergResult(
        equilibrium_value=-0.5, equilibrium_strategy=equilibrium_strategy(spec),
        precommitted=precommitted, gap=spec.closed_forms.gap,
        leader_cost=leader_cost, leader_cost_quadrature=leader_cost_quadrature)


def _simpson(vals, h):
    """Composite Simpson along the last axis; each sum reduces a contiguous row
    in index order, so a batch of rows gives the same values as one at a time."""
    n = vals.shape[-1] - 1
    if n % 2 != 0:
        raise DomainError("composite Simpson needs an even panel count")
    return (h / 3.0) * (vals[..., 0] + vals[..., -1] + 4.0 * np.sum(vals[..., 1:-1:2], axis=-1)
                        + 2.0 * np.sum(vals[..., 2:-1:2], axis=-1))
