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
    ds: float
    terminal_residual: float


def rk4_integrate(rhs, y, nodes, hs, out, first=None):
    """Classical RK4 on a list of floats, one step per signed step size.

    Step i starts at nodes[i] with step h = hs[i]; its stages sit at nodes[i],
    nodes[i] + h/2 (twice) and nodes[i] + h, so a backward solve passes
    negative steps (negating h is exact).  ``rhs(s, y)`` receives the state as
    a list of floats and returns a sequence of floats; ``first``, when given,
    takes its place at each step's first stage.  out[0] is set to y and
    out[i + 1] to the state after step i.  Raises BlowUpError with the time
    nodes[i + 1] at the first non-finite state.
    """
    first = first or rhs
    isfinite = math.isfinite
    out[0] = y
    for i, s, h in zip(itertools.count(1), nodes, hs):
        half = 0.5 * h
        k1 = first(s, y)
        k2 = rhs(s + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(s + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(s + h, [a + h * b for a, b in zip(y, k3)])
        sixth = h / 6.0
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not all(map(isfinite, y)):
            raise BlowUpError(nodes[i])
        out[i] = y


def rk4_backward(rhs, terminal_value, T, steps):
    """Classical fixed-step RK4 from T down to 0; returns (grid, samples).

    ``rhs(s, y)`` receives the state as a list of floats and returns a
    sequence of floats.  samples[k] approximates y(grid[k]); samples[-1] is the
    terminal value exactly.  Raises BlowUpError at the first non-finite state.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    y = np.asarray(terminal_value, dtype=float).ravel().tolist()
    grid = np.linspace(0.0, T, steps + 1)
    out = np.empty((steps + 1, len(y)))
    # steps run from the last row up, with stage times grid[k] - h/2 and grid[k] - h
    rk4_integrate(rhs, y, grid[::-1].tolist(), itertools.repeat(-(T / steps), steps), out[::-1])
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

    def rhs(s, y):
        c = coef(s)
        A, B, C, D, Ah, Bh, Ch, Dh, Q, M, N, R = c
        p1, p2, p3, p4, p5, p6, p7 = y
        psi, v = _lq_feedback(s, c, y)
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
    grid, out = rk4_backward(rhs, terminal, lq.T, steps)
    phi = out.T
    psi = np.empty(grid.size)
    v = np.empty(grid.size)
    for k, s in enumerate(grid.tolist()):
        psi[k], v[k] = _lq_feedback(s, coef(s), out[k].tolist())
    # phi2, phi3 have identically zero derivative; keep them bit-exact.
    resid = float(np.max(np.abs(phi[:, -1] - terminal)))
    assert float(np.max(np.abs(phi[1] - lq.G2))) == 0.0
    assert float(np.max(np.abs(phi[2] - lq.G3))) == 0.0
    return RiccatiTrajectory(s=grid, phi=phi, psi=psi, v=v,
                             ds=lq.T / steps, terminal_residual=resid)


def solve_meanfield_riccati(A, B, C, D, Q, R, G1, G2, T=1.0, steps=10000):
    """Two-function reduction for the conditional-mean terminal weight.

    Returns (grid, Phi, Phihat, Psi) with Phi(T) = G1, Phihat(T) = G1 + G2 and
    Psi = -(D Phi D + R)^{-1} (D Phi C + B Phihat).
    """
    coef = _stage_coefficients((A, B, C, D, Q, R))

    def feedback(s, c, p, ph):
        Af, Bf, Cf, Df, Qf, Rf = c
        den = Df * p * Df + Rf
        if abs(den) < SINGULAR_TOL:
            raise SingularityError(s, "in the feedback gain")
        return -(Df * p * Cf + Bf * ph) / den

    def rhs(s, y):
        c = coef(s)
        Af, Bf, Cf, Df, Qf, Rf = c
        p, ph = y
        psi = feedback(s, c, p, ph)
        acl = Af + Bf * psi
        ccl = Cf + Df * psi
        quad = ccl * p * ccl + Qf + psi * Rf * psi
        return [-(2.0 * p * acl + quad), -(2.0 * ph * acl + quad)]

    grid, out = rk4_backward(rhs, np.array([G1, G1 + G2]), T, steps)
    psi = np.array([feedback(s, coef(s), *out[k].tolist())
                    for k, s in enumerate(grid.tolist())])
    return grid, out[:, 0], out[:, 1], psi


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
    if sigma <= 0 or gamma <= 0:
        raise DomainError("sigma and gamma must be positive")
    s2 = sigma * sigma
    rf, excess, gf, s2f = float(r), float(mu - r), float(gamma), float(s2)

    def vbar_of(p1, p4, p6, p7):
        den = s2f * p1
        if abs(den) < SINGULAR_TOL:
            raise SingularityError(0.0, "sigma^2 phi1 vanished")
        return -excess * (p4 - gf * p6 * p7) / den

    def rhs(s, y):
        p1, p4, p6, p7 = y
        v = vbar_of(p1, p4, p6, p7)
        return [
            -2.0 * rf * p1,
            -(v * excess * p1 + rf * p4),
            -rf * p6,
            -(p6 * excess * v),
        ]

    grid, out = rk4_backward(rhs, np.array([gamma, -1.0, 1.0, 0.0]), T, steps)
    p1, p4, p6, p7 = out.T
    v = np.array([vbar_of(*row.tolist()) for row in out])
    closed = meanvar_closed_form(r, mu, sigma, gamma, T)
    variants = {
        "phi1_alt": lambda t: np.exp(2.0 * gamma * (T - np.asarray(t, dtype=float))),
        "vbar_alt": lambda t: (mu - r) / (gamma * s2) * np.exp(r * (T - np.asarray(t, dtype=float))),
        "note": "alternate transcriptions fail the defining ODEs; reported for comparison only",
    }
    err1 = float(np.max(np.abs(p1 - closed["phi1"](grid)) / np.abs(closed["phi1"](grid))))
    vref = closed["vbar"](grid)
    scale = max(1e-300, float(np.max(np.abs(vref))))
    errv = float(np.max(np.abs(v - vref))) / scale
    strat = StrategyTable(-1e12, 1e12, fn=lambda s, x: closed["vbar"](s) + 0.0 * np.asarray(x, dtype=float))
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
    params: dict


def solve_planner(r, mu, sigma, gamma, alpha, rho1, rho2, lam, T=1.0, steps=10000):
    """Integrate the coupled two-agent value coefficients backward from 1.

    Aborts with PositivityError if either coefficient leaves the proven
    positive band (parameter set outside the admissible regime or step too
    coarse).  The linear investment coefficient is (mu - r)/(gamma sigma^2);
    the consumption coefficient table is returned per grid node.
    """
    r, mu, sigma, gamma, alpha, rho1, rho2, lam = map(
        float, (r, mu, sigma, gamma, alpha, rho1, rho2, lam))
    if sigma <= 0 or gamma <= 0 or gamma == 1.0:
        raise DomainError("need sigma > 0, gamma > 0, gamma != 1")
    if alpha / (1.0 - gamma) <= 0:
        raise DomainError("need alpha/(1 - gamma) > 0")
    if not 0.0 <= lam <= 1.0:
        raise DomainError("weight lam must lie in [0, 1]")
    kappa = (1.0 - gamma - alpha) / (1.0 - gamma)
    q = r + (mu - r) ** 2 / (2.0 * gamma * sigma * sigma)
    e1 = 1.0 / (alpha - 1.0)
    ea = alpha / (alpha - 1.0)

    def cons_coeff(th1, th2):
        mix = lam * th1 + (1.0 - lam) * th2
        mixk = lam * th1 ** kappa + (1.0 - lam) * th2 ** kappa
        return mix ** e1 / mixk ** e1

    def rhs(s, th):
        th1, th2 = th
        if th1 <= 0.0 or th2 <= 0.0:
            raise PositivityError(
                f"theta left the positive band at t={s:.6g}: ({th1:.3g}, {th2:.3g})")
        try:
            mix = lam * th1 + (1.0 - lam) * th2
            mixk = lam * th1 ** kappa + (1.0 - lam) * th2 ** kappa
            cons = mix ** e1 / mixk ** e1
            bump = mix ** ea / mixk ** ea
        except (OverflowError, ZeroDivisionError):
            # float powers raise where numpy scalars give inf; a non-finite
            # derivative makes the driver stop with BlowUpError as before
            return [math.nan, math.nan]
        d1 = -((1.0 - gamma) * th1 * (q - cons) - (1.0 - gamma) * rho1 * th1 / alpha
               + (1.0 - gamma) / alpha * th1 ** kappa * bump)
        d2 = -((1.0 - gamma) * th2 * (q - cons) - (1.0 - gamma) * rho2 * th2 / alpha
               + (1.0 - gamma) / alpha * th2 ** kappa * bump)
        return [d1, d2]

    grid, out = rk4_backward(rhs, np.array([1.0, 1.0]), T, steps)
    th1, th2 = out[:, 0], out[:, 1]
    if np.any(th1 <= 0.0) or np.any(th2 <= 0.0):
        raise PositivityError("theta non-positive at a grid node")
    cons = cons_coeff(th1, th2)
    return PlannerSolution(
        s=grid, theta1=th1, theta2=th2, consumption_coeff=cons,
        investment_coeff=(mu - r) / (gamma * sigma * sigma),
        params={"r": r, "mu": mu, "sigma": sigma, "gamma": gamma, "alpha": alpha,
                "rho1": rho1, "rho2": rho2, "lam": lam, "T": T})


@dataclass
class StackelbergResult:
    T: float
    equilibrium_value: float
    equilibrium_strategy: StrategyTable
    precommitted: Callable          # u(s; t) announced at anchor t
    reduced_integrand: Callable     # (t, s, u) -> running cost rate
    gap: Callable                   # tau -> sup-norm control gap
    leader_cost: Callable           # t -> closed-form cost of the anchored optimum
    leader_cost_quadrature: Callable


def stackelberg_leader(T=1.0) -> StackelbergResult:
    """Closed forms for the leader benchmark.

    The control announced at anchor t is [ln(2-t) - ln(2-s) - 1]/2 and the
    time-consistent feedback is the constant -1/2; the reduced integrand, the
    equilibrium and the gap are those of ``model.stackelberg``.
    """
    spec = _stackelberg_spec(T=T)

    def precommitted(s, t=0.0):
        return 0.5 * (np.log(2.0 - np.asarray(t, dtype=float)) - np.log(2.0 - np.asarray(s, dtype=float)) - 1.0)

    def leader_cost(t):
        w = 2.0 - t
        return -(1.0 - t - math.log(w) ** 2) / 4.0

    def leader_cost_quadrature(t, panels=4096):
        s = np.linspace(t, T, panels + 1)
        vals = spec.reduced_running(t, s, precommitted(s, t))
        return float(_simpson(vals, s[1] - s[0]))

    return StackelbergResult(
        T=float(T), equilibrium_value=-0.5, equilibrium_strategy=equilibrium_strategy(spec),
        precommitted=precommitted, reduced_integrand=spec.reduced_running, gap=spec.closed_forms.gap,
        leader_cost=leader_cost, leader_cost_quadrature=leader_cost_quadrature)


def _simpson(vals, h):
    """Composite Simpson along the last axis; each sum reduces a contiguous row
    in index order, so a batch of rows gives the same values as one at a time."""
    n = vals.shape[-1] - 1
    if n % 2 != 0:
        raise DomainError("composite Simpson needs an even panel count")
    return (h / 3.0) * (vals[..., 0] + vals[..., -1] + 4.0 * np.sum(vals[..., 1:-1:2], axis=-1)
                        + 2.0 * np.sum(vals[..., 2:-1:2], axis=-1))
