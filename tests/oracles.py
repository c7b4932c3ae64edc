"""Reference computations the tests check the library against.

Each takes a route that no subcommand takes, so it lives with the tests:

- ``kernel_solve_linear`` solves the fully linear problem by quadrature of the
  Gaussian kernel, against the finite-difference stepping of ``pde``;
- ``quotient_mc`` takes one Monte Carlo spike quotient from two separate cost
  evaluations, against the batched spike block of ``mc.verify_equilibrium``;
- ``planner_reference`` integrates the planner system with its stage
  derivative written term by term, every power and factor formed where it is
  used, against ``riccati.solve_planner``, whose stages form each once;
- ``NUMPY_DRIFTS`` holds the drifts of the deterministic families with each
  argument wrapped in numpy, against the built-in drifts, which compute on
  floats.
"""

import math

import numpy as np

from fbcontrol import mc, riccati
from fbcontrol.errors import DegeneracyError
from fbcontrol.model import heat_kernel, require_scalar_y
from fbcontrol.pde import FieldTheta, GridSpec, _dx_rows

_trapz = getattr(np, "trapezoid", None) or np.trapz

NUMPY_DRIFTS = {
    "ex31": lambda s, x, u: 0.0 * np.asarray(x, dtype=float),
    "stackelberg": lambda s, x, u: np.asarray(u, dtype=float) + 0.0 * np.asarray(x, dtype=float),
}

# kernel_solve_linear's Simpson panels, its sweeps at most, and the change that stops them
_KERNEL_PANELS, _KERNEL_SWEEPS, _KERNEL_TOL = 2048, 20, 1e-12


def kernel_solve_linear(spec, grid: GridSpec):
    """Volterra-form solve of the fully linear problem via the Gaussian kernel.

    Valid for constant diffusion and coefficients independent of the field
    (read at u = 0); used to validate the finite-difference stepping.
    Quadrature is composite Simpson on a mu grid padded by 8 kernel standard
    deviations sqrt(2 a T) beyond the target domain, outside of which the
    kernel mass is at most erfc(8/sqrt(2)), about 1.2e-15, for every target node.
    """
    require_scalar_y(spec)
    xs, times = grid.xs, grid.times
    sig0 = float(np.asarray(spec.diffusion(0.0, xs[xs.size // 2], 0.0)))
    a = 0.5 * sig0 * sig0
    if not a > 0:                       # NaN fails too
        raise DegeneracyError("kernel route needs strictly positive diffusion")
    pad = 8.0 * math.sqrt(2.0 * a * grid.T)
    mu = np.linspace(grid.x_lo - pad, grid.x_hi + pad, _KERNEL_PANELS + 1)
    dmu = mu[1] - mu[0]
    wts = np.ones(_KERNEL_PANELS + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    wts *= dmu / 3.0
    h_mu = np.asarray(spec.terminal(mu), dtype=float)

    def kernel_matrix(s, r):
        # rows: target x, cols: quadrature mu
        return heat_kernel(lambda *_: a, s, xs[:, None], r, mu)

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


def quotient_mc(spec, psi_bar, t, x, cfg, normals, eps, u):
    """CRN difference quotient of the spike (t, eps, u) from state x and its
    stderr: the base and the perturbed cost each from their own
    ``mc._mc_cost_samples`` call on ``normals``."""
    base = mc._mc_cost_samples(spec, psi_bar, t, x, cfg, normals)
    pert = mc.perturbed_strategy(psi_bar, t, eps, u, spec)
    return mc._quotient(base, mc._mc_cost_samples(spec, pert, t, x, cfg, normals), eps)


def planner_reference(r, mu, sigma, gamma, alpha, rho1, rho2, lam, T=1.0, steps=10000):
    """theta1, theta2 and the consumption coefficient of the planner system,
    for parameters that ``riccati.solve_planner`` accepts."""
    kappa = (1.0 - gamma - alpha) / (1.0 - gamma)
    q = r + (mu - r) ** 2 / (2.0 * gamma * sigma * sigma)
    e1 = 1.0 / (alpha - 1.0)
    ea = alpha / (alpha - 1.0)

    def rhs(s, th):
        th1, th2 = th
        if th1 <= 0.0 or th2 <= 0.0:
            raise AssertionError(f"theta left the positive band at t={s}")
        mix = lam * th1 + (1.0 - lam) * th2
        mixk = lam * th1 ** kappa + (1.0 - lam) * th2 ** kappa
        cons = mix ** e1 / mixk ** e1
        bump = mix ** ea / mixk ** ea
        d1 = -((1.0 - gamma) * th1 * (q - cons) - (1.0 - gamma) * rho1 * th1 / alpha
               + (1.0 - gamma) / alpha * th1 ** kappa * bump)
        d2 = -((1.0 - gamma) * th2 * (q - cons) - (1.0 - gamma) * rho2 * th2 / alpha
               + (1.0 - gamma) / alpha * th2 ** kappa * bump)
        return [d1, d2]

    _, out = riccati.rk4_backward(rhs, np.array([1.0, 1.0]), T, steps)
    th1, th2 = out[:, 0], out[:, 1]
    mix = lam * th1 + (1.0 - lam) * th2
    mixk = lam * th1 ** kappa + (1.0 - lam) * th2 ** kappa
    return th1, th2, mix ** e1 / mixk ** e1
