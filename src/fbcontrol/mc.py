"""Path simulation, cost evaluation, spike-perturbation verification, and
cross-checks of the field representation against sampled expectations.

Randomness is counter-based (Philox).  An ensemble's increments come from the
stream keyed (seed, stream tag); path columns come in blocks of 1024, and the
block index sits in the generator's counter, so every (seed, tag, block) draws
from its own counter range and ensembles for different seeds or tags share no
column.  Tags keep the simulations of one run apart: 0 for plain simulations
and cost evaluations, 1 + i for probe time i of ``verify_equilibrium``, and
FK_STREAM + k for sample point k of ``check_feynman_kac``.  Ensembles are
bit-reproducible for a given (seed, config), and common-random-number coupling
across strategies is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BlowUpError, DomainError, EvaluationError, UnsupportedCostClassError
from .model import EXAMPLE_FAMILIES, StrategyTable, family_params, make_spec, require_scalar_y
from .riccati import _simpson, rk4_integrate

BLOCK_PATHS = 1024          # path columns per Philox block
FK_STREAM = 2 ** 32         # first stream tag of check_feynman_kac sample points
_CHUNK_CELLS = 1 << 15      # most state cells (rows x paths) one Euler chunk steps
_PANELS = 2048              # RK4 and Simpson panels of a cost-flow piece and of the closed loop
_MAX_DRAWS = 2 ** 30        # most normals (Euler steps x paths, 8 GiB) one ensemble may draw


@dataclass(frozen=True)
class MCConfig:
    n_paths: int = 10000
    steps_per_unit: int = 100
    seed: int = 0
    antithetic: bool = False
    eps_list: tuple = (0.1, 0.05, 0.025)
    u_list: tuple = (-1.0, -0.5, 0.0, 0.5, 1.0)

    def __post_init__(self):
        if self.n_paths < 2:
            raise DomainError("need at least 2 paths")
        if self.steps_per_unit < 1:
            raise DomainError("need at least 1 step per unit time")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError(f"seed {self.seed} outside [0, 2**64)")
        if len(self.eps_list) == 0:         # all() of no windows would pass
            raise DomainError("the perturbation window list eps_list is empty")
        if not all(e > 0 for e in self.eps_list):          # NaN fails too
            raise DomainError("perturbation windows must be positive")


def path_normals(seed, n_paths, n_steps, antithetic=False, stream=0):
    """Standard normal increments, time-major: shape (n_steps, n_paths).

    Block b of BLOCK_PATHS columns draws an (n_steps, BLOCK_PATHS) array in row
    order from Philox keyed (seed, stream) with b in its counter; the last
    block is cut to n_paths.  A value depends only on (seed, stream, column,
    step), so the draws are prefix-stable in both paths and steps.  With
    antithetic pairing, paths 2k and 2k+1 share base column k with opposite
    signs.
    """
    z = np.empty((n_steps, n_paths))
    key = np.array([seed, stream], dtype=np.uint64)
    even, odd = (z[:, 0::2], z[:, 1::2]) if antithetic else (z, z[:, :0])
    block = np.empty((n_steps, BLOCK_PATHS))
    for b, c0 in enumerate(range(0, even.shape[1], BLOCK_PATHS)):
        gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, b, 0]))
        gen.standard_normal(out=block)
        c1 = min(c0 + BLOCK_PATHS, even.shape[1])
        even[:, c0:c1] = block[:, :c1 - c0]
        c1 = min(c0 + BLOCK_PATHS, odd.shape[1])
        if c1 > c0:
            np.negative(block[:, :c1 - c0], out=odd[:, c0:c1])
    return z


@dataclass
class PathEnsemble:
    times: np.ndarray            # times of the stored rows
    paths_tn: np.ndarray         # time-major, shape (len(times), n_paths)
    controls_tn: Optional[np.ndarray] = None     # always None: controls are not stored

    def state_at(self, t):
        j = int(np.argmin(np.abs(self.times - t)))
        return self.paths_tn[j]


def _time_grid(t0, T, cfg):
    """Euler grid on [t0, T] at cfg.steps_per_unit; returns (times, dt).  A grid
    whose increments (steps x cfg.n_paths) exceed _MAX_DRAWS is a DomainError."""
    steps = (T - t0) * cfg.steps_per_unit
    if not steps * cfg.n_paths <= _MAX_DRAWS:
        raise DomainError(f"the Euler grid on [{t0}, {T}] at {cfg.steps_per_unit} steps per "
                          f"unit and {cfg.n_paths} paths would draw more than {_MAX_DRAWS} normals")
    n_steps = max(1, int(round(steps)))
    dt = (T - t0) / n_steps
    return t0 + dt * np.arange(n_steps + 1), dt


def _natural(strategy):
    """How the steppers read a strategy: a StrategyTable through ``clamped``,
    which keeps a control that ignores x a float, and any other callable as
    it is."""
    return strategy.clamped if isinstance(strategy, StrategyTable) else strategy


def _euler_steps(spec, control, x, times, dt, normals, visit=None):
    """Euler-Maruyama from the state block x along times; returns X_T.

    Paths run along the last axis of x; the increments normals[k] are shared
    by (broadcast over) any leading axes.  The block steps in column chunks of
    at most _CHUNK_CELLS cells, each chunk through all its steps before the
    next starts, so that a chunk's state and temporaries stay in cache; the
    coefficients and the control must therefore act elementwise.  The control
    is read through ``_natural`` and, like the drift and the diffusion, is
    never broadcast to the chunk: a value that ignores x stays a scalar, and
    an x-free noise term sigma sqrt(dt) z is formed once per path.  After step
    k of a chunk, visit(k, cols, x_k, u_k, x_{k+1}) sees that chunk's states
    and controls, cols being its column slice, u_k at its own shape; nothing
    else is kept.

    A non-finite state raises BlowUpError naming what whole-block stepping
    names: the earliest bad step, and at it the path of the first non-finite
    entry in row-major order.
    """
    n_steps = times.size - 1
    sqdt = math.sqrt(dt)
    control = _natural(control)
    width = max(1, _CHUNK_CELLS // math.prod(x.shape[:-1]))
    xt = np.empty(x.shape)
    bad = None                  # (step, row, path) of the earliest blow-up so far
    for c0 in range(0, x.shape[-1], width):
        cols = slice(c0, c0 + width)
        xc, z = x[..., cols], normals[:, cols]
        for k in range(n_steps if bad is None else bad[0] + 1):
            s = times[k]
            u = control(s, xc)
            # x + b dt + (sig sqdt) z, in place where a term has the chunk's shape
            x_next = np.asarray(spec.drift(s, xc, u), dtype=float) * dt
            if x_next.shape == xc.shape:
                x_next += xc
            else:
                x_next = xc + x_next
            noise = np.asarray(spec.diffusion(s, xc, u), dtype=float) * sqdt
            if noise.shape == xc.shape:
                noise *= z[k]
            else:
                noise = noise * z[k]
            x_next += noise
            if not np.isfinite(x_next).all():
                row, col = divmod(int(np.argmax(~np.isfinite(x_next))), x_next.shape[-1])
                hit = (k, row, c0 + col)
                bad = min(bad, hit) if bad else hit
                break
            if visit is not None:
                visit(k, cols, xc, u, x_next)
            xc = x_next
            del u, noise        # freed before the next step allocates its own
        xt[..., cols] = xc
    if bad is not None:
        raise BlowUpError(times[bad[0] + 1], f"path {bad[2]}")
    return xt


def simulate_forward(spec, strategy, t0, x0, cfg: MCConfig, keep_times=None) -> PathEnsemble:
    """Euler-Maruyama under a feedback strategy on [t0, T].

    The ensemble stores every grid row, or with ``keep_times`` only the rows
    nearest those times (``state_at`` of each of them is unchanged); stepping
    then stops at the last kept row, and only its steps' increments are drawn.
    An empty ``keep_times`` is refused.
    """
    if not 0.0 <= t0 < spec.horizon + 1e-12:
        raise DomainError("simulation window outside the horizon")
    if keep_times is not None and np.size(keep_times) == 0:
        raise DomainError("keep_times is empty")
    times, dt = _time_grid(t0, spec.horizon, cfg)
    if keep_times is None:
        rows = np.arange(times.size)
    else:
        rows = np.unique([int(np.argmin(np.abs(times - t))) for t in keep_times])
    n_steps = int(rows[-1])
    normals = path_normals(cfg.seed, cfg.n_paths, n_steps, cfg.antithetic)
    slot = {int(j): i for i, j in enumerate(rows)}
    x = np.full(normals.shape[1], x0, dtype=float)
    X = np.empty((rows.size, x.size))
    if 0 in slot:
        X[slot[0]] = x

    def record(k, cols, xk, u, x_next):
        if k + 1 in slot:
            X[slot[k + 1], cols] = x_next

    _euler_steps(spec, strategy, x, times[:n_steps + 1], dt, normals, visit=record)
    return PathEnsemble(times=times[rows], paths_tn=X)


class PerturbedStrategy(StrategyTable):
    """Base strategy overridden by a constant control on [t, t + eps).

    The window's control is clipped to U; outside the window the base table,
    which clamps, is followed as it is.
    """

    def __init__(self, base, t, eps, u):
        self.outside = base
        self.window = (float(t), float(t) + float(eps))
        self.u = float(u)
        super().__init__(base.u_lo, base.u_hi, fn=lambda s, x: self.u)

    def clamped(self, s, x):
        if self.window[0] <= s < self.window[1]:
            return super().clamped(s, x)
        return _natural(self.outside)(s, x)


def perturbed_strategy(psi_bar, t, eps, u, spec):
    _spike_columns(spec, psi_bar, t, [(eps, u)])      # the checks of a spike
    return PerturbedStrategy(psi_bar, t, eps, u)


def _spike_columns(spec, psi_bar, t, spikes):
    """The spikes (eps, u) at t as two columns: window ends t + eps, and window
    controls u clipped to psi_bar's bounds as the perturbed strategy clips a
    float.  Each window must lie in spec's horizon and each u in its U."""
    for eps, u in spikes:
        if not eps > 0:
            raise DomainError("window width must be positive")
        if not (t >= 0 and t + eps <= spec.horizon + 1e-12):
            raise DomainError("perturbation window outside the horizon")
        if not (spec.u_lo <= u <= spec.u_hi):
            raise DomainError("perturbation control outside the control interval")
    return (np.array([float(t) + float(eps) for eps, _ in spikes]),
            np.array([min(max(float(u) + 0.0, psi_bar.u_lo), psi_bar.u_hi) for _, u in spikes]))


# ---------------------------------------------------------------------------
# Cost evaluation
# ---------------------------------------------------------------------------

def _flow_ode(spec, control, x, s_nodes):
    """RK4 flow of dx/ds = b(s, x, control(s, x)) along the given nodes, for a
    column of initial states x integrated together.

    A one-state column steps on floats: the control and the drift see a float
    state.  A wider column is passed to them as one array per stage; a control
    that ignores x stays a float, and a drift value without the column's
    shape (a scalar, say) is broadcast to it.  Returns (states, controls),
    both shaped (columns, nodes): controls[:, k] is the control at
    (s_nodes[k], states[:, k]), taken from the ``rhs`` call at that node.
    Raises BlowUpError at the first node whose state is not finite.
    """
    xs = np.empty((x.size, s_nodes.size))
    us = np.empty((x.size, s_nodes.size))
    node_controls = iter(us.T)
    drift = spec.drift
    control = _natural(control)
    u = None                    # the control of the latest stage
    if x.size == 1:
        def rhs(s, y):
            nonlocal u
            xx = y[0]
            u = float(control(s, xx))
            return [float(drift(s, xx, u))]
    else:
        def rhs(s, y):
            nonlocal u
            xx = np.array(y)
            u = control(s, xx)
            b = drift(s, xx, u)
            if getattr(b, "shape", None) != xx.shape:
                b = np.broadcast_to(np.asarray(b, dtype=float), xx.shape)
            return b.tolist()

    def node():
        next(node_controls)[...] = u

    rk4_integrate(rhs, x.tolist(), s_nodes.tolist(), np.diff(s_nodes).tolist(), xs.T, node)
    return xs, us


def _breaks(t, T, window):
    """Piece edges of the cost quadrature on [t, T]: the window edges inside it."""
    breaks = {t, T}
    for edge in window or ():
        if t < edge < T:
            breaks.add(edge)
    return sorted(breaks)


def _cost_quadrature(spec, t, x, pieces):
    """Composite Simpson on the reduced running integrand along the ODE flow.

    ``pieces`` lists (s0, s1, control) in time order; each piece is integrated
    for the whole column of initial states x at once.  Returns the cost per
    column and the number of flows integrated.  Raises EvaluationError at the
    first node where a control or the integrand is not finite.
    """
    total = np.zeros(x.size)
    flows = 0
    for s0, s1, control in pieces:
        if s1 - s0 < 1e-15:
            continue
        # pieces are treated closed-from-the-left: clamp queries below s1 so a
        # half-open window keeps its own control on the whole piece
        s_in = np.nextafter(s1, s0)
        nodes = np.linspace(s0, s1, _PANELS + 1)
        read = _natural(control)
        flow, u = _flow_ode(spec, lambda s, xx: read(min(s, s_in), xx), x, nodes)
        flows += 1
        vals = np.asarray(spec.reduced_running(t, nodes, u), dtype=float)
        # a flow whose drift ignores the control stays finite under a NaN one
        for name, arr in (("control", u), ("reduced_running", vals)):
            ok = np.isfinite(np.broadcast_to(arr, u.shape)).all(axis=0)
            if not ok.all():
                raise EvaluationError(name, f"s={nodes[ok.argmin()]:.6g}")
        total = total + _simpson(vals, nodes[1] - nodes[0])
        x = flow[:, -1]
    return total, flows


def _deterministic_cost(spec, strategy, t, x):
    """Quadrature cost of one strategy from (t, x); returns (cost, flows).

    Integration is split at perturbation-window edges so each Simpson piece
    sees a smooth integrand.
    """
    breaks = _breaks(t, spec.horizon, getattr(strategy, "window", None))
    total, flows = _cost_quadrature(spec, t, np.array([float(x)]),
                                    [(s0, s1, strategy) for s0, s1 in zip(breaks[:-1], breaks[1:])])
    return total[0], flows


def _spike_costs(spec, psi_bar, t, x, eps, u_list):
    """Quadrature costs of every spike perturbation (t, eps, u), u in u_list,
    from one column flow; returns (costs, flows).

    Each cost equals _deterministic_cost of perturbed_strategy(psi_bar, t, eps,
    u): the same pieces, the window under its clipped constant control and the
    rest under psi_bar, which every perturbation follows outside its window.
    """
    if not u_list:
        return np.empty(0), 0
    ends, u_win = _spike_columns(spec, psi_bar, t, [(eps, u) for u in u_list])
    breaks = _breaks(t, spec.horizon, ends[:1].tolist())
    # the window control is shaped like the column's state, a float for one control
    if u_win.size == 1:
        u_win = u_win.item()
    pieces = [(s0, s1, (lambda s, xx: u_win) if s0 < ends[0] else psi_bar)
              for s0, s1 in zip(breaks[:-1], breaks[1:])]
    return _cost_quadrature(spec, t, np.full(len(u_list), float(x)), pieces)


def _cost_paths(spec, control, t, x, cfg, normals):
    """Simulate from (t, x) and return X_T and each path's cost part (running
    integral plus terminal cost), both shaped like the state block x.

    Only the current state and the running sum are kept, never the paths.
    """
    mc = spec.mc_cost
    times, dt = _time_grid(t, spec.horizon, cfg)
    run = None if mc.running is None else np.zeros(x.shape)

    def accumulate(k, cols, xk, uk, _):
        run[..., cols] += np.asarray(mc.running(times[k], xk, uk), dtype=float)

    xt = _euler_steps(spec, control, x, times, dt, normals,
                      visit=None if mc.running is None else accumulate)
    part = np.zeros(x.shape)
    if run is not None:
        part = part + run * dt
    if mc.terminal is not None:
        part = part + np.asarray(mc.terminal(xt), dtype=float)
    return xt, part


def _cost_moments(mc, xt, part):
    """Estimate, stderr and per-path influence values of one ensemble's cost."""
    m1 = float(np.mean(xt))
    est = float(np.mean(part))
    phi = part
    if mc.outer is not None:
        est += float(mc.outer(m1))
        gp = float(mc.outer_prime(m1)) if mc.outer_prime is not None else 0.0
        phi = phi + gp * xt
    se = float(np.std(phi, ddof=1) / math.sqrt(phi.size))
    return est, se, phi


def _mc_cost_samples(spec, strategy, t, x, cfg, normals):
    """Conditional-expectation cost with per-path influence values."""
    xt, part = _cost_paths(spec, strategy, t, np.full(normals.shape[1], float(x)),
                           cfg, normals)
    return _cost_moments(spec.mc_cost, xt, part)


_GENERAL_COST = ("general recursive costs are not simulated; use the perturbation-field "
                 "route (pde.solve_perturbation)")


def evaluate_cost(spec, strategy, t, x, cfg: MCConfig):
    """Recursive cost at (t, x) under a strategy; returns (estimate, stderr).

    Deterministic problems integrate the reduced running integrand by
    quadrature (stderr 0); conditional-expectation problems evaluate the outer
    function on simulated moments.  Anything else is directed to the
    perturbation-field route.
    """
    if spec.cost_class == "deterministic":
        return _deterministic_cost(spec, strategy, t, x)[0], 0.0
    if spec.cost_class == "bolza_condexp":
        n_steps = _time_grid(t, spec.horizon, cfg)[0].size - 1
        normals = path_normals(cfg.seed, cfg.n_paths, n_steps, cfg.antithetic)
        est, se, _ = _mc_cost_samples(spec, strategy, t, x, cfg, normals)
        return est, se
    raise UnsupportedCostClassError(_GENERAL_COST)


# ---------------------------------------------------------------------------
# Spike-perturbation verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    rows: list                    # dicts: t, eps, u, quotient, stderr
    details: list                 # per evaluation state
    tol_eq: float
    verdict: bool
    min_quotient_smallest_eps: float
    work: int                     # RK4 flows (deterministic) or simulated ensembles


def _quotient(base, pert, eps):
    """CRN difference quotient of two cost samples and its stderr."""
    diff = pert[2] - base[2]
    q = (pert[0] - base[0]) / eps
    se = float(np.std(diff, ddof=1) / math.sqrt(diff.size)) / eps
    return q, se


def _columns_control(psi_bar, ends, controls):
    """Control of a (rows, paths) state block whose row r takes the constant
    controls[r] while s < ends[r] (its spike window) and follows psi_bar after
    it; the rows outside their windows are evaluated by psi_bar in one call.
    Values come at their natural shape: psi_bar's as ``_natural`` reads it
    while no window is open, and otherwise a (rows, 1) column when psi_bar's
    value ignores x."""
    read = _natural(psi_bar)

    def control(s, x):
        open_ = s < ends
        if not open_.any():
            return read(s, x)
        rest = read(s, x[~open_])
        u = np.empty(x.shape if np.ndim(rest) else (x.shape[0], 1))
        u[open_] = controls[open_, None]
        u[~open_] = rest
        return u
    return control


def _spike_quotients_flow(spec, psi_bar, t, x, cfg):
    """Quadrature quotients of every spike (t, eps, u), eps in cfg.eps_list and
    u in cfg.u_list, from one state; returns ([((eps, u), (q, 0.0))], flows)."""
    base, work = _deterministic_cost(spec, psi_bar, t, x)
    quotients = []
    for eps in cfg.eps_list:
        costs, flows = _spike_costs(spec, psi_bar, t, x, eps, cfg.u_list)
        work += flows
        quotients += [((eps, u), (q, 0.0))
                      for u, q in zip(cfg.u_list, ((costs - base) / eps).tolist())]
    return quotients, work


def _spike_quotients_mc(spec, psi_bar, t, x, cfg, normals):
    """CRN quotients of every spike (t, eps, u), eps in cfg.eps_list and u in
    cfg.u_list, from one state; returns ([((eps, u), (q, se))], ensembles).

    The base ensemble and all perturbed ones step together as the rows of one
    (ensembles, paths) block on the shared increments.  Each quotient equals
    ``_quotient`` of two ``_mc_cost_samples`` calls, under psi_bar and under
    ``perturbed_strategy``, on the same increments, provided the strategy and
    the coefficients act elementwise.
    """
    spikes = [(eps, u) for eps in cfg.eps_list for u in cfg.u_list]
    ends, controls = _spike_columns(spec, psi_bar, t, spikes)
    # row 0 is the base ensemble, whose window [t, t) is empty
    ends, controls = np.insert(ends, 0, t), np.insert(controls, 0, 0.0)
    xt, part = _cost_paths(spec, _columns_control(psi_bar, ends, controls), t,
                           np.full((ends.size, normals.shape[1]), float(x)), cfg, normals)
    samples = [_cost_moments(spec.mc_cost, xt[g], part[g]) for g in range(ends.size)]
    quotients = [(spike, _quotient(samples[0], pert, spike[0]))
                 for spike, pert in zip(spikes, samples[1:])]
    return quotients, len(samples)


def _nan_first(q):
    """Sort key under which a NaN quotient is the least, so that ``min``
    finds it wherever it stands."""
    return not math.isnan(q), q


def verify_equilibrium(spec, psi_bar, t_list, cfg: MCConfig, tol_eq=0.05) -> VerifyReport:
    """Difference-quotient test of local optimality under spike perturbations.

    The closed-loop state is run from (0, spec.x0) up to the last probe time;
    at each probe time the flow's state (deterministic costs, by quadrature)
    or the realized mean and 25/50/75% path states (on shared increments)
    serve as evaluation points.  The reported quotient per (t, eps, u) is the
    minimum over evaluation states, NaN if any state's is, and the verdict
    passes iff every smallest-window minimum clears -tol_eq: a NaN fails, and
    a +inf (a spike whose cost is infinite) passes.  A spec of the general
    cost class, an empty list of probe times or one that is negative or not
    finite, and a non-finite tolerance are refused before any simulation.
    """
    if spec.cost_class == "general":
        raise UnsupportedCostClassError(_GENERAL_COST)
    if not math.isfinite(tol_eq):
        raise DomainError(f"tolerance {tol_eq} is not finite")
    if np.size(t_list) == 0:
        raise DomainError("no probe times")
    T = spec.horizon
    for t in t_list:
        if not 0.0 <= t < math.inf:
            raise DomainError(f"probe time {t} is not a finite number >= 0")
        if not t + max(cfg.eps_list) <= T + 1e-12:            # NaN fails too
            raise DomainError(f"probe time {t} leaves no room for the window")
    deterministic = spec.cost_class == "deterministic"
    if deterministic:
        # the flow runs through the first node past the last probe time only
        nodes = np.linspace(0.0, T, _PANELS + 1)
        nodes = nodes[:np.searchsorted(nodes, max(t_list), side="right") + 1]
        flow = _flow_ode(spec, psi_bar, np.array([float(spec.x0)]), nodes)[0][0]
    else:
        closed_loop = simulate_forward(spec, psi_bar, 0.0, spec.x0, cfg, keep_times=t_list)
    rows, details, work = [], [], 1
    for t_idx, t in enumerate(t_list):
        if deterministic:
            states = [("flow", float(np.interp(t, nodes, flow)))]
        else:
            xt = closed_loop.state_at(t)
            states = [("mean", float(np.mean(xt)))] + [
                (f"q{q}", float(np.quantile(xt, q / 100))) for q in (25, 50, 75)]
            seen = set()
            states = [(lbl, v) for lbl, v in states if not (v in seen or seen.add(v))]
            z = path_normals(cfg.seed, cfg.n_paths, _time_grid(t, T, cfg)[0].size - 1,
                             cfg.antithetic, stream=1 + t_idx)
        per_spike = {}
        for label, x_e in states:
            quotients, n = (_spike_quotients_flow(spec, psi_bar, t, x_e, cfg) if deterministic
                            else _spike_quotients_mc(spec, psi_bar, t, x_e, cfg, z))
            work += n
            for (eps, u), (q, se) in quotients:
                per_spike.setdefault((eps, u), []).append((q, se))
                details.append({"t": t, "state": label, "x": x_e, "eps": eps,
                                "u": u, "quotient": q, "stderr": se})
        for (eps, u), qs in per_spike.items():
            qmin, se = min(qs, key=lambda p: _nan_first(p[0]))
            rows.append({"t": t, "eps": eps, "u": u, "quotient": qmin, "stderr": se})
    eps_min = min(cfg.eps_list)
    small = [r["quotient"] for r in rows if abs(r["eps"] - eps_min) < 1e-15]
    min_q = min(small, key=_nan_first) if small else math.nan
    verdict = bool(small) and all(q >= -tol_eq for q in small)
    return VerifyReport(rows=rows, details=details, tol_eq=tol_eq, verdict=verdict,
                        min_quotient_smallest_eps=min_q, work=work)


# ---------------------------------------------------------------------------
# Pre-committed controls and inconsistency gaps
# ---------------------------------------------------------------------------

def demonstrate_inconsistency(example_id, cfg: MCConfig = None, params=None):
    """Gap between the control committed at time 0 and the one re-derived at tau.

    ``example_id`` is a family name (or an alias in ``EXAMPLE_FAMILIES``);
    ``params`` holds the family's parameters and optionally ``taus``, times in
    [0, T].  A
    family with an exact ``closed_forms.gap`` is tabulated; otherwise the state
    is simulated under the committed control and the per-path gap averaged,
    with the fraction of paths whose re-derived control departs.
    """
    cfg = cfg or MCConfig(n_paths=20000, seed=123)
    params = family_params(params)
    given = params.pop("taus", np.linspace(0.1, 0.9, 9))
    try:
        taus = np.asarray(given, dtype=float)
    except (TypeError, ValueError):
        taus = None
    if taus is None or taus.ndim != 1 or not np.isfinite(taus).all():
        raise DomainError(f"taus must be a list of finite numbers, got {given!r}")
    if taus.size == 0:
        raise DomainError("taus is empty")
    spec = make_spec(EXAMPLE_FAMILIES.get(example_id, example_id), params)
    if not np.all((taus >= 0.0) & (taus <= spec.horizon)):
        raise DomainError(f"taus must lie in [0, T] = [0, {spec.horizon}], got {given!r}")
    cf = spec.closed_forms
    if cf.gap is not None:
        rows = [{"tau": float(tau), "gap": float(cf.gap(float(tau)))} for tau in taus]
        return {"rows": rows, "exact": True}
    if cf.committed is None or cf.path_gap is None:
        raise DomainError(f"family '{spec.name}' has no closed-form inconsistency gap")
    committed = StrategyTable(spec.u_lo, spec.u_hi, fn=cf.committed)
    ens = simulate_forward(spec, committed, 0.0, spec.x0, cfg, keep_times=taus)
    scale = max(abs(cf.gap_scale), 1e-30)
    rows = []
    for tau in taus:
        gap_paths = cf.path_gap(float(tau), ens.state_at(tau))
        rows.append({"tau": float(tau), "gap": float(np.mean(gap_paths)),
                     "fraction_gt_1e-3": float(np.mean(gap_paths / scale > 1e-3))})
    return {"rows": rows, "exact": False}


# ---------------------------------------------------------------------------
# Representation cross-check
# ---------------------------------------------------------------------------

def _probe_generator_independence(spec):
    y1, y2 = 0.3, -1.1
    g1 = np.asarray(spec.generator(0.1, 0.2, float(np.clip(0.5, spec.u_lo, spec.u_hi)), y1, y1))
    g2 = np.asarray(spec.generator(0.1, 0.2, float(np.clip(0.5, spec.u_lo, spec.u_hi)), y2, y2))
    if not np.allclose(g1, g2, atol=1e-12):
        raise UnsupportedCostClassError(
            "representation check needs a generator independent of (y, z)")
    c1 = float(spec.cost_generator(0.05, 0.2, 0.1, 0.1, 0.0, y1, y1, 0.4, 0.4))
    c2 = float(spec.cost_generator(0.05, 0.2, 0.1, 0.1, 0.0, y1, y1, -2.0, 3.0))
    if abs(c1 - c2) > 1e-12:
        raise UnsupportedCostClassError(
            "representation check needs a cost generator independent of (y0, z0)")


def check_feynman_kac(spec, theta, theta0, strategy, sample_points, cfg: MCConfig):
    """Compare field values against sampled conditional expectations.

    At each (r, x): Y(r) = E[h(X_T) + int g ds] against theta(r, x), and the
    anchored cost against the diagonal of the cost field, with z-scores.
    The fields are scalar in Y, so a spec with m != 1 is refused.
    """
    require_scalar_y(spec)
    _probe_generator_independence(spec)
    rows = []
    for pt_idx, (r, x) in enumerate(sample_points):
        if not 0.0 <= r < spec.horizon + 1e-12:
            raise DomainError("sample point outside the horizon")
        times, step = _time_grid(r, spec.horizon, cfg)
        z = path_normals(cfg.seed, cfg.n_paths, times.size - 1, cfg.antithetic,
                         stream=FK_STREAM + pt_idx)
        n_paths = z.shape[1]
        dt = times[1] - times[0]      # quadrature weight; may differ from step in the last bit
        acc = np.zeros(n_paths)
        acc0 = np.zeros(n_paths)
        j = int(np.argmin(np.abs(theta.times - r)))
        i = int(np.argmin(np.abs(theta.xs - x)))
        y_anchor = float(theta.values[j, i])

        def accumulate(k, cols, xk, uk, _):
            # both running sums grow in place; no path or control is kept
            sk = times[k]
            acc[cols] += np.asarray(spec.generator(sk, xk, uk, 0.0, 0.0), dtype=float) * dt
            yk = theta.at(sk, xk)
            acc0[cols] += np.asarray(spec.cost_generator(
                r, sk, x, xk, uk, yk, 0.0 * yk, 0.0, 0.0), dtype=float) * dt

        xt = _euler_steps(spec, strategy, np.full(n_paths, x, dtype=float), times, step, z,
                          visit=accumulate)
        hvals = np.asarray(spec.terminal(xt), dtype=float)
        y_samples = hvals + acc
        y_mc = float(np.mean(y_samples))
        y_se = float(np.std(y_samples, ddof=1) / math.sqrt(n_paths))
        y_field = y_anchor
        h0_vals = np.asarray(spec.cost_terminal(r, x, xt, y_anchor), dtype=float)
        y0_samples = h0_vals + acc0
        y0_mc = float(np.mean(y0_samples))
        y0_se = float(np.std(y0_samples, ddof=1) / math.sqrt(n_paths))
        y0_field = theta0.value(j, j, i, i, y_anchor)
        rows.append({
            "r": float(r), "x": float(x),
            "y_mc": y_mc, "y_field": y_field, "y_se": y_se,
            "z_y": (y_mc - y_field) / max(y_se, 1e-300),
            "y0_mc": y0_mc, "y0_field": y0_field, "y0_se": y0_se,
            "z_y0": (y0_mc - y0_field) / max(y0_se, 1e-300),
        })
    return rows
