import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcontrol import cli, mc, riccati
from fbcontrol.cli import _planner_table, _riccati_table, write_csv
from fbcontrol.errors import BlowUpError, DomainError, PositivityError, SingularityError
from fbcontrol.riccati import (LQSpec, meanvar_closed_form, meanvar_equilibrium,
                               rk4_backward, solve_meanfield_riccati, solve_planner,
                               solve_riccati_lq, stackelberg_leader)
from oracles import planner_reference


def mv_lq(r=0.03, mu=0.08, sigma=0.2, gamma=2.0, T=1.0):
    return LQSpec(A=r, B=mu - r, C=0.0, D=sigma, H=1.0,
                  G1=gamma, G2=-gamma, G3=0.0, g=-1.0, T=T)


# ---------------------------------------------------------------------------
# rk4_backward
# ---------------------------------------------------------------------------

def test_rk4_constant():
    grid, out = rk4_backward(lambda s, y: [0.0 * y[0]], [3.5], 1.0, 64)
    assert np.all(out == 3.5)
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_rk4_exponential_decay():
    # y' + 2 r y = 0, y(T) = gamma  =>  y(t) = gamma e^{2 r (T - t)}
    r, gamma, T = 0.03, 2.0, 1.0
    grid, out = rk4_backward(lambda s, y: [-2.0 * r * y[0]], [gamma], T, 10000)
    ref = gamma * np.exp(2.0 * r * (T - grid))
    assert np.max(np.abs(out[:, 0] - ref) / ref) < 1e-10


def test_rk4_bernoulli():
    # y' = y^2, y(T) = 1  =>  y(t) = 1/(1 + T - t); value 0.5 at t = 0, T = 1
    grid, out = rk4_backward(lambda s, y: [y[0] * y[0]], [1.0], 1.0, 10000)
    assert abs(out[0, 0] - 0.5) / 0.5 < 1e-10


def test_rk4_blowup_detected():
    # y' = -y^2 backward from y(2) = 1 is 1/(t - 1), diverging at t = 1
    with pytest.raises(BlowUpError):
        rk4_backward(lambda s, y: [-y[0] * y[0]], [1.0], 2.0, 4000)


def _rk4_reference(rhs, terminal_value, T, steps):
    """The numpy-array RK4 driver that rk4_backward replaced, kept as the
    reference: the state is an array and each stage goes through np.asarray."""
    y = np.atleast_1d(np.asarray(terminal_value, dtype=float)).copy()
    h = T / steps
    half, sixth = 0.5 * h, h / 6.0
    grid = np.linspace(0.0, T, steps + 1)
    out = np.empty((steps + 1, y.size))
    out[steps] = y
    f = lambda s, y: np.asarray(rhs(s, y.tolist()), dtype=float)
    for k in range(steps, 0, -1):
        s = grid[k]
        k1 = f(s, y)
        k2 = f(s - half, y - half * k1)
        k3 = f(s - half, y - half * k2)
        k4 = f(s - h, y - h * k3)
        y = y - sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise BlowUpError(grid[k - 1])
        out[k - 1] = y
    return grid, out


def _outcome(driver, rhs, y0, T, steps):
    try:
        return driver(rhs, y0, T, steps)
    except BlowUpError as e:
        return str(e)


_coef = st.floats(-3.0, 3.0, allow_subnormal=False)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 16), quadratic=st.booleans(), T=st.floats(0.05, 3.0),
       steps=st.integers(1, 200), data=st.data())
def test_rk4_float_kernel_matches_array_reference(n, quadratic, T, steps, data):
    # random linear (y' = M y + c s) or quadratic (y_i' = a_i y_i y_{i+1} + b_i y_i
    # + c_i s) systems; the float kernel must reproduce the array driver bit for
    # bit, blow-ups included
    vec = lambda: data.draw(st.lists(_coef, min_size=n, max_size=n))
    y0, b, c = vec(), vec(), vec()
    if quadratic:
        a = vec()

        def rhs(s, y):
            return [a[i] * y[i] * y[(i + 1) % n] + b[i] * y[i] + c[i] * s for i in range(n)]
    else:
        M = [vec() for _ in range(n)]

        def rhs(s, y):
            return [sum(m * v for m, v in zip(row, y)) + ci * s for row, ci in zip(M, c)]

    with np.errstate(over="ignore", invalid="ignore"):
        ref = _outcome(_rk4_reference, rhs, y0, T, steps)
    got = _outcome(rk4_backward, rhs, y0, T, steps)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_rk4_rejects_bad_steps():
    with pytest.raises(DomainError):
        rk4_backward(lambda s, y: y, [1.0], 1.0, 0)


def test_rk4_node_hook_follows_each_first_stage():
    # per step: rhs at the node with the node's state, node(), then three more
    # rhs calls; the hook never sees a stage of its own.  At node 0 a last rhs
    # call with the final state precedes the last node()
    steps, log = 40, []

    def rhs(s, y):
        log.append(("rhs", s, list(y)))
        return [-y[0] + s, 0.5 * y[1] * y[0]]

    grid, out = rk4_backward(rhs, [1.0, 2.0], 1.5, steps, lambda: log.append(("node",)))
    assert len(log) == 5 * steps + 2
    assert sum(entry[0] == "rhs" for entry in log) == 4 * steps + 1
    for k in range(steps):
        first, hook, *rest = log[5 * k:5 * k + 5]
        assert hook == ("node",)
        assert first == ("rhs", grid[steps - k], out[steps - k].tolist())
        assert [entry[0] for entry in rest] == ["rhs"] * 3
    assert log[-2:] == [("rhs", 0.0, out[0].tolist()), ("node",)]


def test_rk4_without_a_hook_makes_four_rhs_calls_per_step(monkeypatch):
    # the last node's rhs call exists for the hook only
    steps, calls = 40, []
    rk4 = riccati.rk4_backward

    def counted(rhs, *args, **kwargs):
        def rhs_counted(s, y):
            calls.append(s)
            return rhs(s, y)
        return rk4(rhs_counted, *args, **kwargs)

    counted(lambda s, y: [-y[0], 0.0], [1.0, 2.0], 1.0, steps)
    assert len(calls) == 4 * steps
    calls.clear()
    monkeypatch.setattr(riccati, "rk4_backward", counted)
    solve_planner(0.03, 0.08, 0.2, 0.5, 0.3, 0.05, 0.05, 0.4, steps=steps)
    assert len(calls) == 4 * steps


@pytest.mark.parametrize("bad_call", [1, 4, 5, 23, 160])
def test_rk4_blowup_names_the_first_non_finite_node(bad_call):
    # a NaN derivative at rhs call bad_call spoils the state after its step
    steps, calls, hooks = 40, [], []

    def rhs(s, y):
        calls.append(s)
        return [math.nan if len(calls) == bad_call else -y[0], 0.0]

    with pytest.raises(BlowUpError) as err:
        rk4_backward(rhs, [1.0, 2.0], 1.0, steps, lambda: hooks.append(len(calls)))
    step = (bad_call - 1) // 4
    grid = np.linspace(0.0, 1.0, steps + 1)
    assert err.value.time == grid[steps - step - 1]
    assert len(calls) == 4 * (step + 1) and hooks == list(range(1, 4 * step + 2, 4))


@pytest.mark.parametrize("width", [0, 1, 3])
def test_rk4_rhs_of_another_length_is_refused(width):
    # a derivative with more or fewer components than the state is not cut to fit
    with pytest.raises(ValueError):
        rk4_backward(lambda s, y: [0.0] * width, [1.0, 2.0], 1.0, 4)


def _rk4_list_kernel(rhs, y, nodes, hs, out, node=riccati._no_node):
    """The list-comprehension step loop that the generated one replaced, kept
    as the oracle: the same stages and update, one comprehension per stage,
    with ``node`` called after each first stage and, given a hook, after one
    more rhs call at the last node."""
    isfinite = math.isfinite
    out[0] = y
    i = 0
    for i, s, h in zip(itertools.count(1), nodes, hs):
        half = 0.5 * h
        k1 = rhs(s, y)
        node()
        k2 = rhs(s + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(s + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(s + h, [a + h * b for a, b in zip(y, k3)])
        sixth = h / 6.0
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not all(map(isfinite, y)):
            raise BlowUpError(nodes[i])
        out[i] = y
    if node is not riccati._no_node:
        rhs(nodes[i], y)
        node()


@pytest.mark.parametrize("command", ["lq-riccati", "meanfield-lq", "planner", "meanvar",
                                     "mc-verify ex31"])
def test_generated_kernel_artifacts_match_the_list_kernel(command, tmp_path, monkeypatch,
                                                          capsys):
    # default flags; mc-verify on ex31 runs the deterministic flows of mc
    argv = command.split()[:1]
    if command == "mc-verify ex31":
        (tmp_path / "ex31.json").write_text(json.dumps({"family": "ex31"}))
        argv += ["--config", str(tmp_path / "ex31.json")]

    def outputs(name):
        assert cli.run(argv + ["--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / name / "manifest.json").read_text())["outputs"]

    generated = outputs("generated")
    monkeypatch.setattr(riccati, "rk4_integrate", _rk4_list_kernel)
    monkeypatch.setattr(mc, "rk4_integrate", _rk4_list_kernel)
    assert outputs("oracle") == generated
    capsys.readouterr()


# ---------------------------------------------------------------------------
# solve_riccati_lq
# ---------------------------------------------------------------------------

def test_lq_mean_variance_structure():
    gamma = 2.0
    traj = solve_riccati_lq(mv_lq(gamma=gamma), steps=4000)
    assert np.max(np.abs(traj.phi[1] + gamma)) == 0.0
    assert np.max(np.abs(traj.phi[2])) == 0.0
    assert np.max(np.abs(traj.phi[0] - gamma * traj.phi[5] ** 2)) < 1e-8
    assert np.max(np.abs(traj.psi)) < 1e-8
    assert traj.terminal_residual == 0.0


def _classical_lq_reference(A, B, C, D, Q, R, G1, T, steps):
    """Independent textbook backward Riccati solve (flat loop, no shared code).

    A, D and R may be callables of s; the rest are constants.
    """
    h = T / steps
    phi = G1
    out = np.empty(steps + 1)
    psi_out = np.empty(steps + 1)
    at = lambda c, s: c(s) if callable(c) else c

    def gain(s, ph):
        d = at(D, s)
        return -(d * ph * C + B * ph) / (d * ph * d + at(R, s))

    def deriv(s, ph):
        ps = gain(s, ph)
        return -(2.0 * ph * (at(A, s) + B * ps) + (C + at(D, s) * ps) ** 2 * ph + Q
                 + at(R, s) * ps * ps)

    out[steps] = phi
    psi_out[steps] = gain(T, phi)
    for k in range(steps, 0, -1):
        s = k * h
        k1 = deriv(s, phi)
        k2 = deriv(s - 0.5 * h, phi - 0.5 * h * k1)
        k3 = deriv(s - 0.5 * h, phi - 0.5 * h * k2)
        k4 = deriv(s - h, phi - h * k3)
        phi = phi - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k - 1] = phi
        psi_out[k - 1] = gain(s - h, phi)
    return out, psi_out


def test_lq_reduces_to_classical_riccati():
    rng = np.random.default_rng(23)
    for _ in range(5):
        A, B, C = rng.uniform(-0.8, 0.8, size=3)
        D = rng.uniform(-0.7, 0.7)
        Q = rng.uniform(0.0, 1.0)
        R = rng.uniform(0.5, 2.0)
        G1 = rng.uniform(0.0, 1.5)
        lq = LQSpec(A=A, B=B, C=C, D=D, H=1.0, Q=Q, R=R, G1=G1, G2=0.0, T=1.0)
        traj = solve_riccati_lq(lq, steps=4000)
        ref_phi, ref_psi = _classical_lq_reference(A, B, C, D, Q, R, G1, 1.0, 4000)
        assert np.max(np.abs(traj.phi[0] - ref_phi)) < 1e-8
        assert np.max(np.abs(traj.psi - ref_psi)) < 1e-8


def test_lq_time_varying_coefficients_evaluated_once_per_stage_time():
    calls = {"A": 0, "D": 0, "R": 0}

    def counted(name, fn):
        def wrapped(s):
            calls[name] += 1
            return fn(s)
        return wrapped

    A = lambda s: 0.3 - 0.4 * s
    D = lambda s: 0.5 * math.cos(2.0 * s)
    R = lambda s: 1.0 + 0.5 * s * s
    B, C, Q, G1, steps = 0.6, -0.3, 0.4, 0.8, 4000
    lq = LQSpec(A=counted("A", A), B=B, C=C, D=counted("D", D), H=1.0, Q=Q,
                R=counted("R", R), G1=G1, G2=0.0, T=1.0)
    traj = solve_riccati_lq(lq, steps=steps)
    # RK4 stage times s, s - h/2, s - h, plus the feedback at s = 0
    assert max(calls.values()) <= 3 * steps + 1
    ref_phi, ref_psi = _classical_lq_reference(A, B, C, D, Q, R, G1, 1.0, steps)
    assert np.max(np.abs(traj.phi[0] - ref_phi)) < 1e-8
    assert np.max(np.abs(traj.psi - ref_psi)) < 1e-8


def test_lq_time_varying_singularity_at_first_singular_stage():
    # R(s) = s - 1/2 with D = 0 and phi1 = 0: the gain's denominator is R(s),
    # which first vanishes at the last stage time s - h of the step from 0.51
    steps = 100
    lq = LQSpec(A=lambda s: 0.1 + 0.2 * s, B=1.0, C=0.3, D=0.0, H=1.0,
                R=lambda s: s - 0.5, G1=0.0, T=1.0)
    grid, h = np.linspace(0.0, 1.0, steps + 1), 1.0 / steps
    stages = [st for k in range(steps, 0, -1)
              for st in (grid[k], grid[k] - 0.5 * h, grid[k] - h)]
    expected = next(st for st in stages if abs(st - 0.5) < 1e-12)
    with pytest.raises(SingularityError) as err:
        solve_riccati_lq(lq, steps=steps)
    assert err.value.time == expected


def test_lq_node_feedback_is_the_feedback_recomputed_at_every_node():
    # psi and v at grid nodes 1..steps come from the first RK4 stage; they must
    # be the feedback of the node's own time, coefficients and state, bit for bit
    lq = LQSpec(A=lambda s: 0.3 - 0.4 * s, B=0.6, C=lambda s: -0.3 + 0.1 * s,
                D=lambda s: 0.5 * math.cos(2.0 * s), Ahat=0.2, Bhat=lambda s: 0.1 * s,
                Chat=-0.1, Dhat=0.3, H=1.0, Q=0.4, M=lambda s: 0.2 + s, N=0.1,
                R=lambda s: 1.0 + 0.5 * s * s, G1=0.8, G2=-0.5, G3=0.2, g=-1.0, T=1.0)
    traj = solve_riccati_lq(lq, steps=500)
    coef = riccati._stage_coefficients([getattr(lq, k) for k in riccati._LQ_COEFFICIENTS])
    ref = np.array([riccati._lq_feedback(s, coef(s), traj.phi[:, k].tolist())
                    for k, s in enumerate(traj.s.tolist())])
    assert np.array_equal(traj.psi, ref[:, 0]) and np.array_equal(traj.v, ref[:, 1])


def test_meanfield_node_feedback_is_the_feedback_recomputed_at_every_node():
    A, B, C = (lambda s: 0.2 - s), 1.0, (lambda s: 0.5 * s)
    D, Q, R = 0.3, (lambda s: 0.4 + s * s), 1.0
    grid, phi, phihat, psi = solve_meanfield_riccati(A, B, C, D, Q, R, 1.2, 0.3,
                                                     T=1.0, steps=500)
    ref = [-(D * p * C(s) + B * ph) / (D * p * D + R)
           for s, p, ph in zip(grid.tolist(), phi.tolist(), phihat.tolist())]
    assert np.array_equal(psi, ref)


def test_lq_scalar_closed_form():
    # A=C=Q=0, B=1, D=0, R=1, G1=1: phi1(t) = 1/(T - t + 1)
    lq = LQSpec(A=0.0, B=1.0, C=0.0, D=0.0, H=1.0, R=1.0, G1=1.0, T=1.0)
    traj = solve_riccati_lq(lq, steps=4000)
    ref = 1.0 / (1.0 - traj.s + 1.0)
    assert np.max(np.abs(traj.phi[0] - ref) / ref) < 1e-8


def test_lq_singularity_raises():
    lq = LQSpec(A=0.0, B=1.0, C=0.0, D=0.0, H=1.0, R=0.0, G1=0.0, T=1.0)
    with pytest.raises(SingularityError):
        solve_riccati_lq(lq, steps=100)


def test_lq_time_varying_coefficients():
    # A(s) time-varying with B=D=0 decouples: phi1' = -2A(s)phi1
    lq = LQSpec(A=lambda s: 0.1 + 0.2 * s, B=0.0, C=0.0, D=0.0, H=1.0,
                R=1.0, G1=1.0, T=1.0)
    traj = solve_riccati_lq(lq, steps=4000)
    integral = lambda t: 0.1 * (1.0 - t) + 0.1 * (1.0 - t * t)
    ref = np.exp(2.0 * integral(traj.s))
    assert np.max(np.abs(traj.phi[0] - ref) / ref) < 1e-8


# ---------------------------------------------------------------------------
# solve_meanfield_riccati
# ---------------------------------------------------------------------------

def test_meanfield_symmetric_when_g2_zero():
    grid, phi, phihat, psi = solve_meanfield_riccati(0.2, 1.0, 0.5, 0.3, 0.4, 1.0,
                                                     1.2, 0.0, T=1.0, steps=2000)
    assert np.max(np.abs(phi - phihat)) < 1e-12


def test_meanfield_matches_substitution_route():
    # benchmark data plus random draws: Phi = phi1, Phihat = phi1 + phi6 phi2 phi6
    cases = [dict(A=0.0, B=1.0, C=1.0, D=0.0, Q=0.0, R=2.0, G1=0.0, G2=2.0)]
    rng = np.random.default_rng(31)
    for _ in range(10):
        cases.append(dict(A=rng.uniform(-0.8, 0.8), B=rng.uniform(-0.8, 0.8),
                          C=rng.uniform(-0.8, 0.8), D=rng.uniform(-0.7, 0.7),
                          Q=rng.uniform(0.0, 1.0), R=rng.uniform(0.5, 2.0),
                          G1=rng.uniform(0.0, 1.5), G2=rng.uniform(0.0, 1.5)))
    for c in cases:
        grid, phi, phihat, psi = solve_meanfield_riccati(T=1.0, steps=4000, **c)
        lq = LQSpec(A=c["A"], B=c["B"], C=c["C"], D=c["D"], H=1.0, Q=c["Q"],
                    R=c["R"], G1=c["G1"], G2=c["G2"], T=1.0)
        traj = solve_riccati_lq(lq, steps=4000)
        sub_phi = traj.phi[0]
        sub_phihat = traj.phi[0] + traj.phi[5] * traj.phi[1] * traj.phi[5]
        assert np.max(np.abs(phi - sub_phi)) < 1e-8
        assert np.max(np.abs(phihat - sub_phihat)) < 1e-8


# ---------------------------------------------------------------------------
# meanvar_equilibrium
# ---------------------------------------------------------------------------

def test_meanvar_closed_forms():
    res = meanvar_equilibrium(0.03, 0.08, 0.2, 2.0, 1.0, steps=10000)
    assert res.max_rel_err_phi1 < 1e-8
    assert res.max_rel_err_v < 1e-8
    assert abs(res.v[0] - 0.625 * math.exp(-0.03)) < 1e-7
    assert abs(res.phi1[0] - 2.0 * math.exp(0.06)) < 1e-7


def test_meanvar_constant_when_riskless_rate_zero():
    res = meanvar_equilibrium(0.0, 0.08, 0.2, 2.0, 1.0, steps=2000)
    assert np.max(np.abs(res.v - res.v[0])) < 1e-12
    assert abs(res.v[0] - 0.08 / (2.0 * 0.04)) < 1e-12


def test_meanvar_node_control_is_recomputed_at_every_node():
    r, mu, sigma, gamma = 0.03, 0.08, 0.2, 2.0
    res = meanvar_equilibrium(r, mu, sigma, gamma, 1.0, steps=500)
    excess, s2 = mu - r, sigma * sigma
    ref = [-excess * (p4 - gamma * p6 * p7) / (s2 * p1)
           for p1, p4, p6, p7 in zip(*(a.tolist() for a in (res.phi1, res.phi4,
                                                          res.phi6, res.phi7)))]
    assert np.array_equal(res.v, ref)


def test_meanvar_variants_are_reported_not_used():
    res = meanvar_equilibrium(0.03, 0.08, 0.2, 2.0, 1.0, steps=1000)
    # the rejected transcriptions disagree with the trajectory
    assert abs(float(res.variants["phi1_alt"](0.0)) - res.phi1[0]) > 1.0
    assert abs(float(res.variants["vbar_alt"](0.0)) - res.v[0]) > 1e-2


def test_richardson_step_halving():
    # RK4 on a smooth strongly-coupled system: halving the step cuts the
    # deviation from a very fine reference by at least 2^3 * 0.8
    lq = LQSpec(A=2.0, B=1.0, C=1.0, D=0.5, H=1.0, Q=1.0, R=1.0, G1=2.0,
                G2=0.5, T=1.0)
    ref = solve_riccati_lq(lq, steps=100000)

    def dev(steps):
        traj = solve_riccati_lq(lq, steps=steps)
        stride = 100000 // steps
        return float(np.max(np.abs(traj.phi - ref.phi[:, ::stride])))

    d50, d100 = dev(50), dev(100)
    assert d50 > 1e-11  # above the rounding floor, so the ratio is meaningful
    assert d50 / d100 >= 2.0 ** 3 * 0.8


# ---------------------------------------------------------------------------
# solve_planner
# ---------------------------------------------------------------------------

def test_planner_symmetry():
    sol = solve_planner(0.03, 0.08, 0.2, 0.5, 0.3, 0.05, 0.05, 0.4, steps=2000)
    assert np.max(np.abs(sol.theta1 - sol.theta2)) < 1e-12
    assert sol.theta1[-1] == 1.0 and sol.theta2[-1] == 1.0


def test_planner_ordering_random_draws():
    rng = np.random.default_rng(37)
    for _ in range(10):
        gamma = rng.uniform(0.2, 0.9)
        alpha = rng.uniform(0.1, 0.9)
        rhos = np.sort(rng.uniform(0.01, 0.1, size=2))
        rho2, rho1 = rhos  # rho1 >= rho2
        sol = solve_planner(rng.uniform(0.0, 0.05), 0.03 + rng.uniform(0.0, 0.08),
                            rng.uniform(0.15, 0.35), gamma, alpha, rho1, rho2,
                            rng.uniform(0.0, 1.0), steps=2000)
        assert np.all(sol.theta1 <= sol.theta2 + 1e-12)
        assert np.all(sol.theta1 > 0.0) and np.all(sol.theta2 > 0.0)


def _uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# the ranges of perfbench's ode_routes draws (perfbench/workloads.py draw_cases)
@settings(max_examples=25, deadline=None)
@given(r=_uniform(0.0, 0.05), excess=_uniform(0.02, 0.08), sigma=_uniform(0.15, 0.35),
       gamma=_uniform(0.2, 0.9), alpha=_uniform(0.1, 0.9), rhos=st.tuples(
           _uniform(0.01, 0.1), _uniform(0.01, 0.1)), lam=_uniform(0.0, 1.0))
def test_planner_stages_keep_the_bits_of_the_term_by_term_derivative(r, excess, sigma, gamma,
                                                                     alpha, rhos, lam):
    rho2, rho1 = sorted(rhos)
    args = (r, r + excess, sigma, gamma, alpha, rho1, rho2, lam)
    sol = solve_planner(*args, steps=400)
    th1, th2, cons = planner_reference(*args, steps=400)
    assert sol.theta1.tobytes() == th1.tobytes()
    assert sol.theta2.tobytes() == th2.tobytes()
    assert sol.consumption_coeff.tobytes() == cons.tobytes()


def test_planner_merton_reduction():
    # alpha = 1 - gamma with equal discount rates is the one-agent power-utility
    # problem; theta = phi^gamma with phi' + (beta/gamma) phi + 1 = 0
    r, mu, sg, gamma, rho = 0.03, 0.08, 0.2, 0.5, 0.05
    alpha = 1.0 - gamma
    sol = solve_planner(r, mu, sg, gamma, alpha, rho, rho, 0.5, T=1.0, steps=10000)
    q = r + (mu - r) ** 2 / (2.0 * gamma * sg * sg)
    beta = (1.0 - gamma) * q - rho
    k = beta / gamma
    phi = np.exp(k * (1.0 - sol.s)) + (np.exp(k * (1.0 - sol.s)) - 1.0) / k
    ref = phi ** gamma
    assert np.max(np.abs(sol.theta1 - ref) / ref) < 1e-6
    assert abs(sol.investment_coeff - (mu - r) / (gamma * sg * sg)) < 1e-15


def test_planner_parameter_guards():
    with pytest.raises(DomainError):
        solve_planner(0.03, 0.08, 0.2, 1.0, 0.3, 0.05, 0.05, 0.4)
    with pytest.raises(DomainError):
        solve_planner(0.03, 0.08, 0.2, 0.5, -0.3, 0.05, 0.05, 0.4)
    with pytest.raises(DomainError):
        solve_planner(0.03, 0.08, 0.2, 0.5, 0.3, 0.05, 0.05, 1.4)


def test_planner_positivity_guard_fires_when_step_too_coarse():
    # theta is provably positive, so the guard signals numerical failure: a
    # stiff discount rate with a coarse step overshoots below zero
    with pytest.raises(PositivityError, match=r"t=0\.9375"):   # first mid-stage, T - h/2
        solve_planner(0.0, 0.0, 0.2, 0.5, 0.9, 60.0, 60.0, 0.5, T=1.0, steps=8)


@pytest.mark.parametrize("alpha, rho, gamma, error, message", [
    (0.99, 5.0, 0.9, PositivityError,
     "theta left the positive band at t=0.95: (-3.67e+294, 3.72e+294)"),
    (0.999, 20.0, 0.3, PositivityError,
     "theta left the positive band at t=0.975: (1.48e+186, -1.47e+186)"),
    (0.999, -20.0, 0.3, BlowUpError, "blow-up detected at t=0.8"),
    (0.9999, 5.0, 0.5, BlowUpError, "blow-up detected at t=0.95"),
])
def test_planner_out_of_band_errors(alpha, rho, gamma, error, message):
    # alpha near 1 makes the consumption exponents 1/(alpha - 1) huge: the run
    # leaves the positive band, or a float power overflows and the NaN
    # derivative stops the driver; type and message are those of the array driver
    with pytest.raises(error) as info:
        solve_planner(0.03, 0.08, 0.2, gamma, alpha, rho, rho / 2, 0.5, steps=20)
    assert type(info.value) is error and str(info.value) == message


def _rhs_states(monkeypatch):
    """Every state the RK4 driver hands to a solver's rhs, recorded."""
    seen = []
    integrate = riccati.rk4_integrate

    def spy(rhs, y, *args):
        def recorded(s, state):
            seen.append(list(state))
            return rhs(s, state)
        return integrate(recorded, y, *args)

    monkeypatch.setattr(riccati, "rk4_integrate", spy)
    return seen


_NAN_EARLY = lambda s: math.nan if s < 0.5 else 1.0      # noqa: E731


@pytest.mark.parametrize("solver, time", [
    (lambda: solve_riccati_lq(LQSpec(A=0.1, B=1.0, D=0.5, Q=1.0, R=_NAN_EARLY), steps=100), 0.49),
    (lambda: solve_meanfield_riccati(0.1, 1.0, 0.0, 0.5, 1.0, _NAN_EARLY, 1.0, 0.0, steps=100),
     0.49),
    (lambda: solve_planner(0.03, 0.08, 0.2, 0.3, 0.999, -20.0, -10.0, 0.5, steps=20), 0.8),
])
def test_a_nan_that_passes_the_gain_and_band_tests_stops_at_the_finite_state_check(
        solver, time, monkeypatch):
    # abs(den) < SINGULAR_TOL lets the NaN gain of R(0.495) = NaN through, and
    # th1 <= 0.0 the NaN stage state after the planner's overflowing power;
    # the RK4 driver's finite-state check ends that step with BlowUpError
    seen = _rhs_states(monkeypatch)
    with pytest.raises(BlowUpError) as err:
        solver()
    assert err.value.time == time
    # the NaN derivative reached the later stages' states, and rhs took them
    assert any(math.isnan(v) for state in seen for v in state)


def test_meanvar_gain_denominator_is_never_nan(monkeypatch):
    # the parameters are refused when not finite; phi1' = -2 r phi1 then keeps
    # every stage phi1 finite or infinite, so sigma^2 phi1 is never NaN, even
    # in a run whose other functions blow up
    with pytest.raises(DomainError, match="'sigma' must be a finite number"):
        meanvar_equilibrium(0.03, 0.08, math.nan, 2.0)
    seen = _rhs_states(monkeypatch)
    with pytest.raises(BlowUpError):
        meanvar_equilibrium(400.0, 0.08, 0.2, 2.0, steps=10)
    assert any(math.isnan(v) for state in seen for v in state[1:])
    assert not any(math.isnan(state[0]) for state in seen)


# ---------------------------------------------------------------------------
# stackelberg_leader
# ---------------------------------------------------------------------------

def test_stackelberg_closed_forms():
    res = stackelberg_leader()
    assert res.equilibrium_value == -0.5
    assert float(res.precommitted(0.3, 0.3)) == -0.5      # at s = t
    assert abs(float(res.precommitted(0.5, 0.0))
               - (math.log(2.0) - math.log(1.5) - 1.0) / 2.0) < 1e-15
    assert abs(float(res.equilibrium_strategy(0.7, 3.0)) + 0.5) < 1e-15
    assert abs(float(res.gap(0.5)) - 0.5 * math.log(4.0 / 3.0)) < 1e-15
    assert round(float(res.gap(0.5)), 7) == 0.1438410


def test_stackelberg_cost_quadrature_matches_antiderivative():
    res = stackelberg_leader()
    for t in (0.0, 0.25, 0.6, 0.9):
        assert abs(res.leader_cost_quadrature(t) - res.leader_cost(t)) < 1e-10


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_csv_emission(tmp_path):
    traj = solve_riccati_lq(mv_lq(), steps=100)
    path = tmp_path / "lq.csv"
    write_csv(path, *_riccati_table(traj))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phi1,phi2,phi3,phi4,phi5,phi6,phi7,psi,v"
    assert len(lines) == 102
    # 17 significant digits survive a round trip
    val = float(lines[1].split(",")[1])
    assert val == traj.phi[0, 0]
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(table, np.column_stack([traj.s, traj.phi.T, traj.psi, traj.v]))

    sol = solve_planner(0.03, 0.08, 0.2, 0.5, 0.3, 0.08, 0.02, 0.4, steps=100)
    path2 = tmp_path / "planner.csv"
    write_csv(path2, *_planner_table(sol))
    lines = path2.read_text().splitlines()
    assert lines[0] == "t,theta1,theta2,consumption_coeff"
    assert len(lines) == 102
    # every row holds the solution's own doubles, in grid order
    table = np.loadtxt(path2, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 1], sol.theta1) and np.array_equal(table[:, 0], sol.s)
