"""Batch front-end: parse a run config, dispatch a solver, then publish its CSV
artifacts, a human-readable summary, and a manifest with output hashes.

Exit codes: 0 success, 1 solver error, 2 config error, 3 failed verification.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, FBControlError, UnsupportedCostClassError
from . import model, riccati, pde, mc


FLOAT_FMT = "%.17g"
_CSV_BLOCK = 1024          # rows formatted per block in write_csv


def write_csv(path, header, rows):
    """Write a CSV artifact: the column names, then one line per row with every
    value formatted by FLOAT_FMT, which round-trips doubles exactly.

    ``rows`` is a 2-D array or a list of rows, one value per name in each row.
    Rows are written a block of _CSV_BLOCK at a time, which bounds memory.  In
    a float64 array block, a column whose bit patterns repeat (runs of one
    pattern, like the s column of a meshgrid table, or one period repeated,
    like its x column) has each distinct pattern formatted once and its text
    reused, so the bytes are those of formatting every cell.
    """
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            f.writelines(_block_lines(rows[start:start + _CSV_BLOCK], len(header)))


def _block_lines(block, k):
    """The CSV lines of one block of rows of k values."""
    line = ",".join([FLOAT_FMT] * k) + "\n"
    if not isinstance(block, np.ndarray):
        return [line % tuple(row) for row in block]
    rows = block.tolist()                # Python floats format fastest
    if block.dtype == np.float64 and block.shape[1:] == (k,):
        texts = [_repeated_text(block[:, c]) for c in range(k)]
        line = ",".join(FLOAT_FMT if text is None else "%s" for text in texts) + "\n"
        for c, text in enumerate(texts):
            if text is not None:
                for row, t in zip(rows, text):
                    row[c] = t
    return [line % tuple(row) for row in rows]


def _repeated_text(col):
    """An iterator over the FLOAT_FMT text of a float64 column that formats
    each distinct bit pattern once, when the column is runs of one pattern or
    one period repeated, with at most half as many patterns as values; else
    None.

    Patterns are compared as int64 bits, so -0.0 and 0.0, and NaNs with
    different payloads, keep their own text.  The text comes from iterators,
    and the caller puts it into the rows of ``block.tolist()``: lists of a
    block's length per column live outside Python's small-object pools, and
    over hundreds of writes in one process they raised its peak resident
    memory.
    """
    n = col.size
    if n < 2:
        return None
    bits = col.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (starts.size + 1) <= n:
        firsts = np.concatenate(([0], starts))
        text = [FLOAT_FMT % v for v in col[firsts].tolist()]
        return itertools.chain.from_iterable(
            map(itertools.repeat, text, np.diff(firsts, append=n).tolist()))
    period = int(np.argmax(bits[1:] == bits[0])) + 1     # first recurrence of row 0
    if (2 * period <= n and bits[period] == bits[0]
            and np.array_equal(bits[period:], bits[:-period])):
        return itertools.cycle([FLOAT_FMT % v for v in col[:period].tolist()])
    return None


def _sha256(path):
    """Hex SHA-256 of a file, read a block at a time, so a large artifact is
    never held whole while its table is still alive."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _publish(args, tables, lines, rc=0):
    """Write what a subcommand returned and return its exit code ``rc``.

    Makes ``--out``, writes each of ``tables`` (file name -> CSV table
    ``(header, rows)``, or a file's text), writes ``lines`` to summary.txt and
    prints them, then writes manifest.json with the SHA-256 of every file
    written.  Subcommands write nothing themselves, so a refused run leaves no
    directory behind.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        if isinstance(table, str):
            (out / name).write_text(table)
        else:
            write_csv(out / name, *table)
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    outputs = {name: _sha256(out / name) for name in [*tables, "summary.txt"]}
    doc = {"command": args.command, "version": __version__, "outputs": outputs,
           "config": {k: v for k, v in vars(args).items() if k != "func"}}
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return rc


def _riccati_table(traj):
    return (("t", "phi1", "phi2", "phi3", "phi4", "phi5", "phi6", "phi7", "psi", "v"),
            np.column_stack([traj.s, traj.phi.T, traj.psi, traj.v]))


def _planner_table(sol):
    return (("t", "theta1", "theta2", "consumption_coeff"),
            np.column_stack([sol.s, sol.theta1, sol.theta2, sol.consumption_coeff]))


def _verify_table(report):
    keys = ("t", "eps", "u", "quotient", "stderr")
    return keys, [[r[k] for k in keys] for r in report.rows]


def _gap_table(gap_report):
    return ("tau", "gap"), [[r["tau"], r["gap"]] for r in gap_report["rows"]]


def _strategy_table(strategy):
    s, x = np.meshgrid(strategy.s_grid, strategy.x_grid, indexing="ij")
    return ("s", "x", "psi"), np.column_stack([s.ravel(), x.ravel(), strategy.values.ravel()])


def _iterations_table(log):
    keys = ("iter", "residual_D", "residual_Dx", "residual_Dy", "residual_psi")
    return keys, [[r[k] for k in keys] for r in log.rows]


def _work_unit(spec):
    """Unit of VerifyReport.work for the route verify_equilibrium takes on spec."""
    return ("RK4 flow integrations" if spec.cost_class == "deterministic"
            else "simulated ensembles")


def _load_config(args):
    if not args.config:
        return {}
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise DomainError(f"config '{args.config}' is not a JSON object")
    return doc


def _parse_floats(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"malformed number list '{text}'") from None


# ---------------------------------------------------------------------------
# Subcommands: each returns (tables, summary lines) or (tables, lines, exit
# code) for _publish to write, and touches no file
# ---------------------------------------------------------------------------

def cmd_lq_riccati(args):
    doc = _load_config(args)
    keys = ("A", "B", "C", "D", "Ahat", "Bhat", "Chat", "Dhat", "H",
            "Q", "M", "N", "R", "G1", "G2", "G3", "g", "T")
    defaults = {"A": 0.0, "B": 1.0, "C": 1.0, "D": 0.0, "H": 1.0,
                "R": 2.0, "G2": 2.0, "T": 1.0}
    vals = {k: doc.get(k, defaults.get(k, 0.0)) for k in keys}
    lq = riccati.LQSpec(**vals)
    traj = riccati.solve_riccati_lq(lq, steps=args.steps)
    return {"lq_riccati.csv": _riccati_table(traj)}, [
        f"lq-riccati: steps={args.steps} T={lq.T}",
        f"phi1(0)={traj.phi[0, 0]:.12g} psi(0)={traj.psi[0]:.12g} v(0)={traj.v[0]:.12g}",
        f"terminal residual={traj.terminal_residual:.3g}",
    ]


def cmd_meanfield_lq(args):
    doc = _load_config(args)
    vals = {k: doc.get(k, d) for k, d in
            (("A", 0.0), ("B", 1.0), ("C", 1.0), ("D", 0.0), ("Q", 0.0),
             ("R", 2.0), ("G1", 0.0), ("G2", 2.0), ("T", 1.0))}
    grid, phi, phihat, psi = riccati.solve_meanfield_riccati(steps=args.steps, **vals)
    table = ("t", "phi", "phihat", "psi"), np.column_stack([grid, phi, phihat, psi])
    return {"meanfield.csv": table}, [
        f"meanfield-lq: steps={args.steps}",
        f"phi(0)={phi[0]:.12g} phihat(0)={phihat[0]:.12g} psi(0)={psi[0]:.12g}",
    ]


def cmd_meanvar(args):
    r, mu, sigma, gamma, T = args.r, args.mu, args.sigma, args.gamma, args.T
    cfg = mc.MCConfig(n_paths=args.paths, seed=args.seed, eps_list=_parse_floats(args.eps))
    times = _parse_floats(args.times)
    res = riccati.meanvar_equilibrium(r, mu, sigma, gamma, T, steps=args.steps)
    traj = riccati.solve_riccati_lq(riccati._mv_lq_spec(r, mu, sigma, gamma, T),
                                    steps=args.steps)
    lines = [
        f"meanvar: r={r} mu={mu} sigma={sigma} gamma={gamma} T={T}",
        f"v(0) = {res.v[0]:.7f} (closed form {float(res.closed['vbar'](0.0)):.7f})",
        f"phi1(0) = {res.phi1[0]:.7f} (closed form {float(res.closed['phi1'](0.0)):.7f})",
        f"max rel err phi1 = {res.max_rel_err_phi1:.3g}, v = {res.max_rel_err_v:.3g}",
        "variant closed forms failing the defining ODEs (comparison only): "
        f"phi1_alt(0)={float(res.variants['phi1_alt'](0.0)):.7g} "
        f"vbar_alt(0)={float(res.variants['vbar_alt'](0.0)):.7g}",
    ]
    spec = model.mean_variance(r=r, mu=mu, sigma=sigma, gamma=gamma, T=T, x0=args.x0)
    grid = pde.default_grid(spec, nx=args.grid_nx, nt=args.grid_nt)
    theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid, tol=args.tol)
    ref = res.closed["vbar"](grid.times)[:, None] + 0.0 * grid.xs[None, :]
    err = float(np.max(np.abs(strat.values - ref) / np.abs(ref)))
    lines.append(f"pde cross-check: converged={log.converged} iters={log.iterations} "
                 f"max rel strategy err={err:.3g}")
    report = mc.verify_equilibrium(spec, res.strategy, times, cfg, tol_eq=args.tol_eq)
    lines.append(f"spike verification: verdict={'PASS' if report.verdict else 'FAIL'} "
                 f"min quotient (smallest window)={report.min_quotient_smallest_eps:.4g}")
    lines.append(f"spike verification work: {report.work} {_work_unit(spec)}")
    tables = {"mv_riccati.csv": _riccati_table(traj),
              "mv_strategy_pde.csv": _strategy_table(strat),
              "mv_iterations.csv": _iterations_table(log),
              "mv_verify.csv": _verify_table(report)}
    return tables, lines, 0 if report.verdict else 3


def cmd_planner(args):
    sol = riccati.solve_planner(args.r, args.mu, args.sigma, args.gamma, args.alpha,
                                args.rho1, args.rho2, args.lam, args.T, steps=args.steps)
    return {"planner.csv": _planner_table(sol)}, [
        f"planner: theta1(0)={sol.theta1[0]:.10g} theta2(0)={sol.theta2[0]:.10g}",
        f"investment coefficient = {sol.investment_coeff:.10g}",
        f"consumption coefficient at 0 = {sol.consumption_coeff[0]:.10g}",
    ]


def cmd_stackelberg(args):
    res = riccati.stackelberg_leader()
    gaps = mc.demonstrate_inconsistency("stackelberg")
    qc = res.leader_cost_quadrature(0.0)
    return {"stackelberg_gap.csv": _gap_table(gaps)}, [
        "stackelberg: time-consistent equilibrium value = -0.5",
        f"committed control at (0, x): u(s) = (ln 2 - ln(2 - s) - 1)/2; u(0) = {float(res.precommitted(0.0, 0.0)):.6f}",
        f"leader cost at 0: quadrature {qc:.12f} vs closed {res.leader_cost(0.0):.12f}",
        "gap table written to stackelberg_gap.csv "
        f"(gap(0.5) = {float(res.gap(0.5)):.7f})",
    ]


def cmd_pde_solve(args):
    doc = {"family": "recursive_lq", **_load_config(args)}
    spec = model.spec_from_json(doc)
    if (args.grid_x_lo is None) != (args.grid_x_hi is None):
        raise DomainError("--grid-x-lo and --grid-x-hi are given together or not at all")
    if args.grid_x_lo is not None:
        grid = pde.GridSpec(args.grid_x_lo, args.grid_x_hi, args.grid_nx, args.grid_nt,
                            spec.horizon)
    else:
        grid = pde.default_grid(spec, nx=args.grid_nx, nt=args.grid_nt)
    theta, theta0, strat, log = pde.equilibrium_fixed_point(spec, grid, tol=args.tol)
    stride = max(1, args.grid_nx // 33)
    s, x = np.meshgrid(theta.times[::stride], theta.xs[::stride], indexing="ij")
    theta_table = (("s", "x", "theta_1"), np.column_stack(
        [s.ravel(), x.ravel(), theta.values[::stride, ::stride].ravel()]))
    # anchored cost field sampled along the diagonal anchor set
    stride = max(1, args.grid_nx // 17)
    t, x = np.meshgrid(theta0.times[::stride], theta0.xs[::stride], indexing="ij")
    theta0_table = (("t", "s", "xtilde", "x", "y", "theta0"),
                    np.column_stack([t.ravel(), t.ravel(), x.ravel(), x.ravel(),
                                     theta.values[::stride, ::stride].ravel(),
                                     theta0.diagonal(theta).d[::stride, ::stride].ravel()]))
    tables = {"theta.csv": theta_table, "theta0.csv": theta0_table,
              "strategy.csv": _strategy_table(strat), "iterations.csv": _iterations_table(log)}
    return tables, [
        f"pde-solve[{doc['family']}]: converged={log.converged} iterations={log.iterations}",
        f"final residuals: {log.rows[-1] if log.rows else 'n/a'}",
        f"strategy max x-jump (minimizer continuity probe): {log.strategy_max_jump:.3g}",
    ]


def cmd_mc_verify(args):
    doc = {"family": "mean_variance", **_load_config(args)}
    spec = model.spec_from_json(doc)
    if args.strategy_const is not None:
        strat = model.StrategyTable(spec.u_lo, spec.u_hi,
                                    fn=model.constant_control(args.strategy_const))
    else:
        strat = model.equilibrium_strategy(spec)
    cfg = mc.MCConfig(n_paths=args.paths, seed=args.seed, eps_list=_parse_floats(args.eps))
    report = mc.verify_equilibrium(spec, strat, _parse_floats(args.times), cfg,
                                   tol_eq=args.tol_eq)
    return {"verify.csv": _verify_table(report)}, [
        f"mc-verify[{doc['family']}]: verdict={'PASS' if report.verdict else 'FAIL'}",
        f"min quotient at smallest window = {report.min_quotient_smallest_eps:.6g} "
        f"(tolerance -{report.tol_eq})",
        f"work: {report.work} {_work_unit(spec)}",
    ], 0 if report.verdict else 3


def cmd_inconsistency(args):
    cfg = mc.MCConfig(n_paths=args.paths, seed=args.seed)
    gaps = mc.demonstrate_inconsistency(args.example, cfg, _load_config(args).get("params"))
    lines = [f"inconsistency[{args.example}]:"]
    for row in gaps["rows"]:
        extra = "".join(f" {k}={v:.6g}" for k, v in row.items() if k not in ("tau", "gap"))
        lines.append(f"  tau={row['tau']:.3f} gap={row['gap']:.8g}{extra}")
    return {"gap.csv": _gap_table(gaps)}, lines


# the problem fk-check checks when no --config is given
FK_DEFAULT = {"family": "mean_variance",
              "params": {"r": 0.0, "mu": 0.1, "sigma": 0.2, "gamma": 1.0, "x0": 1.0}}


def cmd_fk_check(args):
    doc = _load_config(args) if args.config else FK_DEFAULT
    spec = model.spec_from_json({"family": "mean_variance", **doc})
    grid = pde.default_grid(spec, nx=args.grid_nx, nt=args.grid_nt)
    if grid.nx < 11:     # sample points sit up to 5 x-nodes either side of the middle
        raise DomainError(f"fk-check needs --grid-nx >= 11, got {grid.nx}")
    theta, theta0 = pde.reference_fields(spec, grid)
    strat = model.equilibrium_strategy(spec)
    pts = [(grid.times[j], grid.xs[grid.nx // 2 + k])
           for j, k in ((0, 0), (grid.nt // 4, -5), (grid.nt // 2, 5),
                        (grid.nt // 2, 0), (3 * grid.nt // 4, 2))]
    cfg = mc.MCConfig(n_paths=args.paths, seed=args.seed)
    rows = mc.check_feynman_kac(spec, theta, theta0, strat, pts, cfg)
    keys = ("r", "x", "y_mc", "y_field", "z_y", "y0_mc", "y0_field", "z_y0")
    worst = max(max(abs(r_["z_y"]), abs(r_["z_y0"])) for r_ in rows)
    ok = worst <= 3.0
    return ({"fk.csv": (keys, [[row[k] for k in keys] for row in rows])},
            [f"fk-check: worst |z| = {worst:.3f} -> {'PASS' if ok else 'FAIL'}"],
            0 if ok else 3)


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

def _selftest_checks(seed):
    checks = []

    def add(name, fn):
        checks.append((name, fn))

    def mv_closed():
        res = riccati.meanvar_equilibrium(0.03, 0.08, 0.2, 2.0, 1.0, steps=4000)
        assert res.max_rel_err_phi1 < 1e-8 and res.max_rel_err_v < 1e-8
        return f"rel errs {res.max_rel_err_phi1:.2e}/{res.max_rel_err_v:.2e}"
    add("mv_riccati_closed_form", mv_closed)

    def mv_ident():
        traj = riccati.solve_riccati_lq(riccati._mv_lq_spec(0.03, 0.08, 0.2, 2.0, 1.0),
                                        steps=4000)
        gam = 2.0
        assert np.max(np.abs(traj.phi[1] + gam)) < 1e-12
        assert np.max(np.abs(traj.phi[2])) < 1e-12
        assert np.max(np.abs(traj.phi[0] - gam * traj.phi[5] ** 2)) < 1e-8
        assert np.max(np.abs(traj.psi)) < 1e-8
        return "phi2=-gamma, phi3=0, phi1=gamma phi6^2, psi=0"
    add("mv_structural_identities", mv_ident)

    def crossroute():
        grid, phi, phihat, psi = riccati.solve_meanfield_riccati(
            0.0, 1.0, 1.0, 0.0, 0.0, 2.0, 0.0, 2.0, T=1.0, steps=4000)
        lq = riccati.LQSpec(A=0.0, B=1.0, C=1.0, D=0.0, H=1.0, R=2.0, G1=0.0, G2=2.0, T=1.0)
        traj = riccati.solve_riccati_lq(lq, steps=4000)
        phi_b = traj.phi[0]
        phihat_b = traj.phi[0] + traj.phi[5] * traj.phi[1] * traj.phi[5]
        err = max(float(np.max(np.abs(phi - phi_b))), float(np.max(np.abs(phihat - phihat_b))))
        assert err < 1e-8
        return f"route diff {err:.2e}"
    add("meanfield_cross_route", crossroute)

    def stack():
        res = riccati.stackelberg_leader()
        assert res.equilibrium_value == -0.5
        assert abs(float(res.gap(0.5)) - 0.5 * math.log(4.0 / 3.0)) < 1e-15
        assert abs(res.leader_cost_quadrature(0.0) - res.leader_cost(0.0)) < 1e-10
        return "equilibrium -1/2, gap and cost closed forms match"
    add("stackelberg_closed_forms", stack)

    def ex31_cost():
        spec = model.ex31()
        u_opt = model.StrategyTable(spec.u_lo, spec.u_hi,
                                    fn=lambda s, x: (s - 0.0 - 1.0) / 2.0 + 0.0 * np.asarray(x, dtype=float))
        cost, _ = mc.evaluate_cost(spec, u_opt, 0.0, 0.0, mc.MCConfig(n_paths=2))
        assert abs(cost - (-1.0 / 12.0)) < 1e-10
        eq = model.equilibrium_strategy(spec)
        cfg = mc.MCConfig(n_paths=2, eps_list=(0.1, 0.05, 0.025))
        report = mc.verify_equilibrium(spec, eq, (0.0, 0.5), cfg, tol_eq=1e-8)
        assert report.verdict
        return f"cost {cost:.12f}, equilibrium quotients nonnegative"
    add("ex31_cost_and_quotients", ex31_cost)

    def kernel():
        val = model.heat_kernel(lambda r, m: 0.5, 0.0, 0.0, 1.0, 0.0)
        assert abs(val - 1.0 / math.sqrt(2 * math.pi)) < 1e-12
        mu = np.linspace(-8.0, 8.0, 2049)
        vals = np.array([model.heat_kernel(lambda r, m: 0.5, 0.0, 0.0, 1.0, m) for m in mu])
        mass = riccati._simpson(vals, mu[1] - mu[0])
        assert abs(mass - 1.0) < 1e-9
        return f"normalization {mass:.12f}"
    add("heat_kernel", kernel)

    def pde_linear():
        spec = model.linear_heat(a=1.0, terminal="x")
        grid = pde.GridSpec(-4.0, 4.0, 41, 41, 1.0)
        strat = model.StrategyTable(-1, 1, fn=model.constant_control(0.0))
        theta = pde.solve_theta(spec, strat, grid)
        err = float(np.max(np.abs(theta.values - grid.xs[None, :])))
        assert err < 1e-12
        v = pde.step_parabolic(np.zeros(41), np.ones(41), np.zeros(41), np.ones(41), 0.01, 0.2)
        assert float(np.max(np.abs(v - 0.01))) < 1e-12
        return f"linear terminal exact ({err:.2e})"
    add("pde_linear_exactness", pde_linear)

    def planner():
        sym = riccati.solve_planner(0.03, 0.08, 0.2, 0.5, 0.3, 0.05, 0.05, 0.4, steps=2000)
        assert float(np.max(np.abs(sym.theta1 - sym.theta2))) < 1e-12
        ordered = riccati.solve_planner(0.03, 0.08, 0.2, 0.5, 0.3, 0.08, 0.02, 0.4, steps=2000)
        assert np.all(ordered.theta1 <= ordered.theta2 + 1e-12)
        return "symmetry and ordering hold"
    add("planner_symmetry_order", planner)

    def determinism():
        spec = model.gbm(mu=0.2, sigma=0.3)
        strat = model.StrategyTable(-1, 1, fn=model.constant_control(0.0))
        cfg = mc.MCConfig(n_paths=500, seed=seed)
        e1 = mc.simulate_forward(spec, strat, 0.0, 1.0, cfg)
        e2 = mc.simulate_forward(spec, strat, 0.0, 1.0, cfg)
        assert np.array_equal(e1.paths, e2.paths)
        mv = model.mean_variance(r=0.0, mu=0.1, sigma=0.2, gamma=1.0, x0=1.0)
        eq = model.equilibrium_strategy(mv)          # constant in s when r = 0
        cfg2 = mc.MCConfig(n_paths=200, seed=seed, eps_list=(0.1,), u_list=(eq(0.2, 1.0),))
        rep = mc.verify_equilibrium(mv, eq, (0.2,), cfg2, tol_eq=0.05)
        assert all(r["quotient"] == 0.0 for r in rep.rows)
        return "bit-identical ensembles; CRN quotient exactly 0"
    add("mc_determinism_crn", determinism)

    def fk_small():
        spec = model.mean_variance(r=0.0, mu=0.1, sigma=0.2, gamma=1.0, x0=1.0)
        grid = pde.default_grid(spec, nx=65, nt=65)
        theta, theta0 = pde.reference_fields(spec, grid)
        strat = model.equilibrium_strategy(spec)
        cfg = mc.MCConfig(n_paths=4000, seed=seed)
        rows = mc.check_feynman_kac(spec, theta, theta0, strat,
                                    [(0.0, spec.x0), (grid.times[32], grid.xs[40])], cfg)
        worst = max(max(abs(r["z_y"]), abs(r["z_y0"])) for r in rows)
        assert worst <= 4.0
        return f"worst |z| = {worst:.2f}"
    add("fk_representation_small", fk_small)

    return checks


def cmd_selftest(args):
    mc.MCConfig(seed=args.seed)          # an out-of-range seed is a config error
    results = []
    for name, fn in _selftest_checks(args.seed):
        try:
            detail = fn()
            results.append((name, True, detail))
            print(f"{name}: PASS ({detail})")
        except AssertionError as exc:
            results.append((name, False, str(exc) or "assertion failed"))
            print(f"{name}: FAIL ({exc})")
        except FBControlError as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
            print(f"{name}: FAIL ({exc})")
    # names and details are text, which write_csv does not format, so the
    # table is published as its text
    checks = "check,passed,detail\n" + "".join(f"{name},{int(ok)},\"{detail}\"\n"
                                                for name, ok, detail in results)
    # representative artifacts, all deterministically formatted
    traj = riccati.solve_riccati_lq(riccati._mv_lq_spec(0.03, 0.08, 0.2, 2.0, 1.0), steps=2000)
    sol = riccati.solve_planner(0.03, 0.08, 0.2, 0.5, 0.3, 0.08, 0.02, 0.4, steps=2000)
    tables = {"selftest.csv": checks, "mv_riccati.csv": _riccati_table(traj),
              "planner.csv": _planner_table(sol),
              "stackelberg_gap.csv": _gap_table(mc.demonstrate_inconsistency("stackelberg"))}
    ok_all = all(ok for _, ok, _ in results)
    return tables, [f"selftest: {sum(ok for _, ok, _ in results)}/{len(results)} checks passed",
                    f"verdict: {'PASS' if ok_all else 'FAIL'}"], 0 if ok_all else 3


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_FLAGS = {
    "--config": dict(default=None, help="JSON problem config"),
    "--seed": dict(type=int, default=0),
    "--steps": dict(type=int, default=10000, help="ODE steps"),
    "--grid-nx": dict(type=int, default=65),
    "--grid-nt": dict(type=int, default=201),
    "--grid-x-lo": dict(type=float, default=None, help="set together with --grid-x-hi"),
    "--grid-x-hi": dict(type=float, default=None, help="set together with --grid-x-lo"),
    "--tol": dict(type=float, default=1e-6, help="fixed-point tolerance"),
    "--paths": dict(type=int, default=20000),
    "--eps": dict(default="0.1,0.05,0.025"),
    "--times": dict(default="0.0,0.45,0.9"),
    "--tol-eq": dict(type=float, default=0.05),
}
_GRID = ("--grid-nx", "--grid-nt")
_MONTE = ("--paths", "--eps", "--times", "--tol-eq")


def build_parser():
    """Each subcommand declares only the flags it reads, so any other flag exits 2."""
    p = argparse.ArgumentParser(prog="fbcontrol",
                                description="time-consistent control of forward-backward SDEs")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, what, flags=(), floats=()):
        sp = sub.add_parser(name, help=what)
        sp.add_argument("--out", default="fbcontrol_out", help="output directory")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        for param, default in floats:
            sp.add_argument(f"--{param}", type=float, default=default)
        sp.set_defaults(func=func)
        return sp

    add("lq-riccati", cmd_lq_riccati, "seven-function backward system",
        ("--config", "--steps"))
    add("meanfield-lq", cmd_meanfield_lq, "two-function reduction", ("--config", "--steps"))
    add("meanvar", cmd_meanvar, "wealth/variance equilibrium + cross-checks",
        ("--seed", "--steps") + _GRID + ("--tol",) + _MONTE,
        (("r", 0.03), ("mu", 0.08), ("sigma", 0.2), ("gamma", 2.0), ("T", 1.0), ("x0", 1.0)))
    add("planner", cmd_planner, "two-agent consumption/investment coefficients", ("--steps",),
        (("r", 0.03), ("mu", 0.08), ("sigma", 0.2), ("gamma", 0.5), ("alpha", 0.3),
         ("rho1", 0.08), ("rho2", 0.02), ("lam", 0.4), ("T", 1.0)))
    add("stackelberg", cmd_stackelberg, "leader benchmark closed forms")
    add("pde-solve", cmd_pde_solve, "equilibrium fixed point on a grid",
        ("--config",) + _GRID + ("--grid-x-lo", "--grid-x-hi", "--tol"))
    sp = add("mc-verify", cmd_mc_verify, "spike-perturbation verification",
             ("--config", "--seed") + _MONTE)
    sp.add_argument("--strategy-const", dest="strategy_const", type=float, default=None,
                    help="override: constant strategy value")
    sp = add("inconsistency", cmd_inconsistency, "committed vs re-derived control gap",
             ("--config", "--seed", "--paths"))
    sp.add_argument("--example", default="stackelberg",
                    help="a family with a closed-form gap (ex31, ex41, stackelberg, "
                         "meanvar_precommit, or a registered one)")
    add("fk-check", cmd_fk_check, "field representation vs sampled expectations",
        ("--config", "--seed", "--paths") + _GRID)
    add("selftest", cmd_selftest, "fast deterministic acceptance subset", ("--seed",))
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _publish(args, *args.func(args))
    except (DomainError, UnsupportedCostClassError, json.JSONDecodeError,
            FileNotFoundError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FBControlError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
