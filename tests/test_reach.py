"""Every function in ``src/fbcontrol`` is run by the CLI, or has a stated reason
not to be.

``TRAFFIC`` is a fixed list of small in-process ``cli.run`` calls: every
subcommand, ``pde-solve`` on five families, ``mc-verify`` on both cost routes
and two FAILs, and every ``inconsistency`` example.  The test runs it under
``sys.setprofile`` in a fresh interpreter (``python test_reach.py OUT``),
lists every ``def`` of the package with ``ast``, and fails on each function
whose body no call entered unless ``ALLOWED`` gives it a reason, on each
``ALLOWED`` entry that the traffic reaches, and on each entry that names no
function.

A function that no subcommand needs is deleted.  One that stays gets an entry
``"<module>.<enclosing classes and defs>.<name>": reason``, with a reason from
``REASONS`` or ``"ROADMAP item N"`` for the open item that will make it
reachable.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

# found, not imported: the traffic's interpreter imports it under the profiler
PACKAGE = Path(importlib.util.find_spec("fbcontrol").origin).resolve().parent

API = "library API in README"
FALLBACK = "fallback for registered non-quadratic Hamiltonians"
BENCHMARK = "run by the benchmark workload anchored_cost_field"
FAMILY_DATA = "family data that no route evaluates"
ERROR = "error constructor"
REASONS = {API, FALLBACK, BENCHMARK, FAMILY_DATA, ERROR}
_ROADMAP_ITEM = re.compile(r"ROADMAP item [1-9][0-9]*")

ALLOWED = {
    "cli.main": API,                                    # the console script
    "model.validate_spec": API,
    "model._column_s_failures": API,
    "model._column_s_failures.agrees": API,
    "model.make_probe_grid": API,
    "model._scalar": API,
    "model.hamiltonian_H": API,
    "model.register_family": API,
    "model.spec_to_json": API,
    "mc.perturbed_strategy": API,
    "mc.PerturbedStrategy.__init__": API,
    "mc.PerturbedStrategy.clamped": API,
    "mc._mc_cost_samples": API,                         # evaluate_cost's Monte Carlo branch
    "riccati._stage_coefficients.at": API,              # callable LQ coefficients
    "pde._scan": FALLBACK,
    "pde._brent_rows": FALLBACK,
    "pde._spline_fit": BENCHMARK,
    "pde._spline_piece": BENCHMARK,
    "pde._spline_at": BENCHMARK,
    "pde.GeneralCostField.__init__": BENCHMARK,
    "pde.GeneralCostField.diagonal": BENCHMARK,
    "pde.solve_theta0_family": BENCHMARK,
    "pde.GridSpec.ys": BENCHMARK,
    "pde.solve_perturbation": "ROADMAP item 8",
    "pde.solve_perturbation.diag": "ROADMAP item 8",
    "pde.IterationLog.residuals": "ROADMAP item 3",
    "pde.GeneralCostField.value": "ROADMAP item 17",
    "pde.GeneralCostField.value_dy": "ROADMAP item 17",
    "pde.GeneralCostField._query": "ROADMAP item 17",
    "pde.GeneralCostField._row_spline": "ROADMAP item 17",
    "pde.GeneralCostField._y_check": "ROADMAP item 17",
    "model.stackelberg.g": "ROADMAP item 2",
    "model.ex31.g": FAMILY_DATA,                        # m = 2; no route evaluates it
    "errors.EvaluationError.__init__": ERROR,
    "errors.SingularityError.__init__": ERROR,
    "errors.BlowUpError.__init__": ERROR,
    "errors.YRangeError.__init__": ERROR,
}

# config files the traffic reads, by name
CONFIGS = {
    "mv": {"family": "mean_variance"},
    "bkm": {"family": "bkm_separable"},
    "gbm": {"family": "gbm"},
    "heat": {"family": "linear_heat"},
    "ex31": {"family": "ex31"},
    "ex41": {"family": "ex41"},
    "stackelberg": {"family": "stackelberg"},
    "strong": {"family": "mean_variance",
               "params": {"r": 0.0, "mu": 0.1, "sigma": 0.2, "gamma": 1.0}},
}
_PDE = ("--grid-nx", "9", "--grid-nt", "9")
_MC = ("--paths", "64", "--eps", "0.1", "--times", "0.0")

# (argv, exit code); "{name}" in an argument is the path of CONFIGS[name]
TRAFFIC = [
    (("selftest",), 0),
    (("lq-riccati", "--steps", "50"), 0),
    (("meanfield-lq", "--steps", "50"), 0),
    (("planner", "--steps", "50"), 0),
    (("stackelberg",), 0),
    (("meanvar", "--steps", "50") + _PDE + _MC, 0),
    (("pde-solve",) + _PDE, 0),
    *[(("pde-solve", "--config", "{%s}" % name) + _PDE, 0)
      for name in ("mv", "bkm", "gbm", "heat")],
    (("fk-check", "--grid-nx", "11", "--grid-nt", "9", "--paths", "64"), 0),
    (("mc-verify",) + _MC, 0),
    *[(("mc-verify", "--config", "{%s}" % name) + _MC, 0)
      for name in ("ex31", "stackelberg")],
    (("mc-verify", "--config", "{ex41}", "--strategy-const", "-0.5") + _MC, 3),
    (("mc-verify", "--config", "{strong}", "--strategy-const", "0") + _MC, 3),
    *[(("inconsistency", "--example", example, "--paths", "64"), 0)
      for example in ("ex31", "ex41", "stackelberg", "meanvar_precommit")],
]


def _code_key(filename, line, name):
    return str(Path(filename).resolve()), line, name


def function_defs(root):
    """Every ``def`` in the .py files under ``root``, keyed by qualified name
    (``"pde.GeneralCostField.value"``; a nested def is named through the defs
    that hold it, and the second def of one name in one scope gets ``#2``),
    with the (file, first line, name) of its code object."""
    defs = {}
    for path in sorted(Path(root).rglob("*.py")):
        prefix = ".".join(path.relative_to(root).with_suffix("").parts)

        def visit(node, qual):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name, k = f"{qual}.{child.name}", 1
                    while name in defs:
                        k += 1
                        name = f"{qual}.{child.name}#{k}"
                    if not isinstance(child, ast.ClassDef):
                        # a decorated function's code starts at its first decorator
                        line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        defs[name] = _code_key(path, line, child.name)
                    visit(child, name)
                else:
                    visit(child, qual)

        visit(ast.parse(path.read_text(), str(path)), prefix)
    return defs


def entered(calls):
    """The (file, first line, name) of every Python function whose body runs
    while ``calls()`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        calls()
    finally:
        sys.setprofile(None)
    return {_code_key(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}


def reach_problems(defs, reached, allowed):
    """One line per fault: a function that is neither reached nor allowed, an
    allowed one that is reached, an entry that names no function, and an entry
    whose reason is not one of the fixed set."""
    problems = []
    for name, key in sorted(defs.items()):
        if key not in reached and name not in allowed:
            problems.append(f"{name}: no call reaches it and ALLOWED gives no reason")
        elif key in reached and name in allowed:
            problems.append(f"{name}: reached, yet ALLOWED says {allowed[name]!r}")
    for name in sorted(allowed.keys() - defs.keys()):
        problems.append(f"{name}: in ALLOWED, but there is no such function")
    for name, reason in sorted(allowed.items()):
        if reason not in REASONS and not _ROADMAP_ITEM.fullmatch(str(reason)):
            problems.append(f"{name}: {reason!r} is not a reason from the fixed set")
    return problems


def run_traffic(out):
    """Run TRAFFIC, with its configs and outputs under ``out``; its exit codes."""
    from fbcontrol import cli

    paths = {}
    for name, doc in CONFIGS.items():
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    codes = []
    for k, (argv, _) in enumerate(TRAFFIC):
        argv = [a.format_map(paths) for a in argv] + ["--out", str(out / f"run{k}")]
        codes.append(cli.run(argv))
    return codes


def test_every_function_is_reached_or_has_a_reason(tmp_path):
    # a fresh interpreter: in this one, caches that earlier tests filled (the
    # LAPACK handle of the banded solve, the generated RK4 loops) would keep
    # the code that fills them from running
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "reach.json").read_text())
    assert result["codes"] == [rc for _, rc in TRAFFIC]
    reached = {tuple(key) for key in result["reached"]}
    problems = reach_problems(function_defs(PACKAGE), reached, ALLOWED)
    assert not problems, "\n".join(problems)


SYNTHETIC = '''
def used():
    return helper()


def helper():
    return 1


def stranded():
    return 2


def allowed_but_used():
    return 3


def allowed_and_unused():
    return 4


class Box:
    @staticmethod
    def make():
        def inner():
            return 5
        return Box()


def twice(flag):
    if flag:
        def branch():
            return 6
    else:
        def branch():
            return 7
    return branch()
'''


def test_reach_checker_names_each_kind_of_fault(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "synth.py").write_text(SYNTHETIC)
    namespace = {}
    exec(compile(SYNTHETIC, str(root / "synth.py"), "exec"), namespace)
    reached = entered(lambda: [namespace["used"](), namespace["allowed_but_used"](),
                               namespace["Box"].make(), namespace["twice"](True)])
    defs = function_defs(root)
    assert sorted(defs) == ["synth.Box.make", "synth.Box.make.inner", "synth.allowed_and_unused",
                            "synth.allowed_but_used", "synth.helper", "synth.stranded",
                            "synth.twice", "synth.twice.branch", "synth.twice.branch#2",
                            "synth.used"]
    allowed = {"synth.allowed_but_used": API, "synth.allowed_and_unused": FALLBACK,
               "synth.Box.make.inner": "ROADMAP item 3", "synth.twice.branch#2": "because",
               "synth.gone": ERROR}
    assert reach_problems(defs, reached, allowed) == [
        "synth.allowed_but_used: reached, yet ALLOWED says 'library API in README'",
        "synth.stranded: no call reaches it and ALLOWED gives no reason",
        "synth.gone: in ALLOWED, but there is no such function",
        "synth.twice.branch#2: 'because' is not a reason from the fixed set",
    ]


if __name__ == "__main__":
    # python test_reach.py OUT: TRAFFIC under the profiler, the package's
    # import included; exit codes and reached functions go to OUT/reach.json
    out = Path(sys.argv[1])
    codes = []
    reached = entered(lambda: codes.extend(run_traffic(out)))
    (out / "reach.json").write_text(json.dumps({"codes": codes, "reached": sorted(reached)}))
