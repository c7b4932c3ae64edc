"""Numerical toolkit for time-consistent control of forward-backward SDEs.

Modules: model (problem bundles, Hamiltonians, Gaussian kernel), riccati
(backward ODE systems and closed forms), pde (nonlocal parabolic fixed point),
mc (simulation, cost evaluation, spike-perturbation verification), cli.
"""

__version__ = "0.1.0"

from .errors import (BlowUpError, DegeneracyError, DomainError, EvaluationError,
                     FBControlError, PositivityError, SingularityError,
                     UnsupportedCostClassError, YRangeError)
from .model import (ClosedForms, ControlProblemSpec, FAMILIES, McCost, StrategyTable,
                    TerminalSplit, equilibrium_strategy, hamiltonian_H,
                    hamiltonian_H0_hat, heat_kernel, make_probe_grid, make_spec,
                    register_family, spec_from_json, spec_to_json, validate_spec)
from .riccati import (LQSpec, PlannerSolution, RiccatiTrajectory, StackelbergResult,
                      MeanVarResult, meanvar_closed_form, meanvar_equilibrium,
                      rk4_backward, solve_meanfield_riccati, solve_planner,
                      solve_riccati_lq, stackelberg_leader)
from .pde import (DiagonalBundle, FieldTheta, GridSpec, IterationLog,
                  default_grid, equilibrium_fixed_point, extract_diagonal,
                  reference_fields, solve_perturbation, solve_theta,
                  solve_theta0_family, step_parabolic)
from .mc import (MCConfig, PathEnsemble, VerifyReport, check_feynman_kac,
                 demonstrate_inconsistency, evaluate_cost, path_normals,
                 perturbed_strategy, simulate_forward, verify_equilibrium)
