"""Solver suite for state-constrained variational problems: penalization,
maximum-principle recovery with explicit boundary feedback, value functions,
and mean-field-game equilibria over discrete trajectory measures."""

from .geometry import (Ball, Domain, Ellipse, OutsideTube, SmoothedBox,
                       SubdiffDescription)
from .model import (AssumptionReport, Hamiltonian, LinearPotential,
                    LinearTerminal, NewtonDiverged, Problem, check_assumptions,
                    delta_choice, measure_hamiltonian_constants,
                    problem_from_config, quadratic_problem)
from .penalty import (MaxIterations, NonFiniteCost, PenaltyParams,
                      ScheduleExhausted, Trajectory, energy_certificate,
                      epsilon_schedule, epsilon_schedule_batch,
                      feasibility_gap, holder_gap, minimize_penalized,
                      penalized_cost)
from .pmp import (Extremal, LeftTube, NegativeMultiplier, PMPReport,
                  check_extremal, contact_mask, feedback_lambda,
                  feedback_lambda_many, hamiltonian_drift, make_extremal,
                  multiplier_from_residual, recover_adjoint, shoot,
                  velocity_bound)
from .value import ValueGrid, compute_value, dpp_check, lipschitz_report
from .mfg import (DiscreteMeasure, GaussianKernelCoupling, MeasureFlow,
                  NoConvergence, TrajectoryMeasure, UnbalancedMeasure,
                  best_response, constant_measure, evaluate_flow, fixed_point,
                  kantorovich_d1, lip_flow, mild_solution)

__version__ = "0.1.0"

__all__ = [
    "Ball", "Domain", "Ellipse", "OutsideTube", "SmoothedBox",
    "SubdiffDescription",
    "AssumptionReport", "Hamiltonian", "LinearPotential", "LinearTerminal",
    "NewtonDiverged", "Problem", "check_assumptions", "delta_choice",
    "measure_hamiltonian_constants", "problem_from_config",
    "quadratic_problem",
    "MaxIterations", "NonFiniteCost", "PenaltyParams", "ScheduleExhausted",
    "Trajectory", "energy_certificate", "epsilon_schedule",
    "epsilon_schedule_batch", "feasibility_gap", "holder_gap",
    "minimize_penalized", "penalized_cost",
    "Extremal", "LeftTube", "NegativeMultiplier", "PMPReport",
    "check_extremal", "contact_mask", "feedback_lambda",
    "feedback_lambda_many", "hamiltonian_drift", "make_extremal",
    "multiplier_from_residual", "recover_adjoint", "shoot",
    "velocity_bound",
    "ValueGrid", "compute_value", "dpp_check", "lipschitz_report",
    "DiscreteMeasure", "GaussianKernelCoupling", "MeasureFlow",
    "NoConvergence", "TrajectoryMeasure", "UnbalancedMeasure",
    "best_response", "constant_measure", "evaluate_flow", "fixed_point",
    "kantorovich_d1", "lip_flow", "mild_solution",
]
