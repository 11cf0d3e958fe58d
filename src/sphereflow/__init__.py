"""Numerical laboratory for penalized sphere-valued heat flow.

Modules:
    geometry     domains, masked grids, boundary frames, convexity check
    field        sphere-valued fields, initial data, projection, norms
    elliptic     harmonic extension of boundary data, derivative energies
    flow         penalized / projected flow stepping and trajectories
    diagnostics  Gaussian-weighted monotonicity and comparison functionals
    singular     scaled cylinder energy, flagging, box-count dimension
    stereo       stereographic chart, hemisphere monitor
    cli          config-driven experiment runner
"""

from .geometry import (Domain, Grid, BoundaryFrame, build_grid, boundary_frame,
                       check_condition_B)
from .field import (SphereField, InitialData, generate, project_to_sphere,
                    l2_distance, dirichlet_energy)
from .elliptic import (HarmonicExtension, solve_harmonic_extension,
                       higher_derivative_energy)
from .flow import (PenaltySchedule, SolverConfig, Trajectory, kappa, glhf_step,
                   projected_flow_step, run_glhf, run_projected, penalty_integral,
                   trajectory_l2q_distance)
from .diagnostics import (CylinderSpec, EnergyReport, MonotonicityReport,
                          backward_heat_kernel, weight_d, energy_report,
                          weighted_annulus_energy, monotonicity_report,
                          main2_lhs, reverse_poincare_ratio, hybrid_report)
from .singular import (SingularConfig, SingularReport, local_scaled_energy,
                       detect_singular_set, parabolic_box_count,
                       small_energy_certificate)
from .stereo import OneSidedReport, W, one_sided_check, one_sided_monitor

__version__ = "0.1.0"

__all__ = [
    "Domain", "Grid", "BoundaryFrame", "build_grid", "boundary_frame",
    "check_condition_B",
    "SphereField", "InitialData", "generate", "project_to_sphere",
    "l2_distance", "dirichlet_energy",
    "HarmonicExtension", "solve_harmonic_extension", "higher_derivative_energy",
    "PenaltySchedule", "SolverConfig", "Trajectory", "kappa",
    "glhf_step", "projected_flow_step", "run_glhf", "run_projected",
    "penalty_integral", "trajectory_l2q_distance",
    "CylinderSpec", "EnergyReport", "MonotonicityReport",
    "backward_heat_kernel", "weight_d", "energy_report",
    "weighted_annulus_energy", "monotonicity_report", "main2_lhs",
    "reverse_poincare_ratio", "hybrid_report",
    "SingularConfig", "SingularReport", "local_scaled_energy",
    "detect_singular_set", "parabolic_box_count", "small_energy_certificate",
    "OneSidedReport", "W", "one_sided_check", "one_sided_monitor",
]
