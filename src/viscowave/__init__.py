"""Desk-scale 1D laboratory for a viscous wave equation with fractional Laplacian.

Forward Crank-Nicolson solver, exterior measurement (source-to-measurement)
pairings on disjoint windows, discrete verification of the energy/transposition
identities, and reconstruction of linear potentials and homogeneous
nonlinearities from window measurements.
"""

from .grid import Grid, GridError, build_grid
from .operator import (FracLapOperator, OperatorError, assemble_fraclap,
                       dualnorm_hminus, fraclap_normalization, norm_l2, seminorm_hs)
from .nonlinearity import (Nonlinearity, NonlinearityError, check_exponent_constraints,
                           power_nonlinearity, zero_nonlinearity)
from .controls import (ControlBasis, ControlError, ExteriorControl, bump_control,
                       make_control, materialize, space_bump, time_bump)
from .solver import (EnergyLedger, NewtonDivergenceError, SolverError,
                     StepFailureError, Trajectory, energy_ledger, solve_linear,
                     solve_linear_basis, solve_linear_difference, solve_linearized,
                     solve_nonlinear, trajectory_to_csv)
from .dnmap import (DNMapError, alessandrini_residual, dn_difference_linear,
                    dn_matrix_linear, dn_moments_linear, dn_pairing, dn_remainders_nonlinear,
                    nonlinear_integral_identity_residual, self_adjointness_residual,
                    time_reverse)
from .inversion import (BackgroundStates, IllConditionedError, InconclusiveError,
                        InversionError, LinearRecovery, Reconstruction, Recovery,
                        estimate_homogeneity_exponent, interior_targets,
                        recover_linear_potential, recover_nonlinear_coefficient)
from .harness import (ConfigError, compare_reports, field_from_spec,
                      load_config, potential_from_spec, run_scenario,
                      sweep_scenario)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
