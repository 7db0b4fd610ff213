"""Pseudo-spectral laboratory for the rotating Navier-Stokes equations.

Periodic-box surrogates of the analytical toolbox behind small-data mild
solutions in critical Fourier-Besov spaces: the Stokes semigroup with
rotation, dyadic frequency analysis and Chemin-Lerner norms, a Picard
fixed-point solver for the 3d mild formulation, a 2d vorticity solver
with rotating-frame diagnostics, and an ensemble harness that measures
the constants in the underlying estimates.
"""

from .checkpoint import (CheckpointError, atomic_write_json, read_field,
                         roundtrip_report, write_field)
from .lab import (EstimateReport, omega_independence_scan,
                  verify_duhamel_smoothing, verify_product_estimate,
                  verify_semigroup_bounds)
from .lp import (DyadicPartition, NormReport, ShellRange, bernstein_slope,
                 bony_decompose, chemin_lerner_norm, critical_index,
                 dyadic_block, dyadic_rescale, fb_norm, fb_norm_value,
                 get_partition, mild_norm, shell_range_for, shell_series,
                 smooth_cutoff)
from .semigroup import apply_semigroup
from .solver2d import (VorticityState, advance_velocity, advance_vorticity,
                       biot_savart, coriolis_projection_identity,
                       frame_rotation, gaussian_vortex, gronwall_diagnostic,
                       rotating_frame_residual, rotating_frame_transform,
                       run_vorticity)
from .solver3d import (GateReport, IterationDiagnostics, SolverConfig3D,
                       pair_forcing, picard_solve, smallness_gate)
from .spectral import (Grid, SpectralField, curl, dealias, divergence,
                       divergence_defect, forward_transform,
                       gradient, helmholtz_project, inverse_transform,
                       laplacian, random_divfree_field,
                       random_scalar_field, taylor_green_2d, taylor_green_3d)
from .trajectory import Trajectory

__version__ = "0.1.0"
