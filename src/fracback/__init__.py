"""Numerical toolkit for backward semilinear subdiffusion problems.

Forward solves use P1 finite elements in space and backward-Euler
convolution quadrature in time.  Initial data is reconstructed from a
noisy terminal observation through quasi-boundary-value regularization
and a fixed-point / conjugate-gradient iteration, with a sine-spectral
Mittag-Leffler oracle for verification.
"""

from fracback.grid import Mesh, build_interval_mesh, build_square_mesh
from fracback.fem import FemSystem, GridFunction, assemble, l2_project, l2_norm, l2_error
from fracback.cq import cq_weights, scalar_terminal_factor
from fracback.mlf import (
    SpectralField,
    mittag_leffler,
    spectral_forward_linear,
    sample_on_mesh,
)
from fracback.forward import Nonlinearity, TimeGrid, get_nonlinearity, solve_forward, apply_F, apply_S
from fracback.backward import (
    BackwardConfig,
    ReconstructionResult,
    fixed_point_reconstruct,
    select_parameters,
    convergence_order,
)
from fracback.bench import ExperimentSpec, NoiseSpec, get_initial_data, make_observation, run_reconstruction, run_table

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "build_interval_mesh",
    "build_square_mesh",
    "FemSystem",
    "GridFunction",
    "assemble",
    "l2_project",
    "l2_norm",
    "l2_error",
    "cq_weights",
    "scalar_terminal_factor",
    "SpectralField",
    "mittag_leffler",
    "spectral_forward_linear",
    "sample_on_mesh",
    "Nonlinearity",
    "TimeGrid",
    "get_nonlinearity",
    "solve_forward",
    "apply_F",
    "apply_S",
    "BackwardConfig",
    "ReconstructionResult",
    "fixed_point_reconstruct",
    "select_parameters",
    "convergence_order",
    "ExperimentSpec",
    "NoiseSpec",
    "get_initial_data",
    "make_observation",
    "run_reconstruction",
    "run_table",
    "__version__",
]
