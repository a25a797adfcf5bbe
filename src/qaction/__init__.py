"""Numerical laboratory for quantum-action parametrisations of Euclidean amplitudes.

The package is organised in layers: `model` holds the shared parameter
containers, `specfun` and `analytic` provide closed-form reference results,
`oracle` an independent grid-diagonalisation route to the same amplitudes,
`trajectory` the boundary-value solver, and `fit` / `flow` the two ways of
extracting renormalised action parameters.  `cli` drives everything from
JSON experiment configs.
"""

from .analytic import (
    dynamical_scales,
    euclidean_log_amplitude,
    gamma_index,
    ground_state,
)
from .fit import BoundarySet, FitResult, build_table, constant_term, fit_at_time, sweep
from .flow import FlowState, FlowTrace
from .flow import run as flow_run
from .model import ActionParams, Domain, PotentialSpec
from .oracle import SpatialGrid, SpectralDecomposition, amplitude, solve_spectrum
from .trajectory import TimeGrid, Trajectory, action_value, sensitivities, solve_bvp

__version__ = "0.1.0"

__all__ = [
    "ActionParams",
    "BoundarySet",
    "Domain",
    "FitResult",
    "FlowState",
    "FlowTrace",
    "PotentialSpec",
    "SpatialGrid",
    "SpectralDecomposition",
    "TimeGrid",
    "Trajectory",
    "action_value",
    "amplitude",
    "build_table",
    "constant_term",
    "dynamical_scales",
    "euclidean_log_amplitude",
    "fit_at_time",
    "flow_run",
    "gamma_index",
    "ground_state",
    "sensitivities",
    "solve_bvp",
    "solve_spectrum",
    "sweep",
]
