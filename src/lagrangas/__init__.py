"""1D compressible flow of a viscous, heat-conducting ideal gas in Lagrangian
mass coordinates, with degenerate power-law heat conductivity.

The package pairs a staggered-grid solver with the diagnostics needed to
certify its long-time behavior: conservation totals, the entropy-dissipation
budget, uniform bounds on volume and temperature, a closed-form volume
reconstruction used as an independent oracle, and exponential-decay fits of
the distance to equilibrium.
"""

from .analysis import DecayFit, convergence_order, entropy_roots, fit_decay_rate
from .core import (Grid, InitialSpec, PhysParams, State, build_grid,
                   check_normalization, load_table, make_initial_data,
                   parse_table, validate_state)
from .functionals import (DiagnosticsRecord, dissipation, entropy, extrema,
                          h1_deviation, inverse_temperature_moment,
                          mean_theta, record)
from .representation import (ReprAccumulators, base_factor, init_accumulators,
                             reconstruct_volume, update_damping, update_history)
from .solver import (EXPLICIT_RK2, IMEX_BE, Sources, StepControls, Trajectory,
                     advance, manufactured_solution, spatial_rhs,
                     stability_limit, step)

__version__ = "0.1.0"

__all__ = [
    "DecayFit", "DiagnosticsRecord", "EXPLICIT_RK2",
    "Grid", "IMEX_BE", "InitialSpec", "PhysParams", "ReprAccumulators",
    "Sources", "State", "StepControls", "Trajectory",
    "advance", "base_factor", "build_grid",
    "check_normalization", "convergence_order", "dissipation", "entropy",
    "entropy_roots", "extrema", "fit_decay_rate", "h1_deviation",
    "init_accumulators", "inverse_temperature_moment", "load_table",
    "make_initial_data", "manufactured_solution", "mean_theta", "parse_table",
    "reconstruct_volume", "record", "spatial_rhs",
    "stability_limit", "step",
    "update_damping", "update_history", "validate_state",
]
