"""Conclusive Bell-state creation and distribution on qutrit exchange graphs.

A small numpy library that builds the cross and loop qutrit graphs,
evolves the two-excitation sector exactly, models the coarse-grained
joint measurement at Alice's and Bob's sites, and evaluates the two
repeated-measurement protocols (full reset vs conditional reset),
together with a full-Hilbert-space brute-force oracle for validation.
"""

__version__ = "0.1.0"

import sys

from .dynamics import (Eigensystem, assemble_hamiltonian, bell_pairs_share_a_cell, evolve,
                       find_peak, initial_state, one_shot_peak, pair_cells, spectral_decompose)
from .measurement import Outcome, OutcomeDistribution, outcome_distribution, post_state
from .protocols import (ScheduleStep, Strategy, TrajectoryStats, enumerate_outcome_tree,
                        monte_carlo, plan_protocol2, plan_regular, protocol1_cumulative,
                        protocol1_required, protocol2_limit_check,
                        protocol2_no_reset, protocol2_total)
from .topology import Graph, Roles, build_cross, build_loop, path_distance

__all__ = [
    "Eigensystem", "Graph", "Outcome", "OutcomeDistribution", "Roles", "ScheduleStep", "Strategy",
    "TrajectoryStats", "assemble_hamiltonian", "bell_pairs_share_a_cell", "build_cross",
    "build_loop", "clear_caches", "enumerate_outcome_tree", "evolve", "find_peak",
    "initial_state", "monte_carlo", "one_shot_peak", "outcome_distribution", "pair_cells",
    "path_distance", "plan_protocol2", "plan_regular", "post_state", "protocol1_cumulative",
    "protocol1_required", "protocol2_limit_check", "protocol2_no_reset", "protocol2_total",
    "spectral_decompose",
]


def clear_caches() -> None:
    """Empty every `functools` cache of the package's loaded modules, found by scanning them."""
    for module in [m for name, m in sys.modules.items() if name.startswith(f"{__name__}.")]:
        for cached in [v for v in vars(module).values() if hasattr(v, "cache_clear")]:
            cached.cache_clear()
