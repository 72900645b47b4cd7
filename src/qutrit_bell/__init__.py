"""Conclusive Bell-state creation and distribution on qutrit exchange graphs.

A small numpy library that builds the cross and loop qutrit graphs,
evolves the two-excitation sector exactly, models the coarse-grained
joint measurement at Alice's and Bob's sites, and evaluates the two
repeated-measurement protocols (full reset vs conditional reset),
together with a full-Hilbert-space brute-force oracle for validation.
"""

__version__ = "0.1.0"

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
    "build_loop", "enumerate_outcome_tree", "evolve", "find_peak", "initial_state", "monte_carlo",
    "one_shot_peak", "outcome_distribution", "pair_cells", "path_distance", "plan_protocol2",
    "plan_regular", "post_state", "protocol1_cumulative", "protocol1_required",
    "protocol2_limit_check", "protocol2_no_reset", "protocol2_total", "spectral_decompose",
]
