"""Conclusive Bell-state creation and distribution on qutrit exchange graphs.

A small numpy library that builds the cross and loop qutrit graphs,
evolves the two-excitation sector exactly, models the coarse-grained
joint measurement at Alice's and Bob's sites, and evaluates the two
repeated-measurement protocols (full reset vs conditional reset),
together with a full-Hilbert-space brute-force oracle for validation.
"""

__version__ = "0.1.0"

from .dynamics import (Eigensystem, Hamiltonian, Wavefunction, assemble_hamiltonian,
                       evolve, find_peak, initial_state, scan_success,
                       spectral_decompose)
from .measurement import (Outcome, OutcomeDistribution, bell_fidelity,
                          outcome_distribution, post_state)
from .protocols import (Schedule, Strategy, TrajectoryStats, enumerate_outcome_tree,
                        monte_carlo, plan_protocol2, plan_regular, protocol1_cumulative,
                        protocol1_required, protocol2_limit_check,
                        protocol2_no_reset, protocol2_total)
from .topology import (AutomorphismReport, Graph, Roles, build_cross, build_loop,
                       find_protocol_automorphism, path_distance)

__all__ = [
    "AutomorphismReport", "Eigensystem", "Graph", "Hamiltonian",
    "Outcome", "OutcomeDistribution", "Roles", "Schedule",
    "Strategy", "TrajectoryStats", "Wavefunction",
    "assemble_hamiltonian", "bell_fidelity", "build_cross", "build_loop",
    "enumerate_outcome_tree", "evolve", "find_peak", "find_protocol_automorphism", "initial_state",
    "monte_carlo", "outcome_distribution", "path_distance", "plan_protocol2",
    "plan_regular", "post_state", "protocol1_cumulative", "protocol1_required",
    "protocol2_limit_check", "protocol2_no_reset", "protocol2_total",
    "scan_success", "spectral_decompose",
]
