"""Shared helpers: built systems are cached across the whole test session."""

from __future__ import annotations

from functools import lru_cache

from qutrit_bell import (assemble_hamiltonian, build_cross, build_loop,
                         find_peak, initial_state, spectral_decompose)


@lru_cache(maxsize=None)
def prepared(family: str, n: int):
    """(graph, eigensystem, initial wavefunction) for a built-in system."""
    g = build_cross(n) if family == "cross" else build_loop(n)
    return g, spectral_decompose(assemble_hamiltonian(g)), initial_state(g)


@lru_cache(maxsize=None)
def peak(family: str, n: int, t_max: float | None = None):
    g, eig, psi0 = prepared(family, n)
    return find_peak(eig, psi0, g, t_max=t_max)
