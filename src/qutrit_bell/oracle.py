"""Brute-force full-Hilbert-space checks for the reduced-basis engine.

Everything here works in the full 3^N product space, with one base-3 digit
per site (digit = state + 1, site n is digit position n-1). The full
Hamiltonian applies, per edge, the two-site exchange with equal-state
terms dropped, exactly mirroring the reduced assembly, so restricting it
to the one-(+1)-one-(-1) sector must reproduce the reduced matrix entry
for entry. Capped at N <= 9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (_index_groups, amplitude_rows, assemble_hamiltonian,
                       enumerate_basis, evolve, initial_state, spectral_decompose)
from .topology import Graph

ORACLE_MAX_SITES = 9
DENSE_SPECTRAL_MAX = 3 ** 8  # above this, series stepping is used
SERIES_STEP = 1e-3
NORM_DRIFT_PER_UNIT_TIME = 1e-9

STATES = (-1, 0, +1)


def generator_matrix(beta: int, alpha: int) -> np.ndarray:
    """|beta><alpha| on one qutrit, states labelled -1, 0, +1."""
    m = np.zeros((3, 3))
    m[beta + 1, alpha + 1] = 1.0
    return m


def su3_algebra_check() -> float:
    """Max violation of [S^b_a, S^r_s] = d_ra S^b_s - d_bs S^r_a over all 81 combos."""
    worst = 0.0
    for beta in STATES:
        for alpha in STATES:
            for rho in STATES:
                for sigma in STATES:
                    lhs = (generator_matrix(beta, alpha) @ generator_matrix(rho, sigma)
                           - generator_matrix(rho, sigma) @ generator_matrix(beta, alpha))
                    rhs = ((1.0 if rho == alpha else 0.0) * generator_matrix(beta, sigma)
                           - (1.0 if beta == sigma else 0.0) * generator_matrix(rho, alpha))
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _check_oracle_size(n: int) -> None:
    if n > ORACLE_MAX_SITES:
        raise ValueError(f"oracle is capped at N <= {ORACLE_MAX_SITES} "
                         f"(3^{n} = {3 ** n} states); requested N = {n}")


def _digits(index: int, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.int64)
    for k in range(n):
        out[k] = index % 3
        index //= 3
    return out


def _site_digit(indices: np.ndarray, site: int) -> np.ndarray:
    return (indices // 3 ** (site - 1)) % 3


class FullHamiltonian:
    """Matrix-free full-space Hamiltonian; dense form on demand."""

    def __init__(self, g: Graph):
        _check_oracle_size(g.n_vertices)
        self.graph = g
        self.dimension = 3 ** g.n_vertices
        idx = np.arange(self.dimension)
        self._terms = []
        for (m, n) in g.edges:
            dm, dn = _site_digit(idx, m), _site_digit(idx, n)
            swapped = idx + (dn - dm) * 3 ** (m - 1) + (dm - dn) * 3 ** (n - 1)
            self._terms.append((swapped, dm != dn))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec, dtype=complex)
        for swapped, unequal in self._terms:
            out[unequal] += vec[swapped[unequal]]
        return out

    def dense(self) -> np.ndarray:
        h = np.zeros((self.dimension, self.dimension))
        idx = np.arange(self.dimension)
        for swapped, unequal in self._terms:
            h[swapped[unequal], idx[unequal]] += 1.0
        return h


def full_hamiltonian(g: Graph) -> FullHamiltonian:
    return FullHamiltonian(g)


def full_initial_index(g: Graph) -> int:
    digits = np.ones(g.n_vertices, dtype=np.int64)
    digits[g.roles.charlie_plus - 1] = 2
    digits[g.roles.charlie_minus - 1] = 0
    return int(np.sum(digits * 3 ** np.arange(g.n_vertices)))


def _sector_indices(g: Graph) -> np.ndarray:
    """Full-space index of |i,j> for every reduced basis state, in order."""
    n = g.n_vertices
    basis = enumerate_basis(n)
    base = np.sum(np.ones(n, dtype=np.int64) * 3 ** np.arange(n))
    out = np.empty(len(basis), dtype=np.int64)
    for k, s in enumerate(basis.states):
        out[k] = base + 3 ** (s.plus_site - 1) - 3 ** (s.minus_site - 1)
    return out


def sector_restriction(g: Graph) -> np.ndarray:
    """Full Hamiltonian restricted to the one-(+1)-one-(-1) sector."""
    full = FullHamiltonian(g)
    sect = _sector_indices(g)
    d = len(sect)
    out = np.zeros((d, d))
    lookup = {int(f): k for k, f in enumerate(sect)}
    for col, f in enumerate(sect):
        vec = np.zeros(full.dimension, dtype=complex)
        vec[f] = 1.0
        img = full.apply(vec)
        for row_full in np.nonzero(img)[0]:
            out[lookup[int(row_full)], col] = img[row_full].real
    return out


class _FullPropagator:
    """exp(-iHt): dense spectral when affordable, else 4th-order stepping."""

    def __init__(self, full: FullHamiltonian):
        self.full = full
        if full.dimension <= DENSE_SPECTRAL_MAX:
            lam, vec = np.linalg.eigh(full.dense())
            self._spec = (lam, vec)
        else:
            self._spec = None

    def propagate(self, psi0: np.ndarray, t: float) -> np.ndarray:
        if self._spec is not None:
            lam, vec = self._spec
            return vec @ (np.exp(-1j * lam * t) * (vec.T @ psi0))
        return self._series(psi0, t)

    def _series(self, psi0: np.ndarray, t: float) -> np.ndarray:
        steps = max(1, int(round(t / SERIES_STEP)))
        dt = t / steps
        psi = psi0.astype(complex)
        drift = 0.0
        for _ in range(steps):
            term = psi
            acc = psi.copy()
            for order in range(1, 5):
                term = self.full.apply(term) * (-1j * dt) / order
                acc += term
            nrm = np.linalg.norm(acc)
            drift += abs(nrm - 1.0)
            psi = acc / nrm
        if t > 0 and drift / max(t, 1e-12) > NORM_DRIFT_PER_UNIT_TIME:
            raise RuntimeError(f"series stepping norm drift {drift:.2e} over t={t} "
                               f"exceeds {NORM_DRIFT_PER_UNIT_TIME} per unit time")
        return psi


@dataclass(frozen=True)
class OracleComparison:
    max_amplitude_deviation: float
    max_sector_leakage: float
    times: np.ndarray


def full_evolve_compare(g: Graph, t_grid) -> OracleComparison:
    """Evolve in the full space and compare with the reduced engine.

    Returns the worst amplitude difference within the sector and the worst
    amplitude magnitude outside it, across the grid.
    """
    _check_oracle_size(g.n_vertices)
    t_grid = np.asarray(t_grid, dtype=float)
    basis = enumerate_basis(g.n_vertices)
    eig = spectral_decompose(assemble_hamiltonian(g, basis))
    psi_red0 = initial_state(g, basis)

    full = FullHamiltonian(g)
    prop = _FullPropagator(full)
    psi_full0 = np.zeros(full.dimension, dtype=complex)
    psi_full0[full_initial_index(g)] = 1.0
    sect = _sector_indices(g)
    outside = np.ones(full.dimension, dtype=bool)
    outside[sect] = False

    worst_dev = 0.0
    worst_leak = 0.0
    for t in t_grid:
        full_t = prop.propagate(psi_full0, float(t))
        red_t = evolve(eig, psi_red0, float(t)).amplitudes
        worst_dev = max(worst_dev, float(np.max(np.abs(full_t[sect] - red_t))))
        worst_leak = max(worst_leak, float(np.max(np.abs(full_t[outside]))))
    return OracleComparison(max_amplitude_deviation=worst_dev,
                            max_sector_leakage=worst_leak, times=t_grid)


def symmetry_check(g: Graph, t_grid) -> float:
    """Max |a_{B,A}(t) - a_{A,B}(t)| (Alice at A, Bob at B) from the initial state.

    Only meaningful on graphs possessing the protocol automorphism; the
    caller is expected to have verified it exists.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n = g.n_vertices
    basis = enumerate_basis(n)
    eig = spectral_decompose(assemble_hamiltonian(g, basis))
    psi0 = initial_state(g, basis)
    amps = amplitude_rows(eig, psi0, _index_groups(g)["success"], t_grid)
    return float(np.max(np.abs(amps[0] - amps[1])))
