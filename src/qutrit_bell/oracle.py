"""Brute-force full-Hilbert-space checks for the reduced-basis engine.

Everything here works in the full 3^N product space, with one base-3 digit
per site (digit = state + 1, site n is digit position n-1). The full
Hamiltonian applies, per edge, the two-site exchange with equal-state
terms dropped, exactly mirroring the reduced assembly, so restricting it
to the one-(+1)-one-(-1) sector must reproduce the reduced matrix entry
for entry. Time evolution never forms a matrix: a Chebyshev expansion of
exp(-iH dt), built on `FullHamiltonian.apply`, carries the state from one
grid point to the next. Capped at N <= 9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (_index_groups, _pairs, _SpectralKernel, assemble_hamiltonian,
                       initial_state, spectral_decompose)
from .topology import Graph

ORACLE_MAX_SITES = 9
CHEBYSHEV_TAIL = 1e-17  # a-priori bound on the first dropped Bessel coefficient

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


def _site_digit(indices: np.ndarray, site: int) -> np.ndarray:
    return (indices // 3 ** (site - 1)) % 3


class FullHamiltonian:
    """Matrix-free full-space Hamiltonian; dense form on demand."""

    def __init__(self, g: Graph):
        _check_oracle_size(g.n_vertices)
        self.graph = g
        self.dimension = 3 ** g.n_vertices
        idx = np.arange(self.dimension)
        # Row e maps each state to its image under edge e's exchange, or to
        # the zero slot `dimension` where the two site states are equal.
        self._partners = np.empty((len(g.edges), self.dimension), dtype=np.int64)
        for row, (m, n) in zip(self._partners, g.edges):
            dm, dn = _site_digit(idx, m), _site_digit(idx, n)
            swapped = idx + (dn - dm) * 3 ** (m - 1) + (dm - dn) * 3 ** (n - 1)
            row[:] = np.where(dm != dn, swapped, self.dimension)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.dimension + 1, dtype=complex)
        padded[:-1] = vec
        return padded[self._partners].sum(axis=0)

    def dense(self) -> np.ndarray:
        h = np.zeros((self.dimension + 1, self.dimension))
        idx = np.arange(self.dimension)
        for row in self._partners:
            h[row, idx] += 1.0
        return h[:-1]


def full_initial_index(g: Graph) -> int:
    digits = np.ones(g.n_vertices, dtype=np.int64)
    digits[g.roles.charlie_plus - 1] = 2
    digits[g.roles.charlie_minus - 1] = 0
    return int(np.sum(digits * 3 ** np.arange(g.n_vertices)))


def _sector_indices(g: Graph) -> np.ndarray:
    """Full-space index of |i,j> for every reduced basis state, in order."""
    plus, minus = _pairs(g.n_vertices)
    base = np.sum(3 ** np.arange(g.n_vertices, dtype=np.int64))  # every site at 0
    return base + 3 ** (plus - 1) - 3 ** (minus - 1)


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


def _bessel_j(k_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_k_max(x) for x != 0 by Miller's backward recurrence.

    Started at order k_max + 1 and normalised by J_0 + 2 sum_k J_2k = 1; the
    start leaves an error of about |J_{k_max+2}(x)|, below CHEBYSHEV_TAIL.
    """
    j = np.zeros(k_max + 3)
    j[k_max + 1] = 1.0
    for k in range(k_max + 1, 0, -1):
        j[k - 1] = 2 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j *= 1e-250
    return j[:k_max + 1] / (j[0] + 2 * j[2::2].sum())


def _chebyshev_step(full: FullHamiltonian, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-iH dt) psi by Chebyshev expansion (Tal-Ezer & Kosloff, JCP 81, 3967 (1984)).

    Each edge term is a partial permutation, so ||H|| <= |E| = R, and
    exp(-iH dt) = sum_k c_k T_k(H/R) with c_0 = J_0(R dt), c_k = 2 (-i)^k J_k(R dt).
    """
    if dt == 0.0:
        return psi
    radius = float(len(full.graph.edges))
    x = radius * dt
    # Keep every order up to the first one past |x|/2 whose bound
    # |J_k(x)| <= (|x|/2)^k / k! falls below CHEBYSHEV_TAIL.
    order, log_bound = 0, 0.0
    while order <= abs(x) / 2 or log_bound > np.log(CHEBYSHEV_TAIL):
        order += 1
        log_bound += np.log(abs(x) / 2 / order)
    bessel = _bessel_j(order, x)
    prev, cur = psi, full.apply(psi) / radius
    out = bessel[0] * prev - 2j * bessel[1] * cur
    for k in range(2, order + 1):
        prev, cur = cur, (2.0 / radius) * full.apply(cur) - prev
        out += (2 * (1, -1j, -1, 1j)[k % 4] * bessel[k]) * cur
    return out


@dataclass(frozen=True)
class OracleComparison:
    max_amplitude_deviation: float
    max_sector_leakage: float
    #: max |a_{B,A}(t) - a_{A,B}(t)| of the reduced engine (Alice at A, Bob
    #: at B); it stays at roundoff on graphs with the protocol automorphism
    max_bell_asymmetry: float
    times: np.ndarray


def full_evolve_compare(g: Graph, t_grid) -> OracleComparison:
    """Evolve in the full space and compare with the reduced engine.

    Returns the worst amplitude difference within the sector, the worst
    amplitude magnitude outside it and the worst Bell-channel asymmetry of
    the reduced amplitudes, across the grid.
    """
    _check_oracle_size(g.n_vertices)
    t_grid = np.asarray(t_grid, dtype=float)
    red = _SpectralKernel(spectral_decompose(assemble_hamiltonian(g)),
                          initial_state(g))(t_grid)

    full = FullHamiltonian(g)
    psi_full = np.zeros(full.dimension, dtype=complex)
    psi_full[full_initial_index(g)] = 1.0
    sect = _sector_indices(g)
    outside = np.ones(full.dimension, dtype=bool)
    outside[sect] = False

    worst_dev = 0.0
    worst_leak = 0.0
    t_prev = 0.0
    for t, red_t in zip(map(float, t_grid), red.T):
        psi_full = _chebyshev_step(full, psi_full, t - t_prev)
        t_prev = t
        worst_dev = max(worst_dev, float(np.max(np.abs(psi_full[sect] - red_t))))
        worst_leak = max(worst_leak, float(np.max(np.abs(psi_full[outside]))))
    i_ba, i_ab = _index_groups(g)["success"]
    asymmetry = float(np.max(np.abs(red[i_ba] - red[i_ab]), initial=0.0))
    return OracleComparison(max_amplitude_deviation=worst_dev, max_sector_leakage=worst_leak,
                            max_bell_asymmetry=asymmetry, times=t_grid)

