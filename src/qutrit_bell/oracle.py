"""Brute-force full-Hilbert-space checks for the reduced-basis engine.

Everything here works in the full 3^N product space, with one base-3 digit
per site (digit = state + 1, site n is digit position n-1). The full
Hamiltonian applies, per edge, the two-site exchange with equal-state
terms dropped, exactly mirroring the reduced assembly, so restricting it
to the one-(+1)-one-(-1) sector must reproduce the reduced matrix entry
for entry. Time evolution never forms a matrix: `dynamics._chebyshev_spans`,
the propagator that `scan` runs on its cell quotient, steps the full state with
R = |E|, one recurrence per span of consecutive grid points, on the sector's
closure under the edges' images (`FullHamiltonian.closure`), outside which the
3^N state stays exactly 0. So the check sets two independent methods side by
side: that recurrence on the full space, and the reduced engine's
eigendecomposition.
Capped at N <= 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (_chebyshev_spans, _index_groups, _pairs, _SpectralKernel,
                       assemble_hamiltonian, initial_state, spectral_decompose)
from .topology import Graph

ORACLE_MAX_SITES = 9

STATES = (-1, 0, +1)


def generator_matrix(beta: int, alpha: int) -> np.ndarray:
    """|beta><alpha| on one qutrit, states labelled -1, 0, +1."""
    m = np.zeros((3, 3))
    m[beta + 1, alpha + 1] = 1.0
    return m


def su3_algebra_check() -> float:
    """Max violation of [S^b_a, S^r_s] = d_ra S^b_s - d_bs S^r_a over all 81 combos."""
    # gen[b, a] = S^b_a; every product below is indexed [b, a, r, s, i, k]
    gen = np.array([[generator_matrix(beta, alpha) for alpha in STATES] for beta in STATES])
    delta = np.eye(3)
    product = np.einsum("baij,rsjk->barsik", gen, gen)
    lhs = product - product.transpose(2, 3, 0, 1, 4, 5)
    rhs = (np.einsum("ra,bsik->barsik", delta, gen)
           - np.einsum("bs,raik->barsik", delta, gen))
    return float(np.max(np.abs(lhs - rhs)))


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
        """H vec on the whole space: `_scatter` with every state as the closure, each
        edge's images as its sources."""
        return _scatter(self._partners, vec)

    def closure(self, seeds: np.ndarray) -> np.ndarray:
        """The states reachable from `seeds` by the edges' images, ascending: H
        maps a vector on them to one on them, a leak out of the sector included."""
        reached = np.zeros(self.dimension + 1, dtype=bool)
        reached[self.dimension] = True  # the zero slot is no state
        frontier = np.unique(seeds)
        while frontier.size:
            reached[frontier] = True
            frontier = np.unique(self._partners[:, frontier])
            frontier = frontier[~reached[frontier]]
        return np.flatnonzero(reached[:-1])

    def dense(self) -> np.ndarray:
        h = np.zeros((self.dimension + 1, self.dimension))
        idx = np.arange(self.dimension)
        for row in self._partners:
            h[row, idx] += 1.0
        return h[:-1]


def _scatter(sources: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """H vec on a closure C; sources[e, y] is the position in C of the state that edge
    e maps to C's y, len(C) (the zero slot) where there is none.

    Entry y sums vec over its sources in edge order, the zero slot reading 0: the
    terms and the order of a scatter of each column to its images, edge by edge, so
    the values agree with it bit for bit. An exchange is an involution, so an image
    table is its own source table (`FullHamiltonian.apply`)."""
    return np.add.accumulate(np.append(vec, 0.0)[sources], axis=0)[-1]


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
    return _restriction(FullHamiltonian(g))


def _restriction(full: FullHamiltonian) -> np.ndarray:
    sect = _sector_indices(full.graph)
    d = len(sect)
    # position of each full-space state in the sector, -1 outside it; images
    # in the zero slot `dimension` (an equal-state pair) are dropped
    position = np.full(full.dimension + 1, -1)
    position[sect] = np.arange(d)
    images = full._partners[:, sect]
    edge, col = np.nonzero(images != full.dimension)
    row = position[images[edge, col]]
    if np.any(row < 0):
        raise ValueError("the full Hamiltonian maps a sector state out of the sector")
    out = np.zeros((d, d))
    np.add.at(out, (row, col), 1.0)
    return out


@dataclass(frozen=True)
class OracleComparison:
    #: max |entry| of the sector restriction of the full H minus the reduced H;
    #: inf where the full H maps a sector state out of the sector
    max_restriction_deviation: float
    max_amplitude_deviation: float
    #: an upper bound on the largest full-space magnitude outside the sector:
    #: sum_k |c_k(t)| max|T_k psi outside the sector|, worst over the grid
    max_sector_leakage: float
    #: max |a_{B,A}(t) - a_{A,B}(t)| of the reduced engine (Alice at A, Bob
    #: at B); at roundoff where |A,B> and |B,A> share a `dynamics._pair_cells` cell
    max_bell_asymmetry: float


def full_evolve_compare(g: Graph, t_grid) -> OracleComparison:
    """Evolve in the full space and compare with the reduced engine.

    Returns the worst entry difference between the full Hamiltonian's
    sector restriction and the reduced one; across the grid, the worst
    amplitude difference within the sector, a bound on the worst amplitude
    magnitude outside it and the worst Bell-channel asymmetry of the reduced
    amplitudes. The full state is propagated on its closure, one span of grid
    points at a time (see `dynamics._chebyshev_spans`).
    """
    _check_oracle_size(g.n_vertices)
    t_grid = np.asarray(t_grid, dtype=float)
    # The grid may be uneven (repeats, reversals), so the reduced amplitudes
    # come from the kernel's scalar path, one time at a time (d <= 72). They
    # are computed before the full-space loop: interleaved with it, each
    # call took 0.4 ms instead of 0.05 ms at cross-9.
    h = assemble_hamiltonian(g)
    kernel = _SpectralKernel(spectral_decompose(h), initial_state(g))
    sect = _sector_indices(g)
    red = np.empty((t_grid.size, sect.size), dtype=complex)
    for k, t in enumerate(t_grid.tolist()):
        red[k] = kernel(t)

    full = FullHamiltonian(g)
    try:
        restricted = _restriction(full)
    except ValueError:  # an image outside the sector: the propagation shows the leak
        restriction = math.inf
    else:
        restriction = float(np.max(np.abs(restricted - h)))
    # on the closure, the amplitudes and the leakage bound are those of the 3^N run
    init = full_initial_index(g)
    closure = full.closure(np.append(sect, init))
    position = np.full(full.dimension + 1, closure.size)
    position[closure] = np.arange(closure.size)
    psi = (closure == init).astype(complex)
    # each edge's images inverted into its sources, so that an image that does not map
    # back (a leak out of the sector included) still reaches the product
    images = position[full._partners[:, closure]]
    sources = np.full((images.shape[0], closure.size + 1), closure.size)
    sources[np.arange(images.shape[0])[:, None], images] = np.arange(closure.size)
    product = partial(_scatter, sources[:, :-1])
    # np.max, unlike max(), keeps a NaN, so the check that reads it fails
    deviations, leakages = [0.0], [0.0]
    # each edge term is a partial permutation, so ||H|| <= |E|
    for points, amps, leak in _chebyshev_spans(product, len(g.edges), psi, t_grid,
                                               position[sect]):
        deviations.append(np.max(np.abs(amps - red[points])))
        leakages.append(np.max(leak))
    i_ba, i_ab = _index_groups(g)["success"]
    asymmetry = float(np.max(np.abs(red[:, i_ba] - red[:, i_ab]), initial=0.0))
    return OracleComparison(max_restriction_deviation=restriction,
                            max_amplitude_deviation=float(np.max(deviations)),
                            max_sector_leakage=float(np.max(leakages)),
                            max_bell_asymmetry=asymmetry)
