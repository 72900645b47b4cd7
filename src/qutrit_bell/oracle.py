"""Brute-force full-Hilbert-space checks for the reduced-basis engine.

Everything here works in the full 3^N product space, with one base-3 digit
per site (digit = state + 1, site n is digit position n-1) and each state its
int64 index, so N <= ORACLE_MAX_SITES. The full Hamiltonian applies, per edge,
the two-site exchange with equal-state terms dropped, exactly mirroring the
reduced assembly, so restricting it to the one-(+1)-one-(-1) sector must
reproduce the reduced matrix entry for entry. No array spans the 3^N space:
`_images` swaps two digits of the states it is given, and time evolution never
forms a matrix. `dynamics._chebyshev_spans`, the propagator that `scan` runs on
its cell quotient, steps the full state on the sector's closure under the edges'
images (`_closure_system`), outside which the full state stays exactly 0, with R >=
||H||_2 read from the closure (`_radius`: 3.1 to 4.5 on the paper's graphs, whose |E|
runs to 36); `_verify_cost` counts its work. So the check sets two independent
methods side by side: that recurrence on the full space, and the eigendecomposition
of the cell quotient that `scan`, `--tau` and the protocol-2 planner's grid read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .dynamics import (CALL_STEPS, PHASE_BLOCK, _chebyshev_spans, _chebyshev_work,
                       _index_groups, _norm_bound, _pairs, _SpectralKernel,
                       assemble_hamiltonian, initial_state)
from .measurement import _quotient, _quotient_eigensystem
from .topology import Graph

#: a state's index lies below 3^N, and 3^39 < 2^63 < 3^40
ORACLE_MAX_SITES = 39

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


def _site_digit(indices: np.ndarray, site: int) -> np.ndarray:
    return (indices // 3 ** (site - 1)) % 3


def _images(g: Graph, states) -> np.ndarray:
    """Row e: each of the given states' image under edge e's exchange (the two site
    digits swapped), -1 where the two site states are equal."""
    if g.n_vertices > ORACLE_MAX_SITES:
        raise ValueError(f"the oracle indexes the 3^N product states in int64, so N <= "
                         f"{ORACLE_MAX_SITES} (3^39 < 2^63); requested N = {g.n_vertices}")
    states = np.asarray(states, dtype=np.int64)
    out = np.empty((len(g.edges), states.size), dtype=np.int64)
    for row, (m, n) in zip(out, g.edges):
        dm, dn = _site_digit(states, m), _site_digit(states, n)
        swapped = states + (dn - dm) * 3 ** (m - 1) + (dm - dn) * 3 ** (n - 1)
        row[:] = np.where(dm != dn, swapped, -1)
    return out


def _closure(g: Graph, seeds) -> np.ndarray:
    """The states reachable from `seeds` by the edges' images, ascending: H maps a
    vector on them to one on them, a leak out of the sector included."""
    closure = frontier = np.unique(seeds)
    while frontier.size:
        images = _images(g, frontier)
        frontier = np.setdiff1d(images[images >= 0], closure)
        closure = np.union1d(closure, frontier)
    return closure


def _scatter(sources: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """H vec on a closure C; sources[e, y] is the position in C of the state that edge
    e maps to C's y, len(C) (the zero slot) where there is none.

    Entry y sums vec over its sources as one running sum in edge order, the zero slot
    reading 0: the terms and the order of a scatter of each column to its images, edge
    by edge, so the values agree with it bit for bit, whatever the table's memory order
    (a reduction over the edges axis sums pairwise along a contiguous axis)."""
    padded = np.concatenate((vec, [0.0]))
    out = padded[sources[0]]
    for row in sources[1:]:
        out += padded[row]
    return out


def _radius(sources: np.ndarray, images: np.ndarray) -> float:
    """R >= ||H||_2 for the H that `_scatter` applies from `sources`; images[e, x] is the
    position in C of edge e's image of C's x, or the zero slot, so `_scatter` applies H^T
    from it. R is `dynamics._norm_bound` on the dilation [[0, H], [H^T, 0]], nonnegative,
    symmetric and of norm ||H||_2, so it holds for a table that does not map back; an
    involutive table is its own sources, and R is then the bound of H alone."""
    n = sources.shape[1]
    return _norm_bound(lambda v: np.concatenate([_scatter(sources, v[n:]),
                                                  _scatter(images, v[:n])]), 2 * n)


@lru_cache(maxsize=1)
def _closure_system(g: Graph):
    """(C, images, sources, R): the sector's `_closure` C, each edge's `_images` of C and
    their inverse, `_scatter`'s sources (so an image that does not map back, a leak, still
    reaches the product), and `_radius`; read-only and cached, as `_quotient` is."""
    closure = _closure(g, np.append(_sector_indices(g), full_initial_index(g)))
    images = _images(g, closure)
    position = np.where(images < 0, closure.size, np.searchsorted(closure, images))
    sources = np.full((images.shape[0], closure.size + 1), closure.size)
    sources[np.arange(images.shape[0])[:, None], position] = np.arange(closure.size)
    for cached in (closure, images, sources):
        cached.setflags(write=False)
    return closure, images, sources[:, :-1], _radius(sources[:, :-1], position)


def _verify_cost(n: int, t_max: float, points: float, g: Graph | None = None):
    """(work, bytes) of `full_evolve_compare`: the recurrence on C, d k / 16 + CALL_STEPS a
    point (its reduced amplitudes), C's span, tables and 16 d + 40 bytes a point; C = the
    sector without g."""
    d = size = n * (n - 1)
    work = edges = 0
    if g is not None:
        _, _, sources, radius = _closure_system(g)
        edges, size = sources.shape
        work = (_chebyshev_work(radius, t_max, edges * size)
                + points * (d * _quotient(g)[1].size / 16 + CALL_STEPS))
    return work, (16 * size * (128 + min(PHASE_BLOCK, points)) + 24 * edges * size
                  + points * (16 * d + 40))


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
    sect = _sector_indices(g)
    return _restriction(sect, _images(g, sect))


def _restriction(sect: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Entry (i, j) counts the edges whose image of sect[j] is sect[i]; images -1 (an
    equal-state pair) are dropped."""
    order = np.argsort(sect)
    edge, col = np.nonzero(images >= 0)
    image = images[edge, col]
    row = order[np.searchsorted(sect, image, sorter=order).clip(max=sect.size - 1)]
    if not np.array_equal(sect[row], image):
        raise ValueError("the full Hamiltonian maps a sector state out of the sector")
    out = np.zeros((sect.size, sect.size))
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
    #: max |a_{B,A}(t) - a_{A,B}(t)| of the full-space amplitudes (Alice at A, Bob
    #: at B); at roundoff where |A,B> and |B,A> share a `dynamics._pair_cells` cell
    max_bell_asymmetry: float


def full_evolve_compare(g: Graph, t_grid) -> OracleComparison:
    """Evolve in the full space, on the closure (`_closure_system`), and compare.

    Returns the worst entry difference between the full Hamiltonian's sector restriction
    and `assemble_hamiltonian`, the matrix planned protocol-2 steps diagonalise; across
    the grid, the worst difference within the sector between the full-space amplitudes
    and those of the cell quotient (`measurement._quotient`), a bound on the worst
    amplitude outside the sector and the worst Bell-channel asymmetry of the full-space
    amplitudes (on the quotient it is 0 by construction)."""
    t_grid = np.asarray(t_grid, dtype=float)
    sect = _sector_indices(g)
    closure, images, sources, radius = _closure_system(g)
    # The grid may be uneven (repeats, reversals), so the reduced amplitudes come from
    # the kernel's scalar path, one time at a time. They are computed before the
    # full-space loop: interleaved with it, each call took 0.4 ms instead of 0.05 ms
    # at cross-9.
    kernel = _SpectralKernel(_quotient_eigensystem(g), initial_state(g))
    red = np.empty((t_grid.size, sect.size), dtype=complex)
    for k, t in enumerate(t_grid.tolist()):
        red[k] = kernel(t)

    rows = np.searchsorted(closure, sect)
    try:
        restricted = _restriction(sect, images[:, rows])
    except ValueError:  # an image outside the sector: the propagation shows the leak
        restriction = math.inf
    else:
        restriction = float(np.max(np.abs(restricted - assemble_hamiltonian(g))))
    # on the closure, the amplitudes and the leakage bound are those of the 3^N run
    product = partial(_scatter, sources)
    psi = (closure == full_initial_index(g)).astype(complex)
    # np.max, unlike max(), keeps a NaN, so the check that reads it fails
    deviations, leakages, asymmetries = [0.0], [0.0], [0.0]
    i_ba, i_ab = _index_groups(g)["success"]
    outside = np.setdiff1d(np.arange(closure.size), rows)
    for points, table, terms in _chebyshev_spans(product, radius, psi, t_grid):
        amps = table.T @ terms[:, rows]
        deviations.append(np.max(np.abs(amps - red[points])))
        # sum_k |c_k| max|T_k psi outside|, 0 where the closure is the sector
        leakages.append(np.max(np.abs(table).T
                               @ np.max(np.abs(terms[:, outside]), axis=1, initial=0.0)))
        asymmetries.append(np.max(np.abs(amps[:, i_ba] - amps[:, i_ab])))
    return OracleComparison(max_restriction_deviation=restriction,
                            max_amplitude_deviation=float(np.max(deviations)),
                            max_sector_leakage=float(np.max(leakages)),
                            max_bell_asymmetry=float(np.max(asymmetries)))
