"""Brute-force full-Hilbert-space checks for the reduced-basis engine.

Everything here works in the full 3^N product space, with one base-3 digit
per site (digit = state + 1, site n is digit position n-1). The full
Hamiltonian applies, per edge, the two-site exchange with equal-state
terms dropped, exactly mirroring the reduced assembly, so restricting it
to the one-(+1)-one-(-1) sector must reproduce the reduced matrix entry
for entry. Time evolution never forms a matrix: one Chebyshev recurrence
T_k(H/R) psi, built on `FullHamiltonian.apply`, serves every grid point of a
span of consecutive points, and the state at the span's last point seeds the
next span. Its coefficients, Bessel values J_k(R dt), come from one FFT of
exp(-i R dt cos theta) (the Jacobi-Anger expansion), so no Bessel function
is evaluated. Capped at N <= 9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (PHASE_BLOCK, _index_groups, _pairs, _SpectralKernel,
                       assemble_hamiltonian, initial_state, spectral_decompose)
from .topology import Graph

ORACLE_MAX_SITES = 9
CHEBYSHEV_TAIL = 1e-17  # a-priori bound on the first dropped Bessel coefficient
#: largest |E| * |t - t0| of a grid point served by the recurrence started at t0
CHEBYSHEV_SPAN = 32.0

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
        # edge by edge, as sum(axis=0) of the (edges, dimension) gather adds
        # its rows, without holding that gather
        out = padded[self._partners[0]]
        for row in self._partners[1:]:
            out += padded[row]
        return out

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


def _chebyshev_order(x: float) -> int:
    """Orders kept for an argument of magnitude x = R |dt|.

    Every order up to the first one past |x|/2 whose bound
    |J_k(x)| <= (|x|/2)^k / k! falls below CHEBYSHEV_TAIL.
    """
    order, log_bound = 0, 0.0
    while x > 0 and (order <= x / 2 or log_bound > np.log(CHEBYSHEV_TAIL)):
        order += 1
        log_bound += np.log(x / 2 / order)
    return order


def _chebyshev_vectors(full: FullHamiltonian, psi: np.ndarray, order: int):
    """T_0(H/R) psi, ..., T_order(H/R) psi with R = |E|, by the three-term recurrence."""
    radius = float(len(full.graph.edges))
    yield psi
    if order:
        prev, cur = psi, full.apply(psi) / radius
        yield cur
        for _ in range(order - 1):
            prev, cur = cur, (2.0 / radius) * full.apply(cur) - prev
            yield cur


def _chebyshev_coefficients(order: int, x: np.ndarray) -> np.ndarray:
    """c_0 .. c_order at each x = R dt, as an (order + 1, len(x)) table.

    By Jacobi-Anger, exp(-i x cos theta) = sum_k (-i)^k J_k(x) e^{ik theta}
    over every integer k, so one DFT of it at m = 2 (order + 1) equal angles,
    divided by m, gives (-i)^k J_k(x) for k <= order: c_0, and half of every
    other c_k. The orders that fold onto them lie past `order`, below
    CHEBYSHEV_TAIL.
    """
    m = 2 * (order + 1)
    angles = np.cos(2 * np.pi / m * np.arange(m))
    coeffs = np.fft.fft(np.exp(-1j * np.multiply.outer(angles, x)), axis=0)[:order + 1] / m
    coeffs[1:] *= 2
    return coeffs


def _chebyshev_span(full: FullHamiltonian, psi: np.ndarray, offsets: np.ndarray,
                    rows: np.ndarray):
    """exp(-iH dt) psi at every dt in offsets, from one Chebyshev recurrence.

    Each edge term is a partial permutation, so ||H|| <= |E| = R, and
    exp(-iH dt) = sum_k c_k(dt) T_k(H/R) with c_0 = J_0(R dt) and
    c_k = 2 (-i)^k J_k(R dt) (Tal-Ezer & Kosloff, JCP 81, 3967 (1984)); the
    order is that of the largest |R dt|. Returns the `rows` of every
    propagated state (offsets x rows), the bound sum_k |c_k(dt)| max|T_k psi|
    outside `rows` on the largest magnitude there at each offset, and the
    full state at the last offset. The coefficients are tabulated PHASE_BLOCK
    offsets at a time, so a fine grid never holds an offsets x orders table.
    """
    x = len(full.graph.edges) * np.asarray(offsets, dtype=float)
    order = _chebyshev_order(float(np.max(np.abs(x))))
    seed = _chebyshev_coefficients(order, x[-1:])[:, 0]
    amps = np.empty((order + 1, len(rows)), dtype=complex)
    outside = np.empty(order + 1)
    last = np.zeros_like(psi)
    for k, vec in enumerate(_chebyshev_vectors(full, psi, order)):
        amps[k] = vec[rows]
        mag = np.abs(vec)
        mag[rows] = 0.0
        outside[k] = mag.max()
        last += seed[k] * vec
    states = np.empty((x.size, len(rows)), dtype=complex)
    leak = np.empty(x.size)
    for s in range(0, x.size, PHASE_BLOCK):
        coeffs = _chebyshev_coefficients(order, x[s:s + PHASE_BLOCK])
        states[s:s + PHASE_BLOCK] = coeffs.T @ amps
        leak[s:s + PHASE_BLOCK] = np.abs(coeffs).T @ outside
    return states, leak, last


def _spans(full: FullHamiltonian, psi: np.ndarray, t_grid: np.ndarray, rows: np.ndarray):
    """(grid slice, rows of the state, leakage bound) for each span of the grid.

    psi is the state at t = 0. A span starts at t0, the time of the state
    that seeds it, and runs over the consecutive grid points t with
    |E| |t - t0| <= CHEBYSHEV_SPAN, taking at least one point; its last
    point's state seeds the next span. The grid may be uneven.
    """
    radius = len(full.graph.edges)
    times = t_grid.tolist()
    t0, start = 0.0, 0
    while start < len(times):
        stop = start + 1
        while stop < len(times) and radius * abs(times[stop] - t0) <= CHEBYSHEV_SPAN:
            stop += 1
        amps, leak, psi = _chebyshev_span(full, psi, t_grid[start:stop] - t0, rows)
        yield slice(start, stop), amps, leak
        t0, start = times[stop - 1], stop


@dataclass(frozen=True)
class OracleComparison:
    #: max |entry| of the sector restriction of the full H minus the reduced H
    max_restriction_deviation: float
    max_amplitude_deviation: float
    #: an upper bound on the largest full-space magnitude outside the sector:
    #: sum_k |c_k(t)| max|T_k psi outside the sector|, worst over the grid
    max_sector_leakage: float
    #: max |a_{B,A}(t) - a_{A,B}(t)| of the reduced engine (Alice at A, Bob
    #: at B); it stays at roundoff on graphs with the protocol automorphism
    max_bell_asymmetry: float


def full_evolve_compare(g: Graph, t_grid) -> OracleComparison:
    """Evolve in the full space and compare with the reduced engine.

    Returns the worst entry difference between the full Hamiltonian's
    sector restriction and the reduced one; across the grid, the worst
    amplitude difference within the sector, a bound on the worst amplitude
    magnitude outside it and the worst Bell-channel asymmetry of the reduced
    amplitudes. The full state is propagated one span of grid points at a
    time (see `_spans`).
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
    restriction = float(np.max(np.abs(_restriction(full) - h.matrix)))
    psi = np.zeros(full.dimension, dtype=complex)
    psi[full_initial_index(g)] = 1.0
    # np.max, unlike max(), keeps a NaN, so the check that reads it fails
    deviations, leakages = [0.0], [0.0]
    for points, amps, leak in _spans(full, psi, t_grid, sect):
        deviations.append(np.max(np.abs(amps - red[points])))
        leakages.append(np.max(leak))
    i_ba, i_ab = _index_groups(g)["success"]
    asymmetry = float(np.max(np.abs(red[:, i_ba] - red[:, i_ab]), initial=0.0))
    return OracleComparison(max_restriction_deviation=restriction,
                            max_amplitude_deviation=float(np.max(deviations)),
                            max_sector_leakage=float(np.max(leakages)),
                            max_bell_asymmetry=asymmetry)
