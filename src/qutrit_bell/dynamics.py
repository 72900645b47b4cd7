"""Two-excitation pair basis, exchange Hamiltonian and exact evolution.

The dynamics conserve the number of +1 and -1 excitations separately, so a
state with exactly one +1 (at site i) and one -1 (at site j) lives in the
N(N-1)-dimensional space spanned by the ordered pairs |i,j>, taken in
lexicographic order; `pair_index` gives a pair's position in closed form,
so there is no basis object: `assemble_hamiltonian(g)` and
`initial_state(g)` need only the graph.

Each edge (m,n) contributes the off-diagonal part of the two-site exchange,

    sum_{alpha != beta} S^beta_alpha(m) S^alpha_beta(n),

which in the pair basis moves an excitation along the edge (hop) or
exchanges the two excitations sitting on it (swap). Equal-state terms are
excluded, so the matrix has zero diagonal and 0/1 off-diagonal entries.
The colour refinement `_pair_cells` splits the pairs into the cells of H's
coarsest equitable partition (listed by `pair_cells`; `bell_pairs_share_a_cell`
says whether |A,B> and |B,A> share one), whose span holds every state the
protocols prepare: `scan`, the protocol-2 planner's grid and a fixed-interval
schedule read H's quotient on it (`measurement`). The exchange C|i,j> = |j,i>
commutes with H and maps each cell X onto a cell CX, so the quotient splits into a
C-even and a C-odd block on the orbit states of {X, CX} (`_c_orbits`). `_c_blocks` is
their one builder: `one_shot_peak` reads the Bell amplitude on the C-even block, and the
planner's grid, a fixed-interval schedule and `verify` read the blocks unfolded to the
pairs (`measurement._quotient_blocks`).
There are two propagators, their costs counted in the entry steps MAX_WORK caps
(`_spectral_cost`, `_chebyshev_work`; a span's bytes in `_chebyshev_bytes`).
`_SpectralKernel` holds the only exp(-i lambda t) of a dense eigendecomposition (d <= 1260
for N <= 36): it serves a scalar time (`evolve`, refinement, protocol-2 steps), bit-exact,
rows along an arithmetic grid from 0 (peak searches, the planner) and any times in one
piece (`verify`'s reduced side), both within 1e-13 of the scalar path. The Chebyshev
recurrence `_chebyshev_spans` needs only products H v and R >= ||H|| (`_norm_bound`):
`scan` runs it on the quotient (`measurement`), `verify` on the sector's closure in the
3^N space (`oracle`). A span gives its Bessel table and its terms T_k(H/R) psi, which the caller
combines on the entries it reads; an even grid reads one table (`_chebyshev_coefficients`).
`select_peak` picks the peak time of a sampled curve, for the peak searches and
for every protocol-2 planning strategy. Units: hbar = 1, J = 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .topology import Graph

logger = logging.getLogger(__name__)

DEFAULT_GRID_STEP = 0.01
NORM_TOL = 1e-8  # on a state's norm (`measurement`) and on the norm V^T psi0 keeps
DEFAULT_REFINE_TOL = 1e-6
#: default one-shot scan window is [0, PEAK_WINDOW_FACTOR * N]. The window
#: must reach the latest resonance the peak tables rely on (6.29 N for the
#: 4-site loop) while stopping short of later recurrences that overtake the
#: tabulated peak on the 32-site loop (from 6.42 N); any factor in between
#: reproduces the reference tables, 6.4 is used.
PEAK_WINDOW_FACTOR = 6.4
#: times per block of the kernel's rows along a grid (and grid points per Chebyshev
#: span), whatever the grid length; a power of two, as the kernel needs
PHASE_BLOCK = 1024
CHEBYSHEV_TAIL = 1e-17  # a-priori bound on the first dropped Bessel coefficient
CHEBYSHEV_SPAN = 32.0  # largest R |t - t0| a recurrence started at t0 reaches
CHEBYSHEV_GAP = 1024.0  # largest R |dt| of a step with no grid point: 1.39 orders a unit
#: a grid point may pass t_max by this much and still count as <= t_max: it
#: absorbs the rounding of k * step, not a further step
GRID_END_SLACK = 1e-9
#: cap on a run's work, in entry steps: an entry that a product H v gathers, 4.5-12 ns
#: on 2 cores, so 5-10 s at the cap on every engine (README, "Exit codes")
MAX_WORK = 1e9
CALL_STEPS = 2048  # entry steps of the numpy calls around one product (about 10 us)


def _time_grid(t_max: float, step: float) -> np.ndarray:
    """0, step, 2 step, ... up to t_max, end point included; both finite and > 0.

    The points are those of np.arange(0.0, t_max + step, step), whose last
    point passes t_max for some windows (0.71 for t_max = 0.7, step 0.01).
    """
    for name, value in (("t_max", t_max), ("step", step)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    grid = np.arange(0.0, t_max + step, step)
    return grid[grid <= t_max + GRID_END_SLACK]


def _pair_position(n: int, plus, minus):
    """Lexicographic position of |plus,minus>; elementwise on site arrays."""
    return (plus - 1) * (n - 1) + (minus - 1) - (minus > plus)


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Plus and minus sites of every pair |i,j>, i != j, in lexicographic order."""
    k = np.arange(n * (n - 1))
    plus = k // (n - 1) + 1
    minus = k % (n - 1) + 1
    return plus, minus + (minus >= plus)


def pair_index(n: int, i: int, j: int) -> int:
    """Dense position of |i,j> in the lexicographic basis, O(1)."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"invalid pair ({i},{j}) for n={n}")
    return _pair_position(n, i, j)


def _outcome(g: Graph, i, j):
    """Measurement outcome of the pair {i,j} from Alice's and Bob's sites; elementwise
    on site arrays: 1 psi1 (neither site), 2 psi2 (only Alice's), 3 psi3 (only
    Bob's), 4 success (both)."""
    a, b = g.roles.alice, g.roles.bob
    return 1 + ((i == a) | (j == a)) + 2 * ((i == b) | (j == b))


@lru_cache(maxsize=1)
def _index_groups(g: Graph) -> dict[str, np.ndarray]:
    """Pair-basis rows of the four measurement outcomes (`_outcome`).

    ``success`` holds |bob,alice> then |alice,bob>; ``g1``, ``g2`` and ``g3``
    the pairs of psi1, psi2 and psi3.
    """
    n, a, b = g.n_vertices, g.roles.alice, g.roles.bob
    outcome = _outcome(g, *_pairs(n))
    return {"success": np.array([pair_index(n, b, a), pair_index(n, a, b)]),
            **{f"g{k}": np.flatnonzero(outcome == k) for k in (1, 2, 3)}}


def _pair_images(g: Graph):
    """(pair, image) per nonzero of the edges' exchange operator on the ordered pairs, in
    lexicographic order of pair: along each edge at an excitation's site it hops to the
    other end, or the two swap (once, from the plus site) if the other sits there. H
    moves the pair to its image."""
    n, (plus, minus) = g.n_vertices, _pairs(g.n_vertices)
    arcs = np.array(sorted(g.edges | {(v, u) for u, v in g.edges}))  # (site, neighbour)
    first = np.searchsorted(arcs[:, 0], np.arange(n + 2))
    site = np.column_stack([plus, minus]).ravel()  # each pair's plus site, then its minus site
    count = first[site + 1] - first[site]
    end = np.repeat(np.arange(site.size), count)
    to = arcs[np.arange(end.size) + np.repeat(first[site] + count - np.cumsum(count), count), 1]
    pair, from_plus = end // 2, end % 2 == 0
    i, j = plus[pair], minus[pair]
    keep = from_plus | (to != i)
    ti = np.where(from_plus, to, i)[keep]
    tj = np.where(from_plus, np.where(to == j, i, j), to)[keep]
    return pair[keep], _pair_position(n, ti, tj)


def assemble_hamiltonian(g: Graph) -> np.ndarray:
    """H = sum over edges of the equal-state-free exchange operator (zero diagonal):
    the real symmetric matrix in the pair basis, in units of J. One bincount scatters
    every nonzero of `_pair_images` onto (image, pair), exactly in any order."""
    d = g.n_vertices * (g.n_vertices - 1)
    pair, image = _pair_images(g)
    return np.bincount(image * d + pair, np.ones(pair.size), d * d).reshape(d, d)


@dataclass(frozen=True)
class Eigensystem:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns paired with eigenvalues

    #: C-ordered V^T, so V^T psi needs no transposing copy per call. Built
    #: here, it reuses heap the decomposition's checks just freed; built at
    #: the first projection instead, it raised the peak RSS of the protocol-1
    #: tables (C-even blocks, d up to 630; glibc, OpenBLAS) from 78.8 to
    #: 79.4 MB, and from 120 to 130 MB on the full space (d up to 1260), which
    #: protocol 2 still diagonalises.
    _vt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_vt", np.ascontiguousarray(self.eigenvectors.T))
        for array in (self.eigenvalues, self.eigenvectors, self._vt):  # cached and shared
            array.setflags(write=False)


def spectral_decompose(h: np.ndarray) -> Eigensystem:
    """Full eigendecomposition of a real symmetric Hamiltonian matrix.

    The matrix must be exactly symmetric. Verifies orthogonality and
    reconstruction to 1e-10 before returning; a violation indicates an
    eigensolver failure and is fatal.
    """
    if not np.array_equal(h, h.T):  # eigh reads one triangle only
        raise ValueError("Hamiltonian matrix is not symmetric")
    lam, vec = np.linalg.eigh(h)
    d = h.shape[0]
    if np.max(np.abs(vec.T @ vec - np.eye(d))) > 1e-10:
        raise RuntimeError("eigenvector matrix is not orthogonal to 1e-10")
    if np.max(np.abs((vec * lam) @ vec.T - h)) > 1e-10:
        raise RuntimeError("spectral reconstruction exceeds 1e-10")
    return Eigensystem(eigenvalues=lam, eigenvectors=vec)


@lru_cache(maxsize=1)
def _pair_eigensystem(g: Graph) -> Eigensystem:
    """`spectral_decompose(assemble_hamiltonian(g))`, which protocol 2's planned steps read,
    for the last graph only. A new graph first frees the last one's (2 d^2 floats, 25 MB at
    loop-36), so no process holds two: a bounded `lru_cache` stores into the emptied cache."""
    _pair_eigensystem.cache_clear()
    return spectral_decompose(assemble_hamiltonian(g))


def initial_state(g: Graph) -> np.ndarray:
    """|charlie_plus, charlie_minus>, a new complex amplitude vector over the pair basis:
    +1 at Charlie's plus site, -1 at the other."""
    n = g.n_vertices
    a = np.zeros(n * (n - 1), dtype=complex)
    a[pair_index(n, g.roles.charlie_plus, g.roles.charlie_minus)] = 1.0
    return a


class _SpectralKernel:
    """Amplitudes <r|exp(-iHt)|psi0> on a fixed row set (every row by default).

    V^T psi0 is formed once (`on_rows` shares it). V may span only part of the
    space (the cell quotient's eigenvectors unfolded to the pairs), so a psi0 that
    loses norm in V^T psi0 (beyond NORM_TOL) lies off that span and is refused. A
    scalar time gives shape (rows,) and is bit-exact: it rounds as exp(-1j * lambda t)
    * V^T psi0 followed by one complex product would. Protocol-2 schedules planned on
    curves of height ~1e-13 move with any one-ulp change there, so that path
    never moves. Its complex copy of V is built at the first scalar time: numpy's
    real-by-complex product gives the same bits, but took 1.0 ms against 0.05 ms
    for the 138 rows the min-loss planner reads at loop-36.

    A 1-D grid gives (rows, T) and must be arithmetic from 0, exactly h * arange(T)
    as `_time_grid` builds it; any other grid is a ValueError. As exp(-i lambda
    t_{s+m}) = exp(-i lambda t_s) exp(-i lambda t_m), blocks of w times share one
    table E = exp(-i lambda t_m), m < w, and a block from t_s needs only
    exp(-i lambda t_s) V^T psi0. The kernel takes w the largest power of two <= sqrt(T),
    at most PHASE_BLOCK (about 2 d sqrt(T) sines and cosines), and yields
    PHASE_BLOCK / w blocks as one product ((rows * blocks) x d) @ (d x w). The
    split phase rounds differently: a grid column agrees with the scalar time, and
    with exp(-1j * outer(lambda, t)) in one piece, to within 1e-13 for a unit psi0
    (measured: at most 8.4e-15 on the 8N grid at loop-36).
    """

    def __init__(self, e: Eigensystem, psi0: np.ndarray, rows=None):
        if psi0.shape[0] != e.eigenvectors.shape[0]:
            raise ValueError("state and eigensystem dimensions differ")
        self._neg_lam = -e.eigenvalues
        self._coeff = e._vt @ psi0
        if not abs(np.linalg.norm(self._coeff) - np.linalg.norm(psi0)) <= NORM_TOL:
            raise ValueError("state is not invariant on the eigensystem's span")
        self._v = e.eigenvectors if rows is None else e.eigenvectors[list(rows), :]

    def on_rows(self, rows) -> _SpectralKernel:
        """This kernel on a subset of its rows: V^T psi0 is shared, a complex copy of V is not."""
        sub = object.__new__(type(self))
        sub._neg_lam, sub._coeff, sub._v = self._neg_lam, self._coeff, self._v[list(rows), :]
        return sub

    @cached_property
    def _v_complex(self) -> np.ndarray:
        return self._v.astype(complex)

    def _phases(self, t: np.ndarray) -> np.ndarray:
        """exp(-i lambda t), shape (d, T), at the T times of a 1-D t.

        cos and sin of (-lambda) t are written into the real and imaginary
        parts of one buffer, which equals numpy's exp of the imaginary
        argument to the bit without its complex temporaries.
        """
        out = np.empty((self._neg_lam.size, t.size), dtype=complex)
        np.multiply.outer(self._neg_lam, t, out=out.real)
        np.sin(out.real, out=out.imag)
        np.cos(out.real, out=out.real)
        return out

    def _blocks(self, t: np.ndarray):
        """(column slice, amplitudes) for each block of an arithmetic grid from 0."""
        t = np.asarray(t, dtype=float)
        step = t[1] if t.ndim == 1 and t.size > 1 else 0.0
        if t.ndim != 1 or not np.array_equal(t, step * np.arange(t.size)):
            raise ValueError("a time grid must be exactly step * arange(T), starting at 0")
        # each block is made in the yield: this frame keeps none alive while the caller works
        w = min(PHASE_BLOCK, 1 << ((max(t.size, 1).bit_length() - 1) // 2))  # 2^k <= sqrt(T)
        offsets, starts = self._phases(t[:w]), self._phases(t[::w]) * self._coeff[:, None]
        for s in range(0, t.size, PHASE_BLOCK):
            shifts = starts[:, s // w:(s + PHASE_BLOCK) // w].T
            yield slice(s, min(s + PHASE_BLOCK, t.size)), (
                ((self._v[:, None, :] * shifts).reshape(-1, self._coeff.size) @ offsets)
                .reshape(self._v.shape[0], -1)[:, :t.size - s])

    def at_times(self, t) -> np.ndarray:
        """(rows, T) at the T times of any 1-D t, from one phase table in one piece: the
        real V times the table's real and imaginary columns, one real product. Within
        1e-13 of the scalar path for a unit psi0, which it does not replace."""
        phased = self._phases(np.asarray(t, dtype=float))
        phased *= self._coeff[:, None]
        return (self._v @ phased.view(float)).view(complex)

    def __call__(self, t) -> np.ndarray:
        if isinstance(t, float) or np.ndim(t) == 0:  # a refinement's float skips np.ndim
            theta = self._neg_lam * t  # the phases as `_phases` rounds them
            phased = np.empty(theta.size, dtype=complex)
            np.sin(theta, out=phased.imag)
            np.cos(theta, out=phased.real)
            phased *= self._coeff
            return self._v_complex @ phased
        out = np.empty((self._v.shape[0], np.size(t)), dtype=complex)
        for cols, amp in self._blocks(t):
            out[:, cols] = amp
        return out


def evolve(e: Eigensystem, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi0 through the spectral form, as a new array; norm is preserved."""
    return _SpectralKernel(e, psi0)(t)


def _norm_bound(product, size: int) -> float:
    """The Collatz-Wielandt bound max_i (A v)_i / v_i >= rho(A) of a nonnegative A,
    given by its product on nonnegative vectors of `size` entries, at v > 0 the sum of
    1 and A's first seven powers on it, each scaled to a largest entry <= 1. For a
    symmetric A, rho(A) = ||A||_2 (Meyer, Matrix Analysis, ch. 8)."""
    power = v = np.ones(size)
    for _ in range(7):
        power = product(power)
        power /= max(power.max(initial=0.0), 1.0)
        v = v + power
    return float(np.max(product(v) / v, initial=0.0))


def _chebyshev_order(x: float) -> int:
    """Orders kept for an argument of magnitude x = R |dt|: every order up to the first
    one past |x|/2 whose bound |J_k(x)| <= (|x|/2)^k / k! falls below CHEBYSHEV_TAIL."""
    order, log_bound = 0, 0.0
    while x > 0 and (order <= x / 2 or log_bound > np.log(CHEBYSHEV_TAIL)):
        order += 1
        log_bound += np.log(x / 2 / order)
    return order


@cache
def _five_smooth(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: a DFT length that numpy's FFT takes in its fast radices."""
    for m in range(n, 2 * n):  # 2^a lies in [n, 2n)
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m


def _chebyshev_work(radius: float, t_max: float, entries: int) -> float:
    """Entry steps of a recurrence to t_max: about R t_max products of `entries` entries."""
    return radius * t_max * (entries + CALL_STEPS)


def _chebyshev_bytes(entries: int, points: float) -> float:
    """Bytes of the largest span of a grid of `points` points, on vectors of `entries`:
    its terms (at most 128) and its states, 16 bytes an entry, and its Bessel table with
    the DFT that makes it, 7200 bytes a point (73 orders from 150 angles at CHEBYSHEV_SPAN)."""
    block = min(PHASE_BLOCK, points)
    return 16 * entries * (128 + block) + 7200 * block


def _chebyshev_coefficients(order: int, x: np.ndarray) -> np.ndarray:
    """c_0 .. c_order at each x = R dt, as an (order + 1, len(x)) table.

    By Jacobi-Anger, exp(-i x cos theta) = sum_k (-i)^k J_k(x) e^{ik theta}
    over every integer k, so one DFT of it at m >= 2 (order + 1) equal angles,
    m 5-smooth, divided by m, gives (-i)^k J_k(x) for k <= order: c_0, and half
    of every other c_k. The orders that fold onto them lie past `order`, below
    CHEBYSHEV_TAIL. cos theta takes m/2 + 1 distinct values, theta in [0, pi]:
    their cos and sin of -x cos theta are written into one buffer, as `_phases`
    writes its phases, and mirrored onto the other angles.
    """
    x = np.asarray(x, dtype=float)
    m = 2 * _five_smooth(order + 1)
    half = np.empty((m // 2 + 1, x.size), dtype=complex)
    np.multiply.outer(np.cos(2 * np.pi / m * np.arange(m // 2 + 1)), -x, out=half.real)
    np.sin(half.real, out=half.imag)
    np.cos(half.real, out=half.real)
    coeffs = np.fft.fft(np.concatenate([half, half[-2:0:-1]]), axis=0)[:order + 1] / m
    coeffs[1:] *= 2
    return coeffs


def _chebyshev_terms(apply, radius: float, psi: np.ndarray, order: int):
    """T_k(H/R) psi for k = 0 .. order, by the three-term recurrence."""
    prev, vec = psi, psi
    for k in range(order + 1):
        if k:
            prev, vec = vec, apply(vec) / radius if k == 1 else (2.0 / radius) * apply(vec) - prev
        yield vec


def _chebyshev_span(apply, radius: float, psi: np.ndarray, x: np.ndarray, memo: dict):
    """(table, terms) of exp(-iH dt) psi at every x = R dt, from one Chebyshev recurrence.

    With ||H|| <= R, exp(-iH dt) = sum_k c_k(dt) T_k(H/R) with c_0 = J_0(R dt) and
    c_k = 2 (-i)^k J_k(R dt) (Tal-Ezer & Kosloff, JCP 81, 3967 (1984)), to the order
    of the largest |x|: table[k, j] = c_k at x[j] and terms[k] = T_k(H/R) psi, so the
    state at x[j] is table[:, j] @ terms and a caller combines the terms on the entries
    it reads. `memo` keeps the last table built: an x that is a bitwise prefix of its x
    reads its columns at its order."""
    x = np.asarray(x, dtype=float)
    if memo.get("x", b"")[:x.nbytes] != x.tobytes():
        memo.update(x=x.tobytes(),
                    table=_chebyshev_coefficients(_chebyshev_order(float(np.max(np.abs(x)))), x))
    table = memo["table"][:, :x.size]
    terms = np.empty((table.shape[0], psi.size), dtype=complex)
    for k, vec in enumerate(_chebyshev_terms(apply, radius, psi, table.shape[0] - 1)):
        terms[k] = vec
    return table, terms


def _chebyshev_step(apply, radius: float, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-iH dt) psi alone, from one recurrence to the order of R |dt|."""
    c = _chebyshev_coefficients(_chebyshev_order(abs(radius * dt)), np.array([radius * dt]))
    return sum(map(np.multiply, c[:, 0], _chebyshev_terms(apply, radius, psi, len(c) - 1)))


def _chebyshev_spans(apply, radius: float, psi: np.ndarray, t_grid):
    """(grid slice, table, terms) for each span of the grid, as `_chebyshev_span` gives
    them: the state at the slice's j-th point is table[:, j] @ terms.

    psi is the state at t = 0; a grid exactly h * arange(T), as `_time_grid` builds it,
    is taken in units of h, so that equal offsets agree to the bit. A span starts at t0,
    the time of the state that seeds it, and runs over at most PHASE_BLOCK consecutive
    grid points t with R |t - t0| <= CHEBYSHEV_SPAN, the rest of the grid cut into spans
    of equal length. Its table also reads the next point where that is in reach, and the
    table's last column, that point's state or the span's last one, seeds the next span;
    a point out of reach is approached by steps of at most CHEBYSHEV_GAP / R first, the
    last of them onto the point. So every span of an even grid reads the first one's
    table; an uneven grid builds a table wherever its offsets change.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    step = t_grid[1] if t_grid.size > 1 and t_grid[1] > 0 else 1.0
    unit, times = ((step, np.arange(t_grid.size, dtype=float))
                   if np.array_equal(t_grid, step * np.arange(t_grid.size)) else (1.0, t_grid))
    scale, t0, start, memo = unit * radius, 0.0, 0, {}
    while start < times.size:
        gap = times[start] - t0
        if scale * abs(gap) > CHEBYSHEV_SPAN:
            reach = CHEBYSHEV_GAP / scale
            t1 = times[start] if abs(gap) <= reach else t0 + np.copysign(reach, gap)
            t0, psi = t1, _chebyshev_step(apply, radius, psi, unit * (t1 - t0))
            continue
        near = scale * np.abs(times[start:start + PHASE_BLOCK + 1] - t0) <= CHEBYSHEV_SPAN
        inside, rest = np.append(near, False).argmin(), times.size - start  # points in reach
        if inside == rest <= PHASE_BLOCK:  # the last span
            points = columns = rest
        else:  # equal spans of at most inside - 1 points, each with the next point's seed
            points = -(-rest // -(-rest // max(inside - 1, 1)))
            columns = points + (points < inside)
        x = scale * (times[start:start + columns] - t0)
        table, terms = _chebyshev_span(apply, radius, psi, x, memo)
        if points < rest:  # each entry summed in term order, the same bits on any subset
            psi, t0 = np.einsum("k,kn->n", table[:, -1], terms), times[start + columns - 1]
        yield slice(start, start + points), table[:, :points], terms
        del table, terms  # this frame keeps no span alive while the next is made
        start += points


def refine_maximum(f, lo: float, hi: float, tol: float,
                   max_iter: int = 200) -> tuple[float, float]:
    """Locate the maximum of a smooth scalar f on [lo, hi] to |dt| < tol.

    Iterated three-point parabolic steps with interval shrinking; falls
    back to trisection when the parabola degenerates. tol must be > 0.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError(f"refine_tol must be positive, got {tol}")
    a, b = float(lo), float(hi)
    m = 0.5 * (a + b)
    fm = f(m)
    for _ in range(max_iter):
        if b - a < tol:
            break
        fa, fb = f(a), f(b)
        denom = (fa - 2.0 * fm + fb)
        if denom < -1e-18 * max(1.0, abs(fm)):
            cand = m + 0.25 * (b - a) * (fa - fb) / denom
        else:
            cand = m + 0.25 * (b - a) * (1 if fb > fa else -1)
        cand = min(max(cand, a), b)
        fc = f(cand)
        if fc >= fm:
            m, fm = float(cand), fc
        half = 0.25 * (b - a)
        a, b = max(lo, m - half), min(hi, m + half)
    return m, fm


#: sampled local maxima within this distance of the grid max are refined
CANDIDATE_TOL = 1e-6
#: refined heights within this distance count as an exact tie
TIE_TOL = 1e-9
HERALD_FLOOR = 1e-15  # p_S grid maximum below which nothing is left to herald


def _peak_candidates(curve: np.ndarray) -> np.ndarray:
    """Indices of the sampled local maxima within CANDIDATE_TOL of the maximum.

    A point is a local maximum when it is >= each neighbour it has, so
    plateau points and maxima at either end count.
    """
    at_least_left = np.concatenate([[True], curve[1:] >= curve[:-1]])
    at_least_right = np.concatenate([curve[:-1] >= curve[1:], [True]])
    tall = curve >= float(curve.max()) - CANDIDATE_TOL
    return np.flatnonzero(tall & at_least_left & at_least_right)


def select_peak(curve: np.ndarray, grid: np.ndarray, objective,
                refine_tol: float) -> tuple[float, float]:
    """Earliest among the (refined) tallest local maxima of a curve on a `_time_grid` grid.

    All sampled local maxima within CANDIDATE_TOL of the grid maximum are refined
    within grid[1], the step (0 on a one-point grid), of their point; among refined
    heights within TIE_TOL of the best, the earliest time wins. Exactly periodic
    curves (common on these graphs) therefore resolve to their first recurrence.
    """
    step = float(grid[1]) if grid.size > 1 else 0.0
    remembered = cache(objective)  # refine_maximum asks again for ends it has kept
    refined = []
    for k in _peak_candidates(curve):
        lo = max(float(grid[0]), float(grid[k]) - step)
        hi = min(float(grid[-1]), float(grid[k]) + step)
        t_r, p_r = refine_maximum(remembered, lo, hi, refine_tol)
        if curve[k] >= p_r:
            t_r, p_r = float(grid[k]), float(curve[k])
        refined.append((t_r, p_r))
    best = max(p for _, p in refined)
    t_star, p_star = min((t, p) for t, p in refined if p >= best - TIE_TOL)
    return float(t_star), float(p_star)


def _spectral_cost(dim: int, points: float = 0.0) -> tuple[float, float]:
    """(work, bytes) of `eigh` and its checks (dim^3 / 16 entry steps, 6 dim^2 floats) and
    of the kernel's row on a grid of `points` times (dim / 16 + 8 steps, 40 bytes each)."""
    return dim ** 3 / 16 + points * (dim / 16 + 8), 8 * (6 * dim * dim + 5 * points)


def _peak(g: Graph, e: Eigensystem, psi0: np.ndarray, rows, p_success,
          t_max: float | None, grid_step: float, refine_tol: float) -> tuple[float, float]:
    """`select_peak` of p_success(row amplitudes) on [0, t_max]; (0, 0) below HERALD_FLOOR."""
    if not np.all(np.isfinite(psi0)):  # a NaN curve has no candidate peak
        raise ValueError("the state to search for a peak is not finite")
    t_max = PEAK_WINDOW_FACTOR * g.n_vertices if t_max is None else t_max
    grid = _time_grid(t_max, grid_step)
    kernel = _SpectralKernel(e, psi0, rows)
    curve = p_success(kernel(grid))
    if curve.max() < HERALD_FLOOR:
        logger.warning("success probability identically zero over [0, %g]", t_max)
        return 0.0, 0.0
    return select_peak(curve, grid, lambda t: float(p_success(kernel(t))), refine_tol)


def find_peak(e: Eigensystem, psi0: np.ndarray, g: Graph,
              t_max: float | None = None) -> tuple[float, float]:
    """Global maximum of the success probability over [0, t_max].

    Grid scan at DEFAULT_GRID_STEP, parabolic refinement to DEFAULT_REFINE_TOL.
    On exact ties the earliest time wins (less-dispersed post-measurement states).
    Returns (0.0, 0.0) with a warning if the grid curve stays below HERALD_FLOOR.
    """
    return _peak(g, e, psi0, _index_groups(g)["success"],
                 lambda amp: 0.5 * np.abs(amp[0] + amp[1]) ** 2, t_max,
                 DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL)


#: (shift, odd multiplier) steps of splitmix64's finaliser, a bijection of uint64 keys
_MIX = [(np.uint64(s), np.uint64(m)) for s, m in ((30, 0xBF58476D1CE4E5B9),
                                                  (27, 0x94D049BB133111EB), (31, 1))]


@lru_cache(maxsize=1)
def _pair_cells(g: Graph) -> np.ndarray:
    """Cell of each ordered pair |i,j> (lexicographic; read-only, cached so a command
    refines once) in the coarsest equitable partition of H's pair graph that separates
    |c+,c->, |c-,c+>, the other psi1 pairs, psi2 and psi3, and success (Godsil & Royle,
    Algebraic Graph Theory, ch. 9): H keeps the span of the cells, and an automorphism
    keeping psi0 and the outcomes maps each cell onto itself. Colour refinement: a round
    adds to each pair's key, times an odd factor, its images' keys mixed by `_MIX`, modulo
    2^64, until no cell splits. A hash only merges, so the result is not finer than the
    coarsest; checked exactly equitable and finer than the seeds (a collision raises),
    it is not coarser either."""
    n, r, (plus, minus) = g.n_vertices, g.roles, _pairs(g.n_vertices)
    d = plus.size
    pair, moved = _pair_images(g)
    slot = np.arange(pair.size) - np.searchsorted(pair, pair)  # pair k's images, in slots
    image = np.full((slot.max() + 1, d), -1)
    image[slot, pair] = moved
    key = np.zeros(d + 1, dtype=np.uint64)  # slot -1 (no edge) reads key[d] = 0
    key[:d] = np.minimum(_outcome(g, plus, minus), 2)  # psi1 1; psi2, psi3 and success 2
    key[_index_groups(g)["success"]] = 3
    key[_pair_position(n, np.array([r.charlie_plus, r.charlie_minus]),
                       np.array([r.charlie_minus, r.charlie_plus]))] = 4, 5
    seed, cells = key[:d].copy(), 0
    while True:
        ranked = np.sort(key[:d])
        if cells == (cells := 1 + np.count_nonzero(ranked[1:] != ranked[:-1])):
            break
        mixed = key
        for shift, multiplier in _MIX:
            mixed = (mixed ^ (mixed >> shift)) * multiplier
        key[:d] = key[:d] * _MIX[0][1] + mixed[image].sum(axis=0)  # own key: an odd factor
    _, first, cell = np.unique(key[:d], return_index=True, return_inverse=True)
    first = first[cell]  # the first pair of each pair's cell
    images = np.append(cell, -1)[image]
    images.sort(axis=0)
    if not (np.array_equal(seed, seed[first]) and np.array_equal(images, images[:, first])):
        raise RuntimeError("colour refinement merged pairs of unequal cells (hash collision)")
    cell.setflags(write=False)
    return cell


def pair_cells(g: Graph) -> list[list[tuple[int, int]]]:
    """The cells of `_pair_cells` as lists of ordered pairs (i, j), the +1 excitation at
    i and the -1 at j; the cells and the pairs in each in lexicographic order of pairs."""
    cells, (plus, minus) = _pair_cells(g), _pairs(g.n_vertices)
    return [list(zip(plus[cells == c].tolist(), minus[cells == c].tolist()))
            for c in dict.fromkeys(cells.tolist())]


def bell_pairs_share_a_cell(g: Graph) -> bool:
    """Whether |A,B> and |B,A> lie in one cell of `_pair_cells`, so that every state the
    protocols prepare holds equal amplitudes on the two."""
    ba, ab = _pair_cells(g)[_index_groups(g)["success"]]
    return bool(ba == ab)


def _c_orbits(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(orbit, sign) of each ordered pair: C|i,j> = |j,i> maps the pair's cell X of
    `_pair_cells` onto a cell CX, orbit is the lesser of X and CX, and sign is +1 where
    X < CX, -1 where X > CX and 0 where X = CX (a cell with no C-odd state)."""
    n, cells = g.n_vertices, _pair_cells(g)
    mirror = cells[_pair_position(n, *_pairs(n)[::-1])]
    return np.minimum(cells, mirror), np.sign(mirror - cells)


def _c_blocks(g: Graph, parities=(1, -1)):
    """(block, label, weight) of the cell quotient's C-even (parity 1) and C-odd (-1)
    blocks, in the order asked, from one `_c_orbits` and one `_pair_images` pass. C
    commutes with H and maps each cell onto a cell, so H's quotient on the cells splits
    exactly on the orbit states (e_X + e_CX)/sqrt2 (e_X where X = CX) and (e_X -
    e_CX)/sqrt2, X < CX: label is each pair's orbit state, numbered by orbit, and weight
    the pair's coefficient on it, 1 in the C-even block and its sign in the C-odd one (0
    drops a cell with X = CX). Entry (o', o) is s_o' s_o times the weighted count of H's
    nonzeros from orbit o to o', s_o = 1/sqrt(pairs of o): integer sums scaled once, so
    each block is exactly symmetric, as `spectral_decompose` requires."""
    orbit, sign = _c_orbits(g)
    pair, image = _pair_images(g)
    for parity in parities:
        weight = np.ones(sign.size) if parity == 1 else sign
        keep = weight != 0
        label = np.zeros(sign.size, dtype=np.intp)
        label[keep] = np.unique(orbit[keep], return_inverse=True)[1]
        k = label.max() + 1
        count = np.bincount(label[image] * k + label[pair], weight[image] * weight[pair],
                            k * k).reshape(k, k)
        scale = 1.0 / np.sqrt(np.bincount(label[keep], minlength=k))
        yield count * np.outer(scale, scale), label, weight


def _peak_cost(n: int, t_max: float, points: float, g: Graph | None = None):
    """`_spectral_cost` of `one_shot_peak`'s block, of k+ orbit states (N(N-1)/2 without g)."""
    return _spectral_cost(n * (n - 1) // 2 if g is None
                          else np.count_nonzero(np.bincount(_c_orbits(g)[0])), points)


def one_shot_peak(g: Graph, t_max: float | None = None,
                  grid_step: float = DEFAULT_GRID_STEP,
                  refine_tol: float = DEFAULT_REFINE_TOL) -> tuple[float, float]:
    """`find_peak` from the initial state, on the C-even block of `_c_blocks`.

    (a_BA + a_AB)/sqrt2 = <o_AB|psi(t)>, o_AB the orbit state of |A,B> and |B,A>, and
    |c+,c-> has C-even part |o_C>/sqrt2, so p_S = |<o_AB|exp(-iH+ t)|o_C>|^2 / 2; each
    orbit holds its two pairs alone (seeds of `_pair_cells`). The peak differs from
    `find_peak`'s by rounding only, within refine_tol in t*.
    """
    n, r = g.n_vertices, g.roles
    [(h, label, _)] = _c_blocks(g, (1,))
    e = spectral_decompose(h)
    start = np.zeros(e.eigenvalues.size, dtype=complex)
    start[label[pair_index(n, r.charlie_plus, r.charlie_minus)]] = 1.0
    return _peak(g, e, start, [label[pair_index(n, r.alice, r.bob)]],
                 lambda amp: 0.5 * np.abs(amp[0]) ** 2, t_max, grid_step, refine_tol)
