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
The exchange C|i,j> = |j,i> commutes with H on every graph, so H splits
into an even block H+ and an odd block H-, each on the N(N-1)/2 unordered
pairs. `_role_fold(g, parity)` folds either block onto the pair orbits of the
automorphisms that keep {c+,c-} and {A,B}, signed on H-: the Bell amplitude
of `one_shot_peak` is read on the folded H+, and `scan` and the protocol-2
planner read their grids on both folds (`measurement._fold_scan`).
The propagator exp(-iHt) is evaluated through the dense eigendecomposition;
for N <= 36 the dimension stays at or below 1260, where this is both exact
and cheap to re-evaluate at many times. One private kernel,
`_SpectralKernel`, holds the only exp(-i lambda t): it serves a scalar time
(`evolve`, peak refinement, protocol-2 steps), a few rows along a grid
(`amplitude_rows`, the peak searches, the protocol-2 planner), and every row
of a folded C block along a grid (`measurement.outcome_curves`). The scalar
path is bit-exact; the grid path takes only arithmetic grids from 0, such as
`_time_grid`'s, steps blocks of times that share one phase table (about
sqrt(T) wide on a row subset) and agrees with the scalar path to within 1e-13.
`select_peak` picks the peak time of a sampled curve, for the peak searches
and for every protocol-2 planning strategy. Units: hbar = 1, J = 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .topology import ROLE_SWAPS, Graph, find_protocol_automorphism

logger = logging.getLogger(__name__)

DEFAULT_GRID_STEP = 0.01
DEFAULT_REFINE_TOL = 1e-6
#: default one-shot scan window is [0, PEAK_WINDOW_FACTOR * N]. The window
#: must reach the latest resonance the peak tables rely on (6.29 N for the
#: 4-site loop) while stopping short of later recurrences that overtake the
#: tabulated peak on the 32-site loop (from 6.42 N); any factor in between
#: reproduces the reference tables, 6.4 is used.
PEAK_WINDOW_FACTOR = 6.4
#: times per block of a row subset's amplitudes along a grid (and of `oracle`'s
#: Chebyshev table), whatever the grid length; a power of two, as the kernel needs
PHASE_BLOCK = 1024
#: times per block when every row is wanted (`scan`): on a C block with no fold
#: (d = 630, the seeded 36-site graph without a role exchange) a block's phases
#: are 2.6 MB. That graph's `scan` peaks at 52.5 MB of RSS at 256 for 1001 points
#: and at 56.0 MB for the default 23,041; at 1024 it reached 77.0 and 85.5 MB.
#: On loop-36's folds (171 and 162 orbits) the peaks are 36.0 and 38.5 MB.
FULL_STATE_BLOCK = 256
#: a grid point may pass t_max by this much and still count as <= t_max: it
#: absorbs the rounding of k * step, not a further step
GRID_END_SLACK = 1e-9


def _time_grid(t_max: float, step: float) -> np.ndarray:
    """0, step, 2 step, ... up to t_max > 0, end point included.

    The points are those of np.arange(0.0, t_max + step, step), whose last
    point passes t_max for some windows (0.71 for t_max = 0.7, step 0.01).
    """
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
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


def _unordered_position(n: int, i, j):
    """Lexicographic position of {i,j} among the pairs i < j; elementwise on site arrays."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    return (lo - 1) * (2 * n - lo) // 2 + (hi - lo - 1)


def _unordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sites i < j of every unordered pair {i,j}, in lexicographic order."""
    lo, hi = np.triu_indices(n, 1)
    return lo + 1, hi + 1


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


@lru_cache(maxsize=64)
def _index_groups(g: Graph) -> dict[str, np.ndarray]:
    """Pair-basis rows of the four measurement outcomes (`_outcome`).

    ``success`` holds |bob,alice> then |alice,bob>; ``g1``, ``g2`` and ``g3``
    the pairs of psi1, psi2 and psi3.
    """
    n, a, b = g.n_vertices, g.roles.alice, g.roles.bob
    outcome = _outcome(g, *_pairs(n))
    return {"success": np.array([pair_index(n, b, a), pair_index(n, a, b)]),
            **{f"g{k}": np.flatnonzero(outcome == k) for k in (1, 2, 3)}}


def _exchange_matrix(g: Graph, plus: np.ndarray, minus: np.ndarray, position,
                     parity: int = 1, label: np.ndarray | None = None,
                     sign: np.ndarray | None = None) -> np.ndarray:
    """The edges' exchange operator on a pair list, each pair (plus[k], minus[k]).

    For each edge (m,n) and pair (i,j): if the edge touches exactly one of
    the excitations, that excitation hops to the other endpoint; if the
    edge is {i,j}, the two excitations swap. Edges disjoint from {i,j}
    contribute nothing. An image (k,l) with k > l enters with the sign `parity`
    (-1 only for the C-odd block), times sign[image] sign[pair] (default 1). One
    bincount scatters every edge onto label[image], label[pair] (default label[k] = k):
    with orbit labels, entry (O', O) sums +-H over O' x O, exactly in any order.
    """
    label = np.arange(plus.size) if label is None else label
    sign = np.ones(plus.size) if sign is None else sign
    d = label.max() + 1
    m, mm = np.array(sorted(g.edges)).T[:, :, None]
    ti = np.where(plus == m, mm, np.where(plus == mm, m, plus))
    tj = np.where(minus == m, mm, np.where(minus == mm, m, minus))
    moved = (ti != plus) | (tj != minus)
    pair, ti, tj = np.nonzero(moved)[1], ti[moved], tj[moved]
    image = position(ti, tj)
    weight = np.where(ti > tj, parity, 1.0) * sign[image] * sign[pair]
    return np.bincount(label[image] * d + label[pair], weight, d * d).reshape(d, d)


def assemble_hamiltonian(g: Graph) -> np.ndarray:
    """H = sum over edges of the equal-state-free exchange operator (zero diagonal):
    the real symmetric matrix in the pair basis, in units of J."""
    n = g.n_vertices
    return _exchange_matrix(g, *_pairs(n), partial(_pair_position, n))


@dataclass(frozen=True)
class Eigensystem:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns paired with eigenvalues

    #: C-ordered V^T, so V^T psi needs no transposing copy per call. Built
    #: here, it reuses heap the decomposition's checks just freed; built at
    #: the first projection instead, it raised the peak RSS of the protocol-1
    #: tables (C-even blocks, d up to 630; glibc, OpenBLAS) from 78.8 to
    #: 79.4 MB, and from 120 to 130 MB on the full space (d up to 1260), which
    #: protocol 2 still diagonalises.
    _vt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_vt", np.ascontiguousarray(self.eigenvectors.T))


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


def initial_state(g: Graph) -> np.ndarray:
    """|charlie_plus, charlie_minus>, a new complex amplitude vector over the pair basis:
    +1 at Charlie's plus site, -1 at the other."""
    n = g.n_vertices
    a = np.zeros(n * (n - 1), dtype=complex)
    a[pair_index(n, g.roles.charlie_plus, g.roles.charlie_minus)] = 1.0
    return a


class _SpectralKernel:
    """Amplitudes <r|exp(-iHt)|psi0> on a fixed row set (every row by default).

    V^T psi0 is formed once (`on_rows` shares it). A scalar time gives shape
    (rows,) and is bit-exact: it rounds as exp(-1j * lambda t) * V^T psi0
    followed by one complex product would. Protocol-2 schedules planned on
    curves of height ~1e-13 move with any one-ulp change there, so that path
    never moves. Its complex copy of V is built at the first scalar time: numpy's
    real-by-complex product gives the same bits, but took 1.0 ms against 0.05 ms
    for the 138 rows the min-loss planner reads at loop-36.

    A 1-D grid gives (rows, T) and must be arithmetic from 0, exactly h * arange(T)
    as `_time_grid` builds it; any other grid is a ValueError. As exp(-i lambda
    t_{s+m}) = exp(-i lambda t_s) exp(-i lambda t_m), blocks of w times share one
    table E = exp(-i lambda t_m), m < w, and a block from t_s needs only
    exp(-i lambda t_s) V^T psi0. Every row takes w = FULL_STATE_BLOCK, one real
    product per block. A row subset takes w the largest power of two <= sqrt(T),
    at most PHASE_BLOCK (about 2 d sqrt(T) sines and cosines), and yields
    PHASE_BLOCK / w blocks as one product ((rows * blocks) x d) @ (d x w). The
    split phase rounds differently: a grid column agrees with the scalar time, and
    with exp(-1j * outer(lambda, t)) in one piece, to within 1e-13 for a unit psi0
    (measured: at most 8.4e-15 on the 8N grid at loop-36).
    """

    def __init__(self, e: Eigensystem, psi0: np.ndarray, rows=None):
        if psi0.shape[0] != e.eigenvalues.shape[0]:
            raise ValueError("state and eigensystem dimensions differ")
        self._neg_lam = -e.eigenvalues
        self._coeff = e._vt @ psi0
        self._full = rows is None
        self._v = e.eigenvectors if self._full else e.eigenvectors[list(rows), :]

    def on_rows(self, rows) -> _SpectralKernel:
        """This kernel on a subset of its rows: V^T psi0 is shared, a complex copy of V is not."""
        sub = object.__new__(type(self))
        sub._neg_lam, sub._coeff = self._neg_lam, self._coeff
        sub._full, sub._v = False, self._v[list(rows), :]
        return sub

    @cached_property
    def _v_complex(self) -> np.ndarray:
        return self._v.astype(complex)

    def _phases(self, t) -> np.ndarray:
        """exp(-i lambda t): shape (d,) at a scalar t, (d, T) on a grid.

        cos and sin of (-lambda) t are written into the real and imaginary
        parts of one buffer, which equals numpy's exp of the imaginary
        argument to the bit without its complex temporaries.
        """
        out = np.empty(self._neg_lam.shape + np.shape(t), dtype=complex)
        np.multiply.outer(self._neg_lam, t, out=out.real)
        np.sin(out.real, out=out.imag)
        np.cos(out.real, out=out.real)
        return out

    def _phased(self, t: float) -> np.ndarray:
        """exp(-i lambda t) V^T psi0 at a scalar t, shape (d,)."""
        out = self._phases(t)
        out *= self._coeff
        return out

    def _blocks(self, t: np.ndarray):
        """(column slice, amplitudes) for each block of an arithmetic grid from 0."""
        t = np.asarray(t, dtype=float)
        step = t[1] if t.ndim == 1 and t.size > 1 else 0.0
        if t.ndim != 1 or not np.array_equal(t, step * np.arange(t.size)):
            raise ValueError("a time grid must be exactly step * arange(T), starting at 0")
        # each block is made in the yield: this frame keeps none alive while the caller works
        if self._full:  # V is real: one real product over the (re, im) column pairs
            offsets = self._phases(t[:FULL_STATE_BLOCK])
            for s in range(0, t.size, FULL_STATE_BLOCK):
                n = min(FULL_STATE_BLOCK, t.size - s)
                shift = self._phased(t[s])
                yield slice(s, s + n), (self._v @ (offsets[:, :n] * shift[:, None])
                                        .view(np.float64)).view(np.complex128)
            return
        w = min(PHASE_BLOCK, 1 << ((max(t.size, 1).bit_length() - 1) // 2))  # 2^k <= sqrt(T)
        offsets, starts = self._phases(t[:w]), self._phases(t[::w]) * self._coeff[:, None]
        for s in range(0, t.size, PHASE_BLOCK):
            shifts = starts[:, s // w:(s + PHASE_BLOCK) // w].T
            yield slice(s, min(s + PHASE_BLOCK, t.size)), (
                ((self._v[:, None, :] * shifts).reshape(-1, self._coeff.size) @ offsets)
                .reshape(self._v.shape[0], -1)[:, :t.size - s])

    def __call__(self, t) -> np.ndarray:
        if np.ndim(t) == 0:
            return self._v_complex @ self._phased(t)
        out = np.empty((self._v.shape[0], np.size(t)), dtype=complex)
        for cols, amp in self._blocks(t):
            out[:, cols] = amp
        return out


def evolve(e: Eigensystem, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi0 through the spectral form, as a new array; norm is preserved."""
    return _SpectralKernel(e, psi0)(t)


def amplitude_rows(e: Eigensystem, psi0: np.ndarray, rows, t_grid: np.ndarray) -> np.ndarray:
    """Selected amplitude components along a time grid, shape (len(rows), T).

    Much cheaper than evolving the full vector when only a few components
    are needed (peak searches use the two Bell-channel rows). The grid must
    be step * arange(T), as `_time_grid` builds it.
    """
    return _SpectralKernel(e, psi0, rows)(t_grid)


def refine_maximum(f, lo: float, hi: float, tol: float,
                   max_iter: int = 200) -> tuple[float, float]:
    """Locate the maximum of a smooth scalar f on [lo, hi] to |dt| < tol.

    Iterated three-point parabolic steps with interval shrinking; falls
    back to trisection when the parabola degenerates.
    """
    a, b = float(lo), float(hi)
    m = 0.5 * (a + b)
    fm = f(m)
    for _ in range(max_iter):
        if b - a < tol:
            break
        fa, fb = f(a), f(b)
        denom = (fa - 2.0 * fm + fb)
        if denom < -1e-18 * max(1.0, abs(fm)):
            step = 0.25 * (b - a) * (fa - fb) / denom
            cand = np.clip(m + step, a, b)
        else:
            cand = m + 0.25 * (b - a) * (1 if fb > fa else -1)
            cand = np.clip(cand, a, b)
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
    at_least_left = np.ones(curve.size, dtype=bool)
    at_least_left[1:] = curve[1:] >= curve[:-1]
    at_least_right = np.ones(curve.size, dtype=bool)
    at_least_right[:-1] = curve[:-1] >= curve[1:]
    tall = curve >= float(curve.max()) - CANDIDATE_TOL
    return np.flatnonzero(tall & at_least_left & at_least_right)


def select_peak(curve: np.ndarray, grid: np.ndarray, objective, grid_step: float,
                refine_tol: float) -> tuple[float, float]:
    """Earliest among the (refined) tallest local maxima of a sampled curve.

    All sampled local maxima within CANDIDATE_TOL of the grid maximum are
    refined; among refined heights within TIE_TOL of the best, the earliest
    time wins. Exactly periodic curves (common on these graphs) therefore
    resolve to their first recurrence.
    """
    refined = []
    for k in _peak_candidates(curve):
        lo = max(float(grid[0]), float(grid[k]) - grid_step)
        hi = min(float(grid[-1]), float(grid[k]) + grid_step)
        t_r, p_r = refine_maximum(objective, lo, hi, refine_tol)
        if curve[k] >= p_r:
            t_r, p_r = float(grid[k]), float(curve[k])
        refined.append((t_r, p_r))
    best = max(p for _, p in refined)
    t_star, p_star = min((t, p) for t, p in refined if p >= best - TIE_TOL)
    return float(t_star), float(p_star)


def _peak(g: Graph, e: Eigensystem, psi0: np.ndarray, rows, p_success,
          t_max: float | None, grid_step: float, refine_tol: float) -> tuple[float, float]:
    """`select_peak` of p_success(row amplitudes) on [0, t_max]; (0, 0) below HERALD_FLOOR."""
    t_max = PEAK_WINDOW_FACTOR * g.n_vertices if t_max is None else t_max
    grid = _time_grid(t_max, grid_step)
    curve = p_success(amplitude_rows(e, psi0, rows, grid))
    if curve.max() < HERALD_FLOOR:
        logger.warning("success probability identically zero over [0, %g]", t_max)
        return 0.0, 0.0
    kernel = _SpectralKernel(e, psi0, rows)
    return select_peak(curve, grid, lambda t: float(p_success(kernel(t))),
                       grid_step, refine_tol)


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


def _role_fold(g: Graph, parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S^T H_parity S, each pair's orbit, u): the C block of that parity on the unordered
    pairs |{i,j}+-> = (|i,j> +- |j,i>)/sqrt2, i < j, folded onto the orbit states
    |O> = sum_{p in O} u_p |p> of the automorphisms that keep {c+,c-} and {A,B}.

    One automorphism P per `ROLE_SWAPS` entry acts as |i,j> -> |Pi,Pj>, then C where P
    exchanges c+ and c-, so it keeps psi0 and commutes with H, C and the outcomes. It
    maps |{i,j}+-> to sigma |{Pi,Pj}+->, where sigma is parity to the number of sign
    flips: Pi > Pj, and the C. An invariant state has a_P(p) = sigma a_p, so on an orbit
    numbered by its least pair r, u_p = sign_p / sqrt|O| with a_p = sign_p a_r; an orbit
    that the P map onto its own negative holds no invariant state and drops out (u = 0,
    label 0). Entry (O', O) is s_O' s_O times the integer sum of +-H over O' x O, so with
    no exchange it is the C block to the bit.
    """
    n = g.n_vertices
    i, j = _unordered_pairs(n)
    position = partial(_unordered_position, n)
    maps = [(swap, np.array((0, *m))) for swap in ROLE_SWAPS
            if (m := find_protocol_automorphism(g, swap))]
    moves = [(position(p[i], p[j]), np.where((p[i] > p[j]) != (swap[0] != 0), parity, 1.0))
             for swap, p in maps]
    label, sign = np.arange(i.size), np.ones(i.size)
    while not all(np.array_equal(label, label[move]) for move, _ in moves):
        for move, sigma in moves:  # a_p = sigma a_P(p): take the lesser root, with its sign
            lower = label[move] < label
            label[lower], sign[lower] = label[move][lower], (sigma * sign[move])[lower]
    clash = np.zeros(i.size, dtype=bool)  # at orbit roots
    for move, sigma in moves:
        clash[label[sign != sigma * sign[move]]] = True
    kept = ~clash[label]
    # numbered by least pair with no sort: np.unique's sort code would stay resident
    label = np.where(kept, (np.cumsum(kept & (label == np.arange(i.size))) - 1)[label], 0)
    sign[~kept] = 0.0
    s = 1.0 / np.sqrt(np.bincount(label[kept]))
    h = _exchange_matrix(g, i, j, position, parity, label, sign) * np.outer(s, s)
    return h, label, sign * s[label]


def one_shot_peak(g: Graph, t_max: float | None = None,
                  grid_step: float = DEFAULT_GRID_STEP,
                  refine_tol: float = DEFAULT_REFINE_TOL) -> tuple[float, float]:
    """`find_peak` from the initial state, on the role-symmetric part of the C-even block.

    (a_BA + a_AB)/sqrt2 = <{A,B}+|psi(t)>, and |c+,c-> has C-even part
    |{c+,c-}+>/sqrt2, so p_S = |<{A,B}+|exp(-iH+ t)|{c+,c-}+>|^2 / 2, and both
    pairs are orbits of one in `_role_fold`. The peak differs from
    `find_peak`'s by rounding only, within refine_tol in t*.
    """
    n, r = g.n_vertices, g.roles
    h, label, _ = _role_fold(g, 1)
    e = spectral_decompose(h)
    start = np.zeros(e.eigenvalues.size, dtype=complex)
    start[label[_unordered_position(n, r.charlie_plus, r.charlie_minus)]] = 1.0
    return _peak(g, e, start, [label[_unordered_position(n, r.alice, r.bob)]],
                 lambda amp: 0.5 * np.abs(amp[0]) ** 2, t_max, grid_step, refine_tol)
