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
The propagator exp(-iHt) is evaluated through the dense eigendecomposition;
for N <= 36 the dimension stays at or below 1260, where this is both exact
and cheap to re-evaluate at many times. One private kernel,
`_SpectralKernel`, holds the only exp(-i lambda t): it serves a scalar time
(`evolve`), a few rows along a grid (`amplitude_rows`, `find_peak`, the
protocol-2 planner), and the full state along a grid one block of times at
a time (the outcome curves of `measurement.outcome_curves`). Time grids are
built by `_time_grid`, which ends at t_max. Units: hbar = 1, J = 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .topology import Graph

logger = logging.getLogger(__name__)

DEFAULT_GRID_STEP = 0.01
DEFAULT_REFINE_TOL = 1e-6
#: default one-shot scan window is [0, PEAK_WINDOW_FACTOR * N]. The window
#: must reach the latest resonance the peak tables rely on (6.29 N for the
#: 4-site loop) while stopping short of later recurrences that overtake the
#: tabulated peak on the 32-site loop (from 6.42 N); any factor in between
#: reproduces the reference tables, 6.4 is used.
PEAK_WINDOW_FACTOR = 6.4
#: times per phase block on a grid: the exp(-i lambda t) block holds at most
#: d * PHASE_BLOCK complex numbers (20 MB at d = 1260), whatever the grid length
PHASE_BLOCK = 1024
#: times per block when every row is wanted: the block's phases and its d x B
#: amplitudes are each 5 MB at d = 1260. A loop-36 `scan` peaked at 112-113 MB
#: of RSS at 256, as before blocking; at 1024 it reached 118 MB for 1001 points
#: and 140 MB for the default 23,041.
FULL_STATE_BLOCK = 256
#: a grid point may pass t_max by this much and still count as <= t_max: it
#: absorbs the rounding of k * step, not a further step
GRID_END_SLACK = 1e-9


def _time_grid(t_max: float, step: float) -> np.ndarray:
    """0, step, 2 step, ... up to t_max, end point included.

    The points are those of np.arange(0.0, t_max + step, step), whose last
    point passes t_max for some windows (0.71 for t_max = 0.7, step 0.01).
    """
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


@lru_cache(maxsize=64)
def _index_groups(g: Graph) -> dict[str, np.ndarray]:
    """Pair-basis rows of the four measurement outcomes, from Alice's and Bob's sites.

    ``success`` holds |bob,alice> then |alice,bob>; ``g2``/``g3`` the pairs
    touching only Alice/only Bob; ``g1`` the pairs touching neither.
    """
    n, a, b = g.n_vertices, g.roles.alice, g.roles.bob
    plus, minus = _pairs(n)
    on_a = (plus == a) | (minus == a)
    on_b = (plus == b) | (minus == b)
    return {"success": np.array([pair_index(n, b, a), pair_index(n, a, b)]),
            "g1": np.flatnonzero(~on_a & ~on_b),
            "g2": np.flatnonzero(on_a & ~on_b),
            "g3": np.flatnonzero(on_b & ~on_a)}


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric exchange matrix in the pair basis (units of J)."""

    matrix: np.ndarray


def assemble_hamiltonian(g: Graph) -> Hamiltonian:
    """Build H = sum over edges of the equal-state-free exchange operator.

    For each edge (m,n) and pair (i,j): if the edge touches exactly one of
    the excitations, that excitation hops to the other endpoint; if the
    edge is {i,j}, the two excitations swap. Edges disjoint from {i,j}
    contribute nothing (zero diagonal). For one edge the pairs it moves map
    one to one onto their images, so each edge is a single scatter.
    """
    n = g.n_vertices
    plus, minus = _pairs(n)
    h = np.zeros((plus.size, plus.size))
    for (m, mm) in g.edges:
        ti = np.where(plus == m, mm, np.where(plus == mm, m, plus))
        tj = np.where(minus == m, mm, np.where(minus == mm, m, minus))
        moved = (ti != plus) | (tj != minus)
        h[_pair_position(n, ti[moved], tj[moved]), moved] += 1.0
    return Hamiltonian(h)


@dataclass(frozen=True)
class Eigensystem:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns paired with eigenvalues

    #: C-ordered V^T, so V^T psi needs no transposing copy per call. Built
    #: here, it reuses heap the decomposition's checks just freed; built at
    #: the first projection instead, it raised the peak RSS of the protocol-1
    #: tables (d up to 1260; glibc, OpenBLAS) from 120 to 130 MB.
    _vt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_vt", np.ascontiguousarray(self.eigenvectors.T))


def spectral_decompose(h: Hamiltonian) -> Eigensystem:
    """Full eigendecomposition of the (symmetric) Hamiltonian.

    Verifies orthogonality and reconstruction to 1e-10 before returning;
    a violation indicates an eigensolver failure and is fatal.
    """
    m = h.matrix
    if not np.allclose(m, m.T, atol=0.0):
        raise ValueError("Hamiltonian matrix is not symmetric")
    lam, vec = np.linalg.eigh(m)
    d = m.shape[0]
    if np.max(np.abs(vec.T @ vec - np.eye(d))) > 1e-10:
        raise RuntimeError("eigenvector matrix is not orthogonal to 1e-10")
    if np.max(np.abs((vec * lam) @ vec.T - m)) > 1e-10:
        raise RuntimeError("spectral reconstruction exceeds 1e-10")
    return Eigensystem(eigenvalues=lam, eigenvectors=vec)


@dataclass(frozen=True)
class Wavefunction:
    """Unit-norm amplitude vector over the pair basis, with a time stamp."""

    amplitudes: np.ndarray
    time_stamp: float = 0.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def initial_state(g: Graph) -> Wavefunction:
    """|charlie_plus, charlie_minus>: +1 at Charlie's plus site, -1 at the other."""
    n = g.n_vertices
    a = np.zeros(n * (n - 1), dtype=complex)
    a[pair_index(n, g.roles.charlie_plus, g.roles.charlie_minus)] = 1.0
    return Wavefunction(amplitudes=a, time_stamp=0.0)


class _SpectralKernel:
    """Amplitudes <r|exp(-iHt)|psi0> on a fixed row set (every row by default).

    V^T psi0 is formed once, and a row subset is cast to complex once. A
    scalar time gives shape (rows,); a 1-D grid gives (rows, T), with the
    phases built PHASE_BLOCK times at a time for a row subset and
    FULL_STATE_BLOCK times at a time for every row.

    A scalar time and a row-subset grid round exactly as
    exp(-1j * outer(lambda, t)) * V^T psi0 followed by one complex product
    per PHASE_BLOCK block would: protocol-2 schedules planned on curves of
    height ~1e-13 move with any one-ulp change. A full-state grid block is
    one real product of V with the block's float view instead: it skips
    numpy's complex copy of V, and its last bits may differ.
    """

    def __init__(self, e: Eigensystem, psi0: Wavefunction, rows=None):
        if psi0.amplitudes.shape[0] != e.eigenvalues.shape[0]:
            raise ValueError("wavefunction and eigensystem dimensions differ")
        self._neg_lam = -e.eigenvalues
        self._coeff = e._vt @ psi0.amplitudes
        self._v = (e.eigenvectors if rows is None
                   else e.eigenvectors[list(rows), :].astype(complex))
        self._block = FULL_STATE_BLOCK if rows is None else PHASE_BLOCK

    def _phased(self, t) -> np.ndarray:
        """exp(-i lambda t) V^T psi0: shape (d,) at a scalar t, (d, T) on a grid.

        cos and sin of (-lambda) t are written into the real and imaginary
        parts of one buffer, which equals numpy's exp of the imaginary
        argument to the bit without its complex temporaries.
        """
        out = np.empty(self._neg_lam.shape + np.shape(t), dtype=complex)
        np.multiply.outer(self._neg_lam, t, out=out.real)
        np.sin(out.real, out=out.imag)
        np.cos(out.real, out=out.real)
        out *= self._coeff.reshape((-1,) + (1,) * np.ndim(t))
        return out

    def _blocks(self, t: np.ndarray):
        """(column slice, amplitudes) for each block of a grid."""
        for s in range(0, t.size, self._block):
            cols = slice(s, s + self._block)
            yield cols, self._product(self._phased(t[cols]))

    def _product(self, phased: np.ndarray) -> np.ndarray:
        if self._v.dtype == complex:
            return self._v @ phased
        # V is real: one real product over the (re, im) column pairs
        return (self._v @ phased.view(np.float64)).view(np.complex128)

    def __call__(self, t) -> np.ndarray:
        if np.ndim(t) == 0:
            return self._v @ self._phased(t)
        t = np.asarray(t, dtype=float)
        out = np.empty((self._v.shape[0], t.size), dtype=complex)
        for cols, amp in self._blocks(t):
            out[:, cols] = amp
        return out


def evolve(e: Eigensystem, psi0: Wavefunction, t: float) -> Wavefunction:
    """Apply exp(-iHt) through the spectral form; norm is preserved."""
    return Wavefunction(amplitudes=_SpectralKernel(e, psi0)(t),
                        time_stamp=psi0.time_stamp + t)


def amplitude_rows(e: Eigensystem, psi0: Wavefunction, rows, t_grid: np.ndarray) -> np.ndarray:
    """Selected amplitude components along a time grid, shape (len(rows), T).

    Much cheaper than evolving the full vector when only a few components
    are needed (success scans use the two Bell-channel rows).
    """
    return _SpectralKernel(e, psi0, rows)(t_grid)


def scan_success(e: Eigensystem, psi0: Wavefunction, g: Graph,
                 t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Heralded success probability |a_{B,A} + a_{A,B}|^2 / 2 along an increasing grid.

    Alice sits at site A and Bob at site B; only their two rows are projected.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("time grid is empty")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    amps = amplitude_rows(e, psi0, _index_groups(g)["success"], t_grid)
    return t_grid, 0.5 * np.abs(amps[0] + amps[1]) ** 2


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


def select_peak(curve: np.ndarray, grid: np.ndarray, objective, grid_step: float,
                refine_tol: float) -> tuple[float, float]:
    """Earliest among the (refined) tallest local maxima of a sampled curve.

    All sampled local maxima within CANDIDATE_TOL of the grid maximum are
    refined; among refined heights within TIE_TOL of the best, the earliest
    time wins. Exactly periodic curves (common on these graphs) therefore
    resolve to their first recurrence.
    """
    pmax = float(curve.max())
    cand = [k for k in range(len(curve))
            if curve[k] >= pmax - CANDIDATE_TOL
            and (k == 0 or curve[k] >= curve[k - 1])
            and (k == len(curve) - 1 or curve[k] >= curve[k + 1])]
    refined = []
    for k in cand:
        lo = max(float(grid[0]), float(grid[k]) - grid_step)
        hi = min(float(grid[-1]), float(grid[k]) + grid_step)
        t_r, p_r = refine_maximum(objective, lo, hi, refine_tol)
        if curve[k] >= p_r:
            t_r, p_r = float(grid[k]), float(curve[k])
        refined.append((t_r, p_r))
    best = max(p for _, p in refined)
    t_star, p_star = min((t, p) for t, p in refined if p >= best - TIE_TOL)
    return float(t_star), float(p_star)


def find_peak(e: Eigensystem, psi0: Wavefunction, g: Graph,
              t_max: float | None = None,
              grid_step: float = DEFAULT_GRID_STEP,
              refine_tol: float = DEFAULT_REFINE_TOL) -> tuple[float, float]:
    """Global maximum of the success probability over [0, t_max].

    Grid scan followed by local parabolic refinement. On exact ties the
    earliest time wins (less-dispersed post-measurement states).
    Returns (0.0, 0.0) with a warning if the curve is identically zero.
    """
    if t_max is None:
        t_max = PEAK_WINDOW_FACTOR * g.n_vertices
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    grid, p = scan_success(e, psi0, g, _time_grid(t_max, grid_step))
    if p.max() < 1e-15:
        logger.warning("success probability identically zero over [0, %g]", t_max)
        return 0.0, 0.0
    kernel = _SpectralKernel(e, psi0, _index_groups(g)["success"])

    def objective(t: float) -> float:
        amp = kernel(t)
        return 0.5 * float(np.abs(amp[0] + amp[1]) ** 2)

    return select_peak(p, grid, objective, grid_step, refine_tol)
