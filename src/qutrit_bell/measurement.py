"""The coarse-grained joint measurement and its four outcomes.

Alice (site A) and Bob (site B) each test whether their qutrit is in
state 0 or in the {+1, -1} subspace, without resolving the sign. Outcomes:

* Psi1    - both negative: neither excitation sits on A or B;
* Psi2    - Alice positive, Bob negative;
* Psi3    - Bob positive, Alice negative;
* Success - both positive: the pair is projected onto span{|A,B>, |B,A>}.

On graphs with the protocol symmetry the two projected amplitudes are
equal, so the heralded state is exactly the Bell combination and the
heralded probability equals the projection probability.

`outcome_distribution` measures one state of the pair space. Every state the
protocols prepare lies in the span of the cells of the pair space's coarsest
equitable partition (`dynamics._pair_cells`), which H keeps: `_quotient` is H on
it. `outcome_curves` gives the probabilities along a time grid on the quotient
alone, by the Chebyshev recurrence, whose cost `_scan_cost` counts (about R max|t|
products whatever the grid step). The exchange C|i,j> = |j,i> maps each cell onto a
cell, so the quotient splits exactly into a C-even and a C-odd block, built by
`dynamics._c_blocks`; `_quotient_eigensystem` diagonalises both and unfolds them to the
pairs side by side, for a fixed-interval protocol-2 schedule and `verify` (the planner's
grid reads the blocks on their orbit states, `protocols._grid_scan`).
`outcome_distribution` and `outcome_curves` check the norm of every state they measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .dynamics import (MAX_WORK, NORM_TOL, PHASE_BLOCK, Eigensystem, _c_blocks, _c_orbits,
                       _chebyshev_bytes, _chebyshev_spans, _chebyshev_work, _index_groups,
                       _norm_bound, _outcome, _pair_cells, _pair_images, _pairs,
                       spectral_decompose)
from .topology import Graph

ZERO_PROB = 1e-12


class Outcome(Enum):
    PSI1 = "psi1"
    PSI2 = "psi2"
    PSI3 = "psi3"
    SUCCESS = "success"


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the four measurement outcomes.

    ``pS_projection`` is the probability of the both-positive outcome;
    ``pS_bell`` weights it by the overlap with the Bell combination. The
    two coincide on symmetric graphs.
    """

    p1: float
    p2: float
    p3: float
    pS_projection: float
    pS_bell: float

    @property
    def p_unusable(self) -> float:
        """Probability of an asymmetric outcome, forcing a reset."""
        return self.p2 + self.p3


def _check_norm(norm) -> None:
    if not np.all(np.abs(norm - 1.0) <= NORM_TOL):  # NaN fails too
        raise ValueError(f"state norm deviates from 1 by more than {NORM_TOL}")


def outcome_distribution(psi: np.ndarray, g: Graph) -> OutcomeDistribution:
    _check_norm(np.linalg.norm(psi))
    grp = _index_groups(g)
    i_ba, i_ab = grp["success"]
    p2 = float(np.sum(np.abs(psi[grp["g2"]]) ** 2))
    p3 = float(np.sum(np.abs(psi[grp["g3"]]) ** 2))
    p_proj = float(np.abs(psi[i_ba]) ** 2 + np.abs(psi[i_ab]) ** 2)
    return OutcomeDistribution(p1=max(0.0, 1.0 - p2 - p3 - p_proj), p2=p2, p3=p3,
                               pS_projection=p_proj,
                               pS_bell=float(0.5 * np.abs(psi[i_ba] + psi[i_ab]) ** 2))


@lru_cache(maxsize=1)
def _quotient(g: Graph):
    """(cells, s, cols, vals, R): H_q = S^T H S, S the normalised indicators of the cells
    of `dynamics._pair_cells` (s = 1/sqrt|O| per cell O), as H_q v = sum over slots of
    vals * v[cols]. Entry (O', O) is s_O' s_O times the count of H's nonzeros from O to
    O', on coalesced (O', O) keys: no k x k matrix. The partition is equitable, so H
    keeps span(S), which holds every state the protocols prepare (Godsil & Royle,
    Algebraic Graph Theory, ch. 9). R is the Collatz-Wielandt bound max_i (|H_q| v)_i /
    v_i >= rho(|H_q|) >= ||H_q|| at a v > 0 from powers of |H_q| (`dynamics._norm_bound`):
    7.7 on the seeded 36-site graph, whose ||H|| is 6.46 and largest absolute row sum 12."""
    cells = _pair_cells(g)
    s = 1.0 / np.sqrt(np.bincount(cells))
    pair, image = _pair_images(g)
    key, count = np.unique(cells[image] * s.size + cells[pair], return_counts=True)
    i, j = np.divmod(key, s.size)
    slot = np.arange(i.size) - np.searchsorted(i, i)
    cols = np.zeros((slot.max(initial=-1) + 1, s.size), dtype=np.intp)
    vals = np.zeros(cols.shape)
    cols[slot, i], vals[slot, i] = j, count * (s[i] * s[j])  # as count * np.outer(s, s)
    radius = _norm_bound(lambda v: np.add.reduce(np.abs(vals) * v[cols]), s.size)
    for cached in (s, cols, vals):  # every caller gets these same arrays
        cached.setflags(write=False)
    return cells, s, cols, vals, radius


def _quotient_eigensystem(g: Graph) -> Eigensystem:
    """`_quotient`'s eigensystem on the pairs: each C block of `dynamics._c_blocks`
    diagonalised once, side by side, its eigenvectors unfolded as S T V, S the cell
    indicators (s_X = 1/sqrt|X|, as `_quotient` scales them) and T the orbit states on the
    cells: a pair of cell X holds s_X V[o] / sqrt2 (s_X V[o] where X = CX), times its weight
    in the block. T^T H_q T, with its 1/sqrt2 entries, would round the blocks twice. A
    `dynamics._SpectralKernel` on it folds psi by W^T psi, refuses a state off the cells,
    and gives states and rows on the pairs."""
    cells, (_, sign) = _pair_cells(g), _c_orbits(g)
    unfold = (1.0 / np.sqrt(np.bincount(cells)))[cells] * np.where(sign, np.sqrt(0.5), 1.0)
    eigenvalues, eigenvectors = [], []
    for h, label, weight in _c_blocks(g):
        e = spectral_decompose(h)
        eigenvalues.append(e.eigenvalues)
        eigenvectors.append((weight * unfold)[:, None] * e.eigenvectors[label])
    return Eigensystem(np.concatenate(eigenvalues), np.hstack(eigenvectors))


def _scan_cost(n: int, t_max: float, points: float, g: Graph | None = None):
    """(work, bytes) of `scan`: the recurrence on `_quotient`'s slots; a span on its k cells,
    80 bytes a point (the grid and the five curves). k <= N(N-1) without g."""
    k, work = n * (n - 1), 0.0
    if g is not None:
        _, s, cols, _, radius = _quotient(g)
        k, work = s.size, _chebyshev_work(radius, t_max, cols.size)
    return work, _chebyshev_bytes(k, points) + 80 * points


def outcome_curves(g: Graph, psi0: np.ndarray, t_grid) -> tuple[np.ndarray, ...]:
    """(pS_bell, p1, p2, p3, pS_projection) of exp(-iHt) psi0 along a time grid.

    psi0's cell amplitudes a = S^T psi0 are stepped by `dynamics._chebyshev_spans` on
    `_quotient`, up to `dynamics.MAX_WORK`; a psi0 that loses norm there lies off the cells,
    and is refused. A pair of cell O holds s_O a_O, so an outcome is W |a|^2, W the share
    of each cell's pairs in it. Each span's terms T_k psi are combined with its table c
    on the cells of psi2, psi3 and success alone, the curves printed; the grid may be
    uneven. psi0's norm is checked, and every point's as c^H G c, G = <T_k psi, T_l psi>
    the terms' Gram matrix (as kernel-polynomial moments are, Weisse et al., RMP 78, 275
    (2006)), so p1 is the remainder as in `outcome_distribution`."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid)):
        raise ValueError("a time grid must be 1-D and finite")
    _check_norm(np.linalg.norm(psi0))
    t_max = float(np.max(np.abs(t_grid), initial=0.0))
    if not (work := _scan_cost(g.n_vertices, t_max, t_grid.size, g)[0]) <= MAX_WORK:
        raise ValueError(f"a scan to t = {t_max:g}: {work:.3g} entry steps, beyond the cap")
    cells, s, cols, vals, radius = _quotient(g)
    k = s.size
    folded = s * (np.bincount(cells, psi0.real, k) + 1j * np.bincount(cells, psi0.imag, k))
    if not abs(np.linalg.norm(folded) - np.linalg.norm(psi0)) <= NORM_TOL:
        raise ValueError("state is not invariant on the quotient's cells")
    outcome = _outcome(g, *_pairs(g.n_vertices)) - 1  # psi1, psi2, psi3, success
    w = np.bincount(outcome * k + cells, minlength=4 * k).reshape(4, k)[1:] * np.square(s)
    read = np.flatnonzero(w.any(axis=0))  # the cells of psi2, psi3 and success
    bell = np.searchsorted(read, cells[_index_groups(g)["success"]])
    w, vals = np.repeat(w[:, read], 2, axis=1).T, vals.astype(complex)  # W on (re, im)
    # a product's slot terms land in one reused buffer: with the gather, two (slots x k)
    # temporaries a product could make glibc return the freed top of the heap and fault
    # it in again each time, 150 against 40 us a product on the seeded 36-site graph
    slots = np.empty(vals.shape, dtype=complex)
    curves = np.zeros((5, t_grid.size))  # pS_bell, p2, p3, pS_projection, squared norm
    for points, table, terms in _chebyshev_spans(
            lambda v: np.add.reduce(np.multiply(vals, v[cols], out=slots)), radius, folded,
            t_grid):
        # G_kl = <T_k psi, T_l psi>, PHASE_BLOCK cells at a time: a conjugate of all the
        # terms at once would hold as many vectors again as the terms
        gram = sum(terms[:, c:c + PHASE_BLOCK].conj() @ terms[:, c:c + PHASE_BLOCK].T
                   for c in range(0, k, PHASE_BLOCK))
        curves[4, points] = np.einsum("kp,kp->p", table.conj(), gram @ table).real
        amps = table.T @ terms[:, read]
        a_bell = amps[:, bell] @ s[read[bell]]
        curves[0, points] = 0.5 * (np.square(a_bell.real) + np.square(a_bell.imag))
        curves[1:4, points] = (np.square(amps.view(float), out=amps.view(float)) @ w).T
        del amps, terms  # this span's arrays, before the next span is made
    p_bell, p2, p3, p_proj, norm = curves
    _check_norm(np.sqrt(norm))
    return p_bell, np.maximum(0.0, 1.0 - p2 - p3 - p_proj), p2, p3, p_proj


def post_state(psi: np.ndarray, outcome: Outcome, g: Graph) -> np.ndarray:
    """Renormalized projection of psi onto the requested outcome's support, as a new array."""
    grp = _index_groups(g)
    keep = {Outcome.PSI1: grp["g1"], Outcome.PSI2: grp["g2"],
            Outcome.PSI3: grp["g3"], Outcome.SUCCESS: grp["success"]}[outcome]
    projected = np.zeros_like(psi)
    projected[keep] = psi[keep]
    weight = float(np.sum(np.abs(projected) ** 2))
    if not weight >= ZERO_PROB:
        raise ValueError(f"outcome {outcome.name} has probability {weight:.3e} < {ZERO_PROB}; "
                         "refusing to condition on it")
    return projected / np.sqrt(weight)
