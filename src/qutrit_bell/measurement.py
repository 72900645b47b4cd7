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

`outcome_distribution` measures one state of the pair space. `outcome_curves`
gives the same probabilities along a time grid without the full space: the
C-even and C-odd parts of psi0, each folded onto the cells of the pair space's
coarsest equitable partition (`dynamics._role_fold`), are stepped along the grid
by the Chebyshev recurrence on the folds' nonzeros (`_fold_sum`), and every
outcome is read as W |a|^2, W holding each fold state's share of pairs in each
outcome (`_folds`). The recurrence costs about R max|t| products whatever the grid
step, so a grid past SCAN_MAX_WORK is refused. The protocol-2 planner reads its
grids on the same folds through their eigensystems (`_fold_scan`), and a
fixed-interval protocol-2 schedule evolves its states on them (`_fold_kernel`).
`outcome_distribution` and `outcome_curves` check the norm of every state they
measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .dynamics import (_chebyshev_spans, _index_groups, _outcome, _pair_position, _role_fold,
                       _SpectralKernel, _unordered_pairs, _unordered_position,
                       spectral_decompose)
from .topology import Graph

NORM_TOL = 1e-8
ZERO_PROB = 1e-12
#: Cap on R max|t| (slot entries + 2048), the cost of a scan's recurrence (`_fold_sum`):
#: 4-7 ns a unit on 2 cores from loop-4 to 80 sites, so 4-7 s at the cap
SCAN_MAX_WORK = 1e9


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


def _weighted_squares(w: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """w @ |amp|^2 for a block amp of shape (rows, B), summed over the real and
    imaginary views: |amp|^2 would be a temporary half the size of the block."""
    return (np.einsum("gk,kb,kb->gb", w, amp.real, amp.real)
            + np.einsum("gk,kb,kb->gb", w, amp.imag, amp.imag))


def _folds(g: Graph, readout: np.ndarray, parities):
    """(parity, fold H, label, u, states read, W on them) per C block of the given
    parities (`dynamics._role_fold`) that an m x 5 readout of (pS_bell, p1, p2, p3,
    pS_projection) reads. A fold state has one |amplitude| on all its pairs, so an
    outcome's probability is W |a_O|^2, W[g, O] the share of state O's pairs in outcome
    g (p1 here psi1's own weight); pS_bell = |a_O|^2 at the C-even state O of {A,B}."""
    n, r = g.n_vertices, g.roles
    outcome = _outcome(g, *_unordered_pairs(n))  # the row of p1, p2, p3 or pS_projection
    for parity in parities:
        h, label, u = _role_fold(g, parity)
        w = np.zeros((5, h.shape[0]))
        np.add.at(w, (outcome, label), u != 0)
        w /= w.sum(axis=0)
        if parity == 1:
            w[0, label[_unordered_position(n, r.alice, r.bob)]] = 1.0
        w = readout @ w
        rows = np.flatnonzero(w.any(axis=0))
        if rows.size:
            yield parity, h, label, u, rows, w[:, rows]
        del h  # the consumer's fold is the only one held while the next is built


def _fold_state(g: Graph, a: np.ndarray, parity: int, label: np.ndarray, u: np.ndarray,
                d: int) -> np.ndarray:
    """a's C part of that parity, (a_ij + parity a_ji)/sqrt2 over i < j, folded onto
    the d states of `_folds`; a part whose fold loses norm (beyond NORM_TOL) lies off
    the folds and is refused."""
    n = g.n_vertices
    if a.shape != (n * (n - 1),):
        raise ValueError("state and pair-space dimensions differ")
    lo, hi = _unordered_pairs(n)
    part = np.sqrt(0.5) * (a[_pair_position(n, lo, hi)] + parity * a[_pair_position(n, hi, lo)])
    folded = np.bincount(label, u * part.real, d) + 1j * np.bincount(label, u * part.imag, d)
    if not abs(np.linalg.norm(folded) - np.linalg.norm(part)) <= NORM_TOL:
        raise ValueError("state is not invariant on the fold's cells")
    return folded


def _fold_scan(g: Graph, t_grid: np.ndarray, readout: np.ndarray, parities=(1, -1)):
    """psi -> readout @ (pS_bell, p1, p2, p3, pS_projection) of exp(-iHt) psi along
    t_grid, shape (m, T), on the `_folds` of the given parities: each is diagonalised
    once, and only the states read are stepped (`dynamics._SpectralKernel`)."""
    blocks = [(parity, label, u, spectral_decompose(h), rows, w)
              for parity, h, label, u, rows, w in _folds(g, readout, parities)]

    def scan(a: np.ndarray) -> np.ndarray:
        curves = np.zeros((readout.shape[0], t_grid.size))
        for parity, label, u, e, rows, w in blocks:
            folded = _fold_state(g, a, parity, label, u, e.eigenvalues.size)
            for cols, amp in _SpectralKernel(e, folded, rows)._blocks(t_grid):
                curves[:, cols] += _weighted_squares(w, amp)
        return curves

    return scan


def _fold_kernel(g: Graph):
    """psi -> (t -> exp(-iHt) psi), a new pair-space array, stepped on both `_folds`.

    Each fold is diagonalised once. A state's two C parts are folded by `_fold_state`,
    which refuses a state off the folds, and each evolves by a `dynamics._SpectralKernel`
    on its fold: at a time, state O's amplitude a_O gives the C part u_p a_O of its every
    pair p = {i,j}, i < j, and the parts sum to a_ij and a_ji as psi's were split."""
    n = g.n_vertices
    lo, hi = _unordered_pairs(n)
    ij, ji = _pair_position(n, lo, hi), _pair_position(n, hi, lo)
    blocks = [(parity, label, u, spectral_decompose(h))
              for parity, h, label, u, _, _ in _folds(g, np.eye(5), (1, -1))]

    def kernel(psi: np.ndarray):
        parts = [(parity, label, np.sqrt(0.5) * u,
                  _SpectralKernel(e, _fold_state(g, psi, parity, label, u, e.eigenvalues.size)))
                 for parity, label, u, e in blocks]

        def at(t: float) -> np.ndarray:
            phi = np.zeros_like(psi)
            for parity, label, scale, fold in parts:
                part = scale * fold(t)[label]
                phi[ij] += part
                phi[ji] += parity * part
            return phi

        return at

    return kernel


@lru_cache(maxsize=1)
def _fold_sum(g: Graph):
    """Both `_folds` as one direct sum H, H v = sum over slots of vals * v[cols]: (cols,
    vals), R, (parity, label, u, states) per fold and W. R is the Collatz-Wielandt bound
    max_i (|H| v)_i / v_i >= rho(|H|) >= ||H|| at a v > 0 from powers of |H|: 7.7 on the
    seeded 36-site graph, whose ||H|| is 6.46 and largest absolute row sum 12."""
    parts, d = [], 0
    for parity, h, label, u, _, w in _folds(g, np.eye(5), (1, -1)):  # every state is read
        i, j = np.nonzero(h)
        parts.append((i + d, j + d, h[i, j], w, (parity, label, u, len(h))))
        d += len(h)
        del h  # before the next fold is built
    i, j, h_ij, w = (np.concatenate(x, axis=-1) for x in list(zip(*parts))[:4])
    slot = np.arange(i.size) - np.searchsorted(i, i)
    cols = np.zeros((slot.max(initial=-1) + 1, d), dtype=np.intp)
    vals = np.zeros(cols.shape)
    cols[slot, i], vals[slot, i] = j, h_ij
    power = v = np.ones(d)
    for _ in range(7):
        power = np.add.reduce(np.abs(vals) * power[cols])
        power /= max(power.max(initial=0.0), 1.0)
        v = v + power
    radius = float(np.max(np.add.reduce(np.abs(vals) * v[cols]) / v, initial=0.0))
    w = np.repeat(w, 2, axis=1).T  # on the (re, im) view of the amplitudes
    for cached in (cols, vals, w):  # every caller gets these same arrays
        cached.setflags(write=False)
    return cols, vals, radius, tuple(part[4] for part in parts), w


def _check_scan_cost(g: Graph, t_max: float) -> None:
    cols, _, radius, _, _ = _fold_sum(g)
    if not (work := radius * t_max * (cols.size + 2048)) <= SCAN_MAX_WORK:
        raise ValueError(f"a scan to t = {t_max:g} takes {work:.3g} entry steps (R t = "
                         f"{radius * t_max:.3g}), beyond the cap of {SCAN_MAX_WORK:g}")


def outcome_curves(g: Graph, psi0: np.ndarray, t_grid) -> tuple[np.ndarray, ...]:
    """(pS_bell, p1, p2, p3, pS_projection) of exp(-iHt) psi0 along a time grid.

    psi0's folded C parts are stepped together by `dynamics._chebyshev_spans` on
    `_fold_sum`, up to SCAN_MAX_WORK. The grid may be uneven; one exactly h * arange(T)
    is stepped in units of h. psi0's norm and every point's are checked, p1 is the
    remainder as in `outcome_distribution`, and psi0 must lie on the folds, as every
    state the protocols prepare does."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid)):
        raise ValueError("a time grid must be 1-D and finite")
    _check_norm(np.linalg.norm(psi0))
    _check_scan_cost(g, float(np.max(np.abs(t_grid), initial=0.0)))
    cols, vals, radius, folds, w = _fold_sum(g)
    folded = np.concatenate([_fold_state(g, psi0, *fold) for fold in folds])
    step = t_grid[1] if t_grid.size > 1 and t_grid[1] > 0 else 1.0
    arithmetic = np.array_equal(t_grid, step * np.arange(t_grid.size))
    unit, times = (step, np.arange(t_grid.size, dtype=float)) if arithmetic else (1.0, t_grid)
    vals = (unit * vals).astype(complex)
    curves = np.zeros((5, t_grid.size))
    for points, amps, _ in _chebyshev_spans(lambda v: np.add.reduce(vals * v[cols]),
                                            unit * radius, folded, times, None):
        curves[:, points] = (np.square(amps.view(float), out=amps.view(float)) @ w).T
        del amps  # the span's states, squared in place, before the next span is made
    p_bell, p1, p2, p3, p_proj = curves
    _check_norm(np.sqrt(p1 + p2 + p3 + p_proj))
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
