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
C-even and C-odd parts of psi0, each folded by the role exchanges
(`dynamics._role_fold`), are stepped along the grid, and every outcome is read
as W |a|^2, W holding each orbit's share of pairs in each outcome
(`_fold_scan`). The protocol-2 planner reads its grids through `_fold_scan`
too. Both functions check the norm of every state they measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import (_index_groups, _outcome, _pair_position, _role_fold, _SpectralKernel,
                       _unordered_pairs, _unordered_position, spectral_decompose)
from .topology import Graph

NORM_TOL = 1e-8
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
    if np.any(np.abs(norm - 1.0) > NORM_TOL):
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


def _fold_scan(g: Graph, t_grid: np.ndarray, readout: np.ndarray, parities=(1, -1)):
    """psi -> readout @ (pS_bell, p1, p2, p3, pS_projection) of exp(-iHt) psi along
    t_grid, shape (m, T) for an m x 5 readout, from psi's parts in the C blocks of
    the given parities; p1 here is psi1's own weight.

    psi's C parts (a_ij +- a_ji)/sqrt2, i < j, are folded onto the orbits of
    `dynamics._role_fold`; a part whose fold loses norm (beyond NORM_TOL) is not
    invariant under the role exchanges and is refused. Each outcome is a union of
    pairs, so its probability is W |a_O|^2, W[g, O] the share of orbit O's pairs in
    outcome g; pS_bell = |a_O|^2 at the C-even orbit O = {A,B}. Each block is
    diagonalised once, and only the orbits the readout reads are stepped.
    """
    n, r = g.n_vertices, g.roles
    lo, hi = _unordered_pairs(n)
    ij, ji = _pair_position(n, lo, hi), _pair_position(n, hi, lo)
    outcome = _outcome(g, lo, hi)  # the row of p1, p2, p3 or pS_projection
    blocks = []
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
            blocks.append((parity, label, u, spectral_decompose(h), rows, w[:, rows]))

    def scan(a: np.ndarray) -> np.ndarray:
        if a.shape != (n * (n - 1),):
            raise ValueError("state and pair-space dimensions differ")
        curves = np.zeros((readout.shape[0], t_grid.size))
        for parity, label, u, e, rows, w in blocks:
            part = np.sqrt(0.5) * (a[ij] + parity * a[ji])
            folded = (np.bincount(label, u * part.real, e.eigenvalues.size)
                      + 1j * np.bincount(label, u * part.imag, e.eigenvalues.size))
            if abs(np.linalg.norm(folded) - np.linalg.norm(part)) > NORM_TOL:
                raise ValueError("state is not invariant under the role exchanges")
            kernel = _SpectralKernel(e, folded, None if rows.size == folded.size else rows)
            for cols, amp in kernel._blocks(t_grid):
                curves[:, cols] += _weighted_squares(w, amp)
        return curves

    return scan


def outcome_curves(g: Graph, psi0: np.ndarray, t_grid) -> tuple[np.ndarray, ...]:
    """(pS_bell, p1, p2, p3, pS_projection) of exp(-iHt) psi0 along a time grid.

    Read on the folded C blocks by `_fold_scan`, so neither a d x T matrix nor
    the d x d eigensystem is held; every grid point's norm is checked, and p1 is
    the remainder, as in `outcome_distribution`. psi0 must be invariant under
    the role exchanges, as every state the protocols prepare is.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    # one C block at a time: a block's eigensystem is freed before the next is built
    p_bell, p1, p2, p3, p_proj = sum(_fold_scan(g, t_grid, np.eye(5), (parity,))(psi0)
                                     for parity in (1, -1))
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
    if weight < ZERO_PROB:
        raise ValueError(f"outcome {outcome.name} has probability {weight:.3e} < {ZERO_PROB}; "
                         "refusing to condition on it")
    return projected / np.sqrt(weight)
