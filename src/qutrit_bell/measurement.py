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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import Wavefunction, _index_groups
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


def outcome_distribution(psi: Wavefunction, g: Graph) -> OutcomeDistribution:
    a = psi.amplitudes
    if abs(np.linalg.norm(a) - 1.0) > NORM_TOL:
        raise ValueError(f"wavefunction norm deviates from 1 by more than {NORM_TOL}")
    grp = _index_groups(g)
    i_ba, i_ab = grp["success"]
    p2 = float(np.sum(np.abs(a[grp["g2"]]) ** 2))
    p3 = float(np.sum(np.abs(a[grp["g3"]]) ** 2))
    p_success = float(np.abs(a[i_ba]) ** 2 + np.abs(a[i_ab]) ** 2)
    p1 = max(0.0, 1.0 - p2 - p3 - p_success)
    p_bell = 0.5 * float(np.abs(a[i_ba] + a[i_ab]) ** 2)
    return OutcomeDistribution(p1=p1, p2=p2, p3=p3,
                               pS_projection=p_success, pS_bell=p_bell)


def post_state(psi: Wavefunction, outcome: Outcome, g: Graph) -> Wavefunction:
    """Renormalized projection of psi onto the requested outcome's support.

    The time stamp restarts at zero: schedule times are measured relative
    to the most recent measurement.
    """
    grp = _index_groups(g)
    keep = {Outcome.PSI1: grp["g1"], Outcome.PSI2: grp["g2"],
            Outcome.PSI3: grp["g3"], Outcome.SUCCESS: grp["success"]}[outcome]
    projected = np.zeros_like(psi.amplitudes)
    projected[keep] = psi.amplitudes[keep]
    weight = float(np.sum(np.abs(projected) ** 2))
    if weight < ZERO_PROB:
        raise ValueError(f"outcome {outcome.name} has probability {weight:.3e} < {ZERO_PROB}; "
                         "refusing to condition on it")
    return Wavefunction(amplitudes=projected / np.sqrt(weight), time_stamp=0.0)


def bell_fidelity(psi: Wavefunction, g: Graph) -> float:
    """Overlap of the success-projected state with the Bell combination.

    Returns |a_BA + a_AB|^2 / (2 (|a_BA|^2 + |a_AB|^2)), or 0 when the
    projection carries no weight.
    """
    i_ba, i_ab = _index_groups(g)["success"]
    a_ba, a_ab = psi.amplitudes[i_ba], psi.amplitudes[i_ab]
    denom = float(np.abs(a_ba) ** 2 + np.abs(a_ab) ** 2)
    if denom < 1e-14:
        return 0.0
    return 0.5 * float(np.abs(a_ba + a_ab) ** 2) / denom
