"""Validate the reduced-basis engine against full 3^N brute force.

The reduced basis covers only the one-(+1)-one-(-1) sector; here the same
systems are evolved in the complete 3^N product space and compared
amplitude by amplitude with the cell quotient that `scan`, `--tau` and the
protocol-2 planner's grid run. The full-space run touches only the states
the sector reaches through the edges' exchanges, so it builds no array of
3^N entries and reaches the paper's sizes (N <= 39, the int64 index of a
product state). The generator algebra, the sector restriction of
the full Hamiltonian, the outcome-tree enumeration and a Monte Carlo run
all cross-check independent parts of the machinery.
"""

import numpy as np

from qutrit_bell import (Strategy, assemble_hamiltonian, build_cross, build_loop,
                         enumerate_outcome_tree, monte_carlo, plan_protocol2,
                         protocol2_total)
from qutrit_bell.oracle import full_evolve_compare, sector_restriction, su3_algebra_check

print(f"generator algebra, worst violation over 81 combinations: "
      f"{su3_algebra_check():.3e}")

for name, g in (("loop N=4", build_loop(4)), ("cross N=5", build_cross(5))):
    reduced = assemble_hamiltonian(g)
    restricted = sector_restriction(g)
    grid = np.arange(0.0, 10.0 + 1e-9, 0.1)
    cmp_result = full_evolve_compare(g, grid)
    print(f"{name}:")
    print(f"  sector restriction identical: {np.array_equal(restricted, reduced)}")
    print(f"  full-vs-reduced amplitude deviation: "
          f"{cmp_result.max_amplitude_deviation:.3e}")
    print(f"  leakage outside the sector:          "
          f"{cmp_result.max_sector_leakage:.3e}")
    print(f"  Bell-channel asymmetry over [0,10]:  "
          f"{cmp_result.max_bell_asymmetry:.3e}")

print()
print("protocol bookkeeping, cross N=5:")
g = build_cross(5)
sched = plan_protocol2(g, strategy=Strategy.PEAK_SUCCESS, n_max=6)
analytic = protocol2_total(sched)
worst = max(abs(analytic[n - 1] - enumerate_outcome_tree(sched, n)[1])
            for n in range(1, 7))
print(f"  recursion vs explicit outcome-tree enumeration: {worst:.3e}")

stats = monte_carlo(sched, trials=100_000, seed=1, max_steps=5)
print("  Monte Carlo vs analytic cumulative success:")
for n in range(1, 6):
    p = analytic[n - 1]
    sigma = np.sqrt(p * (1 - p) / stats.trials)
    print(f"    n={n}: sampled {stats.empirical_p(n):.4f}  analytic {p:.4f} "
          f" ({abs(stats.empirical_p(n) - p) / sigma:.2f} sigma)")
