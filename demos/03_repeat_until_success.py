"""Protocol 1: measure at the peak, reset everything on failure, repeat.

Success accumulates geometrically, so the number of attempts needed for a
target confidence follows directly from the one-shot peak. This demo
reproduces the measurement-count tables for both families.
"""

from qutrit_bell import (assemble_hamiltonian, build_cross, build_loop,
                         find_peak, initial_state, protocol1_cumulative,
                         protocol1_required, spectral_decompose)

targets = (0.90, 0.95, 0.99)


def peak_of(g):
    eig = spectral_decompose(assemble_hamiltonian(g))
    return find_peak(eig, initial_state(g), g)[1]


print("cross family: measurements needed for 90/95/99 percent confidence")
for n in range(5, 37, 2):
    p = peak_of(build_cross(n))
    counts = [protocol1_required(p, q) for q in targets]
    print(f"  N={n:2d}  p*={p:.4f}  ->  {counts[0]:4d} {counts[1]:4d} {counts[2]:4d}")

print()
print("loop family:")
for n in range(4, 37, 4):
    p = peak_of(build_loop(n))
    counts = [protocol1_required(p, q) for q in targets]
    print(f"  N={n:2d}  p*={p:.4f}  ->  {counts[0]:4d} {counts[1]:4d} {counts[2]:4d}")

print()
p = peak_of(build_cross(5))
print("cross N=5 cumulative success over the first 10 attempts:")
print("  " + " ".join(f"{protocol1_cumulative(p, k):.4f}" for k in range(1, 11)))
