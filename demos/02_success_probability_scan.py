"""Scan the heralded success probability in time and locate its peak.

Writes one CSV per system next to this script (plotting is left to
external tools; the columns are plain t, p pairs).
"""

from pathlib import Path

import numpy as np

from qutrit_bell import (assemble_hamiltonian, build_cross, build_loop,
                         find_peak, initial_state, scan_success,
                         spectral_decompose)

out_dir = Path(__file__).resolve().parent

for name, g in (("cross5", build_cross(5)), ("cross13", build_cross(13)),
                ("loop4", build_loop(4)), ("loop8", build_loop(8))):
    eig = spectral_decompose(assemble_hamiltonian(g))
    psi0 = initial_state(g)

    grid = np.arange(0.0, 6.4 * g.n_vertices, 0.01)
    ts, p = scan_success(eig, psi0, g, grid)
    t_star, p_star = find_peak(eig, psi0, g)
    print(f"{name}: peak p = {p_star:.4f} at t = {t_star:.3f} (units hbar/J)")

    path = out_dir / f"scan_{name}.csv"
    np.savetxt(path, np.column_stack([ts, p]), delimiter=",",
               header="t,p_success", comments="")
    print(f"  curve written to {path.name}")

print()
print("note how the peak drops with system size: this is what drives the")
print("repeated-measurement protocols in the next demos.")
