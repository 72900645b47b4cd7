"""Scan the heralded success probability in time and locate its peak.

Writes one CSV per system next to this script (plotting is left to
external tools; the columns are plain t, p pairs).
"""

from pathlib import Path

import numpy as np

from qutrit_bell import build_cross, build_loop, initial_state, one_shot_peak
from qutrit_bell.measurement import outcome_curves

out_dir = Path(__file__).resolve().parent

for name, g in (("cross5", build_cross(5)), ("cross13", build_cross(13)),
                ("loop4", build_loop(4)), ("loop8", build_loop(8))):
    grid = np.arange(0.0, 6.4 * g.n_vertices, 0.01)  # exactly 0.01 * arange(T)
    p = outcome_curves(g, initial_state(g), grid)[0]
    t_star, p_star = one_shot_peak(g)
    print(f"{name}: peak p = {p_star:.4f} at t = {t_star:.3f} (units hbar/J)")

    path = out_dir / f"scan_{name}.csv"
    np.savetxt(path, np.column_stack([grid, p]), delimiter=",",
               header="t,p_success", comments="")
    print(f"  curve written to {path.name}")

print()
print("note how the peak drops with system size: this is what drives the")
print("repeated-measurement protocols in the next demos.")
