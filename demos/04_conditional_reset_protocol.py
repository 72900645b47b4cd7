"""Protocol 2: keep measuring on the symmetric failure, reset on the rest.

When both local tests come back negative the excitations are still in the
bulk, so the state is worth keeping; only the lopsided outcomes force a
restart. The cumulative success probability follows a restart recursion
driven by the per-step outcome probabilities of one planned schedule.
"""

from qutrit_bell import (Strategy, assemble_hamiltonian, build_loop,
                         plan_protocol2, plan_regular, protocol1_cumulative,
                         protocol2_limit_check, protocol2_no_reset,
                         protocol2_total, spectral_decompose)

g = build_loop(4)
eig = spectral_decompose(assemble_hamiltonian(g))

print("== greedy schedules under the three timing strategies (loop N=4) ==")
for strategy in Strategy:
    sched = plan_protocol2(g, eig, strategy, n_max=8)
    total = protocol2_total(sched)
    print(f"  {strategy.value:13s} t1={sched[0].time:6.3f}  "
          f"P_n: " + " ".join(f"{x:.4f}" for x in total))

print()
print("== strategy (i) in detail ==")
sched = plan_protocol2(g, eig, Strategy.PEAK_SUCCESS, n_max=8)
pbar = protocol2_no_reset(sched)
ptot = protocol2_total(sched)
p1shot = sched[0].pS_bell
print("   n   no-reset   with-restarts   simple-repetition")
for k in range(8):
    print(f"  {k + 1:2d}   {pbar[k]:.4f}     {ptot[k]:.4f}          "
          f"{protocol1_cumulative(p1shot, k + 1):.4f}")

print()
print("== fixed-interval fallback (tau = one-shot peak time) ==")
regular = plan_regular(g, eig, tau=sched[0].time, n_max=8)
print("  P_n:", " ".join(f"{x:.4f}" for x in protocol2_total(regular)))

print()
report = protocol2_limit_check(g, eig, q=0.99)
print(f"99 percent confidence reached after {report.n_reached} measurements; "
      f"run-level bound holds: {report.run_success_ok and report.reset_bound_ok}")
