#!/usr/bin/env python3
"""The contraction-rate experiment on a detailed-balanced fixture.

For each power n of the channel the harness estimates the f-divergence
contraction constant eta_f(E^n) variationally, computes the exact
chi-square constants, and checks two things:

  (a) rate bound: eta_f(E^n)^(1/n) <= eta_chi2_g(E) + slack once every
      iterate is certified inside the convergence radius, and
  (b) tightness: when the channel is detailed-balanced for the local
      weight of the family, eta_chi2(E^n) = eta_chi2(E)^n exactly and
      the variational eta_f(E^n) reaches eta_kappa(E)^n - slack.
"""

import numpy as np

import qcontract as qc

ch = qc.pauli_channel([0.7, 0.1, 0.1, 0.1])
families = [qc.f_catalog()["kl"].with_family(fam) for fam in qc.FAMILIES]
gs = list(qc.g_catalog().values())

report = qc.contraction_experiment(
    ch, families, gs, n_max=5,
    opts=qc.ExperimentOptions(restarts=8, max_iters=80, seed=42),
)

print(f"channel: {report.channel_label}  dim={report.dim}")
print(f"convergence index n0 = {report.n0} "
      f"(first power whose certified deviation bound is inside the radius)\n")
print(qc.report_csv(report))

rate = report.verdicts["theorem_rate"]
print(f"rate-bound verdict: {'PASS' if rate['pass'] else 'FAIL'}"
      + (" (vacuous)" if rate["vacuous"] else ""))
for label, per_g in rate["per_family"].items():
    for gname, entry in per_g.items():
        print(f"  {label} vs chi2[{gname}]: "
              f"max excess {entry['max_excess']:+.2e} at powers n={entry['n_checked']}")

tight = report.verdicts["tightness"]
print(f"\ntightness verdict: {'PASS' if tight['pass'] else 'FAIL'}")
for label, entry in tight["per_family"].items():
    print(f"  {label}: kappa-residual {entry['db_residual']:.2e}, "
          f"power-equality max excess {entry['power_equality_max_excess']:+.2e}, "
          f"variational margin {entry['lower_bound_min_margin']:+.3f}")

print("\nrows also carry the n-th roots eta_f^(1/n), which should level")
print("off at the one-step chi-square constant for this balanced channel:")
for row in report.rows:
    roots = "  ".join(
        f"{lab}={row['eta_f_root'][lab]:.6f}" for lab in report.family_labels
    )
    print(f"  n={row['n']}: {roots}")
print(f"  one-step chi-square constant: "
      f"{qc.sdpi_chi2(ch, qc.fixed_point(ch), gs[0]).value:.6f}")
