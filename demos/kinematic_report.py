"""
The kinematic integral, compact and non-compact
===============================================

Three stages. First the flat-measure coefficients phi_(n-j)(B^2), normalized
so flats meeting the unit ball have mass kappa_(n-j). Then the compact
baseline: averaging chi(M cap (gL + t)) over rotations matches the
coefficient sum. Finally the full non-compact report, where the group
carries a Gaussian symmetric factor and the open half-vs-total measure
convention is settled by the data. Its headline LHS integrates the
translation exactly (vol(M + (-gL)) by Steiner's formula); the hit-or-miss
estimate from the same draws is printed beside it, and so is the check
E_g V_j(gL) = c_j V_j(L), one j at a time.
"""

import math

import numpy as np

from intgeo import bodies as bd
from intgeo import volumes as vol
from intgeo.kinematic import build_report, crofton_coefficient, lhs_kinematic

disc = bd.unit_ball(2)
samples = 100_000

print("flat-measure coefficients on the unit disc (target kappa_(2-j)):")
for j in range(3):
    est = crofton_coefficient("chi", disc, j, samples, np.random.default_rng(j))
    print(f"   j = {j}: {est.mean:.4f} +- {est.std_error:.4f}"
          f"   (kappa_{2 - j} = {vol.kappa(2 - j):.4f})")

print()
lhs = lhs_kinematic("so", "chi", disc, disc, samples, np.random.default_rng(5))
print(f"rigid-motion average of chi: {lhs.mean:.4f} +- {lhs.std_error:.4f}"
      f"   (4 pi = {4 * math.pi:.4f})")

print()
rep = build_report("gl", "chi", disc, disc, samples=samples, seed=11)
print("full report, GL group, phi = chi, M = L = B^2:")
hm = rep.hit_or_miss["lhs"]
print(f"   lhs       = {rep.lhs.mean:.4f} +- {rep.lhs.std_error:.4f}  ({rep.lhs_estimator})")
print(f"   hit-miss  = {hm['mean']:.4f} +- {hm['std_error']:.4f}"
      f"  (z vs rhs_half = {rep.hit_or_miss['z_half']:.2f})")
print(f"   rhs_total = {rep.rhs['rhs_total']:.4f}  (z = {rep.z_total:.2f})")
print(f"   rhs_half  = {rep.rhs['rhs_half']:.4f}  (z = {rep.z_half:.2f})")
print(f"   selected convention: {rep.convention}")
for t in rep.lhs_terms:
    print(f"   E V_{t['j']}(gL) = {t['mean']:.4f} +- {t['std_error']:.4f}"
          f"   c_{t['j']} V_{t['j']}(L) = {t['c_j_v_j']:.4f}  (z = {t['z']:.2f})")
print()
print("per-term table (csv hand-off uses the same columns):")
for row in rep.csv_rows():
    print("   " + ",".join(f"{x:.5g}" if isinstance(x, float) else str(x)
                           for x in row))
