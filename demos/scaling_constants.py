"""
Scaling constants by two independent routes
===========================================

c_j is the expected ratio V_j(e^X B^n) / V_j(B^n) over Gaussian symmetric X.
The trace of X is independent of its traceless part and integrates exactly,
to the factor e^(j^2 / (2n)), so both routes sample traceless spectra only.
The direct route draws the traceless part X_0 itself, from lattice normals
in the traceless split chart of Sym(n), and takes the eigenvalues of e^(X_0);
the eigenvalue route samples spectra from the normal proposal
N(0, (n+2)/2) projected onto the traceless hyperplane and reweights by the
Vandermonde factor. They must agree. c_0 = 1 and c_n = e^(n/2) are exact
anchors: the direct route returns them exactly, and the eigenvalue route
estimates them, which checks its normalization.
"""

import math

import numpy as np

from intgeo import weyl

samples = 200_000
for n in (2, 3):
    direct = weyl.c_direct(n, samples, np.random.default_rng(7))
    spectral = weyl.c_weyl(n, samples, np.random.default_rng(8))
    print(f"n = {n}, {samples} samples per route "
          f"(ess on the reweighted route: {100 * spectral[0].ess:.1f}%)")
    print("   j    direct      +-se        spectral    +-se        anchor")
    for j in range(n + 1):
        d, w = direct[j], spectral[j]
        anchor = {0: "1", n: f"e^(n/2) = {math.exp(n / 2):.5f}"}.get(j, "-")
        print(f"   {j}    {d.mean:9.5f}  {d.std_error:9.5f}   "
              f"{w.mean:9.5f}  {w.std_error:9.5f}   {anchor}")
    print()

print("normalizing constants Z_n of the eigenvalue density:")
for n in (1, 2, 3, 4):
    print(f"   Z_{n} = {weyl.z_n(n):.6f}")
print("closed forms: sqrt(2 pi), 4 sqrt(pi), 6 sqrt(2) pi, 48 pi")
