"""Every calibration case of tools/replicates.py meets its floors: the
coverage of its truth by the nominal 95% intervals, and where the case
sets one, a bound on the replicate sd."""

import math

import pytest
from replicates import (BALL_ELLIPSOID_TRUTH, C2, C3, CASES, ELLIPSOID3, HPOLYGONS,
                        HPOLYGONS_TRUTH, misses, row, run)

from intgeo.volumes import closed_intrinsic_volumes, kappa


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_case_meets_its_floors(case):
    stats = run(case)
    assert not misses(case, stats), row(case, stats)


def test_lhs_truths_are_the_quadrature_rhs():
    # sum_j kappa_(n-j) c_j V_j(L) for a ball M; area(M) + c_1 (per M /
    # pi)(per L / 2) + e area(L) for the polygons
    vE = closed_intrinsic_volumes(ELLIPSOID3)
    assert sum(kappa(3 - j) * C3[j] * vE[j] for j in C3) == pytest.approx(
        BALL_ELLIPSOID_TRUTH, abs=1e-5)
    vM, vL = (closed_intrinsic_volumes(b) for b in HPOLYGONS)
    want = vM[2] + C2[1] * (2.0 * vM[1] / math.pi) * vL[1] + math.e * vL[2]
    assert want == pytest.approx(HPOLYGONS_TRUTH, abs=1e-6)
