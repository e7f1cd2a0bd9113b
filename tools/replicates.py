"""Replicate statistics of every calibration case.

    python tools/replicates.py [--case NAME] [--seeds a:b] [--samples N]

A case (CASES) runs one estimator once per seed and reads a truth per j.
run() pools over the case's j: the estimate count, the mean of the means and
of the truths, the replicate sd (within each j), the mean SE with its q10-q90
spread, the coverage of the truth by mean +- 1.96 SE, the mean, RMS and skew
of z = (mean - truth) / SE, and the median ms per run. Without --case every
case prints one Markdown row; --seeds and --samples replace the case's own.
As a script BLAS runs on one thread. intgeo comes from the Python path, else
from the src directory beside this script.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

try:
    import intgeo  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402
from intgeo import bodies as bd  # noqa: E402
from intgeo.kinematic import crofton_coefficient, lhs_kinematic, stage_samples  # noqa: E402
from intgeo.volumes import closed_intrinsic_volumes, kappa, volume_exact  # noqa: E402
from intgeo.weyl import c_direct, c_weyl  # noqa: E402

# c_j by quadrature over the tridiagonal Hermite model, to ~1e-7 or better
QUADRATURE_C = {(2, 1): 2.3453315089325, (3, 1): 3.1900001, (3, 2): 5.2594210}
# c_1 ... c_4 at n = 5 from eight direct-route runs of 16 * 2^16 points
# (seeds 70000-70007), each to about 1e-4 relative or better
LONG_RUN_C5 = {1: 5.423197, 2: 16.13729, 3: 26.60201, 4: 24.30608}
# every c_j at n = 2 and 3: c_0 = 1, c_n = e^(n/2), the rest by quadrature
C2 = {0: 1.0, 1: QUADRATURE_C[(2, 1)], 2: math.e}
C3 = {0: 1.0, 1: QUADRATURE_C[(3, 1)], 2: QUADRATURE_C[(3, 2)], 3: math.exp(1.5)}

DISC, BALL3 = bd.unit_ball(2), bd.unit_ball(3)
# the ellipsoid of kin-ellipsoid, and kin-polytope's M (6 edges) and L (5)
ELLIPSOID3 = bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6])
_rng = np.random.default_rng(workloads.POLYGON_SEED)
HPOLYGONS = tuple(bd.body_from_dict(workloads._h_polygon(_rng, k)) for k in (6, 5))
# the gl chi LHS sum_j kappa_(n-j) c_j V_j(L), c_j by quadrature: of BALL3 x
# ELLIPSOID3, and of HPOLYGONS, area(M) + c_1 (per M / pi)(per L / 2) + e area(L)
BALL_ELLIPSOID_TRUTH = 112.26898
HPOLYGONS_TRUTH = 26.508335
_VE, _VB = closed_intrinsic_volumes(ELLIPSOID3), closed_intrinsic_volumes(BALL3)
COVERAGE_FLOOR = 0.90  # every case's; the lattice SE, a t law with 15 df, covers 0.93


@dataclass(frozen=True)
class Case:
    name: str
    estimator: str  # hit_or_miss or exact (of lhs_kinematic), c_direct, c_weyl or crofton
    truth: dict  # j -> the value the intervals should cover; the key None: no j
    samples: int
    seeds: range
    bodies: tuple = ()  # (M, L); (M,) for crofton
    n: int | None = None  # the dimension of a c_j case
    group: str = "gl"
    phi: str = "chi"
    js: tuple | None = None  # the j a c_j route computes (None: all)
    inner_samples: int | None = None
    sd_rel: float | None = None  # the replicate sd is within this of the mean SE
    sd_max: float | None = None  # the replicate sd is below this


def _lattice_c(route: str, n: int, truth: dict) -> Case:
    # 125 points per shift
    return Case(f"lattice-{route[2:]}-{n}", route, truth, 2000, range(2000, 2200), n=n)


def _lhs(name: str, estimator: str, truth: float, samples: int, seeds: range,
         bodies: tuple = (BALL3, ELLIPSOID3), **kw) -> Case:
    return Case(name, estimator, {None: truth}, samples, seeds, bodies, **kw)


CASES = [
    # rows share each g, so the row SE is unbiased only if they are uncorrelated
    _lhs("volume-discs", "hit_or_miss", math.e * math.pi**2, 2000, range(5000, 5200),
         (DISC, DISC), phi="volume", inner_samples=4, sd_rel=0.15),
    _lhs("volume-ball-ellipsoid", "hit_or_miss",
         C3[3] * volume_exact(BALL3) * volume_exact(ELLIPSOID3), 2000,
         range(6000, 6200), phi="volume", sd_rel=0.15),
    _lhs("exact-ball-ellipsoid-5000", "exact", BALL_ELLIPSOID_TRUTH, 2000, range(5000, 5200)),
    # X from the shifted lattice, the SE from its shift means
    _lhs("lattice-hpolygons-300", "exact", HPOLYGONS_TRUTH, 300, range(2000, 2200), HPOLYGONS),
    _lhs("lattice-ball-ellipsoid-1000", "exact", BALL_ELLIPSOID_TRUTH, 1000, range(2000, 2200)),
    # the chi check, its trace tilted by 1/2 (untilted: coverage 0.865, sd 22);
    # at 3000-3199, t drawn in the axis box of M + (-gL), not in the eigenframe
    # of g, put the sd at 69.5
    _lhs("check-ball-ellipsoid-2000", "hit_or_miss", BALL_ELLIPSOID_TRUTH, 2000,
         range(2000, 2200), sd_max=15.0),
    _lhs("check-ball-ellipsoid-3000", "hit_or_miss", BALL_ELLIPSOID_TRUTH, 2000,
         range(3000, 3200), sd_max=6.0),
    # the trace integrated, not sampled (sampled: 0.86); the direct c_0, c_n are exact
    Case("direct-3-c2", "c_direct", {2: C3[2]}, 2000, range(1000, 1200), n=3, js=(2,)),
    Case("weyl-3-c3", "c_weyl", {3: C3[3]}, 2000, range(1000, 1200), n=3, js=(3,)),
    _lattice_c("c_direct", 2, {1: C2[1]}),
    _lattice_c("c_direct", 3, {1: C3[1], 2: C3[2]}),
    _lattice_c("c_direct", 5, LONG_RUN_C5),
    _lattice_c("c_weyl", 2, C2),
    _lattice_c("c_weyl", 3, C3),
    # phi_(3-j)(E) = kappa_(3-j) V_(3-j)(E) / V_(3-j)(B^3)
    *(Case(f"crofton-ellipsoid-{j}", "crofton", {j: kappa(3 - j) * _VE[3 - j] / _VB[3 - j]},
           2000, range(6000, 6200), (ELLIPSOID3,)) for j in (0, 1, 2)),
]
CASE = {case.name: case for case in CASES}
ROUTES = {"c_direct": c_direct, "c_weyl": c_weyl}
Stats = namedtuple("Stats", "estimates mean truth sd se se_q10 se_q90 coverage "
                            "z_mean z_rms z_skew ms")


def _estimates(case: Case, samples: int, seed: int) -> dict:
    """{j: the estimate the case reads} of one run."""
    if case.estimator in ROUTES:
        return ROUTES[case.estimator](case.n, samples, seed, js=case.js)
    if case.estimator == "crofton":
        return {j: crofton_coefficient(case.phi, *case.bodies, j, samples, seed)
                for j in case.truth}
    kw = {} if case.inner_samples is None else {"inner_samples": case.inner_samples}
    est = lhs_kinematic(case.group, case.phi, *case.bodies, samples, seed, **kw)
    return {None: est.exact if case.estimator == "exact" else est}


def run(case: Case, seeds: range | None = None, samples: int | None = None) -> Stats:
    seeds, samples = seeds or case.seeds, samples or case.samples
    means, ses, secs = [], [], []
    for seed in seeds:
        start = time.perf_counter()
        est = _estimates(case, samples, seed)
        secs.append(time.perf_counter() - start)
        for e in (est[j] for j in case.truth):
            # a chi check beside an exact loop runs at the stage budget
            rows = min(samples, stage_samples(samples)) if getattr(e, "exact", None) else samples
            assert e.samples == rows, (case.name, seed, e)
        means.append([est[j].mean for j in case.truth])
        ses.append([est[j].std_error for j in case.truth])
    means, ses = np.array(means), np.array(ses)
    truth = np.array(list(case.truth.values()))
    z = (means - truth) / ses
    sd = math.sqrt(np.mean(np.var(means, axis=0, ddof=1))) if len(seeds) > 1 else math.nan
    return Stats(means.size, means.mean(), truth.mean(), sd, ses.mean(),
                 *np.quantile(ses, [0.1, 0.9]), np.mean(np.abs(means - truth) <= 1.96 * ses),
                 z.mean(), math.sqrt(np.mean(z**2)), np.mean((z - z.mean())**3) / z.std()**3,
                 1e3 * np.median(secs))


def misses(case: Case, s: Stats) -> list[str]:
    """The floors of the case that s does not meet."""
    return [text for text, met in (
        (f"coverage < {COVERAGE_FLOOR}", s.coverage >= COVERAGE_FLOOR),
        (f"|sd - SE| > {case.sd_rel} SE",
         case.sd_rel is None or abs(s.sd - s.se) <= case.sd_rel * s.se),
        (f"sd >= {case.sd_max}", case.sd_max is None or s.sd < case.sd_max)) if not met]


def row(case: Case, s: Stats) -> str:
    return (f"| {case.name} | {s.estimates} | {s.mean:.6g} | {s.truth:.6g} | {s.sd:.4g} "
            f"| {s.se:.4g} ({s.se_q10:.4g}-{s.se_q90:.4g}) | {s.coverage:.3f} | {s.z_mean:+.3f} "
            f"| {s.z_rms:.3f} | {s.z_skew:+.2f} | {s.ms:.3g} "
            f"| {'; '.join(misses(case, s)) or 'met'} |")


def _seeds(spec: str) -> range:
    start, stop = (int(v) for v in spec.split(":"))
    if stop <= start:
        raise argparse.ArgumentTypeError(f"empty seed range {spec!r}")
    return range(start, stop)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--case", choices=tuple(CASE), metavar="NAME",
                    help="one of: %(choices)s (default: every case)")
    ap.add_argument("--seeds", type=_seeds, help="start:stop, stop excluded")
    ap.add_argument("--samples", type=int, help="the budget of each run")
    args = ap.parse_args(argv)
    print("| case | estimates | mean | truth | replicate sd | mean SE (q10-q90) | coverage "
          "| z mean | z RMS | z skew | ms per run | floors |\n" + "|---" * 12 + "|")
    for case in [CASE[args.case]] if args.case else CASES:
        print(row(case, run(case, args.seeds, args.samples)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
