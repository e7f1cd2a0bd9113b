"""Replicate statistics of one lhs_kinematic configuration over a seed range.

    python tools/replicates.py --phi volume --M disc --L disc \
        --samples 20000 --seeds 9000:9120 --want 26.8283663

Runs lhs_kinematic under gl once per seed in [start, stop) and prints, for
its hit-or-miss estimate: the number of replicates, the mean of the means,
their sd (the replicate sd), the mean standard error with its q10-q90
spread, how many nominal 95% intervals (mean +- 1.96 SE) cover --want, and
the median milliseconds per call. The replicate sd and the mean SE agree
when the SE is unbiased; sd^2 times the ms per run is the estimator's
work-normalized variance.

--M and --L take one of the names in BODIES. BLAS is pinned to one thread.
intgeo is imported from the Python path when it is there, else from the
src directory beside this script, so PYTHONPATH=<checkout>/src measures
another checkout.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

try:
    import intgeo  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from intgeo import bodies as bd  # noqa: E402
from intgeo.kinematic import lhs_kinematic  # noqa: E402

BODIES = {
    "disc": lambda: bd.unit_ball(2),
    "ball3": lambda: bd.unit_ball(3),
    # the ellipsoid of the kin-ellipsoid benchmark and the coverage tests
    "ellipsoid3": lambda: bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6]),
}


def _seeds(spec: str) -> range:
    start, stop = (int(v) for v in spec.split(":"))
    if stop <= start:
        raise argparse.ArgumentTypeError(f"empty seed range {spec!r}")
    return range(start, stop)


def replicates(phi: str, M, L, samples: int, seeds: range
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(means, standard errors, seconds per call), one entry per seed."""
    means, ses, secs = [], [], []
    for seed in seeds:
        start = time.perf_counter()
        res = lhs_kinematic("gl", phi, M, L, samples, seed)
        secs.append(time.perf_counter() - start)
        means.append(res.mean)
        ses.append(res.std_error)
    return np.array(means), np.array(ses), np.array(secs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--phi", default="chi", choices=("chi", "volume"))
    ap.add_argument("--M", required=True, choices=tuple(BODIES))
    ap.add_argument("--L", required=True, choices=tuple(BODIES))
    ap.add_argument("--samples", type=int, required=True)
    ap.add_argument("--seeds", type=_seeds, required=True, help="start:stop, stop excluded")
    ap.add_argument("--want", type=float, required=True,
                    help="the value the 95%% intervals should cover")
    args = ap.parse_args(argv)
    means, ses, secs = replicates(args.phi, BODIES[args.M](), BODIES[args.L](),
                                  args.samples, args.seeds)
    reps = len(means)
    covered = int(np.count_nonzero(np.abs(means - args.want) <= 1.96 * ses))
    q10, q90 = np.quantile(ses, [0.1, 0.9])
    print(f"gl {args.phi} {args.M} x {args.L}, {args.samples} samples, "
          f"seeds {args.seeds.start}-{args.seeds.stop - 1}")
    print(f"replicates    {reps}")
    print(f"mean          {means.mean():.6g}  (want {args.want:.6g})")
    print(f"replicate sd  {np.std(means, ddof=1) if reps > 1 else float('nan'):.4g}")
    print(f"mean SE       {ses.mean():.4g}  (q10-q90 {q10:.4g}-{q90:.4g})")
    print(f"coverage      {covered} of {reps} ({covered / reps:.3f})")
    print(f"ms per run    {1e3 * statistics.median(secs):.3g}  (median)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
