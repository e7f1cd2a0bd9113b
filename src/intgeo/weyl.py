"""Deformation constants c_j and their two independent Monte Carlo routes.

c_j is the mean inflation of the j-th intrinsic volume of the unit ball under
a Gaussian symmetric deformation, normalized by V_j(B^n):

    c_j = E[ V_j(exp(X) B^n) ] / V_j(B^n),  X Gaussian on Sym(n).

Both routes draw from a proposal tilted toward where e^{tr X} puts its mass
(exponential tilting; Owen, *Monte Carlo theory, methods and examples*,
ch. 9) and fold the exact Gaussian likelihood ratio in as an importance
weight. Untilted, c_n = E[e^{tr X}] is log-normal with relative variance
e^n - 1 and sets the worst error of every run.

Route one ("direct") samples X = Z + TILT * I with Z Gaussian, takes
eigenvalues, and evaluates the ellipsoid formula under the weight
exp(-TILT tr X + n TILT^2 / 2). Route two ("weyl") integrates the eigenvalue
density directly: lambda is drawn from N(TILT, sigma_n^2)^n with
sigma_n^2 = (n + 1) / 2, the mean square of one eigenvalue of X, and
reweighted by the likelihood ratio and the radial Jacobian |Vandermonde| over
the normalization

    Z_n = 2^{n/2} n! prod_{l=1}^n Gamma(l/2),

so agreement between the routes checks Z_n and the spectral reduction at
once. Anchors: c_0 = 1 on both routes, c_n = e^{n/2} because
E[det exp(X)] = E[e^{tr X}] with tr X ~ N(0, n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimation import EstimatorResult, RunningMean, resolve_rng
from .symmetric import eigvals_sym_batch, sample_gaussian_sym
from .volumes import batch_ellipsoid_intrinsic_volumes, intrinsic_volume_ball

WEYL_MAX_N = 4  # the scaled, tilted normal proposal is checked only this far
TILT = 0.5  # mean shift of both routes' proposals along the identity
ESS_FLOOR = 0.05
_BATCH = 8192  # samples drawn at a time by either route


class EssFloorError(RuntimeError):
    """Importance sampling degenerated below the effective-sample floor."""


def z_n(n: int) -> float:
    """Normalization of the eigenvalue density of the Gaussian symmetric law."""
    if n < 1:
        raise ValueError("n must be positive")
    val = 2.0 ** (n / 2.0) * math.factorial(n)
    for l in range(1, n + 1):
        val *= math.gamma(l / 2.0)
    return val


@dataclass
class WeylEstimate(EstimatorResult):
    """EstimatorResult plus importance-sampling diagnostics (weyl route)."""

    ess: float = 1.0
    weight_sum: float = 0.0
    weight_sq_sum: float = 0.0


def _vandermonde_abs(lam: np.ndarray) -> np.ndarray:
    n = lam.shape[1]
    out = np.ones(lam.shape[0])
    for a in range(n):
        for b in range(a + 1, n):
            out *= np.abs(lam[:, a] - lam[:, b])
    return out


def _tilted(z: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Move standard draws z (rows) to lam = TILT + sigma * z; return (lam, w).

    w = sigma^n exp(-|lam|^2 / 2 + |z|^2 / 2) is the likelihood ratio of the
    target N(0, 1)^n to the proposal N(TILT, sigma^2)^n at lam. For
    eigenvalues of a Gaussian symmetric matrix and sigma = 1 it is the same
    ratio of the matrix densities exp(-tr X^2 / 2).
    """
    lam = TILT + sigma * z
    log_w = z.shape[1] * math.log(sigma) - 0.5 * (np.einsum("ij,ij->i", lam, lam)
                                                   - np.einsum("ij,ij->i", z, z))
    return lam, np.exp(log_w)


def c_direct(n: int, samples: int, rng, js=None) -> dict[int, EstimatorResult]:
    """Direct-route estimates of c_j for all requested j in one pass.

    X = Z + TILT * I with Z Gaussian on Sym(n), weighted by the likelihood
    ratio exp(-TILT tr X + n TILT^2 / 2). c_0 takes no weight: V_0 = 1, so it
    stays exactly 1 with standard error 0.
    """
    rng, seed = resolve_rng(rng)
    js = list(range(n + 1)) if js is None else sorted(set(int(j) for j in js))
    vball = {j: intrinsic_volume_ball(n, j) for j in js}
    accs = {j: RunningMean() for j in js}
    done = 0
    while done < samples:
        k = min(_BATCH, samples - done)
        lam, w = _tilted(eigvals_sym_batch(sample_gaussian_sym(n, rng, size=k)), 1.0)
        vj = batch_ellipsoid_intrinsic_volumes(np.exp(lam), js)
        for j in js:
            accs[j].update(vj[j] / vball[j] * (w if j > 0 else 1.0))
        done += k
    return {j: EstimatorResult.from_accumulator(accs[j], seed) for j in js}


def c_weyl(n: int, samples: int, rng, js=None) -> dict[int, WeylEstimate]:
    """Weyl-route estimates: tilted, scaled normal proposal, Vandermonde weight.

    lam is drawn from N(TILT, (n + 1) / 2)^n and weighted by coef * |Vandermonde|
    times the likelihood ratio to N(0, 1)^n. Every j, c_0 included, takes the
    full weight, so c_0 checks Z_n; ess is the effective sample fraction of
    that weight.

    Raises ValueError for n > WEYL_MAX_N (the proposal is checked only there)
    and EssFloorError when the effective sample fraction drops below
    ESS_FLOOR.
    """
    if n > WEYL_MAX_N:
        raise ValueError(f"weyl route supports n <= {WEYL_MAX_N}")
    rng, seed = resolve_rng(rng)
    js = list(range(n + 1)) if js is None else sorted(set(int(j) for j in js))
    vball = {j: intrinsic_volume_ball(n, j) for j in js}
    coef = (2.0 * math.pi) ** (n / 2.0) / z_n(n)
    sigma = math.sqrt((n + 1) / 2.0)
    accs = {j: RunningMean() for j in js}
    w_sum = 0.0
    w_sq = 0.0
    done = 0
    while done < samples:
        k = min(_BATCH, samples - done)
        lam, ratio = _tilted(rng.standard_normal((k, n)), sigma)
        w = coef * _vandermonde_abs(lam) * ratio
        w_sum += float(w.sum())
        w_sq += float((w * w).sum())
        vj = batch_ellipsoid_intrinsic_volumes(np.exp(lam), js)
        for j in js:
            accs[j].update(vj[j] / vball[j] * w)
        done += k
    ess = w_sum**2 / (samples * w_sq) if w_sq > 0 else 0.0
    if ess < ESS_FLOOR:
        raise EssFloorError(f"effective sample fraction {ess:.4f} below {ESS_FLOOR}")
    return {j: WeylEstimate(mean=accs[j].mean, std_error=accs[j].std_error,
                            samples=accs[j].count, seed=seed, ess=ess,
                            weight_sum=w_sum, weight_sq_sum=w_sq) for j in js}


def compute_constants(n: int, samples: int, rng, method: str = "direct",
                      js=None) -> dict[int, EstimatorResult]:
    if method == "direct":
        return c_direct(n, samples, rng, js=js)
    if method == "weyl":
        return c_weyl(n, samples, rng, js=js)
    raise ValueError(f"unknown method {method!r}")


def merge_weyl(parts: list[dict[int, WeylEstimate]], seed: int) -> dict[int, WeylEstimate]:
    """Merge per-shard weyl estimates, recomputing the pooled ESS exactly."""
    from .estimation import merge_results

    js = sorted(parts[0].keys())
    out: dict[int, WeylEstimate] = {}
    w_sum = sum(p[js[0]].weight_sum for p in parts)
    w_sq = sum(p[js[0]].weight_sq_sum for p in parts)
    total = sum(p[js[0]].samples for p in parts)
    ess = w_sum**2 / (total * w_sq) if w_sq > 0 else 0.0
    if ess < ESS_FLOOR:
        raise EssFloorError(f"effective sample fraction {ess:.4f} below {ESS_FLOOR}")
    for j in js:
        base = merge_results([p[j] for p in parts], seed)
        out[j] = WeylEstimate(mean=base.mean, std_error=base.std_error,
                              samples=base.samples, seed=seed, ess=ess,
                              weight_sum=w_sum, weight_sq_sum=w_sq)
    return out


# ---------------------------------------------------------------------------
# cache files


def constants_to_records(n: int, method: str,
                         results: dict[int, EstimatorResult]) -> list[dict]:
    return [{"n": n, "j": j, "method": method, "mean": r.mean,
             "std_error": r.std_error, "samples": r.samples, "seed": r.seed}
            for j, r in sorted(results.items())]


def save_constants(path: str, records: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "constants": records}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def load_constants(path: str) -> list[dict]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "constants" not in data:
        raise ValueError("not a constants cache file")
    return data["constants"]


def lookup_constants(records: list[dict], n: int, method: str | None = None,
                     seed: int | None = None) -> dict[int, EstimatorResult]:
    """Pick the cached c_j records for (n, method, seed); None matches any."""
    out: dict[int, EstimatorResult] = {}
    for rec in records:
        if rec["n"] != n:
            continue
        if method is not None and rec["method"] != method:
            continue
        if seed is not None and rec["seed"] != seed:
            continue
        out[rec["j"]] = EstimatorResult(mean=rec["mean"], std_error=rec["std_error"],
                                        samples=rec["samples"], seed=rec["seed"])
    return out
