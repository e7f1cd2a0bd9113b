"""Deformation constants c_j and their two independent estimators, both
drawn from one randomly shifted rank-1 lattice rule.

c_j is the mean inflation of the j-th intrinsic volume of the unit ball under
a Gaussian symmetric deformation, normalized by V_j(B^n):

    c_j = E[ V_j(exp(X) B^n) ] / V_j(B^n),  X Gaussian on Sym(n).

The Gaussian on Sym(n) splits into two independent parts: the trace
tau = tr X ~ N(0, n) and the traceless part X_0 = X - (tau / n) I, since
tr X^2 = tr X_0^2 + tau^2 / n. V_j is homogeneous of degree j, so
V_j(e^X K) = e^{j tau / n} V_j(e^{X_0} K), and the trace integrates in
closed form (Rao-Blackwellization; Owen, *Monte Carlo theory, methods and
examples*, ch. 8):

    c_j = e^{j^2 / (2n)} E[ V_j(exp(X_0) B^n) ] / V_j(B^n).

Both routes sample X_0 alone. Sampling tau instead would leave c_n =
E[e^{tr X}] log-normal, with relative variance e^n - 1.

Route one ("direct") draws X_0 in an orthonormal chart of the traceless
part of Sym(n): n - 1 normals on the diagonal through the Helmert basis of
the traceless hyperplane (_helmert), then the n(n - 1)/2 off-diagonal
coordinates of symmetric.coords_to_sym, n(n + 1)/2 - 1 normals in all. Its
spectrum goes into the ellipsoid formula; it needs no weight. Route two
("weyl") integrates the eigenvalue density on the traceless hyperplane
directly: lambda_0 = sigma_n H w with w ~ N(0, I_{n-1}), the projection of
N(0, sigma_n^2)^n onto it, with sigma_n^2 = (n + 2) / 2 = E|lambda_0|^2 /
(n - 1) the mean square of one traceless coordinate, reweighted by the
ratio of the target density |Vandermonde(lambda_0)| exp(-|lambda_0|^2 / 2)
over Z_n / sqrt(2 pi) to the proposal density, with

    Z_n = 2^{n/2} n! prod_{l=1}^n Gamma(l/2)

the normalization of the full eigenvalue density. Agreement between the
routes checks Z_n and the spectral reduction at once. Anchors: c_0 = 1 and
c_n = e^{n/2}, because det exp(X_0) = 1. The direct route returns both
exactly; on the weyl route both carry the full weight, so they stay
estimates of 1 and e^{n/2} that test one number, Z_n: V_n(exp(lambda_0)
B^n) = kappa_n, so the weyl c_n is e^{n/2} c_0 sample by sample.

The normals of both routes come from lattice_normals, a randomly shifted
rank-1 lattice rule (Dick, Kuo & Sloan 2013, *Acta Numerica* 22): point i
is frac(phi_2(i) z + Delta), with phi_2 the base-2 radical inverse, so the
first 2^m points of the sequence are the full lattice of modulus 2^m and
any budget takes a prefix. The generating vector z (LATTICE_Z) is one
embedded vector for 2^6 ... 2^16 points (Cools, Kuo & Nuyens 2006, *SIAM
J. Sci. Comput.* 28), built offline by fast component-by-component
construction and kept as a literal. Each point goes through the tent
(baker's) transform u -> 1 - |2u - 1| and Box-Muller, one pair of
coordinates per pair of normals. A call splits its budget over SHIFTS
independent uniform shifts Delta drawn from its rng (the counts differ by
at most one), estimates each c_j by the mean of the shift means, and
reports as standard error the standard deviation of the shift means over
sqrt(SHIFTS); samples is the budget. On the weyl route the ESS still reads
the weights of every point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimation import EstimatorResult, merge_results, resolve_rng
from .symmetric import coords_to_sym, eigvals_sym_batch, sym_dim
from .volumes import batch_ellipsoid_intrinsic_volumes, intrinsic_volume_ball

WEYL_MAX_N = 4  # the scaled normal proposal is checked only this far
ESS_FLOOR = 0.05
# Random shifts per call. Fewer, longer shifts cut the variance (the lattice
# error falls faster than 1/points): at the cj-spectra budgets (3e4 at
# n = 3, 2e4 at n = 5) 32 shifts gave 2-6x the variance of 16. More shifts
# sharpen the standard error, whose shift means give a t law with
# SHIFTS - 1 degrees of freedom: the nominal 95% interval covers 0.931 at
# 16 and 0.941 at 32 for normal shift means. Over 200 replicates (seeds
# 5000-5199, 2000 and 3e4 samples, n = 2 and 3, both routes) 16 shifts
# covered 0.90-0.955, 32 shifts 0.92-0.965. 16 keeps the variance.
SHIFTS = 16
_BATCH = 8192  # points evaluated at a time by either route
_MASK = np.uint64((1 << 32) - 1)  # lattice coordinates are 32-bit fractions
# The embedded generating vector for 2^6 ... 2^16 points in 36 dimensions,
# enough for the direct route at n <= 8 (35 normals). Built by fast CBC
# over the odd residues mod 2^16 for the P_2 figure of merit (the
# shift-averaged worst-case error of the unanchored Sobolev space) with
# product weights gamma_k = 1/k^2, minimizing at each component the worst
# ratio, over the eleven moduli 2^6 ... 2^16, of a candidate's error to the
# best candidate's at that modulus. tests/test_weyl.py holds the
# construction and rebuilds it.
LATTICE_Z = (1, 29233, 19221, 63057, 28329, 5245, 45473, 11889, 1093, 33545, 53905,
             15341, 4141, 25901, 11977, 52241, 6761, 26913, 30065, 6585, 2801, 22445,
             5429, 21593, 48905, 33401, 38509, 61173, 7613, 35869, 56729, 28569, 19417,
             23641, 41781, 12961)


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


def trace_moment(n: int, j: int) -> float:
    """E[e^{j tau / n}] = e^{j^2 / (2n)} for tau = tr X ~ N(0, n): the factor
    a degree-j integrand takes when the trace is integrated out. At j = n it
    is math.exp(n / 2) to the last bit."""
    return math.exp(j * j / (2.0 * n))


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


def _weyl_weight(lam0: np.ndarray, sigma: float) -> np.ndarray:
    """p_0 / q_0 at traceless spectra lam0 (rows).

    p_0 = |Vandermonde| exp(-|lam0|^2 / 2) sqrt(2 pi) / Z_n is the law of the
    spectrum of X_0 on the traceless hyperplane (the trace direction of
    exp(-|lam|^2 / 2) integrates to sqrt(2 pi)); q_0 is the projection of
    N(0, sigma^2)^n onto it, an isotropic normal in its n - 1 dimensions.
    """
    n = lam0.shape[1]
    coef = (2.0 * math.pi) ** (n / 2.0) / z_n(n)
    sq = np.einsum("ij,ij->i", lam0, lam0)
    return (coef * sigma ** (n - 1) * _vandermonde_abs(lam0)
            * np.exp(-0.5 * (1.0 - sigma**-2) * sq))


def _bit_reverse(i: np.ndarray) -> np.ndarray:
    """phi_2(i) 2^32 for each index: its 32 bits in reverse order."""
    x = np.asarray(i, dtype=np.uint64)
    for s, m in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F), (8, 0x00FF00FF)):
        s, m = np.uint64(s), np.uint64(m)
        x = ((x >> s) & m) | ((x & m) << s)
    return ((x >> np.uint64(16)) | (x << np.uint64(16))) & _MASK


def _shift_counts(samples: int) -> np.ndarray:
    """Points per shift: the budget split over min(SHIFTS, samples) shifts,
    the first ones taking one point more."""
    shifts = min(SHIFTS, samples)
    q, r = divmod(samples, shifts)
    return q + (np.arange(shifts) < r)


def lattice_normals(d: int, samples: int, rng):
    """Yield (shift, w): batches of the budget's points, each row of w the d
    standard normals of one point and shift its shift's index.

    Shift k takes the first _shift_counts(samples)[k] points of the
    lattice, moved by its own uniform shift; the shifts are drawn from rng
    once, as 32-bit integers, so a point's coordinate is (m + 1/2) / 2^32
    with m an integer and the tent transform never returns 0 or 1.
    """
    counts = _shift_counts(samples)
    width = d + d % 2  # Box-Muller reads coordinates in pairs
    z = np.array(LATTICE_Z[:width], dtype=np.uint64)
    delta = rng.integers(0, 1 << 32, size=(counts.size, width), dtype=np.uint64)
    block = max(1, _BATCH // counts.size)
    for start in range(0, int(counts[0]), block):
        idx = np.arange(start, min(start + block, int(counts[0])))
        keep = idx < counts[:, None]
        yield np.nonzero(keep)[0], _block_normals(idx, keep, z, delta)[:, :d]


def _block_normals(idx: np.ndarray, keep: np.ndarray, z: np.ndarray,
                   delta: np.ndarray) -> np.ndarray:
    """Normals at the points idx of the shifts keep selects (rows of keep:
    shifts): the 32-bit coordinates m = (i z + Delta) mod 2^32 of the
    points (m + 1/2) / 2^32, the tent transform (2 min(m, 2^32 - 1 - m) +
    1) / 2^32, exact in floating point, then Box-Muller on each pair of
    columns. A function of its own, so that its work arrays are freed
    before lattice_normals yields."""
    x = _bit_reverse(idx)[:, None] * z + delta[:, None]  # < 2^49: uint64 never wraps
    x = np.bitwise_and(x, _MASK, out=x)[keep]
    w = np.minimum(x, _MASK - x, out=x) * 2.0**-31 + 2.0**-32
    del x
    r = np.sqrt(-2.0 * np.log(w[:, 0::2]))
    theta = 2.0 * math.pi * w[:, 1::2]
    np.multiply(r, np.cos(theta), out=w[:, 0::2])
    np.multiply(r, np.sin(theta), out=w[:, 1::2])
    return w


def _shift_mean(sums: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """The mean of the shift means and its standard error, their standard
    deviation over sqrt(shifts); 0 for a single shift."""
    means = sums / counts
    se = float(means.std(ddof=1) / math.sqrt(means.size)) if means.size > 1 else 0.0
    return float(means.mean()), se


def _helmert(n: int) -> np.ndarray:
    """(n, n - 1): the Helmert basis of the traceless hyperplane, column k
    (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)) with k ones."""
    H = np.triu(np.ones((n, n - 1)))
    k = np.arange(1, n)
    H[k, k - 1] = -k
    return H / np.sqrt(k * (k + 1.0))


def c_direct(n: int, samples: int, rng, js=None) -> dict[int, EstimatorResult]:
    """Direct-route estimates of c_j for all requested j in one pass.

    Each point is X_0 in the traceless chart (module docstring), and c_j is
    trace_moment(n, j) times the mean of V_j(exp(X_0) B^n) / V_j(B^n) over
    the shifted lattice; no weight is needed. c_0 = 1 and c_n = e^{n/2} come
    out exactly, with standard error 0 (V_0 = 1 and det exp(X_0) = 1), so
    only 0 < j < n draw: none does at n = 1. A j outside [0, n] raises
    ValueError.
    """
    rng, seed = resolve_rng(rng)
    js = list(range(n + 1)) if js is None else sorted(set(int(j) for j in js))
    if any(not 0 <= j <= n for j in js):
        raise ValueError("need 0 <= j <= n")
    scale = {j: trace_moment(n, j) / intrinsic_volume_ball(n, j) for j in js if 0 < j < n}
    out = {j: EstimatorResult(trace_moment(n, j), 0.0, samples, seed)
           for j in js if j not in scale}
    if scale:
        counts = _shift_counts(samples)
        sums = {j: np.zeros(counts.size) for j in scale}
        H = _helmert(n)
        for shift, w in lattice_normals(sym_dim(n) - 1, samples, rng):
            # X_0's chart: the diagonal through H, then the off-diagonals
            lam0 = eigvals_sym_batch(coords_to_sym(
                np.hstack([w[:, :n - 1] @ H.T, w[:, n - 1:]]), n))
            vj = batch_ellipsoid_intrinsic_volumes(np.exp(lam0), list(scale))
            for j in scale:
                sums[j] += np.bincount(shift, vj[j] * scale[j], counts.size)
        for j in scale:
            out[j] = EstimatorResult(*_shift_mean(sums[j], counts), samples, seed)
    return {j: out[j] for j in js}


def c_weyl(n: int, samples: int, rng, js=None) -> dict[int, WeylEstimate]:
    """Weyl-route estimates: a scaled normal proposal on the traceless
    hyperplane and the Vandermonde weight.

    lam0 is sigma H w with w the lattice's n - 1 normals and sigma^2 =
    (n + 2) / 2, weighted by _weyl_weight, and c_j is trace_moment(n, j)
    times the weighted mean of V_j(exp(lam0) B^n) / V_j(B^n) over the
    shifted lattice. Every j, c_0 and c_n included, takes the full weight,
    so both check Z_n; ess is the effective sample fraction of that weight
    over every point.

    Raises ValueError for n > WEYL_MAX_N (the proposal is checked only there)
    and EssFloorError when the effective sample fraction drops below
    ESS_FLOOR.
    """
    if n > WEYL_MAX_N:
        raise ValueError(f"weyl route supports n <= {WEYL_MAX_N}")
    rng, seed = resolve_rng(rng)
    js = list(range(n + 1)) if js is None else sorted(set(int(j) for j in js))
    scale = {j: trace_moment(n, j) / intrinsic_volume_ball(n, j) for j in js}
    sigma = math.sqrt((n + 2) / 2.0)
    counts = _shift_counts(samples)
    sums = {j: np.zeros(counts.size) for j in js}
    H = _helmert(n)
    w_sum = 0.0
    w_sq = 0.0
    for shift, w in lattice_normals(n - 1, samples, rng):
        lam0 = sigma * w @ H.T
        wt = _weyl_weight(lam0, sigma)
        w_sum += float(wt.sum())
        w_sq += float((wt * wt).sum())
        vj = batch_ellipsoid_intrinsic_volumes(np.exp(lam0), js)
        for j in js:
            sums[j] += np.bincount(shift, vj[j] * scale[j] * wt, counts.size)
    ess = w_sum**2 / (samples * w_sq) if w_sq > 0 else 0.0
    if ess < ESS_FLOOR:
        raise EssFloorError(f"effective sample fraction {ess:.4f} below {ESS_FLOOR}")
    return {j: WeylEstimate(*_shift_mean(sums[j], counts), samples, seed, ess=ess,
                            weight_sum=w_sum, weight_sq_sum=w_sq) for j in js}


def compute_constants(n: int, samples: int, rng, method: str = "direct",
                      js=None) -> dict[int, EstimatorResult]:
    if method == "direct":
        return c_direct(n, samples, rng, js=js)
    if method == "weyl":
        return c_weyl(n, samples, rng, js=js)
    raise ValueError(f"unknown method {method!r}")


def merge_constants(parts: list[dict[int, EstimatorResult]],
                    seed: int) -> dict[int, EstimatorResult]:
    """Chunk estimates of c_j merged in chunk order, one j at a time
    (merge_results). Weyl-route parts (WeylEstimate) also pool their
    weights: the merged ESS is recomputed from the pooled sums, and
    EssFloorError is raised when it falls below ESS_FLOOR."""
    js = sorted(parts[0])
    merged = {j: merge_results([p[j] for p in parts], seed) for j in js}
    if not isinstance(parts[0][js[0]], WeylEstimate):
        return merged
    w_sum = sum(p[js[0]].weight_sum for p in parts)
    w_sq = sum(p[js[0]].weight_sq_sum for p in parts)
    total = sum(p[js[0]].samples for p in parts)
    ess = w_sum**2 / (total * w_sq) if w_sq > 0 else 0.0
    if ess < ESS_FLOOR:
        raise EssFloorError(f"effective sample fraction {ess:.4f} below {ESS_FLOOR}")
    return {j: WeylEstimate(**vars(r), ess=ess, weight_sum=w_sum, weight_sq_sum=w_sq)
            for j, r in merged.items()}


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
