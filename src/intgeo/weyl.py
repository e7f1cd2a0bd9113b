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

Route one ("direct") draws X_0 in the traceless split chart of Sym(n)
(symmetric.split_coords_to_sym): n - 1 normals on the diagonal through the
Helmert basis of the traceless hyperplane, then the n(n - 1)/2 off-diagonal
coordinates, n(n + 1)/2 - 1 normals in all. Its spectrum goes into the
ellipsoid formula; it needs no weight. Route two ("weyl") integrates the
eigenvalue density on the traceless hyperplane directly: lambda_0 =
sigma_n H w with H the Helmert basis (symmetric.helmert) and w ~ N(0,
I_{n-1}), the projection of N(0, sigma_n^2)^n onto it, with sigma_n^2 =
(n + 2) / 2 = E|lambda_0|^2 / (n - 1) the mean square of one traceless
coordinate, reweighted by the ratio of the target density
|Vandermonde(lambda_0)| exp(-|lambda_0|^2 / 2) over Z_n / sqrt(2 pi) to
the proposal density, with

    Z_n = 2^{n/2} n! prod_{l=1}^n Gamma(l/2)

the normalization of the full eigenvalue density. Agreement between the
routes checks Z_n and the spectral reduction at once. Anchors: c_0 = 1 and
c_n = e^{n/2}, because det exp(X_0) = 1. The direct route returns both
exactly; on the weyl route both carry the full weight, so they stay
estimates of 1 and e^{n/2} that test one number, Z_n: V_n(exp(lambda_0)
B^n) = kappa_n, so the weyl c_n is e^{n/2} c_0 sample by sample.

The normals of both routes come from sampling.lattice_normals, a randomly
shifted rank-1 lattice rule. A call splits its budget over the sampler's
SHIFTS independent uniform shifts, drawn from its rng (the counts differ
by at most one), estimates each c_j by the mean of the shift means, and
reports as standard error the standard deviation of the shift means over
sqrt(SHIFTS) (sampling.ShiftSums); samples is the budget. On the weyl
route the ESS still reads the weights of every point.

run_constants is the one driver of a c_j run, the library's and the cj
command's: it owns the route seeds, the weyl route's cap on n and the chunk
plan. save_constants writes its estimates as a cache file, and
load_constants reads c_0..c_n back for a kinematic report, from the direct
route when it is complete and else from the weyl route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimation import EstimatorResult, merge_results, resolve_rng, run_chunks
from .sampling import ShiftSums, lattice_normals
from .symmetric import eigvals_sym_batch, helmert, split_coords_to_sym, sym_dim
from .volumes import batch_ellipsoid_intrinsic_volumes, intrinsic_volume_ball

WEYL_MAX_N = 4  # the scaled normal proposal is checked only this far
ROUTES = ("direct", "weyl")
ESS_FLOOR = 0.05


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


def _check_weyl_n(n: int) -> None:
    """The weyl route's domain: 1 <= n <= WEYL_MAX_N, where its scaled normal
    proposal is checked; ValueError otherwise."""
    if not 1 <= n <= WEYL_MAX_N:
        raise ValueError(f"the weyl route supports 1 <= n <= {WEYL_MAX_N}, got n = {n}; "
                         f"use the direct route")


def _ess(weight_sum: float, weight_sq_sum: float, samples: int) -> float:
    """Effective sample fraction of importance weights with these sums over
    samples points; EssFloorError when it falls below ESS_FLOOR."""
    ess = weight_sum**2 / (samples * weight_sq_sum) if weight_sq_sum > 0 else 0.0
    if ess < ESS_FLOOR:
        raise EssFloorError(f"effective sample fraction {ess:.4f} below {ESS_FLOOR}")
    return ess


def c_direct(n: int, samples: int, rng, js=None) -> dict[int, EstimatorResult]:
    """Direct-route estimates of c_j for all requested j in one pass.

    Each point is X_0 in the traceless chart (module docstring), and c_j is
    trace_moment(n, j) times the mean of V_j(exp(X_0) B^n) / V_j(B^n) over
    the shifted lattice; no weight is needed. c_0 = 1 and c_n = e^{n/2} come
    out exactly, with standard error 0 (V_0 = 1 and det exp(X_0) = 1), so
    only 0 < j < n draw: none does at n = 1. An n below 1 or a j outside
    [0, n] raises ValueError.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng, seed = resolve_rng(rng)
    js = list(range(n + 1)) if js is None else sorted(set(int(j) for j in js))
    if any(not 0 <= j <= n for j in js):
        raise ValueError("need 0 <= j <= n")
    scale = {j: trace_moment(n, j) / intrinsic_volume_ball(n, j) for j in js if 0 < j < n}
    out = {j: EstimatorResult(trace_moment(n, j), 0.0, samples, seed)
           for j in js if j not in scale}
    if scale:
        sums = {j: ShiftSums(samples) for j in scale}
        for shift, w in lattice_normals(sym_dim(n) - 1, samples, rng):
            lam0 = eigvals_sym_batch(split_coords_to_sym(w, n))
            vj = batch_ellipsoid_intrinsic_volumes(np.exp(lam0), list(scale))
            for j in scale:
                sums[j].update(vj[j] * scale[j], shift)
        out.update({j: sums[j].result(seed) for j in scale})
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

    Raises ValueError for n < 1 or n > WEYL_MAX_N (the proposal is checked
    only there) and EssFloorError when the effective sample fraction drops
    below ESS_FLOOR.
    """
    _check_weyl_n(n)
    rng, seed = resolve_rng(rng)
    js = list(range(n + 1)) if js is None else sorted(set(int(j) for j in js))
    scale = {j: trace_moment(n, j) / intrinsic_volume_ball(n, j) for j in js}
    sigma = math.sqrt((n + 2) / 2.0)
    sums = {j: ShiftSums(samples) for j in js}
    H = helmert(n)
    w_sum = w_sq = 0.0
    for shift, w in lattice_normals(n - 1, samples, rng):
        lam0 = sigma * w @ H.T
        wt = _weyl_weight(lam0, sigma)
        w_sum += float(wt.sum())
        w_sq += float((wt * wt).sum())
        vj = batch_ellipsoid_intrinsic_volumes(np.exp(lam0), js)
        for j in js:
            sums[j].update(vj[j] * scale[j] * wt, shift)
    ess = _ess(w_sum, w_sq, samples)
    return {j: WeylEstimate(**vars(sums[j].result(seed)), ess=ess, weight_sum=w_sum,
                            weight_sq_sum=w_sq) for j in js}


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
    ess = _ess(w_sum, w_sq, sum(p[js[0]].samples for p in parts))
    return {j: WeylEstimate(**vars(r), ess=ess, weight_sum=w_sum, weight_sq_sum=w_sq)
            for j, r in merged.items()}


def run_constants(n: int, samples: int, seed: int, routes=ROUTES, js=None,
                  threads: int = 1) -> dict[str, dict[int, EstimatorResult]]:
    """The c_j estimates of each requested route, the one driver of a cj run.

    Route ROUTES[i] cuts its samples into the chunk plan of
    estimation.run_chunks from seed + i, so the routes never share a stream,
    and merge_constants joins its chunks under seed. The weyl route's n is
    checked before any route draws; threads changes the speed, never the
    output. Returns {route: {j: estimate}} in ROUTES order.
    """
    if any(route not in ROUTES for route in routes):
        raise ValueError(f"unknown route in {routes!r}; the routes are {ROUTES}")
    if "weyl" in routes:
        _check_weyl_n(n)
    out = {}
    for i, route in enumerate(ROUTES):
        if route in routes:
            [parts] = run_chunks(
                [(lambda rng, k, route=route: compute_constants(n, k, rng, method=route, js=js),
                  samples)],
                seed + i, threads)
            out[route] = merge_constants(parts, seed)
    return out


# ---------------------------------------------------------------------------
# cache files

_RECORD_FIELDS = ("mean", "std_error", "samples", "seed")


def save_constants(path: str, n: int, routes: dict[str, dict[int, EstimatorResult]]) -> None:
    """Write the estimates of run_constants as a cache file: one record per
    route and j, in route order and then by j."""
    records = [{"n": n, "j": j, "method": route, **{k: getattr(r, k) for k in _RECORD_FIELDS}}
               for route, results in routes.items() for j, r in sorted(results.items())]
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "constants": records}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def _is_record(rec) -> bool:
    """A cache record: int n, j and seed, int samples >= 1, str method, a
    finite mean and a finite std_error >= 0 (bool is no int here)."""
    if not isinstance(rec, dict):
        return False
    ints = all(type(rec.get(k)) is int for k in ("n", "j", "samples", "seed"))
    reals = all(type(rec.get(k)) in (int, float) and math.isfinite(rec[k])
                for k in ("mean", "std_error"))
    return (ints and reals and isinstance(rec.get("method"), str)
            and rec["samples"] >= 1 and rec["std_error"] >= 0)


def load_constants(path: str, n: int) -> dict[int, EstimatorResult]:
    """c_0..c_n from a cache file: those of the direct route when it holds
    every j, else those of the weyl route. ValueError when any record is
    malformed or neither route holds every j for this n."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("constants"), list):
        raise ValueError("not a constants cache file")
    for rec in data["constants"]:
        if not _is_record(rec):
            raise ValueError(f"malformed constants record {rec!r}")
    for route in ROUTES:
        found = {rec["j"]: EstimatorResult(**{k: rec[k] for k in _RECORD_FIELDS})
                 for rec in data["constants"] if rec["n"] == n and rec["method"] == route}
        if all(j in found for j in range(n + 1)):
            return {j: found[j] for j in range(n + 1)}
    raise ValueError(f"no route of the cache holds every c_j, j = 0..{n}, for n = {n}")
