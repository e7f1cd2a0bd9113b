"""Intrinsic volumes: closed forms, batched ellipsoid kernels, and MC fits.

V_j is normalized so that it is intrinsic (independent of the ambient
dimension): V_0 = Euler characteristic, V_1 = a multiple of mean width,
V_{n-1} = half surface area, V_n = volume. For the unit ball,
V_j(B^n) = binom(n, j) kappa_n / kappa_{n-j} with kappa_j the volume of B^j.

Ellipsoid intrinsic volumes follow the principal-axis representation

    V_j(E(a)) = kappa_j * sum_i a_i^2 e_{j-1}(a^2 without i) * I_i,
    I_i = int_0^inf t^{j-1} dt / ((a_i^2 t^2 + 1) prod_l sqrt(a_l^2 t^2 + 1)).

intrinsic_volume_ellipsoid evaluates it by adaptive quadrature on the
substitution t = u/(1-u): the reference, absolute tolerance 1e-10 after scale
normalization, axis ratios up to e^60. It is the only function here that
needs scipy (scipy.integrate.quad, imported when called). The batch
evaluator behind the million-sample Monte Carlo layers and
closed_intrinsic_volumes picks an exact numpy kernel per dimension:
V_0 = 1 and V_n = kappa_n prod a_i always; for 0 < j < n, the complete
elliptic integral E by the arithmetic-geometric mean at n = 2
(elliptic_e_agm) and Carlson's R_G by the duplication algorithm at n = 3
(carlson_rg; Carlson 1995, Numer. Algorithms 10), both valid for any
positive axes, and a fixed trapezoid grid in s = log t at n >= 4, valid to
~1e-10 relative for axis ratios up to e^20 and refused (QuadratureError)
beyond. Regression tests pin the batch evaluator to the reference and the
two elliptic kernels to scipy.special.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bodies as bd
from .estimation import EstimatorResult, RunningMean, resolve_rng


class QuadratureError(RuntimeError):
    """An ellipsoid V_j the evaluator cannot vouch for: a semiaxis that is not
    finite and positive, an adaptive quadrature or elliptic kernel that did
    not converge, or an axis ratio beyond the batch grid's range."""


def kappa(j: int) -> float:
    """Volume of the unit ball in R^j; kappa_0 = 1."""
    if j < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (j / 2.0) / math.gamma(j / 2.0 + 1.0)


def intrinsic_volume_ball(n: int, j: int, radius: float = 1.0) -> float:
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    return math.comb(n, j) * kappa(n) / kappa(n - j) * radius**j


def intrinsic_volume_cube(n: int, j: int, side: float = 1.0) -> float:
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    return math.comb(n, j) * side**j


def _elementary_symmetric(vals: np.ndarray, k: int) -> np.ndarray:
    """e_0, ..., e_k of the last axis of vals, shape vals.shape[:-1] + (k + 1,).

    The direct DP, adding one value at a time in order; exact for the small n
    used here.
    """
    vals = np.asarray(vals, dtype=float)
    e = np.zeros(vals.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for l in range(vals.shape[-1]):
        e[..., 1:] = e[..., 1:] + vals[..., l, None] * e[..., :-1]
    return e


def intrinsic_volume_ellipsoid(semiaxes, j: int, epsabs: float = 1e-10) -> float:
    """V_j of an ellipsoid with the given semiaxes, by adaptive quadrature.

    Axes are scale-normalized first (V_j is j-homogeneous), so epsabs refers
    to the normalized integral. Axis ratios beyond about e^60, and any
    integral quad flags with an IntegrationWarning (flat or needle-like
    ellipsoids whose V_j the absolute tolerance cannot resolve), raise
    QuadratureError rather than returning an untrusted value.
    """
    from scipy.integrate import IntegrationWarning, quad

    a = np.atleast_1d(np.asarray(semiaxes, dtype=float))
    n = a.size
    if np.any(a <= 0):
        raise ValueError("semiaxes must be positive")
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    if j == 0:
        return 1.0
    scale = float(a.max())
    b = a / scale
    if float(b.min()) < np.exp(-60.0):
        raise QuadratureError("axis ratio beyond supported range")
    b2 = b * b
    total = 0.0
    # u-substitution t = u/(1-u); integrand transitions sit at u = 1/(1+b_l)
    pts = sorted(set(float(1.0 / (1.0 + bl)) for bl in b))
    for i in range(n):
        rest = np.delete(b2, i)
        ek = _elementary_symmetric(rest, j - 1)[j - 1]

        def integrand(u, i=i):
            w = 1.0 - u
            den = (b2[i] * u * u + w * w) * np.sqrt(np.prod(b2 * u * u + w * w))
            return u ** (j - 1) * w ** (n + 1 - j) / den

        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                val, err = quad(integrand, 0.0, 1.0, points=pts, limit=400,
                                epsabs=epsabs, epsrel=1e-11)
            except IntegrationWarning as exc:
                raise QuadratureError(f"ellipsoid quadrature: {exc}") from exc
        if not np.isfinite(val) or err > max(epsabs, 1e-8 * abs(val)) * 50:
            raise QuadratureError("ellipsoid quadrature did not converge")
        total += b2[i] * ek * val
    return kappa(j) * total * scale**j


# iteration cap of the AGM and of Carlson's duplication. Both halve the log of
# their arguments' ratio per step until it is O(1) and then converge fast:
# arguments 1e-300 and 1e300 apart take 13 (AGM) and 14 (Carlson) steps
_ELLIPTIC_STEPS = 40


def _agm(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M(1, b), sum_{n>=0} 2^{n-1} c_n^2) by the arithmetic-geometric mean.

    c is c_0 = sqrt(1 - b^2), passed in so the caller can form it without
    cancellation; c_{n+1} = (a_n - b_n) / 2. A row is done once
    c_{n+1} <= 1e-9 a_n: the next c is then ~1e-18 relative, below rounding.
    """
    a = np.ones_like(b)
    s = 0.5 * c * c
    w = 0.5
    for _ in range(_ELLIPTIC_STEPS):
        c = 0.5 * (a - b)
        w *= 2.0
        s = s + w * c * c
        done = np.all(c <= 1e-9 * a)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        if done:
            return a, s
    raise QuadratureError(f"AGM did not converge in {_ELLIPTIC_STEPS} steps")


def elliptic_e_agm(kprime) -> np.ndarray:
    """The complete elliptic integral E(m), m = 1 - k'^2, from k' in (0, 1].

    Starting from k' = b/a rather than m keeps flat ellipses accurate: below
    k' ~ 1e-8, 1 - k'^2 rounds to 1. With k = sqrt(1 - k'^2) and K, K' the
    integrals of the first kind (K = pi / (2 M(1, k')), K' = pi / (2 M(1, k))),
    rows with k' >= k take the AGM form E = K (1 - S(k', k)) and the others
    Legendre's relation E = pi / (2 K') + K S(k, k'), with S the c-sum of _agm.
    Both sums add positive terms only, where 1 - S(k', k) alone would lose
    ~log(4/k') ulps as k' -> 0. A k' of 0 never converges and raises
    QuadratureError.
    """
    kp = np.asarray(kprime, dtype=float)
    k = np.sqrt((1.0 - kp) * (1.0 + kp))
    direct = kp >= k
    M, S = _agm(np.where(direct, kp, k), np.where(direct, k, kp))
    out = np.pi / (2.0 * M) * (1.0 - S)
    legendre = ~direct
    if np.any(legendre):
        Mk, _ = _agm(kp[legendre], k[legendre])
        out[legendre] = M[legendre] + np.pi / (2.0 * Mk) * S[legendre]
    return out


def _carlson_rf_rd(x, y, z) -> tuple[np.ndarray, np.ndarray]:
    """Carlson's R_F(x, y, z) and R_D(x, y, z) from one duplication sequence.

    Positive arguments (Carlson 1995, Numer. Algorithms 10, algorithms 1 and
    4). Each step maps v -> (v + lambda) / 4 with lambda = sqrt(xy) + sqrt(yz)
    + sqrt(zx), which both integrals share; the duplication stops once the
    fifth-order series of each is exact to r = 1e-16, or raises
    QuadratureError after _ELLIPTIC_STEPS steps.
    """
    x0, y0, z0 = (np.asarray(v, dtype=float) for v in (x, y, z))
    x, y, z = x0, y0, z0
    r = 1e-16
    Af0 = (x + y + z) / 3.0
    Ad0 = (x + y + 3.0 * z) / 5.0
    Qf = (3.0 * r) ** (-1.0 / 6.0) * np.maximum.reduce(
        [np.abs(Af0 - x), np.abs(Af0 - y), np.abs(Af0 - z)])
    Qd = (0.25 * r) ** (-1.0 / 6.0) * np.maximum.reduce(
        [np.abs(Ad0 - x), np.abs(Ad0 - y), np.abs(Ad0 - z)])
    Af, Ad = Af0, Ad0
    tail = np.zeros_like(Af0)
    p = 1.0  # 4^-m
    for _ in range(_ELLIPTIC_STEPS):
        if np.all(p * Qf < np.abs(Af)) and np.all(p * Qd < np.abs(Ad)):
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        tail = tail + p / (sz * (z + lam))
        p *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        Af, Ad = 0.25 * (Af + lam), 0.25 * (Ad + lam)
    else:
        raise QuadratureError(f"Carlson duplication did not converge in "
                              f"{_ELLIPTIC_STEPS} steps")
    X = p * (Af0 - x0) / Af
    Y = p * (Af0 - y0) / Af
    Z = -(X + Y)
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    rf = (1.0 - E2 / 10.0 + E3 / 14.0 + E2 * E2 / 24.0 - 3.0 * E2 * E3 / 44.0) / np.sqrt(Af)
    X = p * (Ad0 - x0) / Ad
    Y = p * (Ad0 - y0) / Ad
    Z = -(X + Y) / 3.0
    XY, Z2 = X * Y, Z * Z
    E2 = XY - 6.0 * Z2
    E3 = (3.0 * XY - 8.0 * Z2) * Z
    E4 = 3.0 * (XY - Z2) * Z2
    E5 = XY * Z2 * Z
    rd = (p * (1.0 - 3.0 * E2 / 14.0 + E3 / 6.0 + 9.0 * E2 * E2 / 88.0 - 3.0 * E4 / 22.0
               - 9.0 * E2 * E3 / 52.0 + 3.0 * E5 / 26.0) / (Ad * np.sqrt(Ad))
          + 3.0 * tail)
    return rf, rd


def carlson_rg(x, y, z) -> np.ndarray:
    """Carlson's symmetric integral R_G(x, y, z) of positive arguments.

    2 R_G = z R_F - (x - z)(y - z) R_D / 3 + sqrt(xy / z) (Carlson 1995,
    eq. 1.5) with z, the special argument of R_D, taken as the middle of the
    three: then (x - z)(y - z) <= 0 and all three terms are nonnegative.
    """
    S = np.sort(np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                               for v in (x, y, z))), axis=-1), axis=-1)
    lo, mid, hi = S[..., 0], S[..., 1], S[..., 2]
    rf, rd = _carlson_rf_rd(lo, hi, mid)
    return 0.5 * (mid * rf - (lo - mid) * (hi - mid) * rd / 3.0 + np.sqrt(lo / mid * hi))


# fixed log-grid for the n >= 4 batch evaluator. The integrand of I_i (in ds)
# grows like e^{js} below the largest axis and decays at least like e^{-3s}
# past the smallest, so the upper end s = 30 truncates at a relative
# ~e^{-3(30 + log b_min)}: 1e-13 at the floor b_min = e^-20, rising by e^3 per
# unit of log-spread beyond it. Against a 30-digit quadrature the grid is
# within 2e-11 (n = 4, 5; spreads to 22) and 2e-10 (n = 8; step error).
_GRID_H = 0.30
_GRID_S = np.arange(-32.0, 30.0 + _GRID_H / 2, _GRID_H)
_GRID_T2 = np.exp(2.0 * _GRID_S)
_GRID_FLOOR = math.exp(-20.0)
_GRID_ROWS = 256


def _grid_intrinsic_volumes(B: np.ndarray) -> np.ndarray:
    """V_j / kappa_j for j = 1..n-1 of rows B with max axis 1, shape (m, n - 1).

    One pass over the axes: the kernel 1/((b_i^2 t^2 + 1) P) is formed once
    per axis and integrated against every j by one matmul with H e^{j s}.
    Every j is computed whichever are asked for, so a value never depends on
    the other j requested. Rows go through in blocks of _GRID_ROWS so the
    (rows, nodes) work arrays stay in cache.
    """
    m, n = B.shape
    B2 = B * B
    weights = _GRID_H * np.exp(np.outer(_GRID_S, np.arange(1, n)))
    others = [[l for l in range(n) if l != i] for i in range(n)]
    e = _elementary_symmetric(B2[:, others], n - 2)
    core = np.zeros((m, n - 1))
    for r in range(0, m, _GRID_ROWS):
        b2 = B2[r:r + _GRID_ROWS]
        f = np.empty((b2.shape[0], _GRID_T2.size))
        inv_p = np.ones_like(f)
        for l in range(n):
            np.multiply(b2[:, l, None], _GRID_T2, out=f)
            f += 1.0
            inv_p *= np.sqrt(f, out=f)
        np.reciprocal(inv_p, out=inv_p)
        for i in range(n):
            np.multiply(b2[:, i, None], _GRID_T2, out=f)
            f += 1.0
            np.divide(inv_p, f, out=f)
            core[r:r + _GRID_ROWS] += b2[:, i, None] * e[r:r + _GRID_ROWS, i] * (f @ weights)
    return core


def batch_ellipsoid_intrinsic_volumes(semiaxes: np.ndarray, js) -> dict[int, np.ndarray]:
    """V_j for a stack of ellipsoids, all j in js at once.

    semiaxes has shape (m, n). V_0 = 1 and V_n = kappa_n prod a_i for every n.
    The other j take the cheapest exact kernel for their n:

    - n = 2: V_1 = 2a E(1 - b^2/a^2) with a >= b (elliptic_e_agm, the
      arithmetic-geometric mean on k' = b/a);
    - n = 3: V_1 = 4 R_G(a^2, b^2, c^2) and V_2 = 2 pi R_G(b^2 c^2, a^2 c^2,
      a^2 b^2) = 2 pi abc R_G(a^-2, b^-2, c^-2), with R_G Carlson's symmetric
      integral (carlson_rg, by duplication); exact for any positive axes;
    - n >= 4: a fixed trapezoid rule in s = log t over the principal-axis
      integrals, accurate to ~1e-10 relative while every axis is at least
      e^-20 times the largest, a margin Gaussian spectra never approach.
      A batch with any row beyond that raises QuadratureError.

    A row with a semiaxis that is not finite and positive raises
    QuadratureError at every n, whatever js asks for, and so does a V_j
    that overflows (axes beyond ~1e75 at n = 3, whose squared products
    leave the double range).
    """
    A = np.atleast_2d(np.asarray(semiaxes, dtype=float))
    m, n = A.shape
    js = sorted(set(int(j) for j in js))
    if any(j < 0 or j > n for j in js):
        raise ValueError("need 0 <= j <= n")
    # NaN fails A > 0, so it cannot slip through
    if not (np.all(A > 0.0) and np.all(np.isfinite(A))):
        raise QuadratureError("ellipsoid semiaxes must be finite and positive")
    out: dict[int, np.ndarray] = {}
    if 0 in js:
        out[0] = np.ones(m)
    if n in js:
        out[n] = kappa(n) * np.prod(A, axis=1)
    mid = [j for j in js if 0 < j < n]
    if n == 2 and mid:
        a = A.max(axis=1)
        out[1] = 2.0 * a * elliptic_e_agm(A.min(axis=1) / a)
    elif n == 3 and mid:
        A2 = A * A
        if 1 in mid:
            out[1] = 4.0 * carlson_rg(A2[:, 0], A2[:, 1], A2[:, 2])
        if 2 in mid:
            out[2] = 2.0 * math.pi * carlson_rg(A2[:, 1] * A2[:, 2], A2[:, 0] * A2[:, 2],
                                                A2[:, 0] * A2[:, 1])
    elif mid:
        scale = A.max(axis=1, keepdims=True)
        B = A / scale
        if np.any(B.min(axis=1) < _GRID_FLOOR):
            raise QuadratureError("axis ratio beyond the grid's e^20 range")
        core = _grid_intrinsic_volumes(B)
        for j in mid:
            out[j] = kappa(j) * core[:, j - 1] * scale[:, 0] ** j
    if not all(np.all(np.isfinite(v)) for v in out.values()):
        raise QuadratureError("ellipsoid V_j overflows the double range")
    return {j: out[j] for j in js}


def euler_characteristic(body) -> int:
    """1 for every nonempty convex body, 0 for the empty marker."""
    if isinstance(body, bd.EmptyBody):
        return 0
    if isinstance(body, (bd.Ball, bd.Ellipsoid, bd.HPolytope, bd.VPolytope)):
        return 1
    raise TypeError(f"unsupported body {type(body).__name__}")


def volume_exact(body) -> float:
    """Lebesgue volume by closed form or hull computation."""
    if isinstance(body, bd.EmptyBody):
        return 0.0
    if isinstance(body, bd.Ball):
        return kappa(body.dim) * body.radius**body.dim
    if isinstance(body, bd.Ellipsoid):
        return kappa(body.dim) * float(np.prod(body.semiaxes))
    if isinstance(body, bd.VPolytope):
        if body.dim == 1:
            return float(np.ptp(body.vertices))
        if body.vertices.shape[0] <= body.dim:
            return 0.0
        if body.dim == 2:
            hull = bd.planar_hull(body.vertices)
            return 0.0 if hull is None else hull.area
        hull = bd.qhull(body.vertices)
        return 0.0 if hull is None else float(hull.volume)
    if isinstance(body, bd.HPolytope):
        return volume_exact(bd.as_vpolytope(body))
    raise TypeError(f"unsupported body {type(body).__name__}")


def _box_sides(body: bd.HPolytope) -> np.ndarray | None:
    """Side lengths when the polytope is an axis-aligned box, else None."""
    n = body.dim
    if body.normals.shape[0] != 2 * n:
        return None
    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    for row, off in zip(body.normals, body.offsets):
        k = int(np.argmax(np.abs(row)))
        e = np.zeros(n)
        e[k] = np.sign(row[k])
        if np.max(np.abs(row - e)) > 1e-12:
            return None
        if e[k] > 0:
            hi[k] = off
        else:
            lo[k] = -off
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(hi < lo):
        return None
    return hi - lo


def closed_intrinsic_volumes(body) -> np.ndarray:
    """The vector (V_0, ..., V_n) for bodies with a closed form.

    Supported: balls, ellipsoids (through batch_ellipsoid_intrinsic_volumes),
    axis-aligned boxes, and polygons (n = 2, through bodies.planar_hull;
    flat ones too). Raises ValueError otherwise;
    use steiner_fit for general bodies.
    """
    if isinstance(body, bd.Ball):
        n = body.dim
        return np.array([intrinsic_volume_ball(n, j, body.radius) for j in range(n + 1)])
    if isinstance(body, bd.Ellipsoid):
        n = body.dim
        vals = batch_ellipsoid_intrinsic_volumes(body.semiaxes[None], range(n + 1))
        return np.array([vals[j][0] for j in range(n + 1)])
    if isinstance(body, bd.HPolytope):
        sides = _box_sides(body)
        if sides is not None:
            return _elementary_symmetric(sides, body.dim)
        if body.dim == 2:
            return closed_intrinsic_volumes(bd.as_vpolytope(body))
        raise ValueError("no closed form for this halfspace system")
    if isinstance(body, bd.VPolytope) and body.dim == 2:
        hull = bd.planar_hull(body.vertices)
        if hull is None:  # a point or a segment: V_1 is its length
            return np.array([1.0, bd.diameter(body), 0.0])
        return np.array([1.0, hull.perimeter / 2.0, hull.area])
    raise ValueError(f"no closed form for {type(body).__name__}")


_MC_BATCH = 65536  # points drawn at a time by volume_mc and steiner_fit


def volume_mc(body, samples: int, rng) -> EstimatorResult:
    """Hit-or-miss volume estimate inside the body's bounding box."""
    rng, seed = resolve_rng(rng)
    lo, hi = bd.bounding_box(body)
    widths = hi - lo
    box_vol = float(np.prod(widths))
    acc = RunningMean()
    done = 0
    while done < samples:
        k = min(_MC_BATCH, samples - done)
        pts = lo + rng.random((k, lo.size)) * widths
        hits = bd.contains_points(body, pts)
        acc.update(np.where(hits, box_vol, 0.0))
        done += k
    return EstimatorResult.from_accumulator(acc, seed, importance_volume=box_vol)


@dataclass
class SteinerFit:
    """Weighted least-squares recovery of all V_j from parallel volumes.

    Fits vol(M + eps B^n) = sum_j kappa_{n-j} eps^{n-j} V_j(M) across the
    dilation radii; values[j] estimates V_j(M).
    """

    values: np.ndarray
    std_errors: np.ndarray
    covariance: np.ndarray
    radii: np.ndarray
    measured: np.ndarray
    measured_se: np.ndarray
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "std_errors": self.std_errors.tolist(),
            "radii": self.radii.tolist(),
            "measured": self.measured.tolist(),
            "measured_se": self.measured_se.tolist(),
            "samples": self.samples,
            "seed": self.seed,
        }


def steiner_fit(body, radii, samples: int, rng) -> SteinerFit:
    """Estimate all intrinsic volumes of a body from dilated volume samples.

    samples is the total budget, split evenly across the dilation radii. The
    number of radii must be at least n + 1 so the Vandermonde-like design
    matrix has full column rank.
    """
    rng, seed = resolve_rng(rng)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    n = body.dim if not isinstance(body, bd.EmptyBody) else 0
    if radii.size < n + 1:
        raise ValueError("need at least n + 1 dilation radii")
    if np.any(radii <= 0):
        raise ValueError("dilation radii must be positive")
    per = max(int(samples) // radii.size, 1)
    lo, hi = bd.bounding_box(body)
    y = np.empty(radii.size)
    var = np.empty(radii.size)
    for i, eps in enumerate(radii):
        blo = lo - eps
        bwid = (hi - lo) + 2.0 * eps
        box_vol = float(np.prod(bwid))
        hits = 0
        done = 0
        while done < per:
            k = min(_MC_BATCH, per - done)
            pts = blo + rng.random((k, n)) * bwid
            hits += int(np.sum(bd.distance_to_body(body, pts) <= eps))
            done += k
        p = hits / per
        y[i] = box_vol * p
        var[i] = box_vol**2 * max(p * (1.0 - p), 1e-12) / per
    D = np.empty((radii.size, n + 1))
    for j in range(n + 1):
        D[:, j] = kappa(n - j) * radii ** (n - j)
    W = 1.0 / var
    gram = D.T @ (W[:, None] * D)
    cov = np.linalg.inv(gram)
    beta = cov @ (D.T @ (W * y))
    return SteinerFit(values=beta, std_errors=np.sqrt(np.diag(cov)),
                      covariance=cov, radii=radii, measured=y,
                      measured_se=np.sqrt(var), samples=per * radii.size,
                      seed=seed)


@dataclass
class Valuation:
    """A functional on convex bodies, zero on the empty marker.

    degree records homogeneity (phi(lambda M) = lambda^degree phi(M)) when
    known; it is informational and used by diagnostics only.
    """

    name: str
    func: Callable
    degree: float | None = None

    def __call__(self, body) -> float:
        if isinstance(body, bd.EmptyBody):
            return 0.0
        return float(self.func(body))


def euler_valuation() -> Valuation:
    return Valuation("chi", euler_characteristic, degree=0.0)


def volume_valuation(n: int) -> Valuation:
    return Valuation("volume", volume_exact, degree=float(n))


def valuation_norm_estimate(phi: Valuation, n: int, rng, trials: int = 200) -> float:
    """Diagnostic sup of |phi| over a family of convex subsets of the unit ball.

    A finite stand-in for the supremum over all K contained in B^n; useful for
    checking that a custom valuation is bounded before integrating it.
    """
    from . import symmetric as sym

    rng, _ = resolve_rng(rng)
    best = 0.0
    for i in range(trials):
        kind = i % 3
        if kind == 0:
            r = rng.random() ** (1.0 / n)
            c = rng.standard_normal(n)
            c *= (1.0 - r) * rng.random() / max(np.linalg.norm(c), 1e-12)
            body = bd.Ball(c, max(r, 1e-3))
        elif kind == 1:
            q = sym.sample_haar_orthogonal(n, rng)
            a = rng.random(n) * 0.999 + 1e-3
            a /= max(1.0, a.max())
            body = bd.Ellipsoid(np.zeros(n), q, a)
        else:
            body = bd.random_polytope(n, n + 3 + int(rng.integers(0, 6)), rng)
        best = max(best, abs(phi(body)))
    return best
