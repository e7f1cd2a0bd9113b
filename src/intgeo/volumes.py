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
beyond. The grid's sum is computed as polynomial moments: the integrand
of every V_j is a polynomial in T = t^2 over E(T)^{3/2}, E = prod_l
(1 + a_l^2 T), so one pass of E^{-3/2} over the nodes gives the moments
every j reads. Regression tests pin the batch evaluator to the reference,
the grid to the per-axis trapezoid loop it replaced, and the two elliptic
kernels to scipy.special.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bodies as bd
from .estimation import resolve_rng


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
    The three are sorted by compare-exchanges, which pick values without
    arithmetic, so any order of the arguments gives the same bits.
    """
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    a, b = np.minimum(x, y), np.maximum(x, y)
    lo, c = np.minimum(a, z), np.maximum(a, z)
    mid, hi = np.minimum(b, c), np.maximum(b, c)
    rf, rd = _carlson_rf_rd(lo, hi, mid)
    return 0.5 * (mid * rf - (lo - mid) * (hi - mid) * rd / 3.0 + np.sqrt(lo / mid * hi))


# fixed log-grid for the n >= 4 batch evaluator. The integrand of I_i (in ds)
# grows like e^{js} below the largest axis and decays at least like e^{-3s}
# past the smallest, so the upper end s = 30 truncates at a relative
# ~e^{-3(30 + log b_min)}: 1e-13 at the floor b_min = e^-20, rising by e^3 per
# unit of log-spread beyond it. Against a 30-digit quadrature the grid is
# within 2e-11 (n = 4, 5; spreads to 22) and 2e-10 (n = 8; step error).
# _grid_intrinsic_volumes sums the trapezoid rule on these nodes as
# polynomial moments, building its node tables per call. The moments and
# their coefficients stay normal doubles while the axes' product is at least
# e^-165 (_GRID_LOG_PRODUCT bounds log prod b_l^2): implied by the e^-20
# floor at n <= 9, and refused where it fails at n >= 10.
_GRID_H = 0.30
_GRID_S = np.arange(-32.0, 30.0 + _GRID_H / 2, _GRID_H)
_GRID_FLOOR = math.exp(-20.0)
_GRID_LOG_PRODUCT = -330.0
_GRID_ROWS = 256


def _grid_intrinsic_volumes(B: np.ndarray) -> np.ndarray:
    """V_j / kappa_j for j = 1..n-1 of rows B with max axis 1, shape (m, n - 1).

    The trapezoid rule in s on the principal-axis integrals, summed as
    polynomial moments. With T = e^{2s}, F_l = 1 + b_l^2 T and E = prod_l
    F_l = sum_k e_k(b^2) T^k,

        sum_i b_i^2 e_{j-1}(b^2 without i) / F_i = P_j(T) / E(T),
        P_j(T) = sum_{k<n} D_jk T^k,
        D_jk = sum_i b_i^2 e_{j-1}(b^2 without i) e_k(b^2 without i),

    so V_j / kappa_j = sum_k D_jk m_{j+2k}, with the moments m_p = sum_s h
    e^{ps} E(T_s)^{-3/2}, p = 1..3n-3, all read off one (rows, nodes) array.
    Every coefficient and every term is positive, so nothing cancels.

    Past s = 0 the tables carry E / T^n and fold T^{-3n/2} into the weights,
    so no table entry exceeds 1. With e_n = prod_l b_l^2 >=
    e^{_GRID_LOG_PRODUCT}, E^{-3/2} is then at most e_n^{-3/2} <= e^{495}
    and every D_jk at least e_n^2 >= e^{-660}: neither leaves the normal
    double range. Every j is computed whichever are asked for, so a value
    never depends on the other j requested. Rows go through in blocks of
    _GRID_ROWS, so the (rows, nodes) work arrays stay in cache.
    """
    m, n = B.shape
    B2 = B * B
    past = np.where(_GRID_S > 0.0, _GRID_S, 0.0)
    # T^k, and T^(k-n) past 0
    powers = np.exp(2.0 * (np.outer(np.arange(n + 1), _GRID_S) - n * past))
    weights = _GRID_H * np.exp(np.outer(_GRID_S, np.arange(1, 3 * n - 2))
                               - 3.0 * n * past[:, None])
    p = np.arange(n - 1)[:, None] + 2 * np.arange(n)  # m_{j+2k} sits at [j-1, k]
    drop = 1.0 - np.eye(n)  # row i of the symmetric functions leaves out axis i
    core = np.empty((m, n - 1))
    for r in range(0, m, _GRID_ROWS):
        b2 = B2[r:r + _GRID_ROWS]
        # eo[k, row, i] = e_k(b^2 without i), k = 0..n-1, one axis at a time
        eo = np.zeros((n, b2.shape[0], n))
        eo[0] = 1.0
        for l in range(n):
            eo[1:] += (b2[:, l, None] * drop[l]) * eo[:-1]
        # e_k(b^2) = e_k(b^2 without 0) + b_0^2 e_{k-1}(b^2 without 0)
        e = np.zeros((b2.shape[0], n + 1))
        e[:, :n] = eo[:, :, 0].T
        e[:, 1:] += b2[:, 0, None] * eo[:, :, 0].T
        D = np.matmul((b2 * eo[:n - 1]).transpose(1, 0, 2), eo.transpose(1, 2, 0))
        E = e @ powers
        q = np.sqrt(E)
        q *= E
        moments = np.reciprocal(q, out=q) @ weights
        core[r:r + _GRID_ROWS] = (D * moments[:, p]).sum(axis=2)
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
      Its sum is taken as polynomial moments: one (rows, nodes) array of
      E(T)^{-3/2} against the weights e^{ps}, then n^2 coefficients per
      row (_grid_intrinsic_volumes). A batch with any row beyond the floor
      raises QuadratureError, and so, at n >= 10 only, does a row whose
      axes multiply to less than e^-165 times the largest axis to the n.

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
        if np.any(2.0 * np.log(B).sum(axis=1) < _GRID_LOG_PRODUCT):
            raise QuadratureError("axis product beyond the grid's e^-165 range")
        core = _grid_intrinsic_volumes(B)
        for j in mid:
            out[j] = kappa(j) * core[:, j - 1] * scale[:, 0] ** j
    if not all(np.all(np.isfinite(v)) for v in out.values()):
        raise QuadratureError("ellipsoid V_j overflows the double range")
    return {j: out[j] for j in js}


def volume_exact(body) -> float:
    """Lebesgue volume by closed form or hull computation; an H-polytope
    that is an axis-aligned box is the product of its sides (any n), any
    other reads its vertex enumeration (n <= 3)."""
    if isinstance(body, bd.EmptyBody):
        return 0.0
    if isinstance(body, bd.Ball):
        return kappa(body.dim) * body.radius**body.dim
    if isinstance(body, bd.Ellipsoid):
        return kappa(body.dim) * float(np.prod(body.semiaxes))
    if isinstance(body, bd.VPolytope):
        if body.dim == 1:
            return float(np.ptp(body.vertices))
        hull = bd.polytope_hull(body)
        return 0.0 if hull is None else float(hull.volume)
    if isinstance(body, bd.HPolytope):
        box = bd.axis_box(body)
        if box is not None:
            return float(np.prod(box[1] - box[0]))
        return volume_exact(body._vpolytope)
    raise TypeError(f"unsupported body {type(body).__name__}")


def closed_intrinsic_volumes(body) -> np.ndarray:
    """The vector (V_0, ..., V_n) for bodies with a closed form.

    Supported: balls, ellipsoids (through batch_ellipsoid_intrinsic_volumes),
    axis-aligned boxes, and polygons (n = 2, through their kept hull,
    bodies.polytope_hull; flat ones too). Raises ValueError otherwise;
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
        box = bd.axis_box(body)
        if box is not None:
            return _elementary_symmetric(box[1] - box[0], body.dim)
        if body.dim != 2:
            raise ValueError("no closed form for this halfspace system")
    if isinstance(body, (bd.HPolytope, bd.VPolytope)) and body.dim == 2:
        hull = bd.polytope_hull(body)
        if hull is None:  # a point or a segment: V_1 is its length
            return np.array([1.0, bd.diameter(body), 0.0])
        return np.array([1.0, hull.perimeter / 2.0, hull.area])
    raise ValueError(f"no closed form for {type(body).__name__}")


_MC_BATCH = 65536  # points drawn at a time by steiner_fit


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
    matrix has full column rank, each radius finite and positive, and the
    budget at least one sample per radius; otherwise ValueError is raised
    before anything is drawn.
    """
    rng, seed = resolve_rng(rng)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    n = body.dim if not isinstance(body, bd.EmptyBody) else 0
    if radii.size < n + 1:
        raise ValueError("need at least n + 1 dilation radii")
    if not np.all(np.isfinite(radii) & (radii > 0)):
        raise ValueError("dilation radii must be finite and positive")
    if not samples >= radii.size:
        raise ValueError(f"need at least one sample per radius: {samples!r} samples "
                         f"for {radii.size} radii")
    per = int(samples) // radii.size
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
    """A functional on convex bodies, zero on the empty marker."""

    name: str
    func: Callable

    def __call__(self, body) -> float:
        if isinstance(body, bd.EmptyBody):
            return 0.0
        return float(self.func(body))

