"""Samplers for the product measure on the motion group and for affine flats.

This module holds measures and draws only: whether a drawn flat meets a body
is bodies.batch_flat_hits, where the body types pick the kernels.

A group element is g = k exp(X) with k Haar on O(n) (or a chosen component),
X Gaussian on Sym(n), and a translation t. The translation marginal is
Lebesgue, so estimators restrict t to the box hull of the translations that
can make M meet g L (the support of the integrand) and multiply the box
volume back in as an importance factor; everything outside contributes zero.

Affine j-flats E = span(U) + offset carry the rigid-motion invariant measure
normalized so that the flats meeting the unit ball have total mass
kappa_{n-j}; the sampler realizes it as Haar directions times a uniform
offset in a (n-j)-ball window of radius R, weighted by kappa_{n-j} R^{n-j}.
The window must dominate sup_{x in M} ||x|| or flats meeting M are missed.

Standard normals for quasi-Monte Carlo come from lattice_normals, a randomly
shifted rank-1 lattice rule (Dick, Kuo & Sloan 2013, *Acta Numerica* 22):
point i is frac(phi_2(i) z + Delta), with phi_2 the base-2 radical inverse,
so the first 2^m points of the sequence are the full lattice of modulus 2^m
and any budget takes a prefix. The generating vector z (LATTICE_Z) is one
embedded vector for 2^6 ... 2^16 points (Cools, Kuo & Nuyens 2006, *SIAM
J. Sci. Comput.* 28), built offline by fast component-by-component
construction and kept as a literal. Each point goes through the tent
(baker's) transform u -> 1 - |2u - 1| and Box-Muller, one pair of
coordinates per pair of normals. A budget is split over SHIFTS independent
uniform shifts Delta (shift_counts). ShiftSums is the one reader of a
lattice estimate: it sums a per-point value per shift and reports the mean
of the shift means with their standard deviation over sqrt(SHIFTS) as
standard error. Two consumers read it: both c_j routes (weyl) and the
translation-exact chi LHS under gl (kinematic.lhs_kinematic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bodies as bd
from .estimation import EstimatorResult
from .symmetric import expm_sym, sample_gaussian_sym, sample_haar_orthogonal
from .volumes import kappa

# Random shifts per lattice budget. Fewer, longer shifts cut the variance
# (the lattice error falls faster than 1/points): at the cj-spectra budgets
# (3e4 at n = 3, 2e4 at n = 5) 32 shifts gave 2-6x the variance of 16. More
# shifts sharpen the standard error, whose shift means give a t law with
# SHIFTS - 1 degrees of freedom: the nominal 95% interval covers 0.931 at
# 16 and 0.941 at 32 for normal shift means. Over 200 replicates (seeds
# 5000-5199, 2000 and 3e4 samples, n = 2 and 3, both c_j routes) 16 shifts
# covered 0.90-0.955, 32 shifts 0.92-0.965. 16 keeps the variance.
SHIFTS = 16
_LATTICE_BATCH = 8192  # lattice points generated at a time
_MASK = np.uint64((1 << 32) - 1)  # lattice coordinates are 32-bit fractions
# The embedded generating vector for 2^6 ... 2^16 points in 36 dimensions,
# enough for Sym(n) at n <= 8. Built by fast CBC over the odd residues mod
# 2^16 for the P_2 figure of merit (the shift-averaged worst-case error of
# the unanchored Sobolev space) with product weights gamma_k = 1/k^2,
# minimizing at each component the worst ratio, over the eleven moduli 2^6
# ... 2^16, of a candidate's error to the best candidate's at that modulus.
# tests/test_weyl.py holds the construction and rebuilds it.
LATTICE_Z = (1, 29233, 19221, 63057, 28329, 5245, 45473, 11889, 1093, 33545, 53905,
             15341, 4141, 25901, 11977, 52241, 6761, 26913, 30065, 6585, 2801, 22445,
             5429, 21593, 48905, 33401, 38509, 61173, 7613, 35869, 56729, 28569, 19417,
             23641, 41781, 12961)


@dataclass(eq=False)
class GroupElement:
    """g = k exp(X) plus translation t; k orthogonal, X symmetric."""

    k: np.ndarray
    X: np.ndarray
    t: np.ndarray

    @property
    def linear(self) -> np.ndarray:
        return self.k @ expm_sym(self.X)

    def as_affine_map(self) -> bd.AffineMap:
        return bd.AffineMap(self.linear, self.t)


@dataclass(eq=False)
class AffineFlat:
    """Affine j-flat {offset + basis @ s}; basis columns orthonormal, offset
    orthogonal to the span (the canonical representative). A batch of flats
    carries a leading axis on both arrays: basis (m, n, j), offset (m, n)."""

    basis: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)
        if self.basis.ndim not in (2, 3):
            raise ValueError("basis must be (n, j) or (m, n, j)")
        j = self.basis.shape[-1]
        if j:
            BT = np.swapaxes(self.basis, -1, -2)
            if np.max(np.abs(BT @ self.basis - np.eye(j))) > 1e-9:
                raise ValueError("flat basis must be orthonormal")
            if np.max(np.abs(BT @ self.offset[..., None])) > 1e-8:
                raise ValueError("offset must lie in the orthogonal complement")

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]


def translation_region(M: bd.ConvexBody, moved: bd.ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """Axis box containing every t with M meeting (moved + t).

    That set is the Minkowski difference body M + (-moved); its box is the
    difference of the two bounding boxes, hi_k = h_M(e_k) + h_moved(-e_k).
    """
    loM, hiM = bd.bounding_box(M)
    loL, hiL = bd.bounding_box(moved)
    return loM - hiL, hiM - loL


def sample_group_element(M: bd.ConvexBody, L: bd.ConvexBody,
                         rng: np.random.Generator, component: str = "full",
                         compact: bool = False) -> tuple[GroupElement, float]:
    """Draw one group element with t uniform in the translation box of (M, gL).

    Returns (g, region_volume); region_volume is the importance factor the
    caller must multiply into its integrand. With compact=True the symmetric
    part is pinned to zero (rigid motions only).
    """
    n = M.dim
    if L.dim != n:
        raise ValueError("bodies must share a dimension")
    k = sample_haar_orthogonal(n, rng, component=component)
    X = np.zeros((n, n)) if compact else sample_gaussian_sym(n, rng)
    moved = bd.affine_image(L, bd.AffineMap(k @ expm_sym(X), np.zeros(n)))
    lo, hi = translation_region(M, moved)
    t = lo + rng.random(n) * (hi - lo)
    return GroupElement(k, X, t), float(np.prod(hi - lo))


def sample_affine_flat(n: int, j: int, rng: np.random.Generator,
                       window_radius: float, size: int | None = None) -> AffineFlat:
    """Random j-flats from the normalized invariant measure, windowed.

    The direction is the span of the first j columns of a Haar orthogonal
    matrix; the offset is uniform in the (n-j)-ball of the window radius
    inside the orthogonal complement. A point (j = 0) has the whole space
    as that complement and the offset's direction is already isotropic, so
    it draws no rotation. With size, one AffineFlat holds the whole batch
    (see AffineFlat).
    """
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    if window_radius <= 0:
        raise ValueError("window radius must be positive")
    m = 1 if size is None else int(size)
    Q = sample_haar_orthogonal(n, rng, size=m) if j else np.zeros((m, n, 0))
    d = n - j
    off = np.zeros((m, n))
    if d:
        z = rng.standard_normal((m, d))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        r = window_radius * rng.random(m) ** (1.0 / d)
        off = r[:, None] * z
        if j:
            off = np.einsum("bik,bk->bi", Q[:, :, j:], off)
    if size is None:
        return AffineFlat(Q[0, :, :j], off[0])
    return AffineFlat(Q[:, :, :j], off)


def flat_weight(n: int, j: int, window_radius: float) -> float:
    """Importance mass of the windowed flat measure, kappa_{n-j} R^{n-j}."""
    return kappa(n - j) * window_radius ** (n - j)


def flat_hits(body: bd.ConvexBody, flat: AffineFlat, tol: float = bd.TOL) -> bool:
    """Whether one flat meets the body: bodies.batch_flat_hits on a batch of one."""
    return bool(bd.batch_flat_hits(body, flat.basis[None], flat.offset[None], tol)[0])


# ---------------------------------------------------------------------------
# the shifted lattice rule


def _bit_reverse(i: np.ndarray) -> np.ndarray:
    """phi_2(i) 2^32 for each index: its 32 bits in reverse order."""
    x = np.asarray(i, dtype=np.uint64)
    for s, m in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F), (8, 0x00FF00FF)):
        s, m = np.uint64(s), np.uint64(m)
        x = ((x >> s) & m) | ((x & m) << s)
    return ((x >> np.uint64(16)) | (x << np.uint64(16))) & _MASK


def shift_counts(samples: int) -> np.ndarray:
    """Points per shift: the budget split over min(SHIFTS, samples) shifts,
    the first ones taking one point more. A budget below 1 raises
    ValueError."""
    if not samples >= 1:
        raise ValueError(f"a lattice budget must be at least 1 point, got {samples!r}")
    shifts = min(SHIFTS, samples)
    q, r = divmod(samples, shifts)
    return q + (np.arange(shifts) < r)


def lattice_normals(d: int, samples: int, rng):
    """An iterator of (shift, w): batches of the budget's points, each row
    of w the d standard normals of one point and shift its shift's index.

    Shift k takes the first shift_counts(samples)[k] points of the
    lattice, moved by its own uniform shift; the shifts are drawn from rng
    once, as 32-bit integers, when the first batch is taken, so a point's
    coordinate is (m + 1/2) / 2^32 with m an integer and the tent transform
    never returns 0 or 1. LATTICE_Z has len(LATTICE_Z) = 36 components, so
    d above that, or a budget below 1, raises ValueError at the call,
    before anything is drawn.
    """
    if d > len(LATTICE_Z):
        raise ValueError(f"the lattice rule has {len(LATTICE_Z)} dimensions "
                         f"(LATTICE_Z), asked for {d}")
    return _lattice_batches(d, shift_counts(samples), rng)


def _lattice_batches(d: int, counts: np.ndarray, rng):
    """The batches of lattice_normals; the shifts are drawn on the first."""
    width = d + d % 2  # Box-Muller reads coordinates in pairs
    z = np.array(LATTICE_Z[:width], dtype=np.uint64)
    delta = rng.integers(0, 1 << 32, size=(counts.size, width), dtype=np.uint64)
    block = max(1, _LATTICE_BATCH // counts.size)
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


class ShiftSums:
    """One per-point value of a lattice budget, summed per shift: update
    with the values and the shift indices lattice_normals yields. The
    result is the mean of the shift means with their standard deviation
    over sqrt(shifts) as standard error, 0 for a single shift."""

    def __init__(self, samples: int):
        self.counts = shift_counts(samples)
        self.sums = np.zeros(self.counts.size)

    def update(self, values: np.ndarray, shift: np.ndarray) -> None:
        self.sums += np.bincount(shift, values, self.counts.size)

    def result(self, seed: int) -> EstimatorResult:
        means = self.sums / self.counts
        se = float(means.std(ddof=1) / math.sqrt(means.size)) if means.size > 1 else 0.0
        return EstimatorResult(float(means.mean()), se, int(self.counts.sum()), seed)
