"""Samplers for the product measure on the motion group and for affine flats.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bodies as bd
from . import linprog
from .symmetric import expm_sym, sample_gaussian_sym, sample_haar_orthogonal
from .volumes import kappa


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
    inside the orthogonal complement. With size, one AffineFlat holds the
    whole batch (see AffineFlat).
    """
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    if window_radius <= 0:
        raise ValueError("window radius must be positive")
    m = 1 if size is None else int(size)
    Q = sample_haar_orthogonal(n, rng, size=m)
    d = n - j
    off = np.zeros((m, n))
    if d:
        z = rng.standard_normal((m, d))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        r = window_radius * rng.random(m) ** (1.0 / d)
        off = np.einsum("bik,bk->bi", Q[:, :, j:], r[:, None] * z)
    if size is None:
        return AffineFlat(Q[0, :, :j], off[0])
    return AffineFlat(Q[:, :, :j], off)


def flat_weight(n: int, j: int, window_radius: float) -> float:
    """Importance mass of the windowed flat measure, kappa_{n-j} R^{n-j}."""
    return kappa(n - j) * window_radius ** (n - j)


def batch_flat_hits(body: bd.ConvexBody, flats: AffineFlat,
                    tol: float = 1e-9) -> np.ndarray:
    """Which flats of a batch (basis (m, n, j), offset (m, n)) meet the body.

    The one hit test of each body type, (m,) bool. Balls compare the
    distance from the center to each flat with the radius; ellipsoids
    minimize the gauge quadratic over each flat (one batched QR). Polytopes
    test point flats with contains_points and hyperplanes of a polytope
    with a vertex set (bodies.vertex_set) by the interval test
    min V.nu <= offset.nu <= max V.nu on the flat's normal nu, formed in
    closed form at n <= 3 (_hyperplane_normals). The other
    polytope flats (0 < j < n - 1, such as lines in 3-D, and flats of
    H-polytopes at n >= 4) solve one LP per flat.
    """
    U = flats.basis
    off = flats.offset
    m, n, j = U.shape
    if j == n:
        return np.ones(m, dtype=bool)
    if isinstance(body, bd.Ball):
        c = body.center
        if j:
            proj = np.einsum("bik,bk->bi", U, np.einsum("bik,i->bk", U, c))
            cperp = c[None, :] - proj
        else:
            cperp = np.broadcast_to(c, (m, n))
        return np.linalg.norm(cperp - off, axis=1) <= body.radius + tol
    if isinstance(body, bd.Ellipsoid):
        D = body.axes / body.semiaxes  # columns of D are scaled axis coords
        b = (off - body.center) @ D
        if j:
            Q, _ = np.linalg.qr(np.einsum("ki,bkj->bij", D, U))
            b = b - np.einsum("bij,bj->bi", Q, np.einsum("bij,bi->bj", Q, b))
        return np.einsum("bi,bi->b", b, b) <= 1.0 + tol
    if not isinstance(body, (bd.HPolytope, bd.VPolytope)):
        raise TypeError(f"unsupported body {type(body).__name__}")
    if j == 0:
        return bd.contains_points(body, off, tol)
    V = bd.vertex_set(body) if j == n - 1 else None
    if V is not None:
        nu = _hyperplane_normals(U)
        proj = nu @ V.T
        s = np.einsum("bi,bi->b", off, nu)
        return (proj.min(axis=1) - tol <= s) & (s <= proj.max(axis=1) + tol)
    return np.array([_flat_hits_lp(body, U[i], off[i]) for i in range(m)], dtype=bool)


def _hyperplane_normals(U: np.ndarray) -> np.ndarray:
    """Unit normals (m, n) of the hyperplanes spanned by the orthonormal
    bases U (m, n, n - 1): at n = 2 the basis vector turned by 90 degrees,
    at n = 3 the cross product of the two basis vectors, at n >= 4 the last
    right singular vector of each U^T (LAPACK). The hit test is the same
    for nu and -nu, so the sign is free."""
    n = U.shape[1]
    if n == 2:
        return np.column_stack([-U[:, 1, 0], U[:, 0, 0]])
    if n == 3:
        return np.cross(U[:, :, 0], U[:, :, 1])
    return np.linalg.svd(np.swapaxes(U, 1, 2))[2][:, -1]


def _flat_hits_lp(body: bd.ConvexBody, U: np.ndarray, off: np.ndarray) -> bool:
    """Whether the flat offset + span(U) meets a polytope, as an LP feasibility."""
    n, j = U.shape
    if isinstance(body, bd.HPolytope):
        A_ub = body.normals @ U
        b_ub = body.offsets - body.normals @ off
        return linprog.feasible(A_ub, b_ub) is not None
    V = body.vertices
    m = V.shape[0]
    # convex weights w and flat coordinates s with V^T w = off + U s
    A_eq = np.zeros((n + 1, m + 2 * j))
    A_eq[:n, :m] = V.T
    A_eq[:n, m:m + j] = -U
    A_eq[:n, m + j:] = U
    A_eq[n, :m] = 1.0
    b_eq = np.concatenate([off, [1.0]])
    return linprog.feasible(None, None, nonneg=True, A_eq=A_eq, b_eq=b_eq) is not None


def flat_hits(body: bd.ConvexBody, flat: AffineFlat, tol: float = 1e-9) -> bool:
    """Whether one flat meets the body: batch_flat_hits on a batch of one."""
    one = AffineFlat(flat.basis[None], flat.offset[None])
    return bool(batch_flat_hits(body, one, tol)[0])
