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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bodies as bd
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


def flat_hits(body: bd.ConvexBody, flat: AffineFlat, tol: float = bd.TOL) -> bool:
    """Whether one flat meets the body: bodies.batch_flat_hits on a batch of one."""
    return bool(bd.batch_flat_hits(body, flat.basis[None], flat.offset[None], tol)[0])
