"""Symmetric matrices, their Gaussian measure, and Haar sampling on O(n).

The coordinate chart on Sym(n) is the orthonormal basis (Frobenius inner
product) made of the diagonal units Delta_ii followed by the off-diagonal
units (Delta_ij + Delta_ji)/sqrt(2) in lexicographic order. Drawing iid
standard normal coefficients in that chart gives the density
exp(-||X||_F^2 / 2) up to normalization, i.e. diagonal entries of variance 1
and off-diagonal entries of variance 1/2.
"""

from __future__ import annotations

import numpy as np

SYM_TOL = 1e-10


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def sym_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of Sym(n): diagonal units, then symmetrized off-diagonals."""
    basis = []
    for i in range(n):
        B = np.zeros((n, n))
        B[i, i] = 1.0
        basis.append(B)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            B = np.zeros((n, n))
            B[i, j] = B[j, i] = inv_sqrt2
            basis.append(B)
    return basis


def _offdiag_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(n, k=1)
    return iu


def coords_to_sym(coords: np.ndarray, n: int) -> np.ndarray:
    """Map chart coordinates (..., n(n+1)/2) to symmetric matrices (..., n, n)."""
    coords = np.asarray(coords, dtype=float)
    lead = coords.shape[:-1]
    X = np.zeros(lead + (n, n))
    idx = np.arange(n)
    X[..., idx, idx] = coords[..., :n]
    iu, ju = _offdiag_indices(n)
    off = coords[..., n:] / np.sqrt(2.0)
    X[..., iu, ju] = off
    X[..., ju, iu] = off
    return X


def sym_to_coords(X: np.ndarray) -> np.ndarray:
    """Inverse chart; an isometry between Frobenius and Euclidean norms."""
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    idx = np.arange(n)
    iu, ju = _offdiag_indices(n)
    return np.concatenate(
        [X[..., idx, idx], X[..., iu, ju] * np.sqrt(2.0)], axis=-1)


def as_symmetric(X: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    """X symmetrized, for one matrix or a stack; raises if X is not symmetric."""
    X = np.asarray(X, dtype=float)
    XT = np.swapaxes(X, -1, -2)
    if np.max(np.abs(X - XT)) > tol:
        raise ValueError("matrix is not symmetric to tolerance")
    return 0.5 * (X + XT)


def as_orthogonal(Q: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if np.max(np.abs(Q.T @ Q - np.eye(n))) > tol:
        raise ValueError("matrix is not orthogonal to tolerance")
    return Q


def sample_gaussian_sym(n: int, rng: np.random.Generator,
                        size: int | None = None) -> np.ndarray:
    """Gaussian symmetric matrices in the chart above; (n, n) or (size, n, n)."""
    m = 1 if size is None else int(size)
    X = coords_to_sym(rng.standard_normal((m, sym_dim(n))), n)
    return X[0] if size is None else X


def congruence(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V^T, per row of a stack, adding (V_ij w_j) V_kj in ascending
    j: the rounding of einsum("...ij,...j,...kj->...ik", V, w, V) in a
    third of its time."""
    out = np.zeros(V.shape)
    for j in range(V.shape[-1]):
        out += (V[..., :, j] * w[..., j, None])[..., :, None] * V[..., None, :, j]
    return out


def expm_sym(X: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix, or a stack: eigh, congruence."""
    lam, V = np.linalg.eigh(as_symmetric(X))
    return congruence(V, np.exp(lam))


def eigvals_sym_batch(X: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) for a stack of symmetric matrices.

    The tests pin LAPACK against a cyclic Jacobi reference implementation.
    """
    return np.linalg.eigvalsh(X)[..., ::-1]


def sample_haar_orthogonal(n: int, rng: np.random.Generator,
                           component: str = "full",
                           size: int | None = None) -> np.ndarray:
    """Haar samples on O(n) via sign-fixed QR of a Gaussian matrix.

    component selects the measure: "special" conditions on det = +1 (flip one
    column when det = -1), "reflection" on det = -1, and "full" takes the
    rotation representative and flips a column with probability 1/2, giving
    the probability Haar measure on all of O(n).
    """
    if component not in ("full", "special", "reflection"):
        raise ValueError(f"unknown component {component!r}")
    m = 1 if size is None else int(size)
    G = rng.standard_normal((m, n, n))
    Q, R = np.linalg.qr(G)
    d = np.sign(np.einsum("mii->mi", R))
    d[d == 0] = 1.0
    Q = Q * d[:, None, :]
    det = np.linalg.det(Q)
    if component == "special":
        flip = det < 0
    elif component == "reflection":
        flip = det > 0
    else:
        Q[det < 0, :, -1] *= -1.0
        flip = rng.random(m) < 0.5
    Q[flip, :, -1] *= -1.0
    return Q[0] if size is None else Q
