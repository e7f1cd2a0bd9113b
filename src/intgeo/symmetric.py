"""Symmetric matrices, their Gaussian measure, Haar sampling on O(n), and
the small dense decompositions the estimators run on stacks of matrices.

The coordinate chart on Sym(n) is the orthonormal basis (Frobenius inner
product) made of the diagonal units Delta_ii followed by the off-diagonal
units (Delta_ij + Delta_ji)/sqrt(2) in lexicographic order. Drawing iid
standard normal coefficients in that chart gives the density
exp(-||X||_F^2 / 2) up to normalization, i.e. diagonal entries of variance 1
and off-diagonal entries of variance 1/2.

Three kernels serve every group element g = k exp(X): eigh_sym (X = V
diag(lam) V^T, behind expm_sym and the kinematic LHS), singular_frames (the
principal axes of g L) and orthonormal_factor (the QR behind
sample_haar_orthogonal). eigh_sym and singular_frames pick their path by
n in one place: batched Jacobi rotations on (B,) arrays of entries at
n <= 3, where numpy would dispatch LAPACK once per small matrix, and
LAPACK at n >= 4. orthonormal_factor runs batched Gram-Schmidt at every
n, faster than LAPACK's QR on stacks up to n = 8. A row's result does not depend on the stack it comes in. eigvals_sym_batch,
the spectra of the direct c_j route, reads eigh_sym's eigenvalues at n <= 3
and LAPACK's eigvalsh at n >= 4.
"""

from __future__ import annotations

import numpy as np

SYM_TOL = 1e-10


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def sym_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of Sym(n): diagonal units, then symmetrized off-diagonals."""
    return list(coords_to_sym(np.eye(sym_dim(n)), n))


def coords_to_sym(coords: np.ndarray, n: int) -> np.ndarray:
    """Map chart coordinates (..., n(n+1)/2) to symmetric matrices (..., n, n)."""
    coords = np.asarray(coords, dtype=float)
    return _sym_from_parts(coords[..., :n], coords[..., n:], n)


def _sym_from_parts(diag: np.ndarray, off: np.ndarray, n: int) -> np.ndarray:
    """The symmetric matrices (..., n, n) with diagonal diag (..., n) and
    off-diagonal chart coordinates off (..., n(n - 1)/2), written in place."""
    X = np.zeros(diag.shape[:-1] + (n, n))
    idx = np.arange(n)
    X[..., idx, idx] = diag
    iu, ju = np.triu_indices(n, k=1)
    off = off / np.sqrt(2.0)
    X[..., iu, ju] = off
    X[..., ju, iu] = off
    return X


def helmert(n: int) -> np.ndarray:
    """(n, n - 1): the Helmert basis of the traceless hyperplane, column k
    (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)) with k ones."""
    H = np.triu(np.ones((n, n - 1)))
    k = np.arange(1, n)
    H[k, k - 1] = -k
    return H / np.sqrt(k * (k + 1.0))


def split_coords_to_sym(coords: np.ndarray, n: int) -> np.ndarray:
    """Map coordinates of the split chart (..., d) to symmetric matrices.

    The traceless part comes first: n - 1 diagonal coordinates through the
    Helmert basis (helmert), then the n(n - 1)/2 off-diagonal coordinates
    of coords_to_sym. With d = sym_dim(n) the last coordinate is the trace
    direction I / sqrt(n), so standard normals give the Gaussian of
    sample_gaussian_sym, tr X ~ N(0, n); with d = sym_dim(n) - 1 the
    matrices are traceless.
    """
    coords = np.asarray(coords, dtype=float)
    m = sym_dim(n) - 1
    if coords.shape[-1] not in (m, m + 1):
        raise ValueError(f"need {m} or {m + 1} coordinates at n = {n}")
    diag = coords[..., :n - 1] @ helmert(n).T
    if coords.shape[-1] > m:
        diag = diag + coords[..., m:] / np.sqrt(n)
    return _sym_from_parts(diag, coords[..., n - 1:m], n)


def sym_to_coords(X: np.ndarray) -> np.ndarray:
    """Inverse chart; an isometry between Frobenius and Euclidean norms."""
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    idx = np.arange(n)
    iu, ju = np.triu_indices(n, k=1)
    return np.concatenate(
        [X[..., idx, idx], X[..., iu, ju] * np.sqrt(2.0)], axis=-1)


def as_symmetric(X: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    """X symmetrized, for one matrix or a stack; raises if X is not symmetric."""
    X = np.asarray(X, dtype=float)
    XT = np.swapaxes(X, -1, -2)
    if np.max(np.abs(X - XT)) > tol:
        raise ValueError("matrix is not symmetric to tolerance")
    return 0.5 * (X + XT)


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
    """Matrix exponential of a symmetric matrix, or a stack: eigh_sym, then
    congruence. A single 2 x 2 matrix costs one closed-form rotation."""
    lam, V = eigh_sym(as_symmetric(X))
    return congruence(V, np.exp(lam))


# ---------------------------------------------------------------------------
# batched kernels for n <= 3
#
# numpy hands LAPACK one small matrix at a time, so a stack of 3 x 3
# decompositions costs microseconds per row in dispatch alone. At n <= 3 the
# kernels below run Jacobi rotations on whole (B,) arrays of entries instead
# (Golub & Van Loan, Matrix Computations, sec. 8.5); at n >= 4 they call
# LAPACK. Each picks its path by n in one place.

_EPS = np.finfo(float).eps
_JACOBI_SWEEPS = 30  # stacks of Gaussian 3 x 3 matrices converge in 4


def _jacobi_rotation(app, aqq, apq):
    """(t, c, s) of the rotation annihilating apq in [[app, apq], [apq, aqq]]:
    t = tan(theta) with |theta| <= pi/4, c = cos(theta), s = sin(theta).

    Rutishauser's form 2 apq / (d + sign(d) sqrt(d^2 + 4 apq^2)), d = aqq -
    app, never divides by apq, so an off-diagonal near 1e-300 gives a tiny
    angle, not an overflow; where apq = d = 0 the rotation is the identity.
    """
    d = aqq - app
    two = apq + apq
    den = d + np.copysign(np.sqrt(d * d + two * two), d)
    t = two / (den + (den == 0.0))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return t, c, t * c


def _sort_columns(keys: list, cols: list, descending: bool) -> None:
    """Sort keys[p] (B,) in place across p, carrying cols[p] (n, B) along,
    with the compare-exchange network of n <= 3 entries."""
    pairs = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1))}[len(keys)]
    for p, q in pairs:
        swap = keys[p] < keys[q] if descending else keys[q] < keys[p]
        keys[p], keys[q] = np.where(swap, keys[q], keys[p]), np.where(swap, keys[p], keys[q])
        cols[p], cols[q] = np.where(swap, cols[q], cols[p]), np.where(swap, cols[p], cols[q])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products of the columns of two (n, B) arrays, summed in row order
    whatever B is (einsum's order changes with the size of the stack)."""
    return (x * y).sum(axis=0)


def _stack_to_columns(S: np.ndarray) -> np.ndarray:
    """The columns of a (B, n, n) stack as one contiguous (n, n, B) array:
    [p] is column p, an (n, B) array, so each row's entries sit together."""
    return S.transpose(2, 1, 0).copy()


def _columns_to_stack(cols: list) -> np.ndarray:
    """The (B, n, n) stack whose column p is cols[p] (n, B)."""
    return np.stack([a.T for a in cols], axis=-1)


def _eigh2(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a (B, 2, 2) stack: one rotation, no loop. With d = aqq - app
    >= 0 the rotated diagonal is already ascending, else it is swapped."""
    a, b, c = S[:, 0, 0], S[:, 1, 1], S[:, 1, 0]
    t, cs, sn = _jacobi_rotation(a, b, c)
    lo, hi = a - t * c, b + t * c
    swap = b < a
    x, y = np.where(swap, sn, cs), np.where(swap, cs, -sn)
    lam = np.stack([np.where(swap, hi, lo), np.where(swap, lo, hi)], axis=-1)
    return lam, np.stack([x, -y, y, x], axis=-1).reshape(-1, 2, 2)


def _eigh3(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a (B, 3, 3) stack by cyclic Jacobi on (B,) arrays of entries,
    sweeping until the off-diagonal mass is <= (3 eps)^2 ||X||_F^2."""
    B = len(S)
    E = _stack_to_columns(S)  # E[j, i] is the (B,) array of entries (i, j)
    diag = [E[i, i] for i in range(3)]
    off = {(0, 1): E[0, 1], (0, 2): E[0, 2], (1, 2): E[1, 2]}
    cols = [np.zeros((3, B)) for _ in range(3)]  # the eigenvector columns
    for p in range(3):
        cols[p][p] = 1.0
    mass = off[0, 1] ** 2 + off[0, 2] ** 2 + off[1, 2] ** 2
    floor = (3 * _EPS) ** 2 * (diag[0] ** 2 + diag[1] ** 2 + diag[2] ** 2 + 2.0 * mass)
    for sweep in range(_JACOBI_SWEEPS + 1):
        active = ~(mass <= floor)  # NaN stays active
        if not active.any():
            break
        if sweep == _JACOBI_SWEEPS:
            raise FloatingPointError(
                f"Jacobi eigh did not converge in {_JACOBI_SWEEPS} sweeps "
                "(non-finite entries?)")
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = np.where(active, off[p, q], 0.0)
            t, c, s = _jacobi_rotation(diag[p], diag[q], apq)
            shift = t * apq
            diag[p], diag[q] = diag[p] - shift, diag[q] + shift
            rp, rq = (min(p, r), max(p, r)), (min(q, r), max(q, r))
            off[rp], off[rq] = c * off[rp] - s * off[rq], s * off[rp] + c * off[rq]
            off[p, q] = 0.0
            cols[p], cols[q] = c * cols[p] - s * cols[q], s * cols[p] + c * cols[q]
        mass = off[0, 1] ** 2 + off[0, 2] ** 2 + off[1, 2] ** 2
    _sort_columns(diag, cols, descending=False)
    return np.stack(diag, axis=-1), _columns_to_stack(cols)


def eigh_sym(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    symmetric matrix (n, n) or a stack (..., n, n), as np.linalg.eigh
    returns them; like it, only the lower triangle is read.

    n = 1 is trivial, n = 2 one closed-form rotation and n = 3 cyclic
    Jacobi sweeps on the whole stack at once; n >= 4 calls LAPACK. A stack
    that does not converge (a non-finite entry) raises FloatingPointError;
    the closed forms at n <= 2 pass NaN through, as LAPACK does.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    if n > 3:
        try:
            return np.linalg.eigh(X)
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(f"eigh: {exc}") from exc
    S = X.reshape(-1, n, n)
    if n == 1:
        lam, V = S[:, 0].copy(), np.ones(S.shape)
    else:
        lam, V = (_eigh2 if n == 2 else _eigh3)(S)
    return lam.reshape(X.shape[:-1]), V.reshape(X.shape)


def eigvals_sym_batch(X: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) for a stack of symmetric matrices: the
    direct c_j route's spectra.

    At n <= 3 they are eigh_sym's, reversed (the closed-form rotation at
    n = 2, Jacobi sweeps at n = 3): for 8192 rows 0.3-0.45 ms at n = 2 and
    5-7 ms at n = 3, against 2.2-3.8 and 7.2-11.3 ms for one LAPACK call
    per matrix (shared 2-vCPU x86 machine, one BLAS thread). At n >= 4
    LAPACK's eigvalsh, which skips the eigenvectors eigh_sym would form
    there. The tests pin it to eigvalsh and to a cyclic Jacobi reference.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[-1] > 3:
        return np.linalg.eigvalsh(X)[..., ::-1]
    return eigh_sym(X)[0][..., ::-1]


def singular_frames(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, s): the left singular vectors (columns) and the singular values,
    descending, of a nonsingular matrix (n, n) or a stack (..., n, n).

    At n <= 3 one-sided (Hestenes) Jacobi rotates pairs of columns of A
    until each pair is orthogonal to n eps of the product of their norms;
    s holds the final column norms and U the normalized columns. It never
    forms A^T A, and each singular value keeps a relative error of a few
    eps even when the columns or rows of A are scaled over many orders of
    magnitude (Demmel & Veselic 1992, SIAM J. Matrix Anal. Appl. 13): at
    most 8e-16 over 2000 random 3 x 3 matrices Q diag(e^u) and diag(e^u) Q
    with a spread of e^20, where the LAPACK SVD reads up to 1e-7. n >= 4
    calls LAPACK. A singular, non-finite or non-converging stack raises
    FloatingPointError.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    if n > 3:
        try:
            U, s, _ = np.linalg.svd(A)
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(f"svd: {exc}") from exc
        return U, s
    cols = list(_stack_to_columns(A.reshape(-1, n, n)))
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for sweep in range(_JACOBI_SWEEPS + 1):
        norm2 = [_dot(a, a) for a in cols]
        inner = [_dot(cols[p], cols[q]) for p, q in pairs]
        active = np.zeros(cols[0].shape[1], dtype=bool)
        for g, (p, q) in zip(inner, pairs):
            active |= ~(g * g <= (n * _EPS) ** 2 * norm2[p] * norm2[q])  # NaN stays
        if not active.any():
            break
        if sweep == _JACOBI_SWEEPS:
            raise FloatingPointError(
                f"Jacobi SVD did not converge in {_JACOBI_SWEEPS} sweeps "
                "(non-finite entries?)")
        for i, (p, q) in enumerate(pairs):
            # the sweep's first pair reads the inner product taken above
            g = inner[0] if i == 0 else _dot(cols[p], cols[q])
            g = np.where(active, g, 0.0)
            t, c, s = _jacobi_rotation(norm2[p], norm2[q], g)
            norm2[p], norm2[q] = norm2[p] - t * g, norm2[q] + t * g
            cols[p], cols[q] = c * cols[p] - s * cols[q], s * cols[p] + c * cols[q]
    s = [np.sqrt(_dot(a, a)) for a in cols]
    if not all(np.all(v > 0.0) for v in s):
        raise FloatingPointError("singular_frames needs nonsingular finite matrices")
    cols = [a / v for a, v in zip(cols, s)]
    _sort_columns(s, cols, descending=True)
    return _columns_to_stack(cols).reshape(A.shape), np.stack(s, axis=-1).reshape(A.shape[:-1])


def orthonormal_factor(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, det Q) for a stack G (m, n, n): Q is the orthogonal factor of
    G = QR with R's diagonal positive, det Q = +-1.

    Gram-Schmidt, applied twice (twice is enough: Giraud et al. 2005,
    Numer. Math. 101), orthonormalizes the columns of G in order at every
    n; this is the sign-fixed Householder Q up to rounding. det Q is the
    triple product (n = 3) or ad - bc (n = 2), and LAPACK's det at n >= 4.
    On 4096 Gaussian matrices (one BLAS thread, best of 5, a 2-core Xeon)
    it takes 3.0 ms at n = 4 and 11.7 ms at n = 8, where LAPACK's QR with
    its sign fix and det took 6.0 and 15.3 ms.
    """
    m, n, _ = G.shape
    cols = []
    for v in _stack_to_columns(G):
        for _ in range(2):
            for q in cols:
                v = v - _dot(q, v) * q
        cols.append(v / np.sqrt(_dot(v, v)))
    Q = _columns_to_stack(cols)
    if n == 1:
        return Q, Q[:, 0, 0].copy()
    if n == 2:
        return Q, Q[:, 0, 0] * Q[:, 1, 1] - Q[:, 0, 1] * Q[:, 1, 0]
    if n > 3:
        return Q, np.linalg.det(Q)
    a, b, c = cols
    return Q, (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))


def sample_haar_orthogonal(n: int, rng: np.random.Generator,
                           component: str = "full",
                           size: int | None = None) -> np.ndarray:
    """Haar samples on O(n): the orthogonal factor of a Gaussian matrix
    (orthonormal_factor, R's diagonal positive).

    component selects the measure: "special" conditions on det = +1 (flip one
    column when det = -1), and "full" takes the rotation representative and
    flips a column with probability 1/2, giving the probability Haar measure
    on all of O(n).
    """
    if component not in ("full", "special"):
        raise ValueError(f"unknown component {component!r}")
    m = 1 if size is None else int(size)
    Q, det = orthonormal_factor(rng.standard_normal((m, n, n)))
    if component == "special":
        flip = det < 0
    else:  # the rotation representative, then a fair coin
        flip = (det < 0) != (rng.random(m) < 0.5)
    Q[:, :, -1] *= np.where(flip, -1.0, 1.0)[:, None]
    return Q[0] if size is None else Q
