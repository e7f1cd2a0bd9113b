import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.stats import kstest

from intgeo.symmetric import (as_orthogonal, as_symmetric, coords_to_sym,
                              eigvals_sym_batch, expm_sym,
                              sample_gaussian_sym, sample_haar_orthogonal,
                              sym_basis, sym_dim, sym_to_coords)


def eigendecompose(X: np.ndarray, tol: float = 1e-13,
                   max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    The reference the LAPACK calls of the package are checked against.
    Returns (eigenvalues descending, V with orthonormal eigenvector columns)
    with X = V diag(eigenvalues) V^T. Sweeps run until the off-diagonal
    Frobenius mass falls below tol * ||X||_F.
    """
    A = as_symmetric(X).copy()
    n = A.shape[0]
    V = np.eye(n)
    scale = np.linalg.norm(A)
    if scale == 0.0:
        return np.zeros(n), V
    for _ in range(max_sweeps + 1):
        # direct off-diagonal mass; the sum-minus-diagonal form cancels
        # catastrophically once the mass drops below sqrt(eps) * ||A||
        od = A.copy()
        np.fill_diagonal(od, 0.0)
        off = float(np.linalg.norm(od))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    # theta^2 overflows; the rotation angle is ~1/(2 theta)
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta == 0.0:
                        t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                # the rotation annihilates this pair by construction; assign
                # exact zeros so rounding drift cannot accumulate asymmetry
                A[p, q] = A[q, p] = 0.0
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    lam = np.diag(A).copy()
    order = np.argsort(lam)[::-1]
    return lam[order], V[:, order]


def test_sym_dim():
    assert [sym_dim(n) for n in (1, 2, 3, 4)] == [1, 3, 6, 10]


def test_sym_basis_orthonormal_frobenius():
    for n in (2, 3, 4):
        B = np.array(sym_basis(n))
        d = sym_dim(n)
        assert B.shape == (d, n, n)
        G = np.einsum("aij,bij->ab", B, B)
        np.testing.assert_allclose(G, np.eye(d), atol=1e-12)


def test_coords_roundtrip():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        c = rng.standard_normal((7, sym_dim(n)))
        X = coords_to_sym(c, n)
        np.testing.assert_allclose(X, np.swapaxes(X, -1, -2), atol=1e-14)
        np.testing.assert_allclose(sym_to_coords(X), c, atol=1e-12)
        # the chart is a Frobenius isometry
        np.testing.assert_allclose(np.linalg.norm(X, axis=(1, 2)),
                                   np.linalg.norm(c, axis=1), atol=1e-12)


def test_gaussian_sym_entry_variances():
    # diagonal entries have variance 1, off-diagonal 1/2 in this chart
    rng = np.random.default_rng(42)
    X = sample_gaussian_sym(3, rng, size=200000)
    assert np.max(np.abs(X - np.swapaxes(X, 1, 2))) < 1e-14
    var_diag = np.var(X[:, np.arange(3), np.arange(3)], axis=0)
    var_off = np.var(X[:, [0, 0, 1], [1, 2, 2]], axis=0)
    # variance-of-variance gives se ~ var * sqrt(2/N) ~ 0.003
    np.testing.assert_allclose(var_diag, 1.0, atol=0.02)
    np.testing.assert_allclose(var_off, 0.5, atol=0.01)
    assert abs(float(np.mean(X))) < 0.01


def rand_sym(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(1)
    for n in (2, 3, 6):
        X = rand_sym(rng, n)
        lam, V = eigendecompose(X)
        assert np.all(np.diff(lam) <= 1e-12)
        np.testing.assert_allclose(V @ V.T, np.eye(n), atol=1e-12)
        np.testing.assert_allclose((V * lam) @ V.T, X, atol=1e-11)


def test_eigendecompose_matches_lapack():
    rng = np.random.default_rng(2)
    for _ in range(20):
        X = rand_sym(rng, 4)
        lam, _ = eigendecompose(X)
        ref = np.linalg.eigvalsh(X)[::-1]
        np.testing.assert_allclose(lam, ref, atol=1e-9)


def test_eigvals_batch_matches_scalar_op():
    rng = np.random.default_rng(3)
    X = sample_gaussian_sym(3, rng, size=50)
    lam_batch = eigvals_sym_batch(X)
    for i in range(50):
        lam, _ = eigendecompose(X[i])
        np.testing.assert_allclose(lam_batch[i], lam, atol=1e-9)


def test_expm_sym_against_scipy():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        X = rand_sym(rng, n)
        np.testing.assert_allclose(expm_sym(X), scipy_expm(X),
                                   rtol=1e-10, atol=1e-10)
    stack = np.array([rand_sym(rng, 3) for _ in range(4)])
    np.testing.assert_allclose(expm_sym(stack), [scipy_expm(X) for X in stack],
                               rtol=1e-10, atol=1e-10)


def test_expm_sym_diagonal_exact():
    X = np.diag([1.0, -2.0, 0.0])
    np.testing.assert_allclose(expm_sym(X), np.diag(np.exp([1.0, -2.0, 0.0])),
                               atol=1e-13)


def test_haar_orthogonality_and_determinants():
    rng = np.random.default_rng(5)
    for comp, want in (("special", 1.0), ("reflection", -1.0)):
        Q = sample_haar_orthogonal(3, rng, component=comp, size=64)
        prod = np.einsum("mij,mkj->mik", Q, Q)
        np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), (64, 3, 3)),
                                   atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(Q), want, atol=1e-10)
    Q = sample_haar_orthogonal(3, rng, component="full", size=4000)
    frac = np.mean(np.linalg.det(Q) > 0)
    assert abs(frac - 0.5) < 4 * 0.5 / np.sqrt(4000.0)


def test_haar_first_column_sphericity():
    # n = 2: P(<Q e1, e1> <= x) = 1 - arccos(x)/pi on [-1, 1]
    rng = np.random.default_rng(6)
    Q = sample_haar_orthogonal(2, rng, component="full", size=20000)
    x = Q[:, 0, 0]
    stat = kstest(x, lambda v: 1.0 - np.arccos(np.clip(v, -1, 1)) / np.pi)
    assert stat.pvalue > 0.01
    # n = 3: the first coordinate of a uniform sphere point is uniform [-1, 1]
    Q = sample_haar_orthogonal(3, rng, component="full", size=20000)
    stat = kstest(Q[:, 0, 0], "uniform", args=(-1.0, 2.0))
    assert stat.pvalue > 0.01


def test_haar_rejects_unknown_component():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_haar_orthogonal(2, rng, component="improper")


def test_as_symmetric_and_as_orthogonal_validate():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        as_symmetric(M)
    X = as_symmetric(0.5 * (M + M.T))
    np.testing.assert_allclose(X, X.T, atol=1e-15)
    Q = sample_haar_orthogonal(3, rng)
    np.testing.assert_allclose(as_orthogonal(Q), Q)
    with pytest.raises(ValueError):
        as_orthogonal(M)
