import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.stats import kstest

from intgeo.symmetric import (as_symmetric, coords_to_sym,
                              eigh_sym, helmert, eigvals_sym_batch, expm_sym,
                              orthonormal_factor, sample_gaussian_sym,
                              sample_haar_orthogonal, singular_frames,
                              split_coords_to_sym, sym_basis, sym_dim, sym_to_coords)


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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_split_chart_is_an_isometry_with_the_trace_last(n):
    # the split chart of the lattice draws is orthonormal like coords_to_sym,
    # so standard normals keep the Gaussian law; the traceless form puts
    # tr X = 0, the full one tr X = sqrt(n) times the last coordinate
    rng = np.random.default_rng(n)
    c = rng.standard_normal((9, sym_dim(n)))
    X = split_coords_to_sym(c, n)
    np.testing.assert_allclose(X, np.swapaxes(X, -1, -2), atol=0.0)
    np.testing.assert_allclose(np.linalg.norm(X, axis=(1, 2)), np.linalg.norm(c, axis=1),
                               rtol=1e-13)
    np.testing.assert_allclose(np.trace(X, axis1=1, axis2=2), np.sqrt(n) * c[:, -1],
                               rtol=1e-13, atol=1e-14)
    X0 = split_coords_to_sym(c[:, :-1], n)
    np.testing.assert_allclose(np.trace(X0, axis1=1, axis2=2), 0.0, atol=1e-14)
    np.testing.assert_allclose(X - X0, np.sqrt(1.0 / n) * c[:, -1, None, None] * np.eye(n),
                               atol=1e-14)
    with pytest.raises(ValueError, match="coordinates"):
        split_coords_to_sym(np.hstack([c, c[:, :1]]), n)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_split_chart_has_the_bits_of_coords_to_sym(n):
    # the split chart writes its Helmert diagonal and the off-diagonal
    # coordinates straight into X: coords_to_sym of the concatenated
    # diagonal and off-diagonal coordinates, to the last bit
    rng = np.random.default_rng(20 + n)
    m = sym_dim(n) - 1
    for c in (rng.standard_normal((50, m + 1)), rng.standard_normal((50, m))):
        diag = c[:, :n - 1] @ helmert(n).T
        if c.shape[1] > m:
            diag = diag + c[:, m:] / np.sqrt(n)
        want = coords_to_sym(np.concatenate([diag, c[:, n - 1:m]], axis=1), n)
        assert np.array_equal(split_coords_to_sym(c, n), want)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigvals_batch_matches_lapack_at_small_n(n):
    # eigh_sym's eigenvalues, descending, within 8 eps ||X||_F of eigvalsh:
    # Gaussian stacks and planted corners (diagonal, repeated eigenvalues
    # with and without a rotation, zero), at unit scale and scaled by 1e+-150
    rng = np.random.default_rng(60 + n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    repeated = np.where(np.arange(n) == n - 1, -1.0, 2.0)
    corners = np.array([np.diag(rng.standard_normal(n)), np.diag(repeated),
                        (Q * repeated) @ Q.T, np.eye(n), np.zeros((n, n))])
    stack = np.concatenate([sample_gaussian_sym(n, rng, size=4000), corners])
    for scale in (1.0, 1e150, 1e-150):
        X = stack * scale
        got = eigvals_sym_batch(X)
        ref = np.linalg.eigvalsh(X)[..., ::-1]
        assert got.shape == ref.shape
        assert np.all(np.diff(got, axis=-1) <= 0.0)
        tol = 8.0 * np.finfo(float).eps * np.linalg.norm(X, axis=(-2, -1))
        assert np.all(np.abs(got - ref) <= tol[:, None])
        assert np.all(got[-1] == 0.0)


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
    Q = sample_haar_orthogonal(3, rng, component="special", size=64)
    prod = np.einsum("mij,mkj->mik", Q, Q)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), (64, 3, 3)),
                               atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(Q), 1.0, atol=1e-10)
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
    with pytest.raises(ValueError):
        sample_haar_orthogonal(2, rng, component="reflection")


def test_as_symmetric_and_as_orthogonal_validate():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        as_symmetric(M)
    X = as_symmetric(0.5 * (M + M.T))
    np.testing.assert_allclose(X, X.T, atol=1e-15)


# ---------------------------------------------------------------------------
# the batched kernels at n <= 3 against LAPACK and constructed truth


def check_eigh(X, lam, V, atol):
    """lam ascending, V orthonormal, V diag(lam) V^T = X, and each column of V
    an eigenvector of its own eigenvalue."""
    n = X.shape[-1]
    assert lam.shape == X.shape[:-1] and V.shape == X.shape
    assert np.all(np.diff(lam, axis=-1) >= 0.0)
    np.testing.assert_allclose(np.swapaxes(V, -1, -2) @ V, np.broadcast_to(np.eye(n), V.shape),
                               atol=1e-14 * n)
    np.testing.assert_allclose((V * lam[..., None, :]) @ np.swapaxes(V, -1, -2), X, atol=atol)
    np.testing.assert_allclose(X @ V, V * lam[..., None, :], atol=atol)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigh_sym_matches_lapack_and_the_reference(n):
    rng = np.random.default_rng(60 + n)
    stack = sample_gaussian_sym(n, rng, size=500)
    lam, V = eigh_sym(stack)
    ref_lam, _ = np.linalg.eigh(stack)
    np.testing.assert_allclose(lam, ref_lam, atol=1e-14 * np.abs(ref_lam).max())
    check_eigh(stack, lam, V, atol=1e-13)
    for b, X in enumerate(stack[:20]):  # one matrix at a time, against the reference
        lam1, V1 = eigh_sym(X)
        # a row's bits do not depend on the stack it came in
        np.testing.assert_array_equal(lam1, lam[b])
        np.testing.assert_array_equal(V1, V[b])
        ref, _ = eigendecompose(X)
        np.testing.assert_allclose(lam1, ref[::-1], atol=1e-13)
        check_eigh(X, lam1, V1, atol=1e-13)
    # a stack of stacks keeps its leading shape
    lam2, V2 = eigh_sym(stack[:12].reshape(3, 4, n, n))
    np.testing.assert_array_equal(lam2.reshape(12, n), lam[:12])
    np.testing.assert_array_equal(V2.reshape(12, n, n), V[:12])


@pytest.mark.parametrize("X", [
    np.zeros((3, 3)), np.eye(3), np.diag([1.0, 1.0, 2.0]), np.diag([3.0, -1.0, 2.0]),
    np.zeros((2, 2)), np.eye(2), np.diag([2.0, -5.0]), np.array([[4.0]]),
], ids=["zero3", "eye3", "repeated3", "diagonal3", "zero2", "eye2", "diagonal2", "one"])
def test_eigh_sym_on_diagonal_and_repeated_spectra(X):
    lam, V = eigh_sym(X)
    np.testing.assert_array_equal(lam, np.sort(np.diag(X)))
    check_eigh(X, lam, V, atol=0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_eigh_sym_tiny_off_diagonals_do_not_overflow(n):
    # the textbook angle (aqq - app) / (2 apq) overflows when squared here
    for diag in (np.arange(1.0, n + 1.0), np.ones(n)):
        X = np.diag(diag)
        X[0, 1] = X[1, 0] = 1e-300
        X[n - 1, 0] = X[0, n - 1] = -3e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lam, V = eigh_sym(X)
        np.testing.assert_allclose(lam, np.sort(diag), rtol=1e-15)
        check_eigh(X, lam, V, atol=1e-15)


def test_kernels_at_n4_are_lapack():
    rng = np.random.default_rng(64)
    X = sample_gaussian_sym(4, rng, size=8)
    for got, want in zip(eigh_sym(X), np.linalg.eigh(X)):
        np.testing.assert_array_equal(got, want)
    A = rng.standard_normal((8, 4, 4))
    U, s, _ = np.linalg.svd(A)
    for got, want in zip(singular_frames(A), (U, s)):
        np.testing.assert_array_equal(got, want)


def frames_truth(rng, n, spread, rows_scaled):
    """A = Q diag(e^u) or diag(e^u) Q with u spanning [0, spread]: its
    singular values e^u and left singular vectors (Q's columns or the unit
    vectors) sorted by descending e^u."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    u = rng.permutation(np.linspace(0.0, spread, n))
    A = np.exp(u)[:, None] * Q if rows_scaled else Q * np.exp(u)
    order = np.argsort(-u)
    left = np.eye(n) if rows_scaled else Q
    return A, np.exp(u)[order], left[:, order]


@pytest.mark.parametrize("rows_scaled", [False, True], ids=["Q-D", "D-Q"])
@pytest.mark.parametrize("n", [2, 3])
def test_singular_frames_against_constructed_truth(n, rows_scaled):
    # relative accuracy of every singular value across spreads up to e^20,
    # where LAPACK's SVD loses digits on Q diag(e^u)
    rng = np.random.default_rng(70 + n + 10 * rows_scaled)
    for spread in (0.5, 5.0, 10.0, 20.0):
        cases = [frames_truth(rng, n, spread, rows_scaled) for _ in range(40)]
        A = np.array([c[0] for c in cases])
        U, s = singular_frames(A)
        for b, (_, s_true, left) in enumerate(cases):
            np.testing.assert_allclose(s[b], s_true, rtol=1e-13, atol=0.0)
            # each left singular vector up to sign (the gaps are >= e^(spread/2))
            np.testing.assert_allclose(np.abs(np.sum(U[b] * left, axis=0)), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_singular_frames_match_lapack(n):
    rng = np.random.default_rng(80 + n)
    A = rng.standard_normal((300, n, n))
    U, s = singular_frames(A)
    U0, s0, _ = np.linalg.svd(A)
    assert U.shape == A.shape and s.shape == A.shape[:-1]
    np.testing.assert_allclose(s, s0, rtol=1e-9)
    assert np.all(np.diff(s, axis=1) <= 0.0)
    np.testing.assert_allclose(np.swapaxes(U, 1, 2) @ U, np.broadcast_to(np.eye(n), A.shape),
                               atol=1e-14)
    # U diag(s) is A times an orthogonal matrix: A^T U diag(1/s) is orthonormal
    W = np.swapaxes(A, 1, 2) @ U / s[:, None, :]
    np.testing.assert_allclose(np.swapaxes(W, 1, 2) @ W, np.broadcast_to(np.eye(n), A.shape),
                               atol=1e-9)
    U1, s1 = singular_frames(A[0])
    np.testing.assert_array_equal(U1, U[0])
    np.testing.assert_array_equal(s1, s[0])


def qr_positive(G):
    """The sign-fixed Householder Q of each matrix (R's diagonal positive)."""
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.einsum("mii->mi", R))[:, None, :]


@pytest.mark.parametrize("n", range(1, 9))
def test_orthonormal_factor_is_the_sign_fixed_householder_q(n):
    rng = np.random.default_rng(90 + n)
    G = rng.standard_normal((2000, n, n))
    Q, det = orthonormal_factor(G)
    Q0 = qr_positive(G)
    np.testing.assert_allclose(Q, Q0, atol=1e-13, rtol=0.0)
    np.testing.assert_array_equal(np.sign(det), np.sign(np.linalg.det(Q0)))
    np.testing.assert_allclose(np.abs(det), 1.0, atol=1e-14)


@pytest.mark.parametrize("component", ["full", "special"])
@pytest.mark.parametrize("n", [2, 3])
def test_haar_sampler_draws_what_lapack_qr_drew(n, component):
    # the same Gaussian draw, then the same coin: the samples match the
    # sign-fixed QR route to rounding
    Q = sample_haar_orthogonal(n, np.random.default_rng(95), component=component, size=500)
    rng = np.random.default_rng(95)
    Q0 = qr_positive(rng.standard_normal((500, n, n)))
    det = np.linalg.det(Q0)
    if component == "special":
        flip = det < 0
    else:
        flip = (det < 0) != (rng.random(500) < 0.5)
    Q0[flip, :, -1] *= -1.0
    np.testing.assert_allclose(Q, Q0, atol=1e-13, rtol=0.0)


def test_non_finite_stacks_raise():
    rng = np.random.default_rng(99)
    X = sample_gaussian_sym(3, rng, size=6)
    X[4, 2, 0] = X[4, 0, 2] = np.nan
    with pytest.raises(FloatingPointError):
        eigh_sym(X)
    X4 = np.full((4, 4), np.nan)
    with pytest.raises(FloatingPointError):
        eigh_sym(X4)
    for n in (1, 2, 3):
        A = rng.standard_normal((6, n, n))
        A[2, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            singular_frames(A)
    with pytest.raises(FloatingPointError):
        singular_frames(np.zeros((3, 3)))
