import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import ellipe, elliprg

import intgeo.volumes as vol
from intgeo import bodies as bd
from intgeo.volumes import (QuadratureError, batch_ellipsoid_intrinsic_volumes, carlson_rg,
                            closed_intrinsic_volumes, elliptic_e_agm,
                            intrinsic_volume_ball, intrinsic_volume_ellipsoid,
                            kappa, steiner_fit, volume_exact)


def box2(x0, x1, y0, y1):
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return bd.HPolytope(A, np.array([x1, -x0, y1, -y0]))


def test_kappa_small_dimensions():
    np.testing.assert_allclose(
        [kappa(j) for j in range(5)],
        [1.0, 2.0, math.pi, 4.0 * math.pi / 3.0, math.pi**2 / 2.0],
        rtol=1e-15)


def test_ball_values_satisfy_steiner_identity():
    # sum_j kappa_{n-j} eps^{n-j} V_j(B^n) must equal (1 + eps)^n kappa_n
    for n in range(1, 7):
        for eps in (0.5, 1.0, 2.0):
            total = sum(kappa(n - j) * eps ** (n - j) * intrinsic_volume_ball(n, j)
                        for j in range(n + 1))
            assert abs(total - (1.0 + eps) ** n * kappa(n)) < 1e-11


def test_ball_known_values():
    assert abs(intrinsic_volume_ball(2, 1) - math.pi) < 1e-15
    assert abs(intrinsic_volume_ball(2, 2) - math.pi) < 1e-15
    assert abs(intrinsic_volume_ball(3, 1) - 4.0) < 1e-14
    assert abs(intrinsic_volume_ball(3, 2) - 2.0 * math.pi) < 1e-14
    assert abs(intrinsic_volume_ball(3, 3) - 4.0 * math.pi / 3.0) < 1e-14
    # radius scaling is j-homogeneous
    assert abs(intrinsic_volume_ball(3, 2, radius=2.0) - 8.0 * math.pi) < 1e-13


def test_ellipsoid_equal_axes_matches_ball():
    for n in (2, 3, 4):
        for r in (0.5, 1.0, 2.0):
            for j in range(n + 1):
                got = intrinsic_volume_ellipsoid([r] * n, j)
                want = intrinsic_volume_ball(n, j, radius=r)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_ellipse_first_intrinsic_volume_elliptic_integral():
    # V_1 = half perimeter = 2 a E(1 - b^2/a^2) for a >= b
    for a, b in ((2.0, 1.0), (5.0, 0.5), (1.3, 1.2)):
        want = 2.0 * a * ellipe(1.0 - (b / a) ** 2)
        got = intrinsic_volume_ellipsoid([a, b], 1)
        assert abs(got - want) < 1e-8 * want


def test_ellipse_area():
    got = intrinsic_volume_ellipsoid([2.0, 0.7], 2)
    assert abs(got - math.pi * 1.4) < 1e-10


def test_spheroid_surface_area():
    # V_2 is half the surface area; spheroids have classical closed forms
    a, c = 2.0, 1.0
    e = math.sqrt(1.0 - (c / a) ** 2)
    prolate = 2.0 * math.pi * c**2 * (1.0 + (a / (c * e)) * math.asin(e))
    got = intrinsic_volume_ellipsoid([a, c, c], 2)
    assert abs(got - prolate / 2.0) < 1e-8 * prolate
    oblate = 2.0 * math.pi * a**2 * (1.0 + ((1.0 - e**2) / e) * math.atanh(e))
    got = intrinsic_volume_ellipsoid([a, a, c], 2)
    assert abs(got - oblate / 2.0) < 1e-8 * oblate


def test_ellipsoid_permutation_and_homogeneity():
    axes = [1.7, 0.4, 2.5]
    for j in range(4):
        v1 = intrinsic_volume_ellipsoid(axes, j)
        v2 = intrinsic_volume_ellipsoid(axes[::-1], j)
        assert abs(v1 - v2) < 1e-9 * max(1.0, v1)
        v3 = intrinsic_volume_ellipsoid([3.0 * a for a in axes], j)
        assert abs(v3 - 3.0**j * v1) < 1e-8 * max(1.0, v3)


def test_ellipsoid_input_validation():
    with pytest.raises(ValueError):
        intrinsic_volume_ellipsoid([1.0, -1.0], 1)
    with pytest.raises(ValueError):
        intrinsic_volume_ellipsoid([1.0, 1.0], 3)
    with pytest.raises(QuadratureError):
        intrinsic_volume_ellipsoid([1.0, 1e-30], 1)


def test_kappa_and_the_batch_evaluator_refuse_what_has_no_meaning():
    with pytest.raises(ValueError, match="nonnegative"):
        kappa(-1)
    for j in (-1, 3):
        with pytest.raises(ValueError, match="0 <= j <= n"):
            batch_ellipsoid_intrinsic_volumes([[1.0, 2.0]], [j])


def test_batch_matches_quadrature_across_spreads():
    # every kernel of the batch evaluator (closed forms at n <= 3, the grid at
    # n >= 4) must track the adaptive reference closely, relative to the
    # value, on log-spreads well beyond what Gaussian spectra produce. The
    # n = 2, 3 rows reach spreads of 10-20 only where the reference itself
    # holds: it loses V_2 of a 2-D ellipse flatter than about e^-14, and it
    # refuses the volume of the two flattest 3-D rows, which are checked
    # against kappa_3 prod a_i instead.
    cases = {
        1: [[1.0], [3.0], [np.exp(-8.0)]],
        2: [[1.0, 1.0], [2.0, 0.5], [np.exp(3.0), np.exp(-3.0)],
            [np.exp(6.0), 1.0], [np.exp(-6.0), np.exp(-2.0)],
            [1.0, np.exp(-10.0)], [np.exp(6.0), np.exp(-6.0)], [1.0, np.exp(-14.0)]],
        3: [[1.0, 1.0, 1.0], [np.exp(2.0), 1.0, np.exp(-2.0)],
            [5.0, 1.0, 0.2], [np.exp(6.0), np.exp(3.0), 1.0],
            [1.0, np.exp(-5.0), np.exp(-10.0)], [np.exp(8.0), 1.0, np.exp(-8.0)],
            [1.0, np.exp(-8.0), np.exp(-16.0)], [1.0, np.exp(-16.0), np.exp(-16.0)],
            [1.0, np.exp(-10.0), np.exp(-20.0)]],
        4: [[1.0, 1.0, 1.0, 1.0],
            [np.exp(3.0), np.exp(1.0), np.exp(-1.0), np.exp(-3.0)]],
        5: [[1.0] * 5,
            [np.exp(3.0), np.exp(1.5), 1.0, np.exp(-1.5), np.exp(-3.0)],
            [np.exp(5.0), 1.0, 1.0, np.exp(-2.0), np.exp(-5.0)]],
    }
    refused = []
    for n, rows in cases.items():
        A = np.array(rows)
        js = list(range(n + 1))
        got = batch_ellipsoid_intrinsic_volumes(A, js)
        for j in js:
            for i, axes in enumerate(rows):
                try:
                    ref = intrinsic_volume_ellipsoid(axes, j)
                except QuadratureError:
                    refused.append((n, i, j))
                    ref = kappa(n) * math.prod(axes)
                assert abs(got[j][i] - ref) <= 1e-8 * abs(ref)
    # (0, -16, -16) and (0, -10, -20) in log-axes, both at j = 3
    assert refused == [(3, 7, 3), (3, 8, 3)]


def test_quadrature_reference_refuses_what_it_cannot_resolve():
    # quad only warns on the 3-D needle (1, e^-16, e^-16), and its value
    # there is half the true volume kappa_3 e^-32; the reference must raise
    with pytest.raises(QuadratureError):
        intrinsic_volume_ellipsoid([1.0, np.exp(-16.0), np.exp(-16.0)], 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batch_subsets_of_j_agree(n):
    # the evaluator branches on j (V_0, V_n and 0 < j < n take different
    # kernels), so any subset of js must return the full set's values
    rng = np.random.default_rng(n)
    A = np.exp(rng.standard_normal((7, n)))
    full = batch_ellipsoid_intrinsic_volumes(A, range(n + 1))
    assert sorted(full) == list(range(n + 1))
    for js in ([0], [n], [1], [1, n - 1]):
        got = batch_ellipsoid_intrinsic_volumes(A, js)
        assert sorted(got) == sorted(set(js))
        for j in js:
            np.testing.assert_array_equal(got[j], full[j])


def test_batch_grid_refuses_rows_beyond_its_floor():
    # n >= 4 runs on the log-grid, which covers normalized axes down to e^-20;
    # one row past that floor fails the whole batch instead of returning a
    # value the grid cannot vouch for
    inside = np.array([[1.0, 0.5, np.exp(-3.0), np.exp(-19.5)]])
    batch_ellipsoid_intrinsic_volumes(inside, [1, 2, 3])
    outside = np.vstack([inside, [[2.0, 1.0, 0.5, 2.0 * np.exp(-20.5)]]])
    with pytest.raises(QuadratureError):
        batch_ellipsoid_intrinsic_volumes(outside, [1, 2, 3])
    # V_0 and V_n are closed forms and need no grid
    got = batch_ellipsoid_intrinsic_volumes(outside, [0, 4])
    np.testing.assert_allclose(got[4], kappa(4) * np.prod(outside, axis=1), rtol=1e-15)


def _grid_per_axis(B):
    """The grid's trapezoid sum as a loop over the axes, V_j / kappa_j for
    j = 1..n-1 of rows B with max axis 1: for each axis i the kernel
    1/((b_i^2 t^2 + 1) prod_l sqrt(b_l^2 t^2 + 1)) on the same nodes, against
    h e^{js}. The reference for the moment form of the batch evaluator."""
    m, n = B.shape
    B2 = B * B
    t2 = np.exp(2.0 * vol._GRID_S)
    weights = vol._GRID_H * np.exp(np.outer(vol._GRID_S, np.arange(1, n)))
    inv_p = 1.0 / np.prod(np.sqrt(1.0 + B2[:, :, None] * t2), axis=1)
    core = np.zeros((m, n - 1))
    for i in range(n):
        rest = np.delete(B2, i, axis=1)
        e = np.zeros((m, n - 1))  # e_0..e_{n-2} of the other axes
        e[:, 0] = 1.0
        for l in range(n - 1):
            e[:, 1:] = e[:, 1:] + rest[:, l, None] * e[:, :-1]
        f = inv_p / (1.0 + B2[:, i, None] * t2)
        core += B2[:, i, None] * e * (f @ weights)
    return core


def _grid_rows(rng, rows, n, spread):
    """Rows with max axis exactly 1 and log-axes in [-spread, 0]; row 0 has
    equal axes, row 1 one axis above n - 1 equal ones, and three floor
    corners are appended."""
    logs = rng.permuted(np.column_stack(
        [np.zeros(rows), rng.uniform(-spread, 0.0, (rows, n - 1))]), axis=1)
    B = np.exp(logs)
    B[0] = 1.0
    B[1, 0] = 1.0
    B[1, 1:] = math.exp(-0.5 * spread)
    floor = vol._GRID_FLOOR
    corners = np.ones((3, n))
    corners[0, 1:] = floor  # a needle at the floor
    corners[1, -1] = floor  # a flat disc at the floor
    corners[2, 1:] = np.exp(np.linspace(0.0, -20.0, n))[1:]  # evenly spread to it
    corners[2, -1] = floor
    return np.vstack([B, corners])


@pytest.mark.parametrize("spread", [1.0, 10.0, 20.0])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_grid_moments_match_the_per_axis_loop(n, spread):
    # the moment form and the loop sum the same trapezoid rule on the same
    # nodes, so they agree to rounding; no overflow or underflow warning
    # may appear on the way, at the floor included
    rng = np.random.default_rng(10 * n + int(spread))
    B = _grid_rows(rng, 200, n, spread)
    ref = _grid_per_axis(B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = batch_ellipsoid_intrinsic_volumes(B, range(n + 1))
    for j in range(1, n):
        np.testing.assert_allclose(got[j], kappa(j) * ref[:, j - 1], rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [10, 12])
def test_grid_refuses_axis_products_its_moments_cannot_hold(n):
    # at n >= 10 the e^-20 floor alone lets the axes' product fall so low
    # that the moment coefficients leave the double range; rows down to
    # e^-165 still match the loop, and one row past it fails the batch
    inside = np.ones((1, n))
    inside[0, 1:] = math.exp(-165.0 / (n - 1)) * (1.0 + 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = batch_ellipsoid_intrinsic_volumes(inside, range(1, n))
    ref = _grid_per_axis(inside)
    for j in range(1, n):
        np.testing.assert_allclose(got[j], kappa(j) * ref[:, j - 1], rtol=1e-13, atol=0)
    outside = np.vstack([inside, inside * (1.0 - 2e-9)])
    outside[1, 0] = 1.0
    with pytest.raises(QuadratureError):
        batch_ellipsoid_intrinsic_volumes(outside, [1])
    got = batch_ellipsoid_intrinsic_volumes(outside, [0, n])
    np.testing.assert_allclose(got[n], kappa(n) * np.prod(outside, axis=1), rtol=1e-15)


def _log_spread_axes(rng, rows, n, spread):
    """Positive axes whose logs spread over [-spread/2, spread/2], with the
    equal-axes and two-equal-axes corners appended."""
    logs = rng.uniform(-0.5 * spread, 0.5 * spread, (rows, n))
    logs[0] = 0.0
    logs[1, 1:] = logs[1, 0]
    logs[2, 1] = logs[2, 0]
    logs[3] = np.linspace(-0.5 * spread, 0.5 * spread, n)
    return np.exp(logs)


@pytest.mark.parametrize("spread", [1.0, 10.0, 20.0, 40.0])
def test_agm_ellipe_matches_scipy(spread):
    # k' = b/a over e^-spread .. 1 (axes over e^+-spread/2, both orders);
    # scipy gets m = 1 - k'^2 as -expm1(2 log k'), exact for small k'
    rng = np.random.default_rng(int(spread))
    A = _log_spread_axes(rng, 4000, 2, spread)
    kp = A.min(axis=1) / A.max(axis=1)
    want = ellipe(-np.expm1(2.0 * np.log(kp)))
    got = elliptic_e_agm(kp)
    assert np.max(np.abs(got - want) / want) <= 1e-14
    # the batch V_1 of an ellipse is 2 a E
    got_v1 = batch_ellipsoid_intrinsic_volumes(A, [1])[1]
    want_v1 = 2.0 * A.max(axis=1) * want
    assert np.max(np.abs(got_v1 - want_v1) / want_v1) <= 1e-14


def test_agm_ellipe_on_flat_ellipses():
    # below k' = 1e-8, 1 - k'^2 rounds to 1: an AGM started from m would
    # stall, one started from k' converges to E just above 1
    kp = np.array([1e-8, 3e-9, 1e-12, 1e-20, 1e-100, 1e-300])
    got = elliptic_e_agm(kp)
    want = ellipe(-np.expm1(2.0 * np.log(kp)))
    assert np.max(np.abs(got - want) / want) <= 1e-14
    assert np.all(got >= 1.0)
    np.testing.assert_allclose(elliptic_e_agm(np.array([1.0])), [math.pi / 2.0], rtol=1e-15)
    with pytest.raises(QuadratureError):  # no AGM from k' = 0
        elliptic_e_agm(np.array([0.5, 0.0]))


@pytest.mark.parametrize("spread", [1.0, 10.0, 20.0, 40.0])
def test_carlson_rg_matches_scipy(spread):
    # arguments are squared axes and their pairwise products, as the n = 3
    # V_1 and V_2 use them: log-spreads up to e^+-40 in the arguments
    rng = np.random.default_rng(100 + int(spread))
    A2 = _log_spread_axes(rng, 4000, 3, spread) ** 2
    for args in ((A2[:, 0], A2[:, 1], A2[:, 2]),
                 (A2[:, 1] * A2[:, 2], A2[:, 0] * A2[:, 2], A2[:, 0] * A2[:, 1])):
        want = elliprg(*args)
        for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            got = carlson_rg(*(args[i] for i in perm))
            assert np.max(np.abs(got - want) / want) <= 1e-14
    # the symmetric corners: R_G(x, x, x) = sqrt(x)
    np.testing.assert_allclose(carlson_rg(4.0, 4.0, 4.0), 2.0, rtol=1e-15)


def test_carlson_rg_has_the_same_bits_in_every_order():
    # the compare-exchange sort picks values without arithmetic, so all six
    # orders of the arguments, ties among them, give one result bit for bit
    rng = np.random.default_rng(110)
    A2 = _log_spread_axes(rng, 4000, 3, 20.0) ** 2
    A2[:500, 1] = A2[:500, 0]
    A2[500:600] = A2[500:600, :1]
    want = carlson_rg(A2[:, 0], A2[:, 1], A2[:, 2])
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(carlson_rg(*(A2[:, i] for i in perm)), want)


def test_elliptic_kernels_refuse_to_return_unconverged_values(monkeypatch):
    # both iterations stop at a fixed cap; rows still moving then raise
    import intgeo.volumes as vol

    monkeypatch.setattr(vol, "_ELLIPTIC_STEPS", 2)
    A = np.array([[1.0, 1e-6, 3.0]])
    with pytest.raises(QuadratureError):
        batch_ellipsoid_intrinsic_volumes(A[:, :2], [1])
    with pytest.raises(QuadratureError):
        batch_ellipsoid_intrinsic_volumes(A, [1])


@pytest.mark.parametrize("bad", [[np.inf, 1.0], [1.0, -1.0, 1.0], [0.0, 1.0, 1.0],
                                 [1.0, np.nan, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, -np.inf]],
                         ids=["inf-n2", "negative-n3", "zero-n3", "nan-n4", "neg-inf-n5"])
def test_batch_refuses_rows_outside_the_domain(bad):
    # one bad row fails the batch at every n and for every js, instead of
    # V_1 = inf, a negative volume, or a NaN that slips past the grid floor
    n = len(bad)
    A = np.array([[1.0] * n, bad])
    for js in (range(n + 1), [0], [n], [1]):
        with pytest.raises(QuadratureError):
            batch_ellipsoid_intrinsic_volumes(A, js)


@pytest.mark.parametrize("axes, j", [([1e200, 1e200], 2), ([1e100, 1e100, 1.0], 2),
                                     ([1e120, 1e120, 1e120], 3)])
def test_batch_refuses_values_that_overflow(axes, j):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(QuadratureError):
            batch_ellipsoid_intrinsic_volumes(np.array([axes]), [j])


def test_closed_intrinsic_volumes_bodies():
    np.testing.assert_allclose(closed_intrinsic_volumes(bd.unit_ball(2)),
                               [1.0, math.pi, math.pi], atol=1e-12)
    np.testing.assert_allclose(closed_intrinsic_volumes(box2(0.0, 2.0, 0.0, 1.0)),
                               [1.0, 3.0, 2.0], atol=1e-12)
    sq = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(closed_intrinsic_volumes(sq),
                               [1.0, 2.0, 1.0], atol=1e-12)
    tri = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(closed_intrinsic_volumes(tri),
                               [1.0, 1.0 + math.sqrt(2.0) / 2.0, 0.5], atol=1e-12)
    with pytest.raises(ValueError):
        closed_intrinsic_volumes(bd.VPolytope(np.zeros((4, 3))))


def test_cube_values():
    # a cube of side s has V_j = binom(n, j) s^j
    for n in (1, 2, 3, 4):
        want = [math.comb(n, j) * 0.7**j for j in range(n + 1)]
        np.testing.assert_allclose(closed_intrinsic_volumes(bd.cube(n, side=0.7)),
                                   want, rtol=0.0, atol=1e-14)


def test_closed_intrinsic_volumes_of_a_flat_ellipse():
    # semiaxes e^8 and e^-8: area pi and half perimeter 2 e^8 E(1 - e^-32),
    # from the closed forms, without quadrature warnings
    ell = bd.Ellipsoid(np.zeros(2), np.eye(2), [np.exp(8.0), np.exp(-8.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = closed_intrinsic_volumes(ell)
    want = [1.0, 2.0 * np.exp(8.0) * ellipe(1.0 - np.exp(-32.0)), math.pi]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_closed_intrinsic_volumes_of_flat_polygons():
    # a flat polygon's V_1 is the length between its ends: a segment, a
    # collinear set out of order, a point
    for vertices, length in (([[0.0, 0.0], [3.0, 4.0]], 5.0),
                             ([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, 2.0]],
                              3.0 * math.sqrt(2.0)),
                             ([[1.0, 2.0]], 0.0)):
        np.testing.assert_allclose(closed_intrinsic_volumes(bd.VPolytope(vertices)),
                                   [1.0, length, 0.0], rtol=0.0, atol=1e-15)


def test_intrinsic_volumes_are_additive_on_box_union():
    # valuation property: V_j(A) + V_j(B) - V_j(A cap B) equals the union's
    # hand-computed values (chi 1, half-perimeter 4.5, area 3.5)
    A = box2(0.0, 2.0, 0.0, 1.0)
    B = box2(1.0, 3.0, 0.5, 1.5)
    I = box2(1.0, 2.0, 0.5, 1.0)
    total = (closed_intrinsic_volumes(A) + closed_intrinsic_volumes(B)
             - closed_intrinsic_volumes(I))
    np.testing.assert_allclose(total, [1.0, 4.5, 3.5], atol=1e-12)


def test_euler_and_volume_exact():
    assert abs(volume_exact(bd.Ball(np.zeros(2), 2.0)) - 4.0 * math.pi) < 1e-12
    ell = bd.Ellipsoid(np.zeros(3), np.eye(3), [1.0, 2.0, 3.0])
    assert abs(volume_exact(ell) - kappa(3) * 6.0) < 1e-12
    assert abs(volume_exact(bd.cube(3, side=2.0)) - 8.0) < 1e-9
    seg = bd.VPolytope([[0.0, 0.0], [1.0, 0.0]])  # flat: zero area
    assert volume_exact(seg) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_volume_exact_of_an_axis_aligned_box_is_its_side_product(n):
    # no vertex enumeration, so n >= 4 works too; where the hull exists
    # (n <= 3) the two agree
    lo = -0.5 - 0.1 * np.arange(n)
    hi = 0.3 + 0.7 * np.arange(n)
    box = bd.HPolytope(np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([hi, -lo]))
    assert volume_exact(box) == float(np.prod(hi - lo))
    if n <= 3:
        hull = volume_exact(bd.VPolytope(bd.vertex_set(box)))
        assert volume_exact(box) == pytest.approx(hull, rel=1e-12)
    # a cut box is no box: at n >= 4 it still has no exact volume
    cut = bd.HPolytope(np.vstack([box.normals, np.ones((1, n))]),
                       np.append(box.offsets, 0.5 * np.sum(hi)))
    if n >= 4:
        with pytest.raises(NotImplementedError):
            volume_exact(cut)


def test_steiner_fit_square():
    sq = bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    fit = steiner_fit(sq, [0.25, 0.5, 0.75, 1.0], 200000, 3)
    for j, want in enumerate([1.0, 2.0, 1.0]):
        assert abs(fit.values[j] - want) < 4.0 * max(fit.std_errors[j], 1e-6)
    d = fit.to_dict()
    assert set(d) >= {"values", "std_errors", "radii", "measured"}


def test_steiner_fit_needs_enough_radii():
    with pytest.raises(ValueError):
        steiner_fit(bd.unit_ball(2), [0.5, 1.0], 1000, 0)
    with pytest.raises(ValueError):
        steiner_fit(bd.unit_ball(2), [0.5, -1.0, 1.0], 1000, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_steiner_fit_refuses_radii_that_are_not_finite(monkeypatch, bad):
    # a NaN or inf radius was drawn at, and the fit read NaN
    monkeypatch.setattr(vol.bd, "distance_to_body", lambda *a, **k: pytest.fail("drew"))
    with pytest.raises(ValueError, match="finite"):
        steiner_fit(bd.unit_ball(2), [0.5, bad, 1.0], 1000, 0)


@pytest.mark.parametrize("samples", [0, 2], ids=["none", "fewer-than-radii"])
def test_steiner_fit_refuses_fewer_samples_than_radii(monkeypatch, samples):
    # each radius drew one point anyway, and three points fitted a disc's V
    # as (47.1, -68, 31)
    monkeypatch.setattr(vol.bd, "distance_to_body", lambda *a, **k: pytest.fail("drew"))
    with pytest.raises(ValueError, match="one sample per radius"):
        steiner_fit(bd.unit_ball(2), [0.25, 0.5, 0.75], samples, 1)

