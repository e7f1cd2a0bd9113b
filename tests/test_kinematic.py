import math

import numpy as np
import pytest

from intgeo import bodies as bd
from intgeo import linprog
from intgeo.estimation import CHUNK_SAMPLES, EstimatorResult, z_score
from intgeo.kinematic import (GROUPS, _congruence, build_report,
                              crofton_coefficient, lhs_kinematic, merge_lhs,
                              rhs_hadwiger_gl, separation_lemma_check)
from intgeo.volumes import (Valuation, closed_intrinsic_volumes,
                            euler_valuation, kappa, volume_exact)


def test_groups_table():
    assert set(GROUPS) == {"gl", "o", "so"}


def test_lhs_input_validation():
    with pytest.raises(ValueError):
        lhs_kinematic("sp", "chi", bd.unit_ball(2), bd.unit_ball(2), 10, 0)
    with pytest.raises(ValueError):
        lhs_kinematic("gl", "girth", bd.unit_ball(2), bd.unit_ball(2), 10, 0)
    with pytest.raises(ValueError):
        lhs_kinematic("gl", "chi", bd.unit_ball(2), bd.unit_ball(3), 10, 0)


def test_rigid_chi_baseline_two_balls():
    # area of positions where a rigid unit disc meets another: |2 B^2| = 4 pi
    res = lhs_kinematic("so", "chi", bd.unit_ball(2), bd.unit_ball(2), 50000, 3)
    assert z_score(res.mean, res.std_error, 4.0 * math.pi) < 4.0


def test_rigid_chi_square_vs_disc():
    # chi integral = area(square + disc) = 4 + 8 + pi for a side-2 square
    sq = bd.cube(2, side=2.0, centered=True)
    res = lhs_kinematic("so", "chi", sq, bd.unit_ball(2), 3000, 5)
    assert z_score(res.mean, res.std_error, 12.0 + math.pi) < 4.0


@pytest.mark.parametrize("M, L", [
    (bd.unit_ball(2), bd.unit_ball(2)),
    # both polytope membership kernels: halfspaces and a vertex hull
    (bd.cube(2, side=2.0, centered=True),
     bd.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
], ids=["balls", "hsquare-vtriangle"])
def test_gl_volume_fubini(M, L):
    # separability: E[vol(M cap (gL + t)) dt] = vol(M) vol(L) E[det e^X],
    # and E[det e^X] = E[e^(tr X)] = e^(n/2)
    res = lhs_kinematic("gl", "volume", M, L, 30000, 7)
    want = volume_exact(M) * volume_exact(L) * math.e
    assert z_score(res.mean, res.std_error, want) < 4.0


def rot3(i, j, theta):
    R = np.eye(3)
    c, s = np.cos(theta), np.sin(theta)
    R[i, i] = R[j, j] = c
    R[i, j], R[j, i] = -s, s
    return R


TILTED = bd.Ellipsoid([0.2, -0.1, 0.3], rot3(0, 1, 0.7) @ rot3(1, 2, 0.4),
                      [1.2, 0.8, 0.5])
OFFSET_BALL = bd.Ball([0.1, 0.0, -0.2], 0.9)
HEX = bd.HPolytope([[np.cos(a), np.sin(a)] for a in np.arange(6) * np.pi / 3 + 0.2],
                   [1.0, 0.9, 1.1, 1.0, 0.8, 1.2])


@pytest.mark.parametrize("group, phi, M, L, samples, seed, inner, want", [
    ("gl", "chi", bd.unit_ball(3), bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6]),
     10000, 41, 256, (122.89850320635117, 8.708504791450766)),
    ("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 5000, 42, 256,
     (27.753027247557906, 1.725218795839909)),
    # one row per block of inner points
    ("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 24, 43, 70000,
     (11.537754843579522, 5.958042536569975)),
    ("gl", "volume", OFFSET_BALL, TILTED, 3000, 44, 64,
     (25.377636071169245, 6.906870833672457)),
    ("o", "chi", TILTED, OFFSET_BALL, 6000, 45, 256,
     (21.73716140889618, 0.2725338420609622)),
], ids=["chi-ball-ellipsoid", "volume-discs", "volume-discs-70000",
        "volume-ball-tilted", "chi-tilted-ball"])
def test_quadric_lhs_is_pinned(group, phi, M, L, samples, seed, inner, want):
    # the closed-form ball/ellipsoid estimates, bit for bit: a faster kernel
    # may change neither the order of the draws nor a single hit decision
    res = lhs_kinematic(group, phi, M, L, samples, seed, inner_samples=inner)
    assert (res.mean, res.std_error) == want


@pytest.mark.parametrize("M, L, samples, seed", [
    (bd.unit_ball(2), bd.Ellipsoid([0.1, 0.2], np.eye(2), [1.4, 0.5]), 20000, 46),
    (bd.unit_ball(3), bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6]), 20000, 47),
    (HEX, bd.cube(2, side=1.5, centered=True), 3000, 48),
], ids=["ball-ellipse", "ball-ellipsoid", "hpolygons"])
def test_exact_and_hit_or_miss_lhs_agree(M, L, samples, seed):
    # two estimates of one integral from the same draws of g: hit-or-miss
    # over t, and t integrated exactly by bodies.difference_volumes
    res = lhs_kinematic("gl", "chi", M, L, samples, seed)
    assert res.exact is not None and res.exact.samples == samples
    assert z_score(res.mean, res.std_error, res.exact.mean, res.exact.std_error) < 4.0
    assert res.exact.std_error < res.std_error


@pytest.mark.parametrize("group", ["o", "so"])
@pytest.mark.parametrize("M, L", [
    (bd.Ball([0.3, -0.2, 0.1], 0.7), TILTED),
    (bd.Ball([1.0, 0.5], 1.3), bd.VPolytope([[0.0, 0.0], [1.0, 0.2], [0.4, 0.9]])),
], ids=["ball-tilted", "ball-triangle"])
def test_compact_exact_lhs_is_the_steiner_sum(group, M, L):
    # under rotations vol(rB + (-kL)) does not depend on k: the exact LHS is
    # sum_j kappa_(n-j) r^(n-j) V_j(L), and each term is V_j(L)
    n = M.dim
    res = lhs_kinematic(group, "chi", M, L, 5000, 49)
    vL = closed_intrinsic_volumes(L)
    want = sum(kappa(n - j) * M.radius ** (n - j) * vL[j] for j in range(n + 1))
    assert res.exact.mean == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose([t.mean for t in res.terms], vL, rtol=1e-12)


def test_lhs_terms_match_c_j_one_j_at_a_time():
    # E_g V_j(gL) = c_j V_j(L) for every j on the anisotropic, off-center
    # TILTED: the paper's claim that c_j does not depend on L, j by j
    rep = build_report("gl", "chi", bd.unit_ball(3), TILTED, samples=30000, seed=57,
                       cj_samples=30000, crofton_samples=3000)
    assert rep.lhs_estimator == "translation-exact"
    assert [t["j"] for t in rep.lhs_terms] == [0, 1, 2, 3]
    assert all(t["z"] < 3.0 for t in rep.lhs_terms)
    assert rep.lhs_terms[0]["mean"] == 1.0 and rep.lhs_terms[0]["std_error"] == 0.0


def test_report_headline_and_hit_or_miss_blocks():
    # an exact headline carries the hit-or-miss estimate with its own z;
    # a pair without a closed form (the volume phi) keeps the old layout
    # the LHS stage is the first chunk of the seed's plan
    stream = np.random.default_rng(np.random.SeedSequence(58).spawn(1)[0])
    lhs = merge_lhs([lhs_kinematic("gl", "chi", bd.unit_ball(2), bd.unit_ball(2),
                                   4000, stream)], 58)
    rep = build_report("gl", "chi", bd.unit_ball(2), bd.unit_ball(2), 4000, 58,
                       cj_samples=2000, crofton_samples=2000)
    d = rep.to_dict()
    assert d["lhs_estimator"] == "translation-exact"
    assert d["lhs"] == lhs.exact.to_dict()
    assert d["hit_or_miss"]["lhs"] == lhs.to_dict()
    assert d["hit_or_miss"]["z_half"] == z_score(lhs.mean, lhs.std_error,
                                                  d["rhs"]["rhs_half"], d["rhs"]["se_half"])
    assert d["z_half"] == z_score(lhs.exact.mean, lhs.exact.std_error,
                                  d["rhs"]["rhs_half"], d["rhs"]["se_half"])
    assert len(d["lhs_terms"]) == 3
    rep = build_report("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 200, 59,
                       inner_samples=16, cj_samples=2000, crofton_samples=200)
    assert set(rep.to_dict()) == {"group", "phi", "n", "seed", "samples", "lhs", "rhs",
                                  "constants", "crofton", "z_total", "z_half",
                                  "convention"}
    assert rep.lhs_estimator == "hit-or-miss"


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_congruence_has_the_bits_of_the_three_operand_einsum(n):
    # the LHS forms exp(X) and exp(-X) by the ordered loop; the einsum it
    # replaced is the reference, equal to the last bit
    rng = np.random.default_rng(70 + n)
    X = rng.standard_normal((500, n, n))
    lam, V = np.linalg.eigh(X + np.swapaxes(X, 1, 2))
    for w in (np.exp(lam), np.exp(-lam)):
        assert np.array_equal(_congruence(V, w), np.einsum("bij,bj,bkj->bik", V, w, V))


@pytest.mark.parametrize("M, L", [
    (bd.cube(4, side=2.0, centered=True), bd.unit_ball(4)),
    (bd.Ellipsoid(np.zeros(4), np.eye(4), [1.0, 0.5, 0.5, 2.0]),
     bd.VPolytope(np.vstack([np.zeros(4), np.eye(4)]))),
], ids=["hcube-ball", "ellipsoid-vsimplex"])
def test_chi_quadric_vs_polytope_refused_above_3d(M, L):
    # the intersection test needs polytope distances, which stop at n = 3;
    # the refusal comes before anything is drawn
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n <= 3"):
        lhs_kinematic("so", "chi", M, L, 100, rng)
    assert rng.bit_generator.state == state
    # volume needs only membership, which works in any dimension
    res = lhs_kinematic("so", "volume", M, L, 20, 1, inner_samples=8)
    assert np.isfinite(res.mean)


PENT = bd.VPolytope([[np.cos(a) * 0.9, np.sin(a) * 0.6]
                     for a in np.arange(5) * 2.0 * np.pi / 5.0])


@pytest.mark.parametrize("group, phi, M, L, samples, seed, want", [
    ("gl", "chi", HEX, PENT, 500, 51, (15.634476950906032, 0.8752199001449398)),
    ("o", "chi", PENT, bd.cube(2, side=1.5, centered=True), 500, 52,
     (7.853047167788888, 0.215661864403388)),
    ("gl", "chi", bd.cube(3, side=1.2, centered=True),
     bd.VPolytope(np.vstack([np.zeros(3), np.eye(3)]) - 0.25), 200, 53,
     (22.369360539827557, 4.420763818338408)),
    ("gl", "volume", HEX, PENT, 300, 54, (13.164424813403258, 3.6284545158522006)),
], ids=["chi-hhex-vpent", "chi-vpent-hsquare", "chi-hcube-vsimplex", "volume-hhex-vpent"])
def test_polytope_lhs_matches_the_lp_route(group, phi, M, L, samples, seed, want):
    # values of the per-sample LP route (support LPs for the box of gL, the
    # intersection LP for chi); the vertex-set boxes move them by rounding
    # only, and the separating-axis test must take every hit decision alike
    res = lhs_kinematic(group, phi, M, L, samples, seed, inner_samples=64)
    assert res.mean == pytest.approx(want[0], rel=1e-12)
    assert res.std_error == pytest.approx(want[1], rel=1e-12)


def test_polygon_lp_count_does_not_grow_with_samples(monkeypatch):
    # H-polygon LHS boxes and chi, and Crofton point and line flats, solve
    # no LP per sample: the count is the same at any budget
    M = bd.HPolytope(HEX.normals, HEX.offsets)
    L = bd.cube(2, side=1.5, centered=True)
    calls = []
    solve = linprog.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(linprog, "solve_lp", counting)
    counts = []
    for samples in (50, 2000):
        calls.clear()
        lhs_kinematic("gl", "chi", M, L, samples, 1)
        counts.append(len(calls))
        # Crofton's window takes the outer radius from the vertex set too
        for j in (0, 1, 2):
            crofton_coefficient("chi", M, j, samples, 2 + j)
        assert len(calls) == counts[-1]
    assert counts[0] == counts[1]


def test_segments_take_interval_kernels():
    # a 1-D V-polytope: its volume is its length, membership an interval
    # test, and the volume LHS obeys the Fubini anchor vol(M) vol(L) e^(1/2)
    seg = bd.VPolytope([[0.0], [1.0]])
    assert volume_exact(seg) == 1.0
    inside = bd.contains_points(seg, np.array([[0.5], [1.0 + 1e-10], [-0.01], [1.5]]))
    assert inside.tolist() == [True, True, False, False]
    assert crofton_coefficient("volume", seg, 1, 10, 0).mean == 1.0
    res = lhs_kinematic("gl", "volume", seg, seg, 20000, 12, inner_samples=16)
    assert z_score(res.mean, res.std_error, math.sqrt(math.e)) < 4.0


def test_gl_chi_interval_anchor():
    # n = 1: box length is 2 + 2 e^x, so the integral is 2 + 2 sqrt(e)
    seg = bd.cube(1, side=2.0, centered=True)
    res = lhs_kinematic("gl", "chi", seg, seg, 6000, 11)
    assert z_score(res.mean, res.std_error, 2.0 + 2.0 * math.sqrt(math.e)) < 4.0


def test_custom_valuation_matches_chi_path():
    # a custom valuation equal to chi must retrace the chi estimate exactly
    # (same group samples, intersection emptiness decided consistently)
    sq = bd.cube(2, side=2.0, centered=True)
    small = bd.cube(2, side=1.0, centered=True)
    chi_like = Valuation("unit-mass", lambda body: 1.0, degree=0.0)
    a = lhs_kinematic("gl", "chi", sq, small, 1200, 13)
    b = lhs_kinematic("gl", chi_like, sq, small, 1200, 13)
    assert abs(a.mean - b.mean) < 1e-9
    assert abs(a.std_error - b.std_error) < 1e-9


def test_custom_valuation_needs_hpolytopes():
    chi_like = Valuation("unit-mass", lambda body: 1.0)
    with pytest.raises(ValueError):
        lhs_kinematic("gl", chi_like, bd.unit_ball(2), bd.unit_ball(2), 10, 0)


def test_crofton_chi_normalization_disc():
    # flats meeting the unit ball carry mass kappa_(n-j)
    res = crofton_coefficient("chi", bd.unit_ball(2), 1, 100000, 3,
                              window_radius=2.0)
    assert z_score(res.mean, res.std_error, kappa(1)) < 4.0
    res = crofton_coefficient("chi", bd.unit_ball(2), 0, 100000, 4,
                              window_radius=2.0)
    assert z_score(res.mean, res.std_error, kappa(2)) < 4.0
    exact = crofton_coefficient("chi", bd.unit_ball(2), 2, 10, 5)
    assert exact.mean == 1.0 and exact.std_error == 0.0


def test_crofton_chi_polytope_path():
    sq = bd.cube(2, side=2.0, centered=True)
    # flats hitting the square: measure = perimeter... use the disc identity
    # via a slower generic sampler on a V-polytope disc approximation instead;
    # here simply check the estimate is finite, positive, and window-stable
    r1 = crofton_coefficient("chi", sq, 1, 4000, 6, window_radius=2.0)
    r2 = crofton_coefficient("chi", sq, 1, 4000, 7, window_radius=3.0)
    assert r1.mean > 0 and r2.mean > 0
    assert z_score(r1.mean, r1.std_error, r2.mean, r2.std_error) < 4.0


def test_crofton_volume_is_analytic():
    res = crofton_coefficient("volume", bd.unit_ball(2), 1, 100, 0)
    assert res.mean == 0.0 and res.std_error == 0.0
    res = crofton_coefficient("volume", bd.unit_ball(2), 2, 100, 0)
    assert abs(res.mean - math.pi) < 1e-12 and res.std_error == 0.0


def test_crofton_window_must_dominate():
    with pytest.raises(ValueError):
        crofton_coefficient("chi", bd.unit_ball(2), 1, 100, 0, window_radius=0.5)
    with pytest.raises(ValueError):
        crofton_coefficient(Valuation("w", lambda b: 2.0), bd.unit_ball(2),
                            1, 100, 0)


def test_rhs_assembly_propagates_errors():
    constants = {0: EstimatorResult(1.0, 0.0, 10, 0),
                 1: EstimatorResult(2.0, 0.1, 10, 0),
                 2: EstimatorResult(3.0, 0.2, 10, 0)}
    crofton = {0: EstimatorResult(math.pi, 0.05, 10, 0),
               1: EstimatorResult(2.0, 0.0, 10, 0),
               2: EstimatorResult(1.0, 0.0, 10, 0)}
    rhs = rhs_hadwiger_gl("chi", bd.unit_ball(2), bd.unit_ball(2),
                          constants, crofton)
    want_half = 1.0 * math.pi * 1.0 + 2.0 * 2.0 * math.pi + 3.0 * 1.0 * math.pi
    assert abs(rhs["rhs_half"] - want_half) < 1e-12
    assert abs(rhs["rhs_total"] - 2.0 * want_half) < 1e-12
    assert rhs["se_half"] > 0.0
    assert len(rhs["terms"]) == 3


def test_build_report_compact_group_uses_exact_constants():
    rep = build_report("so", "chi", bd.unit_ball(2), bd.unit_ball(2),
                       20000, 31, cj_samples=100, crofton_samples=30000)
    for j in range(3):
        assert rep.constants[j].mean == 1.0
        assert rep.constants[j].std_error == 0.0
    # Sigma_j kappa_(2-j) V_j(B^2) = 4 pi; the rigid LHS matches unhalved
    assert rep.convention in ("half", "total")
    z_best = min(rep.z_half, rep.z_total)
    assert z_best < 4.0
    d = rep.to_dict()
    assert d["group"] == "so" and d["n"] == 2
    rows = rep.csv_rows()
    assert rows[0] == ["j", "c_j", "phi_coeff", "v_j", "term", "std_error"]
    assert len(rows) == 4


def test_build_report_injection_paths():
    constants = {j: EstimatorResult(1.0, 0.0, 1, 7) for j in range(3)}
    rep = build_report("so", "chi", bd.unit_ball(2), bd.unit_ball(2),
                       1000, 7, crofton_samples=20000, constants=constants)
    # two discs under rigid motions: vol(M + (-gL)) is 4 pi for every g
    assert rep.lhs.mean == pytest.approx(4.0 * math.pi) and rep.lhs.std_error < 1e-12
    assert rep.constants is constants
    assert min(rep.z_half, rep.z_total) < 4.0
    # injected constants leave the c_j stage's streams unused, so the
    # other stages draw what they draw when c_j is estimated
    drawn = build_report("gl", "chi", bd.unit_ball(2), bd.unit_ball(2), 1000, 7,
                         cj_samples=2000, crofton_samples=2000)
    injected = build_report("gl", "chi", bd.unit_ball(2), bd.unit_ball(2), 1000, 7,
                            cj_samples=2000, crofton_samples=2000,
                            constants=drawn.constants)
    assert injected.to_dict() == drawn.to_dict()


def test_stage_streams_never_collide(monkeypatch):
    # the LHS, c_j and every Crofton stage span two chunks; each chunk must
    # start from its own generator state
    from intgeo import kinematic, weyl

    states = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            rng = next(a for a in args if isinstance(a, np.random.Generator))
            state = rng.bit_generator.state["state"]
            states.append((state["state"], state["inc"]))
            return fn(*args, **kwargs)
        return wrapped

    for mod, name in ((kinematic, "lhs_kinematic"), (weyl, "c_direct"),
                      (kinematic, "crofton_coefficient")):
        monkeypatch.setattr(mod, name, recording(getattr(mod, name)))
    two = CHUNK_SAMPLES + 300
    build_report("gl", "chi", bd.unit_ball(2), bd.unit_ball(2), two, 5,
                 cj_samples=two, crofton_samples=two)
    assert len(states) == 2 * (2 + 3)
    assert len(set(states)) == len(states)


def test_separation_lemma_random_polygons():
    rng = np.random.default_rng(17)
    M = bd.random_polytope(2, 8, rng)
    L = bd.random_polytope(2, 8, rng)
    res = separation_lemma_check(M, L, 150, rng)
    assert res.trials == 150
    assert res.disagreements == 0
    assert res.agreements + res.boundary_skips == 150
    assert set(res.stratum_counts) == {"interior", "boundary", "exterior"}
    d = res.to_dict()
    assert d["disagreements"] == 0


@pytest.mark.parametrize("M, L", [
    (bd.VPolytope([[0.0, 0.0]]), bd.VPolytope([[0.0, 0.0], [1.0, 0.0]])),
    (bd.VPolytope([[0.0, 1.0]]), bd.VPolytope([[2.0, 0.0]])),
], ids=["point-segment", "point-point"])
def test_lemma_check_refuses_flat_difference_bodies(M, L):
    with pytest.raises(ValueError, match="2-D difference body"):
        separation_lemma_check(M, L, 10, 0)


def test_chi_and_volume_string_or_valuation_agree():
    # passing the Valuation wrapper dispatches identically to the string name
    res_s = lhs_kinematic("so", "chi", bd.unit_ball(2), bd.unit_ball(2), 5000, 23)
    res_v = lhs_kinematic("so", euler_valuation(), bd.unit_ball(2),
                          bd.unit_ball(2), 5000, 23)
    assert abs(res_s.mean - res_v.mean) < 1e-12
