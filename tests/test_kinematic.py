import math
from pathlib import Path

import numpy as np
import pytest

from intgeo import bodies as bd
from intgeo import kinematic as kin
from intgeo import linprog
from intgeo import symmetric as sym
from intgeo.estimation import CHUNK_SAMPLES, EstimatorResult, z_score
from intgeo.kinematic import (GROUPS, build_report,
                              crofton_coefficient, lhs_kinematic, merge_lhs,
                              rhs_hadwiger_gl, separation_lemma_check)
from intgeo.symmetric import congruence
from intgeo.volumes import Valuation, closed_intrinsic_volumes, kappa, volume_exact


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
PENT = bd.VPolytope([[np.cos(a) * 0.9, np.sin(a) * 0.6]
                     for a in np.arange(5) * 2.0 * np.pi / 5.0])


# recorded with the batched Jacobi kernels of symmetric; with LAPACK's eigh,
# SVD and QR the same draws make the same hit decisions and move the
# estimates by rounding only (test_pinned_rows_match_the_lapack_kernels)
PINNED_LHS = pytest.mark.parametrize("group, phi, M, L, samples, seed, inner, want", [
    # the hit-or-miss check of a gl chi pair with a translation-exact form:
    # plain draws after the exact loop's lattice, the trace tilted by 1/2
    ("gl", "chi", bd.unit_ball(3), bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6]),
     10000, 41, 256, (107.3213661411892, 6.844014310392289)),
    # the volume rows share each g over _VOLUME_ROWS_PER_G consecutive rows
    ("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 5000, 42, 256,
     (27.593350069397122, 0.6475761826697097)),
    # one row per block of inner points
    ("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 24, 43, 70000,
     (20.752106686059307, 6.270512549852507)),
    ("gl", "volume", OFFSET_BALL, TILTED, 3000, 44, 64,
     (25.70003844411055, 1.848374789270243)),
    # the compact groups draw no X, so the trace tilt leaves them alone
    ("o", "volume", OFFSET_BALL, TILTED, 3000, 44, 64,
     (6.327558266685919, 0.2301916831648061)),
    ("so", "volume", OFFSET_BALL, TILTED, 3000, 44, 64,
     (6.276299029632641, 0.226043833762423)),
    ("o", "chi", TILTED, OFFSET_BALL, 6000, 45, 256,
     (21.73716140889618, 0.2725338420609622)),
], ids=["chi-ball-ellipsoid", "volume-discs", "volume-discs-70000",
        "volume-ball-tilted", "volume-ball-tilted-o", "volume-ball-tilted-so",
        "chi-tilted-ball"])


@PINNED_LHS
def test_quadric_lhs_is_pinned(group, phi, M, L, samples, seed, inner, want):
    # the closed-form ball/ellipsoid estimates, bit for bit: a faster kernel
    # may change neither the order of the draws nor a single hit decision
    res = lhs_kinematic(group, phi, M, L, samples, seed, inner_samples=inner)
    assert (res.mean, res.std_error) == want


def _lapack_frames(A):
    U, s, _ = np.linalg.svd(A)
    return U, s


def _lapack_factor(G):
    Q, R = np.linalg.qr(G)
    d = np.sign(np.einsum("mii->mi", R))
    d[d == 0] = 1.0
    Q = Q * d[:, None, :]
    return Q, np.linalg.det(Q)


@PINNED_LHS
def test_pinned_rows_match_the_lapack_kernels(monkeypatch, group, phi, M, L, samples,
                                              seed, inner, want):
    # the same draws through LAPACK's eigh, SVD (the frames of the hit test
    # and the semiaxes of the exact loop's V_j) and QR: every hit decision
    # agrees (one flipped hit moves the mean by >= 1/samples of a box), and
    # the estimates differ by rounding only
    new = lhs_kinematic(group, phi, M, L, samples, seed, inner_samples=inner)
    monkeypatch.setattr(kin, "eigh_sym", np.linalg.eigh)
    monkeypatch.setattr(bd, "singular_frames", _lapack_frames)
    monkeypatch.setattr(sym, "orthonormal_factor", _lapack_factor)
    old = lhs_kinematic(group, phi, M, L, samples, seed, inner_samples=inner)
    pairs = [(new, old)] + ([(new.exact, old.exact)] if old.exact else [])
    pairs += list(zip(new.terms, old.terms)) if old.terms else []
    for a, b in pairs:
        assert a.mean == pytest.approx(b.mean, rel=1e-12, abs=0.0)
        assert a.std_error == pytest.approx(b.std_error, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("M, L, samples, seed, inner", [
    (bd.unit_ball(2), bd.unit_ball(2), 5000, 42, 256),
    (bd.unit_ball(2), bd.unit_ball(2), 24, 43, 70000),
    (OFFSET_BALL, TILTED, 3000, 44, 64),
    (HEX, PENT, 300, 54, 64),
], ids=["discs", "discs-70000", "ball-tilted", "hhex-vpent"])
def test_gl_volume_lhs_meets_the_fubini_anchor(M, L, samples, seed, inner):
    # the gl volume pairs pinned in this module, each within 3 sigma of
    # E_g vol(M) vol(gL) = e^(n/2) vol(M) vol(L)
    res = lhs_kinematic("gl", "volume", M, L, samples, seed, inner_samples=inner)
    want = math.exp(M.dim / 2.0) * volume_exact(M) * volume_exact(L)
    assert z_score(res.mean, res.std_error, want) < 3.0


def test_interval_coverage_of_the_volume_lhs():
    # the nominal 95% interval of the volume-phi hit-or-miss LHS, over 200
    # replicates, against the Fubini anchor e pi^2 of two unit discs. Rows
    # share each g (_VOLUME_ROWS_PER_G), so the row SE is unbiased only if
    # those rows are uncorrelated: the replicates' own sd must match it
    disc = bd.unit_ball(2)
    want = math.e * math.pi**2
    means, ses = [], []
    for seed in range(5000, 5200):
        est = lhs_kinematic("gl", "volume", disc, disc, 2000, seed, inner_samples=4)
        assert est.samples == 2000
        means.append(est.mean)
        ses.append(est.std_error)
    means, ses = np.array(means), np.array(ses)
    covered = np.count_nonzero(np.abs(means - want) <= 1.96 * ses)
    assert 0.90 <= covered / 200 <= 1.0, f"{covered}/200"
    assert np.std(means, ddof=1) == pytest.approx(np.mean(ses), rel=0.15)


@pytest.mark.parametrize("M, L, samples, seed", [
    (bd.unit_ball(2), bd.Ellipsoid([0.1, 0.2], np.eye(2), [1.4, 0.5]), 20000, 46),
    (bd.unit_ball(3), bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6]), 20000, 47),
    (HEX, bd.cube(2, side=1.5, centered=True), 3000, 48),
], ids=["ball-ellipse", "ball-ellipsoid", "hpolygons"])
def test_exact_and_hit_or_miss_lhs_agree(M, L, samples, seed):
    # two estimates of one integral, each from its own loop's draws of g:
    # hit-or-miss over t, and t integrated exactly by
    # bodies.difference_volumes
    res = lhs_kinematic("gl", "chi", M, L, samples, seed)
    assert res.exact is not None and res.exact.samples == samples
    assert z_score(res.mean, res.std_error, res.exact.mean, res.exact.std_error) < 4.0
    assert res.exact.std_error < res.std_error


def test_interval_coverage_of_the_exact_lhs():
    # the nominal 95% interval of the trace-integrated exact LHS, over 200
    # replicates, against sum_j kappa_(3-j) c_j V_j(L) with c_j by quadrature
    M = bd.unit_ball(3)
    L = bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6])
    want = 112.26898
    covered = 0
    for seed in range(5000, 5200):
        est = lhs_kinematic("gl", "chi", M, L, 2000, seed).exact
        covered += abs(est.mean - want) <= 1.96 * est.std_error
    assert 0.90 <= covered / 200 <= 1.0, f"{covered}/200"


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload module (perfbench/workloads.py)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


@pytest.mark.parametrize("case", ["hpolygons-300", "ball-ellipsoid-1000"])
def test_lattice_lhs_interval_coverage(workloads, case):
    # the nominal 95% interval of the gl exact LHS, X from the shifted
    # lattice and the SE from SHIFTS shift means (a t law with 15 degrees
    # of freedom puts it near 0.93), over 200 replicates; the polygons'
    # truth is area(M) + c_1 (per M / pi)(per L / 2) + e area(L) with c_1
    # by quadrature (QUADRATURE_C of tests/test_weyl.py)
    if case == "hpolygons-300":  # kin-polytope's M (6 edges) and L (5)
        rng = np.random.default_rng(workloads.POLYGON_SEED)
        M, L = (bd.body_from_dict(workloads._h_polygon(rng, k)) for k in (6, 5))
        vM, vL = closed_intrinsic_volumes(M), closed_intrinsic_volumes(L)
        want = vM[2] + 2.3453315089325 * (2.0 * vM[1] / math.pi) * vL[1] + math.e * vL[2]
        assert want == pytest.approx(26.508335, abs=1e-6)
        samples = 300
    else:
        M, L = bd.unit_ball(3), bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6])
        want, samples = 112.26898, 1000
    covered = 0
    for seed in range(2000, 2200):
        est = lhs_kinematic("gl", "chi", M, L, samples, seed).exact
        covered += abs(est.mean - want) <= 1.96 * est.std_error
    assert 0.90 <= covered / 200 <= 1.0, f"{covered}/200"


def test_tilted_check_interval_coverage():
    # the nominal 95% interval of the gl chi hit-or-miss check (plain rows,
    # the trace tilted by 1/2) over 200 replicates at 2000 rows, against
    # sum_j kappa_(3-j) c_j V_j(L) with c_j by quadrature; untilted, these
    # replicates read coverage 0.865 and sd 22
    M = bd.unit_ball(3)
    L = bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6])
    means, covered = [], 0
    for seed in range(2000, 2200):
        est = lhs_kinematic("gl", "chi", M, L, 2000, seed)
        assert est.samples == 2000 and est.exact.samples == 2000
        means.append(est.mean)
        covered += abs(est.mean - 112.26898) <= 1.96 * est.std_error
    assert covered / 200 >= 0.90, f"{covered}/200"
    assert np.std(means, ddof=1) < 15.0


@pytest.mark.parametrize("phi, M, samples, want", [
    # V_j(k G L) = V_j(G L): the exact loop draws no k
    ("chi", bd.unit_ball(2), 20000,
     {"haar": 10000, "gaussian": 10000, "difference_volumes": 20000,
      "moved_intrinsic_volumes": 20000, "batch_intersects": 10000}),
    # the mixed area reads the support of k G L
    ("chi", HEX, 20000,
     {"haar": 30000, "gaussian": 10000, "difference_volumes": 20000,
      "moved_intrinsic_volumes": 0, "batch_intersects": 10000}),
    # one k and X per _VOLUME_ROWS_PER_G rows: batches of 4096, 4096 and
    # 1809 rows draw 512 + 512 + 227 of each, and every row its own inner
    # points (INNER_SAMPLES of them, tested in M and pulled back into L)
    ("volume", bd.unit_ball(2), 10001,
     {"haar": 1251, "gaussian": 1251, "difference_volumes": 0,
      "moved_intrinsic_volumes": 0, "batch_intersects": 0,
      "points": 2 * kin.INNER_SAMPLES * 10001}),
], ids=["ball", "hpolygon", "volume"])
def test_each_loop_draws_only_what_it_reads(monkeypatch, phi, M, samples, want):
    # the exact loop runs the V_j and difference-volume kernels over samples
    # rows, the hit-or-miss loop draws k and X and runs its integrand over
    # min(samples, stage_samples(samples)) rows (all samples for the volume
    # phi, which has no exact loop), and neither runs the other's kernels
    seen = dict.fromkeys(want, 0)

    def counting(module, name, key, rows):
        # count rows(args, kwargs) rows per call of module.name, where want
        # names the key
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            if key in seen:
                seen[key] += rows(args, kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(kin, "sample_haar_orthogonal", "haar", lambda a, kw: kw["size"])
    counting(kin, "sample_gaussian_sym", "gaussian", lambda a, kw: kw["size"])
    # the rows of G in difference_volumes(M, L, G, vj), moved_intrinsic_volumes(L, G),
    # of t in batch_intersects(M, L, G, invG, t) and of the points in
    # contains_points(body, points), which the volume case counts
    counting(bd, "difference_volumes", "difference_volumes", lambda a, kw: len(a[2]))
    counting(bd, "moved_intrinsic_volumes", "moved_intrinsic_volumes",
             lambda a, kw: len(a[1]))
    counting(bd, "batch_intersects", "batch_intersects", lambda a, kw: len(a[4]))
    counting(bd, "contains_points", "points", lambda a, kw: len(a[1]))
    L = bd.Ellipsoid([0.1, 0.2], np.eye(2), [1.4, 0.5])
    res = lhs_kinematic("gl", phi, M, L, samples, 3)
    if phi == "chi":
        assert (res.samples, res.exact.samples) == (10000, 20000)
    else:
        assert res.samples == samples and res.exact is None
    assert seen == want


@pytest.mark.parametrize("command, bound", [("chi-hpolygons", 1.2e-2),
                                            ("chi-ball-ellipsoid", 5e-4)])
def test_lattice_cuts_the_lhs_error(workloads, tmp_path, command, bound):
    # the benchmark's gl chi reports (workload seed 1): with X drawn by
    # plain Monte Carlo their headline relative SE reads 1.71e-2 and
    # 1.49e-3. 16 shift means make the SE itself noisy (chi^2 with 15
    # degrees of freedom), so the bounds sit well above the 3.9e-3 and
    # 1.3e-4 these seeds give
    workload = "kin-polytope" if command == "chi-hpolygons" else "kin-ellipsoid"
    _, commands = workloads.build(workload, 1, str(tmp_path))
    argv = next(c.argv for c in commands if c.name == command)

    def flag(name):
        return int(float(argv[argv.index(name) + 1])) if name in argv else None

    M, L = (bd.load_body(argv[argv.index(b) + 1]) for b in ("--M", "--L"))
    rep = build_report("gl", "chi", M, L, flag("--samples"), flag("--seed"),
                       crofton_samples=flag("--crofton-samples"))
    assert rep.lhs_estimator == "translation-exact"
    assert rep.lhs.std_error / rep.lhs.mean < bound


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


@pytest.mark.parametrize("group", ["o", "so"])
def test_compact_exact_lhs_of_a_ball_is_one_row(group):
    # G = I on every row under rotations: the exact loop evaluates the one
    # row, reports it with SE exactly 0 over samples rows, and draws nothing,
    # so the hit-or-miss check after it keeps its stream
    M = bd.Ball([0.3, -0.2, 0.1], 0.7)
    G = np.eye(3)[None]
    vj = bd.moved_intrinsic_volumes(TILTED, G)
    rng = np.random.default_rng(62)
    state = rng.bit_generator.state
    exact, terms = kin._exact_loop(M, TILTED, 10**6, rng, 62, GROUPS[group][0], False)
    assert rng.bit_generator.state == state
    assert (exact.mean, exact.std_error, exact.samples) == (
        bd.difference_volumes(M, TILTED, G, vj).sum(), 0.0, 10**6)
    assert [(t.mean, t.std_error) for t in terms] == [(v, 0.0) for v in vj[0]]
    res = lhs_kinematic(group, "chi", M, TILTED, 3000, 62)
    assert (res.exact.std_error, res.exact.samples) == (0.0, 3000)


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
    # the LHS and expm_sym form exp(X) and exp(-X) by the ordered loop; the
    # einsum it replaced is the reference, equal to the last bit
    rng = np.random.default_rng(70 + n)
    X = rng.standard_normal((500, n, n))
    lam, V = np.linalg.eigh(X + np.swapaxes(X, 1, 2))
    for w in (np.exp(lam), np.exp(-lam)):
        assert np.array_equal(congruence(V, w), np.einsum("bij,bj,bkj->bik", V, w, V))
        # one matrix (expm_sym's case) has the bits of its row of the stack
        assert np.array_equal(congruence(V[7], w[7]), congruence(V, w)[7])


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


@pytest.mark.parametrize("group, phi, M, L, samples, seed, want", [
    # a polygon M: the exact loop draws its k (after the lattice shifts
    # under gl) before the hit-or-miss check draws k, X and t; under gl
    # every chi hit-or-miss row is trace tilted by 1/2
    ("gl", "chi", HEX, PENT, 500, 51, (18.714154487530926, 1.1723360397824605)),
    ("o", "chi", PENT, bd.cube(2, side=1.5, centered=True), 500, 52,
     (7.647067860385399, 0.22278060028597554)),
    ("gl", "chi", bd.cube(3, side=1.2, centered=True),
     bd.VPolytope(np.vstack([np.zeros(3), np.eye(3)]) - 0.25), 200, 53,
     (23.095877385177108, 3.870172265626857)),
    # the volume row is the trace-tilted estimator's (lhs_kinematic's docstring)
    ("gl", "volume", HEX, PENT, 300, 54, (13.26061868593157, 1.234447344453697)),
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
    # a custom valuation equal to chi must retrace the chi hit-or-miss
    # estimate exactly (same group samples, intersection emptiness decided
    # consistently); under O(n) neither is trace tilted. chi on this pair
    # (a polygon M) runs the exact loop first, which draws one k per row,
    # so the custom valuation starts from the stream past those draws
    sq = bd.cube(2, side=2.0, centered=True)
    small = bd.cube(2, side=1.0, centered=True)
    chi_like = Valuation("unit-mass", lambda body: 1.0)
    a = lhs_kinematic("o", "chi", sq, small, 1200, np.random.default_rng(13))
    rng = np.random.default_rng(13)
    sym.sample_haar_orthogonal(2, rng, size=1200)
    b = lhs_kinematic("o", chi_like, sq, small, 1200, rng)
    assert abs(a.mean - b.mean) < 1e-9
    assert abs(a.std_error - b.std_error) < 1e-9


def test_only_gl_chi_with_an_exact_form_draws_the_lattice(monkeypatch):
    # the volume phi, chi without a translation-exact form (an ellipsoid
    # M), the compact groups and custom valuations draw X (or X = 0) as
    # before; a gl chi pair with that form is the one lattice consumer
    def refuse(*args, **kwargs):
        raise RuntimeError("lattice drawn")

    monkeypatch.setattr(kin, "lattice_normals", refuse)
    disc = bd.unit_ball(2)
    sq = bd.cube(2, side=2.0, centered=True)
    small = bd.cube(2, side=1.0, centered=True)
    lhs_kinematic("gl", "volume", disc, disc, 200, 1)
    assert lhs_kinematic("gl", "chi", TILTED, OFFSET_BALL, 200, 1).exact is None
    assert lhs_kinematic("o", "chi", disc, disc, 200, 1).exact is not None
    lhs_kinematic("gl", Valuation("unit-mass", lambda body: 1.0), sq, small, 200, 1)
    with pytest.raises(RuntimeError, match="lattice drawn"):
        lhs_kinematic("gl", "chi", disc, disc, 200, 1)


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
    rhs = rhs_hadwiger_gl(closed_intrinsic_volumes(bd.unit_ball(2)), constants, crofton)
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


@pytest.mark.parametrize("group", ["o", "so"])
def test_build_report_refuses_gl_constants_for_a_compact_group(monkeypatch, group):
    # the compact groups draw no X, so every c_j is 1; gl constants would
    # scale the right-hand side by c_j and leave the LHS as it is
    def no_lhs(*args, **kwargs):
        raise AssertionError("lhs_kinematic called")

    monkeypatch.setattr(kin, "lhs_kinematic", no_lhs)
    gl = {0: EstimatorResult(1.0, 0.0, 100, 7), 1: EstimatorResult(2.35, 0.01, 100, 7),
          2: EstimatorResult(math.e, 0.0, 100, 7)}
    unit_mean = {j: EstimatorResult(1.0, 0.01, 100, 7) for j in range(3)}
    for constants in (gl, unit_mean):
        with pytest.raises(ValueError, match="every c_j is 1"):
            build_report(group, "chi", bd.unit_ball(2), bd.unit_ball(2), 1000, 7,
                         constants=constants)


@pytest.mark.parametrize("phi, M, L, message", [
    ("chi", bd.unit_ball(3), bd.VPolytope(np.vstack([np.zeros(3), np.eye(3)])),
     "no closed form for VPolytope"),
    ("chi", bd.cube(4), bd.HPolytope(np.vstack([np.eye(4), -np.eye(4), np.ones((1, 4))]),
                                     np.ones(9)), "no closed form for this halfspace system"),
    ("volume", bd.HPolytope(np.vstack([np.eye(4), -np.eye(4), np.ones((1, 4))]), np.ones(9)),
     bd.cube(4), "no exact volume of M"),
], ids=["tetrahedron-L", "cut-cube-4d-L", "volume-of-cube-4d-cut-M"])
def test_build_report_refuses_an_rhs_it_cannot_evaluate_before_drawing(monkeypatch, phi,
                                                                        M, L, message):
    from intgeo import kinematic

    def no_lhs(*args, **kwargs):
        raise AssertionError("lhs_kinematic called")

    monkeypatch.setattr(kinematic, "lhs_kinematic", no_lhs)
    with pytest.raises(ValueError, match=message):
        build_report("gl", phi, M, L, 1000, 1)


def _no_draw(*args, **kwargs):
    raise AssertionError("drew before refusing the input")


@pytest.mark.parametrize("window", [math.nan, math.inf, 0.5],
                         ids=["nan", "inf", "below-outer-radius"])
def test_bad_windows_are_refused_before_drawing(monkeypatch, window):
    # the unit disc has outer radius 1; NaN and inf windows drew flats that
    # never met it, so each phi_{n-j} with j < n read 0 +- 0
    monkeypatch.setattr(kin, "run_chunks", _no_draw)
    monkeypatch.setattr(kin, "sample_affine_flat", _no_draw)
    disc = bd.unit_ball(2)
    with pytest.raises(ValueError, match="outer radius"):
        build_report("gl", "chi", disc, disc, 100, 1, window_radius=window)
    with pytest.raises(ValueError, match="outer radius"):
        crofton_coefficient("chi", disc, 1, 100, 1, window_radius=window)


@pytest.mark.parametrize("stage", ["samples", "cj_samples", "crofton_samples"])
@pytest.mark.parametrize("budget", [0, -5])
def test_stage_budgets_below_one_are_refused_before_drawing(monkeypatch, stage, budget):
    from intgeo import weyl

    for mod, name in ((kin, "lhs_kinematic"), (kin, "crofton_coefficient"),
                      (weyl, "c_direct")):
        monkeypatch.setattr(mod, name, _no_draw)
    budgets = {"samples": 100, "cj_samples": 100, "crofton_samples": 100, stage: budget}
    samples = budgets.pop("samples")
    with pytest.raises(ValueError, match="at least 1"):
        build_report("gl", "chi", bd.unit_ball(2), bd.unit_ball(2), samples, 1, **budgets)


def test_the_exact_loop_refuses_a_zero_lattice_budget_before_drawing():
    # its shift sums split the budget over zero shifts: ZeroDivisionError
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    ell = bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6])
    with pytest.raises(ValueError, match="lattice budget"):
        lhs_kinematic("gl", "chi", bd.unit_ball(3), ell, 0, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("inner", [0, -5])
def test_lhs_refuses_fewer_than_one_inner_sample_before_drawing(monkeypatch, inner):
    monkeypatch.setattr(kin, "sample_haar_orthogonal", _no_draw)
    with pytest.raises(ValueError, match="inner_samples"):
        lhs_kinematic("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 100, 1,
                      inner_samples=inner)


@pytest.mark.parametrize("threads", [1, 2])
def test_build_report_refuses_fewer_than_one_inner_sample_before_any_stage(monkeypatch,
                                                                          threads):
    # with two threads the Crofton chunks ran before the LHS chunk refused
    from intgeo import estimation, weyl

    monkeypatch.setattr(estimation.os, "cpu_count", lambda: 2)  # a real pool
    for mod, name in ((kin, "lhs_kinematic"), (kin, "crofton_coefficient"),
                      (weyl, "c_direct")):
        monkeypatch.setattr(mod, name, _no_draw)
    with pytest.raises(ValueError, match="inner_samples"):
        build_report("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 100, 1,
                     inner_samples=0, cj_samples=100, crofton_samples=100,
                     threads=threads)


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


def test_lemma_check_builds_two_hulls_per_trial(hull_builds):
    # the Minkowski sum D and the moved gL + t; M keeps one hull for the run
    rng = np.random.default_rng(17)
    M = bd.random_polytope(2, 8, rng)
    L = bd.random_polytope(2, 8, rng)
    hull_builds.clear()
    separation_lemma_check(M, L, 150, rng)
    assert len(hull_builds) <= 2 * 150 + 2


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
    res_v = lhs_kinematic("so", Valuation("chi", lambda body: 1.0), bd.unit_ball(2),
                          bd.unit_ball(2), 5000, 23)
    assert abs(res_s.mean - res_v.mean) < 1e-12


# the batched lemma check


def _lemma_pair(seed=17):
    rng = np.random.default_rng(seed)
    return bd.random_polytope(2, 8, rng), bd.random_polytope(2, 8, rng), rng


def test_lemma_check_builds_only_the_hulls_of_M_and_L(hull_builds):
    M, L, rng = _lemma_pair()
    hull_builds.clear()
    separation_lemma_check(M, L, 150, rng)
    assert len(hull_builds) <= 2


def test_lemma_check_catches_a_difference_body_of_the_wrong_sign(monkeypatch):
    # D built as M + gL instead of M + (-gL): its boundary points are not
    # touching positions, and the separating-axis test has to say so
    merge = bd.minkowski_rings
    monkeypatch.setattr(bd, "minkowski_rings", lambda P, Q: merge(P, -Q))
    M, L, rng = _lemma_pair()
    res = separation_lemma_check(M, L, 300, rng)
    assert res.disagreements > 0
    assert res.agreements + res.disagreements + res.boundary_skips == 300


def test_lemma_check_counts_the_trials_it_cannot_plant(monkeypatch):
    # no interior or exterior candidate is far enough from the boundary
    monkeypatch.setattr(kin, "_SKIP_MARGIN", 1e9)
    M, L, rng = _lemma_pair()
    res = separation_lemma_check(M, L, 60, rng)
    assert res.boundary_skips == 40
    assert res.stratum_counts == {"interior": 0, "boundary": 20, "exterior": 0}
    assert res.agreements + res.disagreements + res.boundary_skips == res.trials == 60


def test_lemma_check_keeps_the_first_ten_failures_in_trial_order(monkeypatch):
    # every gap positive: gL + t misses M, so each boundary trial disagrees
    planted = []

    def disjoint(M, L, G, invG, t):
        planted.append(t.copy())
        axes, gaps = gaps_of(M, L, G, invG, t)
        return axes, np.abs(gaps) + 1.0

    gaps_of = bd._polygon_gaps
    monkeypatch.setattr(bd, "_polygon_gaps", disjoint)
    M, L, rng = _lemma_pair()
    res = separation_lemma_check(M, L, 150, rng)
    assert res.disagreements == 50 and res.agreements == 100
    assert len(res.failures) == 10
    boundary_t = planted[0][1::3]  # trials 1, 4, 7, ... in trial order
    for failure, t in zip(res.failures, boundary_t):
        assert failure == {"stratum": "boundary", "t": t.tolist(),
                           "nonempty": False, "separable": True}


@pytest.mark.parametrize("trials", [0, 1, 2])
def test_lemma_check_runs_a_few_trials(trials):
    M, L, rng = _lemma_pair()
    res = separation_lemma_check(M, L, trials, rng)
    assert res.trials == trials
    assert res.agreements == trials and res.disagreements == res.boundary_skips == 0
    assert sum(res.stratum_counts.values()) == trials
