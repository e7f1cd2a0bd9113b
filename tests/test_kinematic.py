import ast
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
from intgeo.volumes import closed_intrinsic_volumes, kappa, volume_exact


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


# recorded with the batched Jacobi kernels of symmetric, t drawn in the
# eigenframe R = k V of each g; with LAPACK's eigh, SVD and QR the same
# draws make the same hit decisions and move the estimates by rounding only
# (test_pinned_rows_match_the_lapack_kernels)
PINNED_LHS = pytest.mark.parametrize("group, phi, M, L, samples, seed, inner, want", [
    # the hit-or-miss check of a gl chi pair with a translation-exact form:
    # plain draws after the exact loop's lattice, the trace tilted by 1/2
    ("gl", "chi", bd.unit_ball(3), bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6]),
     10000, 41, 256, (112.83210982216154, 1.1270170092075074)),
    # the volume rows share each g over _VOLUME_ROWS_PER_G consecutive rows
    ("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 5000, 42, 256,
     (27.25893463585469, 0.33921959822513714)),
    # one row per block of inner points
    ("gl", "volume", bd.unit_ball(2), bd.unit_ball(2), 24, 43, 70000,
     (23.653730527985243, 5.4259293348615865)),
    ("gl", "volume", OFFSET_BALL, TILTED, 3000, 44, 64,
     (27.234602007584936, 0.8040717047307635)),
    # the compact groups draw no X, so the trace tilt leaves them alone; a
    # ball M draws no k either, so o and so give the same rows
    ("o", "volume", OFFSET_BALL, TILTED, 3000, 44, 64,
     (6.003626832340759, 0.22475541678516578)),
    ("so", "volume", OFFSET_BALL, TILTED, 3000, 44, 64,
     (6.003626832340759, 0.22475541678516578)),
    ("o", "chi", TILTED, OFFSET_BALL, 6000, 45, 256,
     (21.878485903292212, 0.27826518820646456)),
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


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload module (perfbench/workloads.py)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


def _support(body, u):
    """h_body(u) from the body's definition, not from bodies' box kernels:
    the closed form of a quadric, the largest vertex product of a
    V-polytope and the support LP of an H-polytope."""
    if isinstance(body, (bd.Ball, bd.Ellipsoid)):
        lin, c, _ = bd.quadric_frame(body)
        return float(c @ u + np.linalg.norm(lin.T @ u))
    if isinstance(body, bd.VPolytope):
        return float(np.max(body.vertices @ u))
    return linprog.support_hrep(body.normals, body.offsets, u)[0]


ROTATED_4CUBE = bd.HPolytope(
    np.vstack([np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]] * 2)
    * np.repeat([1.0, -1.0], 4)[:, None], np.full(8, 0.5))


@pytest.mark.parametrize("M, L", [
    (bd.unit_ball(3), TILTED),
    (TILTED, OFFSET_BALL),
    (HEX, PENT),
    (bd.cube(4, side=1.5, centered=True), bd.VPolytope(np.vstack([np.zeros(4), np.eye(4)]))),
    (ROTATED_4CUBE, bd.unit_ball(4)),
    (bd.unit_ball(4), ROTATED_4CUBE),
], ids=["ball-tilted", "tilted-ball", "hhex-vpent", "hbox4-vsimplex", "hrotated4-ball",
        "ball-hrotated4"])
def test_frame_box_is_the_support_of_the_difference_body(lp_calls, M, L):
    # the translation box in the frame R = k V of g = k V e^Lambda V^T:
    # along each column r of R it spans [-h_D(-r), h_D(r)] of the
    # difference body D = M + (-gL), h_D(r) = h_M(r) + h_gL(-r). An
    # H-polytope at n >= 4 that is no axis box, M or L, gives its box
    # through its axis box (bodies.box_proxy) instead of a support LP per
    # row, so the box contains D's extent and the rows solve no LP
    n = M.dim
    rng = np.random.default_rng(40 + n)
    k = sym.sample_haar_orthogonal(n, rng, size=12)
    lam, V = kin._eigenframe(sym.sample_gaussian_sym(n, rng, size=12) + 0.5 * np.eye(n))
    R = np.concatenate([k @ V, V])  # a ball M's check takes R = V
    lam, V = np.concatenate([lam, lam]), np.concatenate([V, V])
    D = np.exp(lam)[:, :, None] * np.swapaxes(V, 1, 2)  # R^T g
    Mbox, Lbox = bd.box_proxy(M), bd.box_proxy(L)
    exact = Mbox is M and Lbox is L
    assert exact == (ROTATED_4CUBE not in (M, L))
    lp_calls.clear()
    cM, hM = bd.moved_boxes(Mbox, np.swapaxes(R, 1, 2))
    cg, hw = bd.moved_boxes(Lbox, D)
    assert not lp_calls
    hi, lo = cM + hM + hw - cg, cM - hM - hw - cg
    for b in range(len(R)):
        G = R[b] @ D[b]
        for j in range(n):
            r = R[b][:, j]
            up = _support(M, r) + _support(L, G.T @ -r)
            down = -(_support(M, -r) + _support(L, G.T @ r))
            if exact:
                assert hi[b, j] == pytest.approx(up, rel=1e-12, abs=1e-12)
                assert lo[b, j] == pytest.approx(down, rel=1e-12, abs=1e-12)
            else:
                assert hi[b, j] >= up - 1e-12 and lo[b, j] <= down + 1e-12


@pytest.mark.parametrize("M, L", [
    (bd.unit_ball(4), ROTATED_4CUBE),
    (ROTATED_4CUBE, bd.unit_ball(4)),
], ids=["ball-hrotated4", "hrotated4-ball"])
def test_lhs_boxes_of_a_turned_4d_hpolytope_solve_no_lp_per_row(lp_calls, M, L):
    # the H-polytope's own box solves its LPs once per run, M or L alike;
    # L's box solved 2n LPs per group element
    counts = []
    for samples in (200, 2000):
        lp_calls.clear()
        res = lhs_kinematic("gl", "volume", M, L, samples, 3)
        counts.append(len(lp_calls))
        assert res.samples == samples and np.isfinite(res.mean)
    assert counts[0] == counts[1] <= 2 * 2 * 4


def test_kinematic_holds_estimators_only():
    # the body types pick their kernels in bodies and nowhere else: this
    # module names no body type and reaches no private bodies kernel
    tree = ast.parse(Path(kin.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    private = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "bd" and node.attr.startswith("_")}
    assert not names & {"Ball", "Ellipsoid", "HPolytope", "VPolytope"}
    assert not private
    assert not {"_box_proxy", "_LEMMA_CANDIDATES", "_LEMMA_ROUND"} & set(vars(kin))


@pytest.mark.parametrize("phi, M, samples, want", [
    # V_j(k G L) = V_j(G L): the exact loop draws no k, and in the frame
    # R = k V no hit-or-miss row of a ball M depends on k, so neither does
    # the check
    ("chi", bd.unit_ball(2), 20000,
     {"haar": 0, "gaussian": 10000, "difference_volumes": 20000,
      "moved_intrinsic_volumes": 20000, "batch_intersects": 10000}),
    # the mixed area reads the support of k G L
    ("chi", HEX, 20000,
     {"haar": 30000, "gaussian": 10000, "difference_volumes": 20000,
      "moved_intrinsic_volumes": 0, "batch_intersects": 10000}),
    # one X per _VOLUME_ROWS_PER_G rows: batches of 4096, 4096 and 1809
    # rows draw 512 + 512 + 227, no k (a ball M), and every row its own
    # inner points (INNER_SAMPLES of them, tested in M and pulled back into L)
    ("volume", bd.unit_ball(2), 10001,
     {"haar": 0, "gaussian": 1251, "difference_volumes": 0,
      "moved_intrinsic_volumes": 0, "batch_intersects": 0,
      "points": 2 * kin.INNER_SAMPLES * 10001}),
], ids=["ball", "hpolygon", "volume"])
def test_each_loop_draws_only_what_it_reads(monkeypatch, phi, M, samples, want):
    # the exact loop runs the V_j and difference-volume kernels over samples
    # rows, the hit-or-miss loop draws X (and k, unless M is a ball) and
    # runs its integrand over min(samples, stage_samples(samples)) rows (all
    # samples for the volume phi, which has no exact loop), and neither
    # runs the other's kernels
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
    ("gl", "chi", HEX, PENT, 500, 51, (19.305129481701268, 0.5563902697279932)),
    ("o", "chi", PENT, bd.cube(2, side=1.5, centered=True), 500, 52,
     (7.813145077991278, 0.1019000321055245)),
    ("gl", "chi", bd.cube(3, side=1.2, centered=True),
     bd.VPolytope(np.vstack([np.zeros(3), np.eye(3)]) - 0.25), 200, 53,
     (30.81987931448565, 3.521093967263472)),
    # the volume row is the trace-tilted estimator's (lhs_kinematic's docstring)
    ("gl", "volume", HEX, PENT, 300, 54, (12.740602016728875, 0.7692393682272958)),
], ids=["chi-hhex-vpent", "chi-vpent-hsquare", "chi-hcube-vsimplex", "volume-hhex-vpent"])
def test_polytope_lhs_matches_the_lp_route(group, phi, M, L, samples, seed, want):
    # values of the per-sample LP route on the same draws (support LPs for
    # the boxes of R^T M and R^T g L in the frame R = k V, the intersection
    # LP for chi); the vertex-set boxes move them by rounding only, and the
    # separating-axis test must take every hit decision alike
    res = lhs_kinematic(group, phi, M, L, samples, seed, inner_samples=64)
    assert res.mean == pytest.approx(want[0], rel=1e-12)
    assert res.std_error == pytest.approx(want[1], rel=1e-12)


def test_polygon_lp_count_does_not_grow_with_samples(lp_calls):
    # H-polygon LHS boxes and chi, and Crofton point and line flats, solve
    # no LP per sample: the count is the same at any budget
    M = bd.HPolytope(HEX.normals, HEX.offsets)
    L = bd.cube(2, side=1.5, centered=True)
    counts = []
    for samples in (50, 2000):
        lp_calls.clear()
        lhs_kinematic("gl", "chi", M, L, samples, 1)
        counts.append(len(lp_calls))
        # Crofton's window takes the outer radius from the vertex set too
        for j in (0, 1, 2):
            crofton_coefficient("chi", M, j, samples, 2 + j)
        assert len(lp_calls) == counts[-1]
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


def test_only_gl_chi_with_an_exact_form_draws_the_lattice(monkeypatch):
    # the volume phi, chi without a translation-exact form (an ellipsoid
    # M) and the compact groups draw X (or X = 0) as before; a gl chi pair
    # with that form is the one lattice consumer
    def refuse(*args, **kwargs):
        raise RuntimeError("lattice drawn")

    monkeypatch.setattr(kin, "lattice_normals", refuse)
    disc = bd.unit_ball(2)
    lhs_kinematic("gl", "volume", disc, disc, 200, 1)
    assert lhs_kinematic("gl", "chi", TILTED, OFFSET_BALL, 200, 1).exact is None
    assert lhs_kinematic("o", "chi", disc, disc, 200, 1).exact is not None
    with pytest.raises(RuntimeError, match="lattice drawn"):
        lhs_kinematic("gl", "chi", disc, disc, 200, 1)


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


class _NamedChi:
    name = "chi"


@pytest.mark.parametrize("phi", ["girth", lambda body: 1.0, _NamedChi()],
                         ids=["unknown-string", "callable", "named-chi"])
@pytest.mark.parametrize("entry", ["lhs_kinematic", "crofton_coefficient", "build_report"])
def test_phi_other_than_chi_or_volume_is_refused_before_drawing(monkeypatch, phi, entry):
    # the report evaluates the right-hand side of chi and the volume only
    monkeypatch.setattr(kin, "run_chunks", _no_draw)
    disc = bd.unit_ball(2)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    call = {"lhs_kinematic": lambda: lhs_kinematic("gl", phi, disc, disc, 100, rng),
            "crofton_coefficient": lambda: crofton_coefficient(phi, disc, 1, 100, rng),
            "build_report": lambda: build_report("gl", phi, disc, disc, 100, 1)}[entry]
    with pytest.raises(ValueError, match="phi must be"):
        call()
    assert rng.bit_generator.state == state


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


def test_lemma_check_refuses_polytopes_outside_the_plane():
    tetra = bd.VPolytope(np.vstack([np.zeros(3), np.eye(3)]))
    with pytest.raises(ValueError, match="in the plane"):
        separation_lemma_check(tetra, tetra, 10, 0)


@pytest.mark.parametrize("j", [-1, 3])
def test_crofton_refuses_j_outside_0_n(j):
    with pytest.raises(ValueError, match="0 <= j <= n"):
        crofton_coefficient("chi", bd.unit_ball(2), j, 100, 0)


# the batched lemma check


def _lemma_pair(seed=17):
    rng = np.random.default_rng(seed)
    return bd.random_polytope(2, 8, rng), bd.random_polytope(2, 8, rng), rng


def test_lemma_check_builds_only_the_hulls_of_M_and_L(hull_builds):
    M, L, rng = _lemma_pair()
    hull_builds.clear()
    separation_lemma_check(M, L, 150, rng)
    assert len(hull_builds) <= 2


def _h_polygon(rng, k):
    """An H-polygon of k halfplanes whose normals are spread round the circle."""
    a = (np.arange(k) + rng.uniform(-0.3, 0.3, k)) * 2.0 * np.pi / k
    return bd.HPolytope(np.column_stack([np.cos(a), np.sin(a)]), rng.uniform(0.4, 1.2, k))


@pytest.mark.parametrize("margin", [kin._SKIP_MARGIN, 0.02])
@pytest.mark.parametrize("kinds", ["vv", "vh", "hv", "hh"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lemma_check_plants_every_trial_clear_of_the_boundary(monkeypatch, kinds, seed,
                                                              margin):
    # every interior and exterior t lies at least _SKIP_MARGIN from the
    # boundary of D = M + (-gL), by D's own hull of the pairwise vertex
    # sums: the distance to its edge lines inside, distance_to_body outside.
    # The wider margin takes the planting to where a slip would show
    monkeypatch.setattr(kin, "_SKIP_MARGIN", margin)
    rng = np.random.default_rng(300 + seed)
    M, L = (bd.random_polytope(2, 7, rng) if kind == "v" else _h_polygon(rng, 6)
            for kind in kinds)
    seen = []

    def spy(M, L, G, invG, t):
        seen.append((G.copy(), t.copy()))
        return gaps_of(M, L, G, invG, t)

    gaps_of = bd.polygon_gaps
    monkeypatch.setattr(bd, "polygon_gaps", spy)
    res = separation_lemma_check(M, L, 150, rng)
    assert res.boundary_skips == 0 and res.disagreements == 0
    assert res.stratum_counts == {"interior": 50, "boundary": 50, "exterior": 50}
    [(G, t)] = seen
    VM, VL = bd.vertex_set(M), bd.vertex_set(L)
    for i in range(150):
        if i % 3 == 1:
            continue
        sums = (VM[:, None, :] - (VL @ G[i].T)[None, :, :]).reshape(-1, 2)
        hull = bd.planar_hull(sums)
        if i % 3 == 0:
            eq = hull.equations
            assert -np.max(eq[:, :2] @ t[i] + eq[:, 2]) >= margin
        else:
            D = bd.VPolytope(sums[hull.vertices])
            assert bd.distance_to_body(D, t[i])[0] >= margin


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

    gaps_of = bd.polygon_gaps
    monkeypatch.setattr(bd, "polygon_gaps", disjoint)
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
