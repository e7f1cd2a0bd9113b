"""Monte Carlo kinematic integrals over rigid motions and affine deformations.

The left-hand side integrates phi(M cap g L) over group elements g = k exp(X)
plus translation, with k Haar (probability measure) on O(n) or SO(n) and X
Gaussian on Sym(n); the compact groups O(n) and SO(n) are the case X = 0,
drawn down the same path with trace weights of 1. Chi on a pair whose
translation integral has a closed form (bodies.has_difference_volumes) runs
two loops on one stream: an exact loop that integrates t out and, under gl,
takes X from the shifted lattice rule of sampling.lattice_normals (the
sampler of the c_j routes), then a hit-or-miss check in plain Monte Carlo
at its own budget. Every other LHS is that plain hit-or-miss loop alone,
with the trace of X tilted under gl. The right-hand side is the
Hadwiger-style expansion sum_j c_j phi_{n-j}(M) V_j(L) with Crofton
coefficients phi_{n-j}(M) estimated over random flats (whether a flat meets
M is bodies.batch_flat_hits) and the deformation constants c_j from the
weyl module.

Normalization note: with the probability Haar measure used here, the direct
integral equals the plain sum (the "half" convention); doubling the component
masses of O(n) doubles it. Reports carry both candidates and the z-score of
the estimate against each, so the convention is pinned by data, not fiat.

separation_lemma_check exercises the boundary characterization of the
difference body: t lies on the boundary of M + (-gL) exactly when M and
gL + t intersect but admit a separating hyperplane. It runs all of its
trials at once: one draw of g, one edge merge for every difference body,
rejection rounds for the planted translations and one separating-axis pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import bodies as bd
from .estimation import (EstimatorResult, RunningMean, merge_results, resolve_rng,
                         run_chunks, z_score)
from .sampling import ShiftSums, flat_weight, lattice_normals, sample_affine_flat
from .symmetric import (congruence, eigh_sym, sample_gaussian_sym,
                        sample_haar_orthogonal, split_coords_to_sym, sym_dim)
from .volumes import (Valuation, closed_intrinsic_volumes, kappa, volume_exact)
from .weyl import merge_constants, trace_moment

# per group: the component of O(n) that k is Haar on, and whether X is drawn
# (the compact groups take X = 0)
GROUPS = {"gl": ("full", True), "o": ("full", False), "so": ("special", False)}
# the trace tilt s of the hit-or-miss LHS under gl, per kind of phi: X is
# drawn as X + s I and each row weighted by trace_moment(n, s n) e^{-s tr X}
_TILT = {"volume": 1.0, "chi": 0.5, "custom": 0.0}
# inner points per LHS sample of the volume integrand: with the trace tilted
# its mean given g is constant and the draw of t sets most of the variance,
# so more points cost time and buy little (sigma^2 x seconds on two discs is
# about the same at 4, 8 and 16)
INNER_SAMPLES = 4
# inner points per row block of the volume integrand (~1 MB per array at n = 2)
_BLOCK_POINTS = 1 << 16
# hit-or-miss rows per group element of the volume integrand, whose mean
# given g is constant (lhs_kinematic). Drawing k and X and building g^-1 and
# the box of gL is about 55% of a row's cost on two unit discs at 2e4 rows.
# Over 120 replicates there (seeds 1000-1119, a 2-core Xeon), one g per 1,
# 2, 4, 8 and 16 rows took 26.0, 16.4, 13.5, 12.0 and 11.1 ms per run
# (median), and the replicate sd read 0.371, 0.352, 0.347, 0.342 and 0.318
# against a mean SE of 0.347-0.350, with 95% coverage 0.93-0.97. At 8 the
# shared part is under 7% of a row, so larger values buy little time.
_VOLUME_ROWS_PER_G = 8
_LHS_BATCH = 4096  # group elements drawn at a time
_CROFTON_BATCH = 16384  # flats drawn at a time
# interior/exterior lemma-check points this close to the boundary are skipped
_SKIP_MARGIN = 1e-6
# interior/exterior lemma-check candidates per trial: the cap, and per round
_LEMMA_CANDIDATES = 400
_LEMMA_ROUND = 8


def stage_samples(samples: int) -> int:
    """The default budget of a report's c_j and Crofton stages."""
    return max(samples // 4, 10000)


def _phi_kind(phi) -> str:
    if isinstance(phi, Valuation):
        return {"chi": "chi", "volume": "volume"}.get(phi.name, "custom")
    if phi in ("chi", "volume"):
        return phi
    raise ValueError(f"unknown valuation {phi!r}")


def check_lhs_inputs(group: str, phi, M, L, inner_samples: int = INNER_SAMPLES) -> str:
    """Refuse an LHS lhs_kinematic cannot evaluate; return the kind of phi.

    Raises ValueError for an unknown group or valuation, bodies of different
    dimensions, a custom valuation on bodies other than H-polytopes, chi
    on a ball or ellipsoid paired with a polytope at n >= 4, where the
    intersection test needs polytope distances (n <= 3 only), and
    inner_samples below 1.
    """
    if not inner_samples >= 1:
        raise ValueError(f"inner_samples must be at least 1, got {inner_samples!r}")
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    kind = _phi_kind(phi)
    if M.dim != L.dim:
        raise ValueError("bodies must share a dimension")
    if kind == "custom" and not (isinstance(M, bd.HPolytope)
                                 and isinstance(L, bd.HPolytope)):
        raise ValueError("custom valuations need H-polytope bodies "
                         "(the intersection must be explicit)")
    quadrics = [isinstance(b, (bd.Ball, bd.Ellipsoid)) for b in (M, L)]
    if kind == "chi" and M.dim >= 4 and any(quadrics) and not all(quadrics):
        raise ValueError("chi of a ball or ellipsoid against a polytope needs "
                         f"n <= 3, got n = {M.dim}")
    return kind


def check_rhs_inputs(phi, M, L) -> np.ndarray:
    """Refuse a right-hand side build_report cannot evaluate, with ValueError:
    L without closed_intrinsic_volumes, or for the volume phi an M without
    volume_exact (its Crofton j = n term). Returns L's intrinsic volumes
    (V_0, ..., V_n), the ones rhs_hadwiger_gl reads."""
    v_l = closed_intrinsic_volumes(L)
    if _phi_kind(phi) == "volume":
        try:
            volume_exact(M)
        except NotImplementedError as exc:
            raise ValueError(f"no exact volume of M: {exc}") from exc
    return v_l


@dataclass
class LhsEstimate(EstimatorResult):
    """One run of lhs_kinematic: the hit-or-miss estimate (the inherited
    fields) and, from the exact loop's own draws of g, the
    translation-exact estimate (exact; None where the pair has no closed
    form) and, when M is a ball, the estimates of E_g V_j(gL), one per j
    (terms; None otherwise)."""

    exact: EstimatorResult | None = None
    terms: list[EstimatorResult] | None = None

    def to_dict(self) -> dict:
        """The hit-or-miss estimate, in the layout of EstimatorResult."""
        return {f.name: getattr(self, f.name) for f in fields(EstimatorResult)}


def merge_lhs(parts: list[LhsEstimate], seed: int) -> LhsEstimate:
    """Chunk estimates of lhs_kinematic merged in chunk order, each of the
    hit-or-miss, exact and per-j estimates on its own (merge_results)."""
    first = parts[0]
    return LhsEstimate(
        **vars(merge_results(parts, seed)),
        exact=first.exact and merge_results([p.exact for p in parts], seed),
        terms=first.terms and [merge_results([p.terms[j] for p in parts], seed)
                               for j in range(len(first.terms))])


def lhs_kinematic(group: str, phi, M, L, samples: int, rng, *,
                  inner_samples: int = INNER_SAMPLES) -> LhsEstimate:
    """The group-side integral, estimated with the translation box folded in.

    phi may be "chi", "volume", or a Valuation; custom valuations need both
    bodies as H-polytopes (the intersection must be constructible). Inputs
    are checked by check_lhs_inputs, inner_samples among them, before
    anything is drawn (ValueError). Two loops draw from rng in turn.

    The exact loop runs for chi on a pair whose t-integral has a closed
    form (bodies.has_difference_volumes): M meets gL + t exactly when t lies
    in M + (-gL), so the integral over t is vol(M + (-gL)), and
    bodies.difference_volumes splits it into parts of degree j in g (the
    result's exact, over samples rows). Under gl, g = e^{tau/n} k exp(X_0)
    with tau = tr X ~ N(0, n) independent of the rest, so part j of g is
    e^{j tau / n} times part j of k exp(X_0), and the trace integrates
    exactly: part j is weighted by weyl.trace_moment(n, j) e^{-j tau / n}.
    That integrand is smooth in X, so X comes from the shifted lattice rule:
    the rows of sampling.lattice_normals in sym_dim(n) dimensions, in the
    split chart of symmetric.split_coords_to_sym (the traceless coordinates
    first, the trace last), a whole lattice block at a time; the shifts are
    drawn from rng first. Each value is summed per shift, and the estimate
    is the mean of the shift means with their standard deviation over
    sqrt(SHIFTS) as standard error (sampling.ShiftSums): a t law with
    SHIFTS - 1 degrees of freedom. The compact groups take X = 0 in plain
    batches; with a ball M, where G = I on every row, the Steiner sum is
    evaluated once, drawing nothing, and reported with standard error 0
    over samples rows. A ball M draws no k, since V_j(k G L) = V_j(G L):
    its parts are Steiner's kappa_{n-j} r^{n-j} V_j(gL), and terms[j]
    estimates E_g V_j(gL) (bodies.moved_intrinsic_volumes), with the trace
    sampled, so the terms check the factorization apart from c_j's own
    route. A polygon M draws k from rng per block (its mixed
    area reads the support of k G L). The volume phi has no exact loop:
    its t-integral vol(M) vol(gL) would make the Fubini anchor a tautology.

    The hit-or-miss loop draws k, X and t from rng in batches of
    _LHS_BATCH, with t uniform in the translation box: the Minkowski
    difference of M's box (bodies.bounding_box) and gL's
    (bodies.moved_boxes), whose volume weights each row. It runs over
    samples rows where the pair has no exact loop (its estimate is then the
    headline) and, where it has one, over min(samples, stage_samples(samples))
    rows, the budget of a report's other stages, as a check that rests on
    neither Steiner's formula nor the mixed area.
    Its integrand, per kind of phi:
    - chi: bodies.batch_intersects, where the pair's types pick the kernel;
    - volume: bodies.contains_points of M at the inner points and of L at
      their pull-backs g^-1 (x - t), for every pair of bodies;
    - custom valuations: the explicit intersection of each row.
    The volume integrand draws its inner_samples points per row in blocks
    of rows, about _BLOCK_POINTS points at a time, so its work arrays stay
    near 1 MB whatever the batch; the draws are the ones a single
    (batch, inner_samples, n) draw would give. The standard error is the
    rows' own (RunningMean).

    For the volume phi one group element serves _VOLUME_ROWS_PER_G
    consecutive rows: a batch of B rows draws k and X, and builds the
    weight, g^-1 and the box of gL, for ceil(B / _VOLUME_ROWS_PER_G)
    elements, while t and the inner points are still drawn per row, so
    samples counts rows. Rows that share g are uncorrelated, because
    E[row | g] is the same constant for every g: e^{n/2} vol(M) vol(L)
    under gl with the tilt below, vol(M) vol(L) under o and so, where
    det g = +-1. So the row standard error stays unbiased. chi and custom
    valuations keep one g per row: their mean given g moves with g, so rows
    sharing it would be correlated and the row standard error too small.

    Under gl that loop tilts the trace by s (_TILT: 1 for the volume phi,
    1/2 for chi, 0 for custom valuations): the draws of X are shifted to
    X + s I (the same eigenvectors, the same stream), so tr X ~ N(s n, n)
    and g becomes e^s g, and each row is weighted by
    trace_moment(n, s n) e^{-s tr X}, the likelihood ratio of N(0, n) to
    N(s n, n). For the volume phi (the degree-n case of the exact chi
    weights) the weighted t-integral is the constant e^{n/2} vol(M) vol(L),
    so the log-normal tail of det g is gone and only t and the inner points
    vary. For chi, whose t-integral mixes degrees 0 to n, s = 1/2 halves
    the spread of the row weights: on the unit ball against the
    (1.3, 0.9, 0.6) ellipsoid at 2000 rows the replicate sd falls from 22
    to 10.6 and the 95% interval covers 0.94 instead of 0.865.

    Every group takes the same path: g = k V e^Lambda V^T from one
    eigendecomposition X = V Lambda V^T (symmetric.eigh_sym and congruence),
    and g^-1 = V e^-Lambda V^T k^T. The compact groups (GROUPS) draw no X
    and take X = 0 there, with trace moments of 1 and no tilt, so their
    weights are all 1.
    """
    kind = check_lhs_inputs(group, phi, M, L, inner_samples)
    rng, seed = resolve_rng(rng)
    component, deforms = GROUPS[group]
    exact = terms = None
    checks = samples
    if kind == "chi" and bd.has_difference_volumes(M, L):
        exact, terms = _exact_loop(M, L, samples, rng, seed, component, deforms)
        checks = min(samples, stage_samples(samples))
    acc = RunningMean()
    n = M.dim
    quadric = (isinstance(M, (bd.Ball, bd.Ellipsoid))
               and isinstance(L, (bd.Ball, bd.Ellipsoid)))
    loM, hiM = bd.bounding_box(M)
    rows = max(1, _BLOCK_POINTS // inner_samples)
    s = _TILT[kind] if deforms else 0.0
    moment = trace_moment(n, s * n)
    for done in range(0, checks, _LHS_BATCH):
        B = min(_LHS_BATCH, checks - done)
        m = -(-B // _VOLUME_ROWS_PER_G) if kind == "volume" else B  # group elements
        k = sample_haar_orthogonal(n, rng, component=component, size=m)
        X = sample_gaussian_sym(n, rng, size=m) if deforms else np.zeros((m, n, n))
        lam, V = eigh_sym(X)
        lam = lam + s
        # times moment, the likelihood ratio of N(0, n) to N(s n, n) at tr X
        weight = np.exp(-s * lam.sum(axis=1))
        G = k @ congruence(V, np.exp(lam))
        invG = None  # the chi kernel of two quadrics never reads it
        if not (kind == "chi" and quadric):
            invG = congruence(V, np.exp(-lam)) @ np.swapaxes(k, 1, 2)
        # the box of gL is cg +- hw per row
        cg, hw = bd.moved_boxes(L, G)
        if kind == "volume":
            # each g serves _VOLUME_ROWS_PER_G consecutive rows; the pull-back
            # g^-T is repeated into a contiguous stack, which keeps numpy's
            # matmul off its strided path
            weight, cg, hw, invGT = (np.repeat(a, _VOLUME_ROWS_PER_G, axis=0)[:B]
                                     for a in (weight, cg, hw, np.swapaxes(invG, 1, 2)))
        hi = hiM[None, :] + hw - cg
        lo = loM[None, :] - hw - cg
        wid = hi - lo
        volbox = np.prod(wid, axis=1)
        t = lo + rng.random((B, n)) * wid
        if kind == "chi":
            val = np.where(bd.batch_intersects(M, L, G, invG, t), volbox, 0.0)
        elif kind == "volume":
            center = cg + t
            loI = np.maximum(loM[None, :], center - hw)
            widI = np.clip(np.minimum(hiM[None, :], center + hw) - loI, 0.0, None)
            volI = np.prod(widI, axis=1)
            frac = np.empty(B)
            # the inner points go in blocks of rows; drawing the blocks in
            # turn consumes the stream a single (B, inner, n) draw would
            for r0 in range(0, B, rows):
                r1 = min(r0 + rows, B)
                u = rng.random((r1 - r0, inner_samples, n))
                pts = loI[r0:r1, None, :] + u * widI[r0:r1, None, :]
                y = (pts - t[r0:r1, None, :]) @ invGT[r0:r1]
                inM = bd.contains_points(M, pts.reshape(-1, n)).reshape(r1 - r0, -1)
                inL = bd.contains_points(L, y.reshape(-1, n)).reshape(r1 - r0, -1)
                frac[r0:r1] = np.count_nonzero(inM & inL, axis=1) / inner_samples
            val = volbox * volI * frac
        else:
            val = volbox * np.array([phi(bd.intersect_hrep(M, bd.affine_image(
                L, bd.AffineMap(g, v)))) for g, v in zip(G, t)])
        acc.update(val * moment * weight)
    return LhsEstimate(**vars(EstimatorResult.from_accumulator(acc, seed)),
                       exact=exact, terms=terms)


def _exact_loop(M, L, samples: int, rng, seed: int, component: str, deforms: bool
                ) -> tuple[EstimatorResult, list[EstimatorResult] | None]:
    """lhs_kinematic's translation-exact estimate and, for a ball M, its
    per-j terms (its docstring has the estimator)."""
    n = M.dim
    ball = isinstance(M, bd.Ball)
    if ball and not deforms:
        # G = I on every row: one row, which draws nothing, is the integral
        G = np.eye(n)[None]
        vj = bd.moved_intrinsic_volumes(L, G)
        exact = float(bd.difference_volumes(M, L, G, vj).sum())
        return (EstimatorResult(exact, 0.0, samples, seed),
                [EstimatorResult(float(v), 0.0, samples, seed) for v in vj[0]])
    degrees = np.arange(n + 1)
    if deforms:
        accs = [ShiftSums(samples) for _ in range(n + 2)]
        blocks = ((shift, split_coords_to_sym(w, n))
                  for shift, w in lattice_normals(sym_dim(n), samples, rng))
    else:
        accs = [_PlainMean() for _ in range(n + 2)]
        blocks = ((None, np.zeros((min(_LHS_BATCH, samples - done), n, n)))
                  for done in range(0, samples, _LHS_BATCH))
    moments = np.array([trace_moment(n, j) if deforms else 1.0 for j in degrees])
    exact, *terms = accs
    for shift, X in blocks:
        lam, V = eigh_sym(X)
        G = congruence(V, np.exp(lam))
        if not ball:
            G = sample_haar_orthogonal(n, rng, component=component, size=len(G)) @ G
        vj = bd.moved_intrinsic_volumes(L, G) if ball else None
        # integrate the trace of X out, part by part
        dv = (bd.difference_volumes(M, L, G, vj) * moments
              * np.exp(-np.outer(lam.sum(axis=1), degrees) / n))
        exact.update(dv.sum(axis=1), shift)
        if ball:
            for j in range(n + 1):
                terms[j].update(vj[:, j], shift)
    return exact.result(seed), [a.result(seed) for a in terms] if ball else None


class _PlainMean(RunningMean):
    """RunningMean behind the interface of sampling.ShiftSums: plain Monte Carlo
    rows carry no shift (None)."""

    def update(self, values: np.ndarray, shift=None) -> None:
        super().update(values)

    def result(self, seed: int) -> EstimatorResult:
        return EstimatorResult.from_accumulator(self, seed)


def _crofton_window(M, window_radius: float | None) -> float:
    """window_radius, or 1.5x the outer radius of M when it is None;
    ValueError unless it is finite and at least that outer radius."""
    rad = bd.outer_radius(M)
    if window_radius is None:
        return 1.5 * rad
    if not (np.isfinite(window_radius) and window_radius >= rad - 1e-12):
        raise ValueError("the window radius must be finite and at least the outer "
                         f"radius of M ({rad:.6g}), got {window_radius}")
    return window_radius


def crofton_coefficient(phi, M, j: int, samples: int, rng, *,
                        window_radius: float | None = None) -> EstimatorResult:
    """phi_{n-j}(M): the integral of phi(M cap E) over the j-flat measure.

    The flat measure is normalized so flats meeting the unit ball have mass
    kappa_{n-j}. window_radius defaults to 1.5x the outer radius of M and
    must be finite and dominate it, otherwise contributing flats would be
    missed (ValueError, raised before anything is drawn). Each
    batch of flats is tested at once by bodies.batch_flat_hits, where M's
    type picks the kernel: contains_points for points, the support
    interval for hyperplanes of any body but a non-box H-polytope at
    n >= 4, a gauge test for the other flats of a ball or ellipsoid, and
    one LP per flat for the other polytope flats (lines in 3-D, flats of
    non-box H-polytopes at n >= 4).
    """
    kind = _phi_kind(phi)
    n = M.dim
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    rng, seed = resolve_rng(rng)
    window_radius = _crofton_window(M, window_radius)
    weight = flat_weight(n, j, window_radius)
    if kind == "volume":
        mean = volume_exact(M) * kappa(0) if j == n else 0.0
        return EstimatorResult(mean=mean, std_error=0.0, samples=int(samples),
                               seed=seed, importance_volume=weight)
    if kind == "custom":
        raise ValueError("crofton coefficients support chi and volume only")
    if j == n:
        return EstimatorResult(mean=float(kappa(0)), std_error=0.0,
                               samples=int(samples), seed=seed,
                               importance_volume=weight)
    acc = RunningMean()
    done = 0
    while done < samples:
        B = min(_CROFTON_BATCH, samples - done)
        flats = sample_affine_flat(n, j, rng, window_radius, size=B)
        hit = bd.batch_flat_hits(M, flats.basis, flats.offset)
        acc.update(np.where(hit, weight, 0.0))
        done += B
    return EstimatorResult.from_accumulator(acc, seed, importance_volume=weight)


def rhs_hadwiger_gl(v_l: np.ndarray, constants: dict[int, EstimatorResult],
                    crofton: dict[int, EstimatorResult]) -> dict:
    """Assemble both right-hand-side candidates from estimated pieces.

    v_l holds the intrinsic volumes (V_0, ..., V_n) of L (check_rhs_inputs
    returns them); constants and crofton need c_j and phi_{n-j}(M) for every
    0 <= j <= n. Returns the per-j terms (half convention), their sum, the
    doubled sum, and propagated standard errors.
    """
    n = len(v_l) - 1
    terms = []
    var = 0.0
    for j in range(n + 1):
        c = constants[j]
        f = crofton[j]
        term = c.mean * f.mean * float(v_l[j])
        tvar = (c.mean * f.std_error * v_l[j]) ** 2 + (f.mean * c.std_error * v_l[j]) ** 2
        var += tvar
        terms.append({"j": j, "c_j": c.mean, "c_j_se": c.std_error,
                      "phi_coeff": f.mean, "phi_coeff_se": f.std_error,
                      "v_j": float(v_l[j]), "term": term,
                      "std_error": float(np.sqrt(tvar))})
    half = float(sum(t["term"] for t in terms))
    se = float(np.sqrt(var))
    return {"terms": terms, "rhs_half": half, "rhs_total": 2.0 * half,
            "se_half": se, "se_total": 2.0 * se}


@dataclass
class KinematicReport:
    """Everything needed to compare the two sides of the formula.

    lhs is the headline estimate that z_total, z_half and convention read:
    the translation-exact one when the pair has it, else hit-or-miss. With
    an exact headline, hit_or_miss holds the hit-or-miss estimate with its
    own z-scores, the check that does not rest on Steiner's formula or the
    mixed area (plain rows at the stage budget, trace tilted under gl), and
    lhs_terms (gl with a ball M) compares E_g V_j(gL) with c_j V_j(L) one j
    at a time.
    """

    group: str
    phi: str
    n: int
    seed: int
    samples: int
    lhs: EstimatorResult
    rhs: dict
    constants: dict[int, EstimatorResult]
    crofton: dict[int, EstimatorResult]
    z_total: float
    z_half: float
    convention: str
    hit_or_miss: dict | None = None
    lhs_terms: list[dict] | None = None

    @property
    def lhs_estimator(self) -> str:
        return "hit-or-miss" if self.hit_or_miss is None else "translation-exact"

    def to_dict(self) -> dict:
        """The report as JSON. lhs_estimator, hit_or_miss and lhs_terms
        appear only with an exact headline, so a hit-or-miss report keeps
        its layout (and its bytes)."""
        out = {
            "group": self.group,
            "phi": self.phi,
            "n": self.n,
            "seed": self.seed,
            "samples": self.samples,
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs,
            "constants": {str(j): r.to_dict() for j, r in sorted(self.constants.items())},
            "crofton": {str(j): r.to_dict() for j, r in sorted(self.crofton.items())},
            "z_total": self.z_total,
            "z_half": self.z_half,
            "convention": self.convention,
        }
        if self.hit_or_miss is not None:
            out["lhs_estimator"] = self.lhs_estimator
            out["hit_or_miss"] = self.hit_or_miss
        if self.lhs_terms is not None:
            out["lhs_terms"] = self.lhs_terms
        return out

    def csv_rows(self) -> list[list]:
        rows = [["j", "c_j", "phi_coeff", "v_j", "term", "std_error"]]
        for t in self.rhs["terms"]:
            rows.append([t["j"], t["c_j"], t["phi_coeff"], t["v_j"],
                         t["term"], t["std_error"]])
        return rows


def build_report(group: str, phi, M, L, samples: int, seed: int, *,
                 inner_samples: int = INNER_SAMPLES,
                 cj_samples: int | None = None,
                 crofton_samples: int | None = None,
                 window_radius: float | None = None,
                 constants: dict[int, EstimatorResult] | None = None,
                 threads: int = 1) -> KinematicReport:
    """Run both sides and package the comparison.

    The stages run on one chunk plan (estimation.run_chunks) in the order
    LHS, c_j, then Crofton j = 0..n, so every chunk of every stage draws
    from its own child of SeedSequence(seed) and the report depends only
    on its arguments, never on threads. Nothing is drawn before the inputs
    are checked: check_lhs_inputs (inner_samples too, so no stage starts
    at any thread count), check_rhs_inputs (which also gives L's intrinsic
    volumes), the window (_crofton_window) and every stage budget
    (run_chunks); each refusal is a ValueError. cj_samples and
    crofton_samples default to stage_samples(samples). The c_j stage
    reserves its streams even when it draws nothing: when constants are
    given (e.g. from a cache file) or the group is compact, where every c_j
    is 1; constants other than c_j = 1 for a compact group raise
    ValueError. Each stage merges its chunks in order.

    The headline lhs is the translation-exact estimate when the pair has
    one, else the hit-or-miss estimate; z_total, z_half and convention read
    the headline. With an exact headline the report also carries the
    hit-or-miss estimate with its own z-scores, a check drawn over
    min(k, stage_samples(k)) rows of each LHS chunk of k samples
    (lhs_kinematic), and under gl with a ball M
    the per-j check lhs_terms: for each j the estimate of E_g V_j(gL), the
    prediction c_j V_j(L) and z, the term's standard error combined with
    V_j(L) se(c_j). Under O(n) and SO(n) every V_j(gL) is V_j(L) and
    c_j = 1, so the split tests nothing and is left out.
    """
    n = M.dim
    kind = check_lhs_inputs(group, phi, M, L, inner_samples)
    _, deforms = GROUPS[group]
    if not deforms and constants is not None and any(
            (c.mean, c.std_error) != (1.0, 0.0) for c in constants.values()):
        raise ValueError(f"group {group} draws no X, so every c_j is 1; "
                         "the given constants are not")
    v_l = check_rhs_inputs(phi, M, L)
    window_radius = _crofton_window(M, window_radius)
    stage = stage_samples(samples)
    cj_worker = None
    if constants is None and deforms:
        from .weyl import c_direct

        def cj_worker(rng, k):
            return c_direct(n, k, rng)

    # the workers look lhs_kinematic and crofton_coefficient up when called
    stages = [(lambda rng, k: lhs_kinematic(group, phi, M, L, k, rng,
                                            inner_samples=inner_samples), samples),
              (cj_worker, stage if cj_samples is None else cj_samples)]
    stages += [(lambda rng, k, j=j: crofton_coefficient(phi, M, j, k, rng,
                                                        window_radius=window_radius),
                stage if crofton_samples is None else crofton_samples)
               for j in range(n + 1)]
    lhs_parts, cj_parts, *crofton_parts = run_chunks(stages, seed, threads)
    lhs = merge_lhs(lhs_parts, seed)
    if cj_worker is not None:
        constants = merge_constants(cj_parts, seed)
    elif constants is None:
        constants = {j: EstimatorResult(1.0, 0.0, 1, seed) for j in range(n + 1)}
    crofton = {j: merge_results(parts, seed) for j, parts in enumerate(crofton_parts)}
    rhs = rhs_hadwiger_gl(v_l, constants, crofton)

    def z_pair(est: EstimatorResult) -> tuple[float, float]:
        return (z_score(est.mean, est.std_error, rhs["rhs_total"], rhs["se_total"]),
                z_score(est.mean, est.std_error, rhs["rhs_half"], rhs["se_half"]))

    extra = {}
    if lhs.exact is not None:
        hzt, hzh = z_pair(lhs)
        extra["hit_or_miss"] = {"lhs": lhs.to_dict(), "z_total": hzt, "z_half": hzh}
        if deforms and lhs.terms is not None:
            extra["lhs_terms"] = _term_checks(lhs.terms, constants, rhs)
    head = lhs if lhs.exact is None else lhs.exact
    zt, zh = z_pair(head)
    return KinematicReport(group=group, phi=kind, n=n, seed=seed, samples=samples,
                           lhs=head, rhs=rhs, constants=constants,
                           crofton=crofton, z_total=zt, z_half=zh,
                           convention="half" if zh <= zt else "total", **extra)


def _term_checks(terms: list[EstimatorResult], constants: dict[int, EstimatorResult],
                 rhs: dict) -> list[dict]:
    """Per j: the estimate of E_g V_j(gL) against c_j V_j(L)."""
    out = []
    for j, est in enumerate(terms):
        v = rhs["terms"][j]["v_j"]
        want, want_se = constants[j].mean * v, constants[j].std_error * v
        out.append({"j": j, "mean": est.mean, "std_error": est.std_error,
                    "c_j_v_j": want, "c_j_v_j_se": want_se,
                    "z": z_score(est.mean, est.std_error, want, want_se)})
    return out


# ---------------------------------------------------------------------------
# separation lemma check


@dataclass
class LemmaCheck:
    trials: int
    agreements: int
    disagreements: int
    boundary_skips: int
    stratum_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"trials": self.trials, "agreements": self.agreements,
                "disagreements": self.disagreements,
                "boundary_skips": self.boundary_skips,
                "stratum_counts": self.stratum_counts,
                "failures": self.failures}


def check_lemma_inputs(M, L) -> None:
    """Refuse a pair separation_lemma_check cannot run, with ValueError.

    Both bodies must be V-polytopes in the plane, and their difference body
    M + (-gL) must be 2-D (it is for almost every g unless the affine hulls
    of M and L have dimensions summing below 2: a point and a point or a
    segment), since the boundary stratum walks its edges.
    """
    if not isinstance(M, bd.VPolytope) or not isinstance(L, bd.VPolytope):
        raise ValueError("lemma-check needs V-polytope bodies")
    if M.dim != 2 or L.dim != 2:
        raise ValueError("lemma-check runs in the plane")
    if bd.affine_rank(M.vertices) + bd.affine_rank(L.vertices) < 2:
        raise ValueError("lemma-check needs a 2-D difference body; M and L "
                         "are a point and a point or a segment")


def separation_lemma_check(M: bd.VPolytope, L: bd.VPolytope, trials: int,
                           rng) -> LemmaCheck:
    """Stress the boundary biconditional on random deformations of L.

    Trial i draws g = k exp(X), builds the difference body D = M + (-gL) and
    plants the translation t in stratum i mod 3: the interior of D, its
    boundary (a point on an edge drawn by length, its position jittered
    along the edge) or its exterior. The claim under test: M and gL + t
    intersect AND admit a separating hyperplane exactly when t lies on the
    boundary of D.

    Every trial goes through each step at once:
    - k, X and g are drawn for all trials, g = k V e^Lambda V^T and
      g^-1 = V e^-Lambda V^T k^T from one eigendecomposition X = V Lambda V^T
      (symmetric.eigh_sym);
    - each D is the edge merge bodies.minkowski_rings of M's ring and that
      of -gL (bodies.polygon_ring of L, reversed where det g < 0 so it
      stays counter-clockwise), from M's and L's geometry alone;
    - interior and exterior candidates are drawn in rounds of
      _LEMMA_ROUND per trial still open, from D's box (interior) or the box
      twice its size around it (exterior), and the first that lies inside
      (outside) D's edge half-planes and farther than _SKIP_MARGIN from its
      boundary (bodies._edge_distance) is kept; a trial with none after
      _LEMMA_CANDIDATES candidates counts as a boundary_skip;
    - both predicates are read off one batched separating-axis pass
      (bodies._polygon_gaps, the kernel of batch_intersects): M and gL + t
      meet when every gap is at most TOL, and a hyperplane separates them
      when the largest gap is at least -TOL.
    failures holds the first 10 disagreements in trial order. The result
    depends only on the bodies, trials and the stream of rng; inputs are
    checked by check_lemma_inputs.
    """
    check_lemma_inputs(M, L)
    rng, _ = resolve_rng(rng)
    strata = ("interior", "boundary", "exterior")
    T = int(trials)
    if T == 0:
        return LemmaCheck(trials=0, agreements=0, disagreements=0, boundary_skips=0,
                          stratum_counts=dict.fromkeys(strata, 0))
    stratum = np.arange(T) % 3
    k = sample_haar_orthogonal(2, rng, size=T)
    X = sample_gaussian_sym(2, rng, size=T)
    lam, V = eigh_sym(X)
    G = k @ congruence(V, np.exp(lam))
    invG = congruence(V, np.exp(-lam)) @ np.swapaxes(k, 1, 2)
    ringL = bd.polygon_ring(L) @ -np.swapaxes(G, 1, 2)  # (T, l, 2): -g L
    flip = np.linalg.det(G) < 0
    ringL[flip] = ringL[flip, ::-1]
    D = bd.minkowski_rings(bd.polygon_ring(M), ringL)  # (T, K, 2)
    E = np.roll(D, -1, axis=1) - D
    normals = np.stack([E[..., 1], -E[..., 0]], axis=-1)  # outward, unnormalized
    offsets = np.einsum("tki,tki->tk", normals, D)
    lo, hi = D.min(axis=1), D.max(axis=1)
    span = hi - lo
    t = np.full((T, 2), np.nan)
    for s, box_lo, box_span in ((0, lo, span), (2, lo - 0.5 * span, 2.0 * span)):
        open_ = np.flatnonzero(stratum == s)
        for _ in range(_LEMMA_CANDIDATES // _LEMMA_ROUND):
            if open_.size == 0:
                break
            cand = (box_lo[open_, None, :]
                    + rng.random((open_.size, _LEMMA_ROUND, 2)) * box_span[open_, None, :])
            inside = np.all(cand @ np.swapaxes(normals[open_], 1, 2)
                            <= offsets[open_, None, :], axis=2)
            ok = ((inside == (s == 0))
                  & (bd._edge_distance(D[open_], cand) > _SKIP_MARGIN))
            found = ok.any(axis=1)
            t[open_[found]] = cand[found, ok[found].argmax(axis=1)]
            open_ = open_[~found]
    edge = np.flatnonzero(stratum == 1)
    cum = np.cumsum(np.hypot(E[edge, :, 0], E[edge, :, 1]), axis=1)
    pick = rng.random(edge.size) * cum[:, -1]
    idx = np.minimum((cum <= pick[:, None]).sum(axis=1), D.shape[1] - 1)
    u = np.clip(rng.random(edge.size) + 0.1 * rng.standard_normal(edge.size), 0.0, 1.0)
    t[edge] = D[edge, idx] + u[:, None] * E[edge, idx]
    have = np.flatnonzero(~np.isnan(t[:, 0]))
    _, gaps = bd._polygon_gaps(M, L, G[have], invG[have], t[have])
    nonempty = np.all(gaps <= bd.TOL, axis=1)
    separable = gaps.max(axis=1) >= -bd.TOL
    agree = (nonempty & separable) == (stratum[have] == 1)
    agreements = int(agree.sum())
    return LemmaCheck(
        trials=T, agreements=agreements, disagreements=have.size - agreements,
        boundary_skips=T - have.size,
        stratum_counts={name: int(np.sum(stratum[have] == s)) for s, name in enumerate(strata)},
        failures=[{"stratum": strata[stratum[have[r]]], "t": t[have[r]].tolist(),
                   "nonempty": bool(nonempty[r]), "separable": bool(separable[r])}
                  for r in np.flatnonzero(~agree)[:10]])
