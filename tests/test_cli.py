import json
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from intgeo import bodies as bd
from intgeo import cli, estimation
from intgeo.estimation import CHUNK_SAMPLES, run_chunks


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "intgeo.cli", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def canonical(payload_text):
    data = json.loads(payload_text)
    data.pop("metadata")
    return json.dumps(data, sort_keys=True)


@pytest.fixture(scope="module")
def ball2(tmp_path_factory):
    path = tmp_path_factory.mktemp("bodies") / "ball2.json"
    path.write_text(json.dumps(bd.body_to_dict(bd.unit_ball(2))))
    return str(path)


@pytest.fixture(scope="module")
def box2(tmp_path_factory):
    path = tmp_path_factory.mktemp("bodies") / "box2.json"
    path.write_text(json.dumps(bd.body_to_dict(bd.cube(2, side=2.0,
                                                       centered=True))))
    return str(path)


def test_seed_is_required(ball2):
    rc, _, err = run_cli("intrinsic", "--body", ball2)
    assert rc == 2
    assert "--seed" in err


def test_intrinsic_closed_json(ball2):
    rc, out, _ = run_cli("intrinsic", "--body", ball2, "--seed", "1")
    assert rc == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    np.testing.assert_allclose(data["results"]["values"],
                               [1.0, np.pi, np.pi], atol=1e-9)
    assert "timestamp" in data["metadata"]


def test_intrinsic_csv(ball2):
    rc, out, _ = run_cli("intrinsic", "--body", ball2, "--seed", "1",
                         "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["j", "value", "std_error"]
    assert len(lines) == 4


def test_intrinsic_steiner_scientific_notation(box2):
    rc, out, _ = run_cli("intrinsic", "--body", box2, "--method", "steiner",
                         "--samples", "2e4", "--seed", "9")
    assert rc == 0
    data = json.loads(out)
    vals = data["results"]["values"]
    np.testing.assert_allclose(vals, [1.0, 4.0, 4.0], rtol=0.2)


def test_bad_sample_count(box2):
    rc, _, err = run_cli("intrinsic", "--body", box2, "--method", "steiner",
                         "--samples", "lots", "--seed", "1")
    assert rc == 2
    assert "sample count" in err


def test_bad_body_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "blob"}))
    rc, _, err = run_cli("intrinsic", "--body", str(path), "--seed", "1")
    assert rc == 2
    assert "body" in err


@pytest.mark.parametrize("args, message", [
    (["kinematic", "--window-radius", "0.5"], "outer radius"),
    (["kinematic", "--window-radius", "abc"], "window-radius"),
    (["kinematic", "--phi", "volume", "--inner-samples", "-3"], "sample count"),
    (["cj", "--n", "2", "--j", "a"], "--j"),
], ids=["window-below-outer-radius", "window-not-a-number",
        "negative-inner-samples", "j-not-an-integer"])
def test_bad_values_are_configuration_errors(ball2, args, message):
    if args[0] == "kinematic":
        args = args + ["--M", ball2, "--L", ball2, "--samples", "100"]
    rc, _, err = run_cli(*args, "--seed", "1")
    assert rc == 2
    assert message in err and "Traceback" not in err


def test_thread_pool_is_capped_at_the_core_count(monkeypatch):
    # records the pool size instead of starting threads
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(estimation, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(estimation.os, "cpu_count", lambda: 2)
    chunk = CHUNK_SAMPLES
    samples = 4 * chunk + 5

    def draw(rng, k):
        return k, rng.random()

    [parts] = run_chunks([(draw, samples)], 3, 100000)
    assert pools == [2]
    # the chunk plan follows the sample count alone, never --threads
    streams = np.random.SeedSequence(3).spawn(5)
    assert parts == [(k, np.random.default_rng(s).random())
                     for k, s in zip([chunk] * 4 + [5], streams)]
    assert run_chunks([(draw, samples)], 3, 1) == [parts]
    # one chunk runs in the calling thread, whatever --threads says
    pools.clear()
    assert run_chunks([(lambda rng, k: k, chunk)], 3, 100000) == [[chunk]]
    assert pools == []
    # later stages take the next children; a stage without a worker takes
    # its children and runs nothing
    staged = run_chunks([(draw, chunk + 1), (None, 7), (draw, 5)], 3, 1)
    assert staged == [parts[:1] + [(1, np.random.default_rng(streams[1]).random())],
                      [], [(5, np.random.default_rng(streams[3]).random())]]


def test_numerical_failure_exit_code(tmp_path):
    # pathological axis ratio: the n >= 4 grid refuses to answer (n <= 3
    # ellipsoids have closed forms valid at any ratio)
    path = tmp_path / "thin.json"
    body = {"type": "ellipsoid", "center": [0.0] * 4,
            "axes": np.eye(4).tolist(), "semiaxes": [1.0, 1.0, 1.0, 1e-30]}
    path.write_text(json.dumps(body))
    rc, _, err = run_cli("intrinsic", "--body", str(path), "--seed", "1")
    assert rc == 3
    assert "numerical failure" in err


def test_unconverged_ellipsoid_distance_exits_3(ball2, tmp_path, monkeypatch, capsys):
    # one Newton step cannot settle the distances of the chi integrand
    path = tmp_path / "ell.json"
    path.write_text(json.dumps(bd.body_to_dict(
        bd.Ellipsoid([0.0, 0.0], np.eye(2), [1.5, 0.5]))))
    monkeypatch.setattr(bd, "_NEWTON_STEPS", 1)
    rc = cli.main(["kinematic", "--M", ball2, "--L", str(path), "--seed", "1",
                   "--samples", "200", "--crofton-samples", "200",
                   "--cj-samples", "200", "--threads", "1",
                   "--out", str(tmp_path / "out.json")])
    assert rc == 3
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("radii, message", [
    ("abc", "--radii"),
    ("0.5,nan,1,2", "finite"),
    ("0.5,inf,1,2", "finite"),
    ("0.5,-1,1,2", "positive"),
    ("0.5,1", "n + 1"),
], ids=["not-a-number", "nan", "inf", "negative", "too-few"])
def test_bad_radii_are_configuration_errors(box2, radii, message):
    rc, _, err = run_cli("intrinsic", "--body", box2, "--method", "steiner",
                         "--samples", "100", "--radii", radii, "--seed", "1")
    assert rc == 2
    assert message in err and "Traceback" not in err


def test_chi_ball_vs_polytope_above_3d_is_refused(tmp_path):
    cube = tmp_path / "cube4.json"
    cube.write_text(json.dumps(bd.body_to_dict(bd.cube(4, side=2.0, centered=True))))
    ball = tmp_path / "ball4.json"
    ball.write_text(json.dumps(bd.body_to_dict(bd.unit_ball(4))))
    rc, _, err = run_cli("kinematic", "--group", "so", "--M", str(cube),
                         "--L", str(ball), "--seed", "1", "--samples", "100")
    assert rc == 2
    assert "n <= 3" in err and "Traceback" not in err


def test_cj_rejects_n_beyond_weyl_range():
    rc, _, err = run_cli("cj", "--n", "7", "--seed", "1", "--samples", "100")
    assert rc == 2
    assert "direct" in err  # points at the workaround
    rc, out, _ = run_cli("cj", "--n", "7", "--method", "direct", "--seed", "1",
                         "--samples", "200")
    assert rc == 0
    assert "7" in json.loads(out)["results"]["direct"]


def test_cj_both_routes_and_cache(tmp_path):
    cache = tmp_path / "cache.json"
    rc, out, _ = run_cli("cj", "--n", "2", "--seed", "3", "--samples", "2e4",
                         "--cache", str(cache), "--threads", "2")
    assert rc == 0
    data = json.loads(out)
    for route in ("direct", "weyl"):
        c0 = data["results"][route]["0"]
        assert abs(c0["mean"] - 1.0) < 5.0 * max(c0["std_error"], 1e-12)
    assert data["results"]["weyl"]["0"]["ess"] > 0.5
    assert data["params"]["samples"] == 20000
    assert "shard_samples" not in data["params"]
    cached = json.loads(cache.read_text())
    assert {r["method"] for r in cached["constants"]} == {"direct", "weyl"}


def test_kinematic_uses_cache_and_is_deterministic(ball2, tmp_path):
    cache = tmp_path / "cj.json"
    rc, _, _ = run_cli("cj", "--n", "2", "--method", "direct", "--seed", "5",
                       "--samples", "1e4", "--cache", str(cache))
    assert rc == 0
    args = ("kinematic", "--group", "gl", "--phi", "chi", "--M", ball2,
            "--L", ball2, "--samples", "4e3", "--seed", "11",
            "--crofton-samples", "4e3", "--cj-cache", str(cache),
            "--threads", "2")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert canonical(out1) == canonical(out2)
    data = json.loads(out1)
    assert data["results"]["convention"] in ("half", "total")
    assert data["params"]["threads"] == 2 and "shard_samples" not in data["params"]


def test_kinematic_csv(ball2):
    rc, out, _ = run_cli("kinematic", "--group", "so", "--phi", "chi",
                         "--M", ball2, "--L", ball2, "--samples", "2e3",
                         "--crofton-samples", "2e3", "--seed", "2",
                         "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0].split(",") == ["j", "c_j", "phi_coeff", "v_j",
                                              "term", "std_error"]


def test_kinematic_dimension_mismatch(ball2, tmp_path):
    path = tmp_path / "ball3.json"
    path.write_text(json.dumps(bd.body_to_dict(bd.unit_ball(3))))
    rc, _, err = run_cli("kinematic", "--M", ball2, "--L", str(path),
                         "--seed", "1", "--samples", "100")
    assert rc == 2
    assert "dimension" in err


def test_kinematic_rejects_wrong_cache(ball2, tmp_path):
    cache = tmp_path / "cj3.json"
    rc, _, _ = run_cli("cj", "--n", "3", "--method", "direct", "--seed", "5",
                       "--samples", "1e3", "--cache", str(cache))
    assert rc == 0
    rc, _, err = run_cli("kinematic", "--M", ball2, "--L", ball2, "--seed", "1",
                         "--samples", "100", "--crofton-samples", "100",
                         "--cj-cache", str(cache))
    assert rc == 2
    assert "cache" in err


def test_config_file_merges_under_flags(ball2, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "so", "phi": "chi", "M": ball2,
                               "L": ball2, "samples": "2e3",
                               "crofton-samples": "2e3"}))
    rc, out, _ = run_cli("kinematic", "--config", str(cfg), "--seed", "4",
                         "--samples", "1e3")
    assert rc == 0
    data = json.loads(out)
    assert data["params"]["samples"] == 1000  # flag beat the config value
    assert data["params"]["group"] == "so"


@pytest.mark.parametrize("cfg", [
    {"threads": "two"},
    {"samples": [1], "n": 2},
    {"n": "x", "samples": "100"},
], ids=["threads-not-an-integer", "samples-a-list", "n-not-an-integer"])
def test_config_values_get_the_flag_checks(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = ["cj", "--config", str(path), "--seed", "1", "--method", "direct"]
    if "n" not in cfg:
        args += ["--n", "2", "--samples", "100"]
    rc, _, err = run_cli(*args)
    assert rc == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("command, cfg", [
    ("cj", {"method": "luck"}),
    ("kinematic", {"group": "GL"}),
    ("kinematic", {"phi": "girth"}),
    ("intrinsic", {"method": "exact"}),
], ids=["cj-method", "kinematic-group", "kinematic-phi", "intrinsic-method"])
def test_config_values_outside_the_choices_are_refused(ball2, tmp_path, command, cfg):
    # the flags' choices are the only check of these values
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    body = (["--body", ball2] if command == "intrinsic" else
            ["--M", ball2, "--L", ball2] if command == "kinematic" else ["--n", "2"])
    rc = cli.main([command, "--config", str(path), "--seed", "1", "--samples", "100",
                   "--out", str(tmp_path / "out.json")] + body)
    assert rc == 2
    assert not (tmp_path / "out.json").exists()


@pytest.fixture(scope="module")
def ellipse2(tmp_path_factory):
    path = tmp_path_factory.mktemp("bodies") / "ellipse2.json"
    path.write_text(json.dumps(bd.body_to_dict(
        bd.Ellipsoid([0.2, -0.1], [[0.8, -0.6], [0.6, 0.8]], [1.3, 0.5]))))
    return str(path)


@pytest.mark.parametrize("args, L", [
    (["cj", "--n", "2", "--samples", str(CHUNK_SAMPLES + 5000)], None),
    (["kinematic", "--group", "so", "--samples", str(CHUNK_SAMPLES + 300),
      "--crofton-samples", "2000", "--cj-samples", "2000"], "ball2"),
    # the exact LHS and its per-j terms merge across the two chunks too
    (["kinematic", "--group", "gl", "--samples", str(CHUNK_SAMPLES + 300),
      "--crofton-samples", "2000", "--cj-samples", "2000"], "ellipse2"),
    # the c_j and Crofton stages run on the same chunk plan
    (["kinematic", "--group", "gl", "--samples", "2000",
      "--crofton-samples", str(CHUNK_SAMPLES + 300),
      "--cj-samples", str(CHUNK_SAMPLES + 300)], "ball2"),
], ids=["cj-two-chunks", "kinematic-two-chunks", "kinematic-gl-ellipse-two-chunks",
        "kinematic-gl-stages-two-chunks"])
def test_results_do_not_depend_on_the_thread_count(request, ball2, tmp_path, monkeypatch,
                                                   args, L):
    if L is not None:
        args = args + ["--M", ball2, "--L", request.getfixturevalue(L)]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a real pool even on one core
    out = []
    for threads in ("1", "2"):
        path = tmp_path / f"out{threads}.json"
        assert cli.main(args + ["--seed", "8", "--threads", threads, "--out", str(path)]) == 0
        out.append(json.dumps(json.loads(path.read_text())["results"], sort_keys=True))
    assert out[0] == out[1]
    if L == "ellipse2":
        results = json.loads(out[0])
        assert results["lhs_estimator"] == "translation-exact"
        assert results["lhs"]["samples"] == results["hit_or_miss"]["lhs"]["samples"]
        assert len(results["lhs_terms"]) == 3


def test_parse_samples_rejects_non_scalars():
    for bad in ([1], {"n": 1}, True, None):
        with pytest.raises(cli.ConfigError):
            cli.parse_samples(bad)
    assert cli.parse_samples(1000) == cli.parse_samples("1e3") == 1000


def test_out_writes_file(ball2, tmp_path):
    target = tmp_path / "res.json"
    rc, out, _ = run_cli("intrinsic", "--body", ball2, "--seed", "1",
                         "--out", str(target))
    assert rc == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["command"] == "intrinsic"


def test_lemma_check_cli():
    rc, out, _ = run_cli("lemma-check", "--trials", "80", "--seed", "6")
    assert rc == 0
    data = json.loads(out)
    assert data["results"]["disagreements"] == 0
    assert data["results"]["trials"] == 80


def test_lemma_check_rejects_non_polytope(ball2):
    rc, _, err = run_cli("lemma-check", "--trials", "10", "--seed", "1",
                         "--M", ball2, "--L", ball2)
    assert rc == 2
    assert "polytope" in err


def test_lemma_check_refuses_a_flat_difference_body(tmp_path):
    # a one-vertex polygon and a segment have a 1-D difference body, which
    # has no edges to plant boundary translations on
    M = tmp_path / "point.json"
    L = tmp_path / "segment.json"
    M.write_text(json.dumps({"type": "vpolytope", "vertices": [[0.0, 0.0]]}))
    L.write_text(json.dumps({"type": "vpolytope", "vertices": [[0.0, 0.0], [1.0, 0.5]]}))
    rc, _, err = run_cli("lemma-check", "--trials", "10", "--seed", "1",
                         "--M", str(M), "--L", str(L))
    assert rc == 2
    assert "2-D difference body" in err


@pytest.mark.parametrize("body", [
    {"type": "ellipsoid", "center": [0.0, 0.0], "axes": [[1.0, 0.0], [0.0, 1.0]],
     "semiaxes": [1e400, 1.0]},
    {"type": "ball", "center": [0.0, float("nan")], "radius": 1.0},
    {"type": "ball", "center": [0.0, 0.0], "radius": float("inf")},
    {"type": "hpolytope", "normals": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
     "offsets": [1.0, 1.0, float("inf"), 1.0]},
    {"type": "vpolytope", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, float("-inf")]]},
], ids=["ellipsoid-1e400", "ball-nan-center", "ball-inf-radius", "hpolytope-inf-offset",
        "vpolytope-inf-vertex"])
def test_non_finite_body_entries_are_configuration_errors(tmp_path, body):
    # JSON's Infinity and NaN tokens, and 1e400, which parses as inf
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body).replace("1e+400", "1e400"))
    rc, out, err = run_cli("intrinsic", "--body", str(path), "--seed", "1")
    assert rc == 2, out
    assert "finite" in err and "Traceback" not in err


_SCIPY_PROBE = """
import json, sys
from intgeo import cli
report = []
for argv in json.loads(sys.argv[1]):
    rc = cli.main(argv)
    report.append([argv[0], rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(report))
"""


def test_workload_commands_never_load_scipy(tmp_path):
    # one interpreter runs every benchmark command shape, and closed-form
    # intrinsic volumes of an ellipsoid and of polygons; after each one
    # scipy must be absent from sys.modules, not merely imported late
    def body(name, data):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    ang = 2.0 * np.pi * np.arange(7) / 7.0 + 0.1
    hang = 2.0 * np.pi * np.arange(6) / 6.0 + 0.2
    ball3 = body("ball3", bd.body_to_dict(bd.unit_ball(3)))
    disc = body("disc", bd.body_to_dict(bd.unit_ball(2)))
    ell3 = body("ell3", bd.body_to_dict(bd.Ellipsoid(np.zeros(3), np.eye(3), [1.3, 0.9, 0.6])))
    ell2 = body("ell2", bd.body_to_dict(bd.Ellipsoid(np.zeros(2), np.eye(2), [1.3, 1e-9])))
    hM = body("hM", {"type": "hpolytope", "offsets": [1.0] * 6,
                     "normals": np.column_stack([np.cos(hang), np.sin(hang)]).tolist()})
    hL = body("hL", bd.body_to_dict(bd.cube(2, side=1.5, centered=True)))
    vM = body("vM", {"type": "vpolytope",
                     "vertices": (np.column_stack([np.cos(ang), np.sin(ang)]) * [1.0, 0.8]).tolist()})
    vL = body("vL", {"type": "vpolytope",
                     "vertices": (np.column_stack([np.cos(hang), np.sin(hang)]) * 0.9).tolist()})
    cj2, cj3 = str(tmp_path / "cj2.json"), str(tmp_path / "cj3.json")
    common = ["--threads", "1", "--out", str(tmp_path / "out.json")]
    commands = [
        ["cj", "--n", "2", "--method", "both", "--samples", "4000", "--seed", "11",
         "--cache", cj2],
        ["cj", "--n", "3", "--method", "both", "--samples", "4000", "--seed", "12",
         "--cache", cj3],
        ["cj", "--n", "5", "--method", "direct", "--samples", "2000", "--seed", "13"],
        ["kinematic", "--phi", "chi", "--M", ball3, "--L", ell3, "--samples", "2000",
         "--cj-cache", cj3, "--seed", "21"],
        ["kinematic", "--phi", "volume", "--M", disc, "--L", disc, "--samples", "500",
         "--inner-samples", "16", "--cj-cache", cj2, "--seed", "22"],
        ["kinematic", "--phi", "chi", "--M", hM, "--L", hL, "--samples", "300",
         "--crofton-samples", "1000", "--cj-cache", cj2, "--seed", "31"],
        ["lemma-check", "--trials", "30", "--M", vM, "--L", vL, "--seed", "7"],
        ["intrinsic", "--method", "closed", "--body", ell3, "--seed", "1"],
        ["intrinsic", "--method", "closed", "--body", ell2, "--seed", "1"],
        ["intrinsic", "--method", "closed", "--body", vM, "--seed", "1"],
        ["intrinsic", "--method", "closed", "--body", hM, "--seed", "1"],
    ]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                           json.dumps([c + common for c in commands])],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(report) == len(commands)
    for name, rc, scipy_modules in report:
        assert rc == 0 and scipy_modules == [], (name, rc, scipy_modules)


@pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cj-cache"])
@pytest.mark.parametrize("samples", [2000, CHUNK_SAMPLES + 300],
                         ids=["one-chunk", "two-chunks"])
def test_library_and_cli_reports_agree(ball2, ellipse2, tmp_path, samples, cache):
    # build_report drives the command, so the same config and seed give the
    # same results bytes on both paths
    from intgeo import kinematic, weyl

    stages = ["--cj-samples", "2000", "--crofton-samples", "2000"]
    constants = None
    if cache:
        path = str(tmp_path / "cj2.json")
        assert cli.main(["cj", "--n", "2", "--method", "direct", "--samples", "2000",
                         "--seed", "3", "--threads", "1", "--cache", path,
                         "--out", str(tmp_path / "cj.json")]) == 0
        stages += ["--cj-cache", path]
        constants = weyl.lookup_constants(weyl.load_constants(path), 2, method="direct")
    out = tmp_path / "out.json"
    assert cli.main(["kinematic", "--group", "gl", "--M", ball2, "--L", ellipse2,
                     "--samples", str(samples), "--seed", "9", "--threads", "1",
                     "--out", str(out)] + stages) == 0
    rep = kinematic.build_report("gl", "chi", bd.load_body(ball2), bd.load_body(ellipse2),
                                 samples, 9, cj_samples=2000, crofton_samples=2000,
                                 constants=constants)
    assert (json.dumps(json.loads(out.read_text())["results"], sort_keys=True)
            == json.dumps(rep.to_dict(), sort_keys=True))


def test_every_workload_shape_samples_first_where_the_setup_probe_stops(tmp_path,
                                                                        monkeypatch):
    # the benchmark's setup probe times a fresh start up to the first sample
    # by making these three raise; each command must reach one of them
    # before it draws anything for the c_j or Crofton stages
    from intgeo import kinematic, weyl

    def body(name, data):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    disc = body("disc", bd.body_to_dict(bd.unit_ball(2)))
    ang = 2.0 * np.pi * np.arange(6) / 6.0 + 0.1
    vM = body("vM", {"type": "vpolytope",
                     "vertices": np.column_stack([np.cos(ang), np.sin(ang)]).tolist()})
    vL = body("vL", {"type": "vpolytope", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]})
    common = ["--seed", "4", "--threads", "1", "--out", str(tmp_path / "out.json")]
    cache = str(tmp_path / "cj2.json")
    assert cli.main(["cj", "--n", "2", "--method", "direct", "--samples", "2000",
                     "--cache", cache] + common) == 0

    class FirstSample(Exception):
        pass

    def first_sample(*_, **__):
        raise FirstSample

    drawn = []
    for mod, name in ((weyl, "c_direct"), (kinematic, "crofton_coefficient")):
        monkeypatch.setattr(mod, name, lambda *a, name=name, **k: drawn.append(name))
    monkeypatch.setattr(weyl, "compute_constants", first_sample)
    monkeypatch.setattr(kinematic, "lhs_kinematic", first_sample)
    monkeypatch.setattr(kinematic, "separation_lemma_check", first_sample)
    kin = ["kinematic", "--group", "gl", "--M", disc, "--L", disc, "--samples", "1000"]
    for argv in (["cj", "--n", "2", "--method", "both", "--samples", "1000"],
                 kin, kin + ["--cj-cache", cache],
                 ["lemma-check", "--trials", "10", "--M", vM, "--L", vL]):
        with pytest.raises(FirstSample):
            cli.main(argv + common)
        assert drawn == [], argv
