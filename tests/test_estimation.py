import math

import numpy as np
import pytest

from intgeo.estimation import (EstimatorResult, RunningMean, merge_results,
                               resolve_rng, run_chunks, z_score)


def test_resolve_rng_seed_reproducible():
    rng1, s1 = resolve_rng(123)
    rng2, s2 = resolve_rng(123)
    assert s1 == s2 == 123
    assert np.array_equal(rng1.random(5), rng2.random(5))


def test_resolve_rng_generator_passthrough():
    g = np.random.default_rng(0)
    rng, seed = resolve_rng(g)
    assert rng is g
    assert seed == -1


def test_running_mean_matches_numpy():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(1000) * 3.0 + 1.0
    acc = RunningMean()
    for chunk in np.array_split(x, 13):
        acc.update(chunk)
    assert acc.count == 1000
    assert abs(acc.mean - np.mean(x)) < 1e-12
    se = np.std(x, ddof=1) / np.sqrt(1000.0)
    assert abs(acc.std_error - se) < 1e-12


def test_running_mean_merge_equals_single_pass():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(500)
    whole = RunningMean()
    whole.update(x)
    a, b = RunningMean(), RunningMean()
    a.update(x[:200])
    b.update(x[200:])
    a.merge(b)
    assert a.count == whole.count
    assert abs(a.mean - whole.mean) < 1e-12
    assert abs(a.m2 - whole.m2) < 1e-9


def test_running_mean_empty_and_single():
    acc = RunningMean()
    acc.update(np.array([]))
    assert acc.count == 0
    acc.update(np.array([2.0]))
    assert acc.count == 1
    assert acc.std_error == 0.0


def test_estimator_result_validation():
    with pytest.raises(ValueError):
        EstimatorResult(mean=1.0, std_error=-0.1, samples=10, seed=0)
    with pytest.raises(ValueError):
        EstimatorResult(mean=1.0, std_error=0.1, samples=0, seed=0)


def test_estimator_result_to_dict():
    r = EstimatorResult(mean=2.0, std_error=0.5, samples=100, seed=7,
                        importance_volume=3.0)
    d = r.to_dict()
    assert d == {"mean": 2.0, "std_error": 0.5, "samples": 100, "seed": 7,
                 "importance_volume": 3.0}


def test_merge_results_reconstructs_pooled_estimate():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(900) * 2.0
    parts = []
    for chunk in np.array_split(x, 3):
        acc = RunningMean()
        acc.update(chunk)
        parts.append(EstimatorResult.from_accumulator(acc, seed=1))
    merged = merge_results(parts, seed=1)
    whole = RunningMean()
    whole.update(x)
    assert merged.samples == 900
    assert abs(merged.mean - whole.mean) < 1e-12
    assert abs(merged.std_error - whole.std_error) < 1e-12


def test_merge_results_passes_a_single_part_through():
    # (mean * count) / count rounds 3.1339271675150338 to ...333 at 1e5 samples
    r = EstimatorResult(mean=3.1339271675150338, std_error=0.012345678901234567,
                        samples=100000, seed=4, importance_volume=2.5)
    merged = merge_results([r], seed=9)
    assert merged == EstimatorResult(r.mean, r.std_error, r.samples, 9, 2.5)


def test_running_mean_merge_into_empty_copies_exactly():
    src = RunningMean()
    src.count, src.mean, src.m2 = 100000, 3.1339271675150338, 0.7
    acc = RunningMean()
    acc.merge(src)
    assert (acc.count, acc.mean, acc.m2) == (src.count, src.mean, src.m2)


def test_merge_results_keeps_an_exact_constant_exact():
    # two chunks of 2^17 + 2976 samples of the constant e^2 with no error:
    # (mean * count + mean * count) / total comes back one ulp off
    e2 = math.exp(2)
    parts = [EstimatorResult(e2, 0.0, 131072, 0), EstimatorResult(e2, 0.0, 2976, 0)]
    merged = merge_results(parts, seed=0)
    assert (merged.mean, merged.std_error, merged.samples) == (e2, 0.0, 134048)


def test_merge_results_empty_raises():
    with pytest.raises(ValueError):
        merge_results([], seed=0)


def test_z_score():
    assert z_score(1.0, 0.0, 1.0) == 0.0
    assert z_score(1.0, 0.0, 2.0) == float("inf")
    assert abs(z_score(1.0, 0.1, 1.3, 0.0) - 3.0) < 1e-12
    assert abs(z_score(0.0, 3.0, 5.0, 4.0) - 1.0) < 1e-12


@pytest.mark.parametrize("threads", [0, -2])
def test_run_chunks_refuses_threads_below_1_before_any_chunk(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_chunks([(lambda rng, k: pytest.fail("ran"), 10)], 1, threads)
