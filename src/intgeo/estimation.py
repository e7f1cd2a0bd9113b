"""Estimator bookkeeping: running moments, result records, the chunk plan."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

CHUNK_SAMPLES = 1 << 17


def resolve_rng(seed_or_rng) -> tuple[np.random.Generator, int]:
    """Accept an int seed or a Generator; seed is recorded as -1 for the latter."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng, -1
    seed = int(seed_or_rng)
    return np.random.default_rng(seed), seed


class RunningMean:
    """Chan-style streaming mean/M2 so shards merge associatively."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float).ravel()
        k = values.size
        if k == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(((values - batch_mean) ** 2).sum())
        delta = batch_mean - self.mean
        total = self.count + k
        self.mean += delta * k / total
        self.m2 += batch_m2 + delta * delta * self.count * k / total
        self.count = total

    def merge(self, other: "RunningMean") -> None:
        if other.count == 0:
            return
        if self.count == 0:  # copy, so a lone part passes through exactly
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        delta = other.mean - self.mean
        total = self.count + other.count
        # the delta form of update: equal means (an exact constant) stay equal
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total

    @property
    def std_error(self) -> float:
        if self.count < 2:
            return 0.0
        return float(np.sqrt(self.m2 / (self.count - 1) / self.count))


@dataclass
class EstimatorResult:
    """A Monte Carlo estimate with its provenance.

    importance_volume records the constant Lebesgue factor already folded into
    mean when the sampler has one (e.g. the flat window measure); it is 1.0
    when the factor varies per sample. seed is -1 when the caller passed a
    generator instead of an integer seed.
    """

    mean: float
    std_error: float
    samples: int
    seed: int
    importance_volume: float = 1.0

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.samples <= 0:
            raise ValueError("samples must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_accumulator(cls, acc: RunningMean, seed: int,
                         importance_volume: float = 1.0) -> "EstimatorResult":
        return cls(mean=acc.mean, std_error=acc.std_error, samples=acc.count,
                   seed=seed, importance_volume=importance_volume)


def merge_results(parts: list[EstimatorResult], seed: int) -> EstimatorResult:
    """Combine shard results into one estimate (exact moment merge).

    A single part passes through unchanged apart from its seed.
    """
    if not parts:
        raise ValueError("nothing to merge")
    if len(parts) == 1:
        p = parts[0]
        return EstimatorResult(mean=p.mean, std_error=p.std_error, samples=p.samples,
                               seed=seed, importance_volume=p.importance_volume)
    acc = RunningMean()
    for p in parts:
        sub = RunningMean()
        sub.count = p.samples
        sub.mean = p.mean
        sub.m2 = p.std_error**2 * p.samples * max(p.samples - 1, 0)
        acc.merge(sub)
    return EstimatorResult.from_accumulator(acc, seed,
                                            parts[0].importance_volume)


def run_chunks(stages, seed: int, threads: int) -> list[list]:
    """Run each stage's worker(rng, chunk_samples) over chunks of CHUNK_SAMPLES.

    A stage is a (worker, samples) pair. Its samples are cut into chunks of
    CHUNK_SAMPLES, and all chunks of all stages, in stage order, draw from
    consecutive children of SeedSequence(seed), so no two chunks share a
    stream. A stage whose worker is None takes its children without
    running, which keeps the streams of the stages after it. One pool of
    min(threads, cores, chunks) threads runs the chunks, and the results
    come back per stage in chunk order: they depend only on (stages, seed),
    and threads changes the speed, never the output. A stage budget below 1
    or threads below 1 raises ValueError before any chunk runs.
    """
    if not threads >= 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    plan = []  # (stage, chunk samples), one per chunk
    for s, (_, samples) in enumerate(stages):
        if not samples >= 1:
            raise ValueError(f"sample budgets must be at least 1, got {samples!r}")
        full, rest = divmod(samples, CHUNK_SAMPLES)
        plan += [(s, CHUNK_SAMPLES)] * full + ([(s, rest)] if rest else [])
    children = np.random.SeedSequence(seed).spawn(len(plan))
    tasks = [(s, stages[s][0], np.random.default_rng(child), k)
             for (s, k), child in zip(plan, children) if stages[s][0] is not None]
    workers = min(threads, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        results = [worker(rng, k) for _, worker, rng, k in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(worker, rng, k) for _, worker, rng, k in tasks]
            results = [f.result() for f in futs]
    out = [[] for _ in stages]
    for (s, *_), r in zip(tasks, results):
        out[s].append(r)
    return out


def z_score(a: float, sa: float, b: float, sb: float = 0.0) -> float:
    """|a - b| in combined standard errors (inf when both errors vanish)."""
    denom = float(np.hypot(sa, sb))
    if denom == 0.0:
        return 0.0 if a == b else float("inf")
    return abs(a - b) / denom
