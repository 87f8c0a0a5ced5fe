"""Randomised baselines Rand / Sup / Tur (paper Section IV-A).

Each baseline draws ``b`` anchor edges at random from a pool, repeats
for ``trials`` independent draws, and reports the best trussness gain
seen (the paper uses 2000 trials; our harness scales this down — see
EXPERIMENTS.md):

* **Rand** — pool = all edges;
* **Sup**  — pool = top 20% of edges by support;
* **Tur**  — pool = top 20% of edges by upward-route size.

The trials are drawn on the driver and evaluated, one full anchored
truss decomposition each, by :func:`~repro.core.greedy.best_anchor_set`.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.greedy import best_anchor_set, check_budget
from repro.truss.local import LocalGraph, TrussState, is_int


def top_frac_pool(scores: np.ndarray, frac: float = 0.2) -> np.ndarray:
    """Edge ids of the top ``frac`` fraction by score (at least 1 unless ``scores`` is empty)."""
    m = len(scores)
    k = max(1, int(m * frac))
    return np.argsort(-scores, kind="stable")[:k]


def random_baseline(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    b: int,
    pool: np.ndarray,
    trials: int,
    seed: int = 0,
) -> tuple[int, list[int]]:
    """Best trussness gain over ``trials`` random ``b``-subsets of ``pool``.

    Returns ``(best_gain, best_anchor_ids)``. Deterministic in ``seed``:
    trial ``i`` draws with rng ``seed * 10^6 + i``, and ties go to the
    smallest trial index. ``ValueError`` unless ``pool`` holds integer
    edge ids ``0..m-1``.
    """
    pool = np.asarray(pool)
    if pool.size and (pool.dtype.kind not in "iu" or pool.min() < 0 or pool.max() >= g.m):
        raise ValueError(f"pool must hold integer edge ids 0..{g.m - 1}, got {pool!r}")
    b_eff = check_budget(b, len(pool))
    if not is_int(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")

    def draw(i: int) -> list[int]:
        rng = np.random.default_rng(seed * 1_000_000 + i)
        return [int(v) for v in rng.choice(pool, size=b_eff, replace=False)]

    sets = [draw(i) for i in range(trials)]
    gain, best = best_anchor_set(spark, g, st, sets)
    return gain, sets[best]
