"""Randomised baselines Rand / Sup / Tur (paper Section IV-A).

Each baseline draws ``b`` anchor edges at random from a pool, repeats
for ``trials`` independent draws, and reports the best trussness gain
seen (the paper uses 2000 trials; our harness scales this down — see
EXPERIMENTS.md):

* **Rand** — pool = all edges;
* **Sup**  — pool = top 20% of edges by support;
* **Tur**  — pool = top 20% of edges by upward-route size.

Evaluating a trial is a full anchored truss decomposition, so the
trials fan out over Spark (one local-kernel decomposition per trial,
graph in the task closure).
"""
from __future__ import annotations

import numbers

import numpy as np
from pyspark.sql import SparkSession

from repro.core.greedy import check_budget
from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState, trussness_gain

#: Spark from here: 64 trials (one decomposition each, ~6.5 ms on facebook) take 0.42 s on the
#: driver and 0.34 s as one warm Spark call.
SPARK_MIN_TRIALS = 64


def top_frac_pool(scores: np.ndarray, frac: float = 0.2) -> np.ndarray:
    """Edge ids of the top ``frac`` fraction by score (at least 1 edge)."""
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
    trial ``i`` uses rng ``seed * 10^6 + i`` so the distributed and
    serial paths draw identical sets, and ties go to the smallest trial
    index, whatever order Spark returns the trials in.
    """
    b_eff = check_budget(b, len(pool))
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")

    def run_trial(i: int) -> tuple[int, list[int]]:
        rng = np.random.default_rng(seed * 1_000_000 + i)
        ids = [int(v) for v in rng.choice(pool, size=b_eff, replace=False)]
        return trussness_gain(g, st, ids), ids

    # max keeps the first of equal gains: the smallest trial index.
    return max(fan_out(spark, run_trial, range(trials), SPARK_MIN_TRIALS), key=lambda r: r[0])
