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

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.truss.local import LocalGraph, TrussState, decompose


def top_frac_pool(scores: np.ndarray, frac: float = 0.2) -> np.ndarray:
    """Edge ids of the top ``frac`` fraction by score (at least 1 edge)."""
    m = len(scores)
    k = max(1, int(m * frac))
    return np.argsort(-scores, kind="stable")[:k]


def evaluate_anchor_set(g: LocalGraph, st: TrussState, anchors: frozenset[int]) -> int:
    """``TG(A, G)`` of an arbitrary anchor set by full decomposition."""
    after = decompose(g, anchors)
    return int(
        sum(
            int(after.t[e]) - int(st.t[e])
            for e in range(g.m)
            if e not in anchors
        )
    )


def random_baseline(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    b: int,
    pool: np.ndarray,
    trials: int,
    seed: int = 0,
    spark_threshold: int = 64,
) -> tuple[int, list[int]]:
    """Best trussness gain over ``trials`` random ``b``-subsets of ``pool``.

    Returns ``(best_gain, best_anchor_ids)``. Deterministic in ``seed``:
    trial ``i`` uses rng ``seed * 10^6 + i`` so the distributed and
    serial paths draw identical sets, and ties go to the smallest trial
    index, whatever order Spark returns the trials in.
    """
    b_eff = min(b, len(pool))

    def run_trial(i: int) -> tuple[int, list[int]]:
        rng = np.random.default_rng(seed * 1_000_000 + i)
        pick = rng.choice(pool, size=b_eff, replace=False)
        ids = [int(v) for v in pick]
        return evaluate_anchor_set(g, st, frozenset(ids)), ids

    if spark is None or trials < spark_threshold:
        results = {i: run_trial(i) for i in range(trials)}
    else:
        parts = max(1, min(spark.sparkContext.defaultParallelism * 2, trials))
        tdf = spark.createDataFrame(pd.DataFrame({"i": range(trials)})).repartition(parts)

        def kernel(batches):
            for pdf in batches:
                rows = []
                for i in pdf["i"]:
                    gain, ids = run_trial(int(i))
                    rows.append((int(i), gain, ",".join(map(str, ids))))
                yield pd.DataFrame(rows, columns=["i", "gain", "ids"])

        res = tdf.mapInPandas(kernel, schema="i long, gain long, ids string").toPandas()
        results = {
            int(r.i): (int(r.gain), [int(v) for v in r.ids.split(",")] if r.ids else [])
            for r in res.itertuples(index=False)
        }
    return results[min(results, key=lambda i: (-results[i][0], i))]
