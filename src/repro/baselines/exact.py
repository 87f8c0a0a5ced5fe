"""Exact ATR by exhaustive enumeration (paper Exp-2).

Feasible only on tiny graphs (the paper extracts 150-250-edge
neighbourhood samples); used here to bound greedy's optimality gap in
tests and in the Exp-2-style harness. Combinations fan out over Spark.
"""
from __future__ import annotations

import functools
from itertools import combinations

from pyspark.sql import SparkSession

from repro.core.greedy import check_budget
from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState, trussness_gain

#: Spark from here: each combination decomposes a graph of at most a few hundred edges (~0.7 ms).
SPARK_MIN_COMBOS = 256


def exact_best(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    b: int,
) -> tuple[int, list[int]]:
    """Optimal ``b``-edge anchor set by brute force.

    Returns ``(gain, anchor_ids)`` with deterministic lexicographic
    tie-breaking; ``b`` is clamped to ``g.m``.
    """
    combos = list(combinations(range(g.m), check_budget(b, g.m)))
    gains = fan_out(
        spark, functools.partial(trussness_gain, g, st), map(frozenset, combos), SPARK_MIN_COMBOS
    )
    return max(zip(gains, map(list, combos)), key=lambda t: (t[0], [-x for x in t[1]]))
