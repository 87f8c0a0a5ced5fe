"""Exact ATR by exhaustive enumeration (paper Exp-2).

Feasible only on tiny graphs (the paper extracts 150-250-edge
neighbourhood samples); used here to bound greedy's optimality gap in
tests and in the Exp-2-style harness. Combinations go through
:func:`~repro.core.greedy.best_anchor_set`.
"""
from __future__ import annotations

from itertools import combinations

from pyspark.sql import SparkSession

from repro.core.greedy import best_anchor_set, check_budget
from repro.truss.local import LocalGraph, TrussState


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
    gain, best = best_anchor_set(spark, g, st, combos)  # lexicographic order: first max wins
    return gain, list(combos[best])
