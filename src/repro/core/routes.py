"""Upward-route sizes (paper Exp-7 / Table IV, and the Tur baseline).

The *upward-route size* of an edge is the number of upward-route
candidate followers it would have as an anchor — the size of the search
space Algorithm 3 actually visits. Table IV reports min / max / sum /
average over all edges; the Tur baseline samples anchors from the top
20% of edges by this size.
"""
from __future__ import annotations

import functools

import numpy as np
from pyspark.sql import SparkSession

from repro.core.followers import _roots, _route_level
from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState


def route_size(g: LocalGraph, st: TrussState, x: int) -> int:
    """Number of upward-route candidates of edge ``x``."""
    roots, _reads = _roots(g, st, x)
    return sum(len(_route_level(g, st, x, i, rs, set())) for i, rs in roots.items())


def route_sizes_spark(spark: SparkSession, g: LocalGraph, st: TrussState) -> np.ndarray:
    """Upward-route size of every edge, computed as one Spark fan-out.

    The graph and decomposition state ship to executors in the task
    closure (they are small relative to the per-edge traversal work).
    """
    sizes = fan_out(spark, functools.partial(route_size, g, st), range(g.m))
    return np.array(sizes, dtype=np.int64)


def route_stats(sizes: np.ndarray) -> dict[str, float]:
    """Table IV row: min / max / sum / average of the route sizes."""
    return {
        "min": int(sizes.min()) if len(sizes) else 0,
        "max": int(sizes.max()) if len(sizes) else 0,
        "sum": int(sizes.sum()),
        "avg": float(sizes.mean()) if len(sizes) else 0.0,
    }
