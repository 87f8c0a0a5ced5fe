"""Table IV harness: upward-route size statistics (paper Exp-7).

For every edge of every dataset, the size of its upward route in GAS
round 1 (no anchors yet); reported as min / max / sum / average. The
per-edge traversals fan out over Spark.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.routes import route_sizes_spark, route_stats
from repro.truss.local import decompose
from repro.exp.datasets import NAMES, load


def run_table4(
    spark: SparkSession, names: list[str] | None = None
) -> pd.DataFrame:
    """One row (min/max/sum/avg route size) per dataset."""
    rows = []
    for name in NAMES if names is None else names:
        g = load(name)
        st = decompose(g)
        stats = route_stats(route_sizes_spark(spark, g, st))
        rows.append({"dataset": name, **stats})
        r = rows[-1]
        print(
            f"{name:<11} min={r['min']:>3} max={r['max']:>6} "
            f"sum={r['sum']:>9} avg={r['avg']:.2f}"
        )
    return pd.DataFrame(rows)
