"""One Spark fan-out for every embarrassingly parallel step.

Candidate evaluation (BASE, BASE+, GAS), random trials, exact
combinations, AKT vertices and route sizes are all ``[fn(x) for x in
items]`` with an independent, local-kernel ``fn``. :func:`fan_out` runs
that map on the driver or as one Spark job. ``fn`` and ``items`` ride
in the task closure, so ``fn`` should reach the program through
module-level functions, which are pickled by reference.
"""
from __future__ import annotations

import pickle
from collections.abc import Callable, Iterable

import pandas as pd
from pyspark.sql import SparkSession


def fan_out(
    spark: SparkSession | None, fn: Callable, items: Iterable, threshold: int = 0
) -> list:
    """``[fn(x) for x in items]``, in input order.

    Runs on the driver when ``spark`` is None or there are fewer than
    ``threshold`` items (or none), else as one Spark job over the
    positions ``0..n-1`` in ``min(2 * defaultParallelism, n)``
    partitions. Each result returns pickled and is placed by position,
    so the outcome does not depend on partitioning or row order.
    """
    items = list(items)
    n = len(items)
    if spark is None or n < max(threshold, 1):
        return [fn(x) for x in items]
    parts = min(2 * spark.sparkContext.defaultParallelism, n)
    pos = spark.createDataFrame(pd.DataFrame({"i": range(n)})).repartition(parts)

    def kernel(batches):
        for pdf in batches:
            out = [pickle.dumps(fn(items[i])) for i in pdf["i"]]
            yield pd.DataFrame({"i": pdf["i"], "out": out})

    res = pos.mapInPandas(kernel, schema="i long, out binary").toPandas()
    out: list = [None] * n
    for i, blob in zip(res["i"], res["out"]):
        out[i] = pickle.loads(blob)
    return out
