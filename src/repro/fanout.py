"""One Spark fan-out for every embarrassingly parallel step.

Candidate evaluation (BASE, BASE+, GAS), random trials, exact
combinations, AKT levels and route sizes are all ``[fn(x) for x in
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


def runs_on_spark(spark: SparkSession | None, n: int, threshold: int) -> bool:
    """Whether :func:`fan_out` runs ``n`` items as one Spark job."""
    return spark is not None and n >= max(threshold, 1)


def fan_out(
    spark: SparkSession | None, fn: Callable, items: Iterable, threshold: int = 0
) -> list:
    """``[fn(x) for x in items]``, in input order.

    Runs on the driver unless :func:`runs_on_spark` (``threshold`` is
    the caller's module constant), else as one Spark job over the
    positions ``spark.range(0, n)`` in ``min(2 * defaultParallelism, n)``
    partitions. Each result returns pickled and is placed by position,
    so the outcome does not depend on partitioning or row order.
    """
    items = list(items)
    n = len(items)
    if not runs_on_spark(spark, n, threshold):
        return [fn(x) for x in items]
    parts = min(2 * spark.sparkContext.defaultParallelism, n)

    def kernel(batches):
        for pdf in batches:
            out = [pickle.dumps(fn(items[i])) for i in pdf["id"]]
            yield pd.DataFrame({"id": pdf["id"], "out": out})

    res = spark.range(0, n, 1, parts).mapInPandas(kernel, "id long, out binary").toPandas()
    out: list = [None] * n
    for i, blob in zip(res["id"], res["out"]):
        out[i] = pickle.loads(blob)
    return out
