"""One Spark fan-out for every embarrassingly parallel step.

BASE's candidate evaluation, random trials, exact combinations, AKT
levels and route sizes are all ``[fn(x) for x in items]`` with an
independent, local-kernel ``fn``. :func:`fan_out` runs that map by one
rule: a session means one Spark job; pass ``spark=None`` for the driver.
``fn`` and ``items`` ride in the task closure, so ``fn`` should reach the
program through module-level functions, which are pickled by reference.
"""
from __future__ import annotations

import pickle
import sys
import zipimport
from collections.abc import Callable, Iterable

import pandas as pd
from pyspark.sql import SparkSession


def drop_zip_importers() -> None:
    """Forget the cached ``zipimporter`` of every zip on ``sys.path``.

    pyspark's worker calls ``importlib.invalidate_caches()`` before every
    task, and on CPython 3.11 each cached ``zipimporter`` then re-reads
    its archive's whole directory. A worker caches one per imported
    package directory of ``pyspark.zip``, the py4j zip and the
    ``spark-core`` jar: tens of thousands of entries parsed, over 0.1 s,
    before each task computes anything. With the entries gone there is
    nothing to re-read, and a later import re-creates its importer from
    zipimport's own directory cache without reading the archive.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def fan_out(spark: SparkSession | None, fn: Callable, items: Iterable) -> list:
    """``[fn(x) for x in items]``, in input order.

    Runs on the driver when ``spark`` is ``None`` or there are no items,
    else as one Spark job of ``parts = min(defaultParallelism, n)``
    tasks, one wave on the task slots. Task ``j`` computes items ``j``
    and ``2 * parts - 1 - j`` of every ``2 * parts``, dealt back and
    forth like a serpentine draft so that each task gets costly and cheap
    items where cost trends with position; on AKT's levels it ties or
    beats round-robin (EXPERIMENTS.md § Table V). Each result returns
    pickled and is placed by position, so the outcome does not depend on
    partitioning or row order.
    """
    items = list(items)
    n = len(items)
    if spark is None or n == 0:
        return [fn(x) for x in items]
    parts = min(spark.sparkContext.defaultParallelism, n)

    def kernel(batches):
        for pdf in batches:
            for j in pdf["id"]:
                ids = [*range(j, n, 2 * parts), *range(2 * parts - 1 - j, n, 2 * parts)]
                yield pd.DataFrame({"id": ids, "out": [pickle.dumps(fn(items[i])) for i in ids]})
        drop_zip_importers()

    res = spark.range(0, parts, 1, parts).mapInPandas(kernel, "id long, out binary").toPandas()
    out: list = [None] * n
    for i, blob in zip(res["id"], res["out"]):
        out[i] = pickle.loads(blob)
    return out
