"""Shared SparkSession builder for spark-submit entrypoints.

The test suite's ``spark`` fixture (``conftest.py``) builds its session
with this function too, so job runs and test runs exercise the same
execution configuration.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
