"""Process set-up shared by the benchmark and the pin recorder.

Everything is resolved against the current directory, which must be the
root of a checkout of the repository: the program is imported from
``src/`` and the Spark session comes from ``jobs/_session.py``, as the
program's own spark-submit jobs get it.
"""
from __future__ import annotations

import os
import pathlib
import shlex
import sys

#: Task threads of the local Spark master: at most the machine's
#: cores, and never more than 4, so that runs on bigger machines stay
#: comparable with the 4-core numbers recorded in the benchmark doc.
MAX_THREADS = 4
DRIVER_MEMORY = "1g"


class CheckoutError(RuntimeError):
    """The current directory is not a checkout of the repository."""


def prepare(root: pathlib.Path) -> int:
    """Point imports and the Spark launcher at the checkout.

    Must run before ``pyspark`` is imported: the driver JVM reads its
    memory and master from the environment when it is launched, and
    Python workers inherit ``PYTHONPATH`` from it. Temporary files of
    the JVM, Spark and Python go to ``.bench_build/tmp`` in the
    checkout. Returns the number of task threads.
    """
    src = root / "src"
    need = [src / "repro" / "__init__.py", root / "jobs" / "_session.py"]
    missing = [str(p.relative_to(root)) for p in need if not p.is_file()]
    if missing:
        raise CheckoutError(f"not a repository checkout, missing: {', '.join(missing)}")
    threads = max(1, min(MAX_THREADS, os.cpu_count() or 1))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    tmp = root / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_MASTER"] = f"local[{threads}]"
    java_opts = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {java_opts} "
        "--conf spark.driver.host=127.0.0.1 "
        f"--conf spark.local.dir={shlex.quote(str(tmp))} "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )
    sys.path[:0] = [str(src), str(root / "jobs")]
    return threads


def start_spark():
    """The program's Spark session (``jobs/_session.get_spark``)."""
    from _session import get_spark

    spark = get_spark("atrbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def warm_up(spark) -> None:
    """One tiny ``mapInPandas`` job: launches the Python workers."""
    import pandas as pd

    df = spark.createDataFrame(pd.DataFrame({"x": range(64)}))
    df.repartition(spark.sparkContext.defaultParallelism).mapInPandas(
        lambda batches: batches, schema="x long"
    ).toPandas()


def stop_spark(spark) -> None:
    """Stop the session and wait for the driver JVM to exit.

    The JVM exits when its stdin closes; its Python workers exit with
    it.
    """
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        proc.wait(timeout=60)
