"""The one Spark fan-out: order, completeness and driver/Spark dispatch."""
import importlib
import sys
import zipfile
import zipimport

import pytest

from repro.fanout import drop_zip_importers, fan_out


@pytest.mark.parametrize("n", [37, 0], ids=["order", "empty"])
def test_fan_out(spark, spark_jobs, n):
    """Results come back complete and in input order, equal to the driver
    path, from exactly one Spark job of ``min(defaultParallelism, n)``
    tasks given a session and at least one item, and from none given no
    items; 37 is prime, so no task count below it divides it."""

    def fn(x):
        return x * x, frozenset(range(x % 4))

    got = fan_out(spark, fn, range(n))
    assert got == fan_out(None, fn, range(n)) == [fn(x) for x in range(n)]
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    jobs = spark_jobs()
    assert len(jobs) == int(n > 0)
    for job in jobs:
        tasks = [tracker.getStageInfo(s).numTasks for s in tracker.getJobInfo(job).stageIds]
        assert tasks == [min(sc.defaultParallelism, n)]


def test_drop_zip_importers(tmp_path, monkeypatch):
    """The helper forgets cached zip importers, and a module in the zip
    still imports after ``invalidate_caches`` without its archive's
    directory being read again."""
    archive = str(tmp_path / "pkg.zip")
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zipped_mod.py", "VALUE = 7\n")
    monkeypatch.syspath_prepend(archive)
    monkeypatch.setitem(sys.path_importer_cache, archive, zipimport.zipimporter(archive))
    monkeypatch.delitem(sys.modules, "zipped_mod", raising=False)
    directory = zipimport._zip_directory_cache[archive]

    drop_zip_importers()
    assert archive not in sys.path_importer_cache
    importlib.invalidate_caches()
    assert importlib.import_module("zipped_mod").VALUE == 7
    assert zipimport._zip_directory_cache[archive] is directory
    sys.modules.pop("zipped_mod", None)
