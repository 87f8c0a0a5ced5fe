"""The one Spark fan-out: order, completeness and driver/Spark dispatch."""
import importlib
import sys
import zipfile
import zipimport

import pytest

from repro.fanout import drop_zip_importers, fan_out


@pytest.mark.parametrize(
    "n,threshold,on_spark",
    [(37, 0, True), (0, 0, False), (5, 5, True), (4, 5, False)],
    ids=["order", "empty", "at_threshold", "below_threshold"],
)
def test_fan_out(spark, n, threshold, on_spark):
    """Results come back complete and in input order, equal to the driver
    path, from exactly one Spark job of ``min(defaultParallelism, n)``
    tasks when on Spark; 37 is prime, so no task count below it divides
    it."""

    def fn(x):
        return x * x, frozenset(range(x % 4))

    sc = spark.sparkContext
    group = f"test-fan-out-{n}-{threshold}"
    sc.setJobGroup(group, group)
    try:
        got = fan_out(spark, fn, range(n), threshold)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert got == fan_out(None, fn, range(n)) == [fn(x) for x in range(n)]
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    assert len(jobs) == int(on_spark)
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
