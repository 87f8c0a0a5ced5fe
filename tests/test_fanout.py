"""The one Spark fan-out: order, completeness and driver/Spark dispatch."""
import pytest

from repro.fanout import fan_out


@pytest.mark.parametrize(
    "n,threshold,on_spark",
    [(37, 0, True), (0, 0, False), (5, 5, True), (4, 5, False)],
    ids=["order", "empty", "at_threshold", "below_threshold"],
)
def test_fan_out(spark, n, threshold, on_spark):
    """Results come back complete and in input order, equal to the driver
    path, from exactly one Spark job when on Spark; 37 is prime, so no
    partition count below it divides it."""

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
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == int(on_spark)
