"""Table III/IV/V harnesses end-to-end on the micro datasets."""
import pytest

from repro.exp.datasets import MICRO, NAMES
from repro.exp.paper_numbers import PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5
from repro.exp.table3 import format_row, run_table3
from repro.exp.table4 import run_table4
from repro.exp.table5 import run_table5

MICRO_NAMES = sorted(MICRO)


def test_paper_numbers_cover_all_datasets():
    assert set(PAPER_TABLE3) == set(NAMES)
    assert set(PAPER_TABLE4) == set(NAMES)
    assert set(PAPER_TABLE5) == set(NAMES)


def test_paper_table3_shape():
    for name, row in PAPER_TABLE3.items():
        assert len(row) == 11, name
        # paper reports GAS gain strictly above every random baseline
        _, _, _, _, rand, sup, tur, gas, *_ = row
        assert gas > max(rand, sup, tur), name


@pytest.mark.slow
def test_table3_micro(spark):
    df = run_table3(
        spark, names=MICRO_NAMES, b=3, trials=10, base_on=("college_mini",)
    )
    assert list(df["dataset"]) == MICRO_NAMES
    assert (df["gain_gas"] >= 0).all()
    # GAS must not lose to any random baseline (same budget, same graph)
    for col in ("gain_rand", "gain_sup", "gain_tur"):
        assert (df["gain_gas"] >= df[col]).all(), col
    row = df[df["dataset"] == "college_mini"].iloc[0].to_dict()
    assert row["time_base"] is not None
    assert isinstance(format_row(row), str)


@pytest.mark.slow
def test_table4_micro(spark):
    df = run_table4(spark, names=MICRO_NAMES)
    assert set(df.columns) == {"dataset", "min", "max", "sum", "avg"}
    assert (df["min"] >= 0).all()
    assert (df["max"] >= df["min"]).all()
    assert (df["sum"] >= df["max"]).all()


@pytest.mark.slow
def test_table5_micro(spark):
    df = run_table5(spark, names=MICRO_NAMES, b=2)
    assert set(df["dataset"]) == set(MICRO_NAMES)
    assert (df["avg_gain_pct"] <= df["max_gain_pct"] + 1e-9).all()


@pytest.mark.parametrize(
    "run", [run_table3, run_table4, run_table5], ids=lambda f: f.__name__
)
def test_empty_names_run_no_dataset(run, monkeypatch):
    """``names=[]`` selects and builds no dataset; only ``None`` means all
    eight."""
    def no_build(name):
        raise AssertionError(f"built {name}")

    monkeypatch.setattr("repro.exp.datasets.edge_frame", no_build)
    assert run(None, names=[]).empty


def test_format_row_handles_missing_base():
    s = format_row(
        dict(
            dataset="x", vertices=1, edges=2, kmax=3, supmax=4,
            gain_rand=0, gain_sup=0, gain_tur=0, gain_gas=0,
            time_base=None, **{"time_base+": 1.0}, time_gas=2.0,
        )
    )
    assert "BASE=        -s" in s
