"""Tables III/IV/V pass and its job end-to-end on the micro datasets."""
import importlib.util
import pathlib

import pandas as pd
import pytest

from repro.core.greedy import run_greedy
from repro.exp.datasets import MICRO, NAMES, load
from repro.exp.paper_numbers import PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5
from repro.exp.tables import format_row, run_tables

MICRO_NAMES = sorted(MICRO)
COLUMNS = {
    3: ["dataset", "vertices", "edges", "kmax", "supmax", "gain_rand", "gain_sup",
        "gain_tur", "gain_gas", "time_gas", "time_base+", "time_base"],
    4: ["dataset", "min", "max", "sum", "avg"],
    5: ["dataset", "gas_gain", "akt_max", "akt_avg", "avg_gain_pct", "max_gain_pct"],
}


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


@pytest.fixture(scope="module")
def micro_tables(spark):
    """One Tables III/IV/V pass over the micros, shared by the three
    per-table tests below."""
    return run_tables(
        spark, names=MICRO_NAMES, b=3, akt_b=2, trials=10, base_on=("college_mini",)
    )


def test_table3_micro(micro_tables):
    t3 = micro_tables[0]
    assert list(t3.columns) == COLUMNS[3]
    assert list(t3["dataset"]) == MICRO_NAMES
    assert (t3["gain_gas"] >= 0).all()
    # GAS must not lose to any random baseline (same budget, same graph)
    for col in ("gain_rand", "gain_sup", "gain_tur"):
        assert (t3["gain_gas"] >= t3[col]).all(), col
    row = t3[t3["dataset"] == "college_mini"].iloc[0].to_dict()
    assert row["time_base"] is not None
    assert isinstance(format_row(row), str)


def test_table4_micro(micro_tables):
    t4 = micro_tables[1]
    assert list(t4.columns) == COLUMNS[4]
    assert list(t4["dataset"]) == MICRO_NAMES
    assert (t4["min"] >= 0).all()
    assert (t4["max"] >= t4["min"]).all()
    assert (t4["sum"] >= t4["max"]).all()


def test_table5_micro(micro_tables):
    t5 = micro_tables[2]
    assert list(t5.columns) == COLUMNS[5]
    assert list(t5["dataset"]) == MICRO_NAMES
    assert (t5["avg_gain_pct"] <= t5["max_gain_pct"] + 1e-9).all()
    # Table V's GAS gain, the prefix of the b=3 run, is a b=2 run's gain
    for name, gain in zip(t5["dataset"], t5["gas_gain"]):
        assert gain == run_greedy(None, load(name), 2).total_gain, name


@pytest.mark.parametrize("table", [0, 1, 2], ids=["run_table3", "run_table4", "run_table5"])
def test_empty_names_run_no_dataset(table, monkeypatch):
    """``names=[]`` selects and builds no dataset, and each of the three
    tables comes back empty; only ``None`` means all eight."""
    def no_build(name):
        raise AssertionError(f"built {name}")

    monkeypatch.setattr("repro.exp.datasets.edge_frame", no_build)
    assert run_tables(None, names=[])[table].empty


def test_akt_budget_above_b_raises():
    with pytest.raises(ValueError, match="akt_b"):
        run_tables(None, names=[], b=2, akt_b=3)


def test_job_writes_three_tables(spark, tmp_path):
    """``jobs/tables.py`` runs on the test session and writes the three
    CSVs, one row per named dataset."""
    path = pathlib.Path(__file__).parents[1] / "jobs" / "tables.py"
    spec = importlib.util.spec_from_file_location("tables_job", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    job.main([
        "--names", "college_mini", "--b", "2", "--akt-b", "1", "--trials", "2",
        "--out-dir", str(tmp_path),
    ])
    for n, cols in COLUMNS.items():
        df = pd.read_csv(tmp_path / f"table{n}.csv")
        assert list(df.columns) == cols, n
        assert list(df["dataset"]) == ["college_mini"], n


def test_format_row_handles_missing_base():
    s = format_row(
        dict(
            dataset="x", vertices=1, edges=2, kmax=3, supmax=4,
            gain_rand=0, gain_sup=0, gain_tur=0, gain_gas=0,
            time_base=None, **{"time_base+": 1.0}, time_gas=2.0,
        )
    )
    assert "BASE=        -s" in s
