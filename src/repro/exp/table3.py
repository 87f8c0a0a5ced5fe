"""Table III harness: dataset statistics + all-algorithm evaluation.

Per dataset: |V|, |E|, k_max, sup_max, trussness gain of Rand / Sup /
Tur / GAS, and running time of BASE / BASE+ / GAS. BASE (full
decomposition per candidate) only runs on the smallest dataset, as in
the paper where it finished only on College.

Scaled-down workload relative to the paper (documented in
EXPERIMENTS.md): graphs are ~1000x smaller, the default budget is
``b = 20`` (paper 100) and random baselines use 200 trials
(paper 2000).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.random_sets import random_baseline, top_frac_pool
from repro.core.greedy import GreedyResult, run_greedy
from repro.core.routes import route_sizes_spark
from repro.truss.local import LocalGraph, decompose
from repro.exp.datasets import NAMES, load


def run_dataset(
    spark: SparkSession,
    name: str,
    g: LocalGraph,
    b: int = 20,
    trials: int = 200,
    with_base: bool = False,
) -> dict:
    """One Table III row for dataset ``name``."""
    st = decompose(g)
    sup = g.support()
    routes = route_sizes_spark(spark, g, st)

    row: dict = {
        "dataset": name,
        "vertices": g.n,
        "edges": g.m,
        "kmax": st.kmax,
        "supmax": int(sup.max()) if g.m else 0,
    }
    rng_pool = np.arange(g.m)
    gain, _ = random_baseline(spark, g, st, b, rng_pool, trials, seed=1)
    row["gain_rand"] = gain
    gain, _ = random_baseline(
        spark, g, st, b, top_frac_pool(sup), trials, seed=2
    )
    row["gain_sup"] = gain
    gain, _ = random_baseline(
        spark, g, st, b, top_frac_pool(routes), trials, seed=3
    )
    row["gain_tur"] = gain

    t0 = time.perf_counter()
    gas = run_greedy(spark, g, b, "gas")
    row["gain_gas"] = gas.total_gain
    row["time_gas"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bp = run_greedy(spark, g, b, "base+")
    row["time_base+"] = time.perf_counter() - t0
    _assert_same_run(name, gas, bp)

    if with_base:
        t0 = time.perf_counter()
        ba = run_greedy(spark, g, b, "base")
        row["time_base"] = time.perf_counter() - t0
        _assert_same_run(name, gas, ba)
    else:
        row["time_base"] = None
    return row


def _assert_same_run(name: str, ref: GreedyResult, other: GreedyResult) -> None:
    """Exactness contract: the same anchors, per-round gains and total."""
    got = (other.anchors, [r.gain for r in other.rounds], other.total_gain)
    want = (ref.anchors, [r.gain for r in ref.rounds], ref.total_gain)
    assert got == want, (name, other.method, got, want)


def run_table3(
    spark: SparkSession,
    names: list[str] | None = None,
    b: int = 20,
    trials: int = 200,
    base_on: tuple[str, ...] = ("college",),
) -> pd.DataFrame:
    """All Table III rows; BASE runs only on ``base_on`` datasets."""
    rows = []
    for name in NAMES if names is None else names:
        g = load(name)
        rows.append(
            run_dataset(
                spark, name, g, b=b, trials=trials, with_base=name in base_on
            )
        )
        print(format_row(rows[-1]))
    return pd.DataFrame(rows)


def format_row(r: dict) -> str:
    """One aligned, paper-style Table III line."""
    tb = f"{r['time_base']:.2f}" if r.get("time_base") else "-"
    return (
        f"{r['dataset']:<11} |V|={r['vertices']:>6} |E|={r['edges']:>7} "
        f"kmax={r['kmax']:>3} supmax={r['supmax']:>4} | "
        f"Rand={r['gain_rand']:>5} Sup={r['gain_sup']:>5} Tur={r['gain_tur']:>5} "
        f"GAS={r['gain_gas']:>6} | BASE={tb:>9}s "
        f"BASE+={r['time_base+']:.2f}s GAS={r['time_gas']:.2f}s"
    )
