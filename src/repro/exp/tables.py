"""Tables III, IV and V (paper Exp-1, Exp-7, Exp-9) from one pass per dataset.

The three tables are measured on the same runs. Per dataset the graph
is loaded and decomposed once, and the upward-route sizes are fanned
out once:

* **Table III**: |V|, |E|, k_max, sup_max, the trussness gain of Rand /
  Sup / Tur / GAS at budget ``b``, and the running time of BASE / BASE+
  / GAS. BASE (full decomposition per candidate) only runs on the
  ``base_on`` datasets, as in the paper where it finished only on
  College. Tur draws from the top 20% of the route sizes.
* **Table IV**: min / max / sum / average of those route sizes, taken
  in GAS round 1, i.e. before any anchor.
* **Table V**: AKT (vertex anchoring) swept over ``k`` in
  ``3..kmax+1`` at budget ``akt_b``, as a percentage of GAS's gain at
  ``akt_b``. Greedy has no lookahead, so that gain is the one of the
  first ``akt_b`` anchors of the Table III run.

Scaled-down workload relative to the paper (documented in
EXPERIMENTS.md): graphs are ~1000x smaller, the default budgets are
``b = 20`` and ``akt_b = 10`` (paper 100 and 50), and random baselines
use 200 trials (paper 2000).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.akt import akt_sweep
from repro.baselines.random_sets import random_baseline, top_frac_pool
from repro.core.greedy import GreedyResult, run_greedy
from repro.core.routes import route_sizes_spark, route_stats
from repro.exp.datasets import NAMES, load
from repro.truss.local import decompose, trussness_gain


def run_dataset(
    spark: SparkSession,
    name: str,
    b: int = 20,
    akt_b: int = 10,
    trials: int = 200,
    with_base: bool = False,
) -> tuple[dict, dict, dict]:
    """The Table III, IV and V rows of dataset ``name``."""
    g = load(name)
    st = decompose(g)
    sup = g.support()
    routes = route_sizes_spark(spark, g, st)

    row3: dict = {
        "dataset": name,
        "vertices": g.n,
        "edges": g.m,
        "kmax": st.kmax,
        "supmax": int(sup.max()) if g.m else 0,
    }
    pools = {"rand": np.arange(g.m), "sup": top_frac_pool(sup), "tur": top_frac_pool(routes)}
    for seed, (label, pool) in enumerate(pools.items(), start=1):
        row3[f"gain_{label}"], _ = random_baseline(spark, g, st, b, pool, trials, seed=seed)

    gas = run_greedy(spark, g, b, "gas")
    row3["gain_gas"] = gas.total_gain
    row3["time_gas"] = gas.seconds
    bp = run_greedy(spark, g, b, "base+")
    row3["time_base+"] = bp.seconds
    _assert_same_run(name, gas, bp)
    row3["time_base"] = None
    if with_base:
        ba = run_greedy(spark, g, b, "base")
        row3["time_base"] = ba.seconds
        _assert_same_run(name, gas, ba)

    gains = np.array(list(akt_sweep(spark, g, st, akt_b).values()), dtype=float)
    gas_gain = trussness_gain(g, st, frozenset(gas.anchors[:akt_b]))
    denom = max(gas_gain, 1)
    row5 = {
        "dataset": name,
        "gas_gain": gas_gain,
        "akt_max": int(gains.max()) if len(gains) else 0,
        "akt_avg": float(gains.mean()) if len(gains) else 0.0,
        "avg_gain_pct": 100.0 * float(gains.mean()) / denom if len(gains) else 0.0,
        "max_gain_pct": 100.0 * float(gains.max()) / denom if len(gains) else 0.0,
    }
    return row3, {"dataset": name, **route_stats(routes)}, row5


def _assert_same_run(name: str, ref: GreedyResult, other: GreedyResult) -> None:
    """Exactness contract: the same anchors, per-round gains and total."""
    got = (other.anchors, [r.gain for r in other.rounds], other.total_gain)
    want = (ref.anchors, [r.gain for r in ref.rounds], ref.total_gain)
    assert got == want, (name, other.method, got, want)


def run_tables(
    spark: SparkSession,
    names: list[str] | None = None,
    b: int = 20,
    akt_b: int = 10,
    trials: int = 200,
    base_on: tuple[str, ...] = ("college",),
) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Tables III, IV and V, one row per dataset each; BASE runs only on
    ``base_on`` datasets. ``ValueError`` if ``akt_b > b``, since Table V's
    GAS gain is a prefix of Table III's run."""
    if akt_b > b:
        raise ValueError(f"akt_b ({akt_b}) must not exceed b ({b})")
    tables: tuple[list, list, list] = ([], [], [])
    for name in NAMES if names is None else names:
        r3, r4, r5 = run_dataset(
            spark, name, b=b, akt_b=akt_b, trials=trials, with_base=name in base_on
        )
        print(
            f"{format_row(r3)} | routes min={r4['min']} max={r4['max']} "
            f"sum={r4['sum']} avg={r4['avg']:.2f} | AKT/GAS avg%={r5['avg_gain_pct']:.0f} "
            f"max%={r5['max_gain_pct']:.0f}"
        )
        for table, row in zip(tables, (r3, r4, r5)):
            table.append(row)
    return tuple(pd.DataFrame(t) for t in tables)


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
