"""Table V harness: AKT vs GAS trussness gain (paper Exp-9).

For each dataset, run AKT (vertex anchoring) greedily at every
``k`` in ``3..kmax+1`` and GAS with the same budget; report the ratio
of AKT's best-``k`` and average-over-``k`` gains to GAS's gain, in
percent. Paper uses b=50; our scaled default is b=10.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.akt import akt_sweep
from repro.core.greedy import run_greedy
from repro.truss.local import decompose
from repro.exp.datasets import NAMES, load


def run_table5(
    spark: SparkSession,
    names: list[str] | None = None,
    b: int = 10,
) -> pd.DataFrame:
    """One row (avg_gain %, max_gain %) per dataset."""
    rows = []
    for name in NAMES if names is None else names:
        g = load(name)
        st = decompose(g)
        gas = run_greedy(spark, g, b, "gas")
        akt = akt_sweep(spark, g, st, b)
        gains = np.array(list(akt.values()), dtype=float)
        denom = max(gas.total_gain, 1)
        rows.append(
            {
                "dataset": name,
                "gas_gain": gas.total_gain,
                "akt_max": int(gains.max()) if len(gains) else 0,
                "akt_avg": float(gains.mean()) if len(gains) else 0.0,
                "avg_gain_pct": 100.0 * float(gains.mean()) / denom if len(gains) else 0.0,
                "max_gain_pct": 100.0 * float(gains.max()) / denom if len(gains) else 0.0,
            }
        )
        r = rows[-1]
        print(
            f"{name:<11} GAS={r['gas_gain']:>6} AKTmax={r['akt_max']:>5} "
            f"avg%={r['avg_gain_pct']:.0f} max%={r['max_gain_pct']:.0f}"
        )
    return pd.DataFrame(rows)
