"""Workload definitions: which graph, which job, which budget.

Every workload runs one batch job of the program's public entry points
on one synthetic stand-in graph from ``repro.exp.datasets``. The job
functions call the program through module attributes (``greedy.run_greedy``
rather than a name imported into this file) so that a traced run can
wrap exactly the names the program itself resolves.

The graph for ``--seed s`` is the dataset's stand-in, generated with its
own fixed generator seed, with vertex ids relabelled by a permutation
drawn from ``s``. The dataset's own seed (101 college, 102 facebook,
108 pokec) is the identity, so the default run is the Table III graph.
Relabelling changes edge ids, edge order, tie-breaks and Spark
partition contents but not the truss structure, so the work a run does
is nearly the same on every seed. A fresh generator seed would change
the structure and moves GAS time on facebook by 20-60%, which no
run-to-run bound could absorb.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    dataset: str
    job: str  # "greedy" or "baselines"
    method: str = "gas"  # greedy method
    b: int = 20
    trials: int = 200  # random-baseline trials


#: The benchmark's workloads. Greedy budgets end on a round whose gain
#: is strictly above the next round's, so relabelling never moves the
#: cut inside a run of tied rounds.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("gas-facebook", "facebook", "greedy", "gas", b=5),
        Workload("gas-pokec", "pokec", "greedy", "gas", b=8),
        Workload("baseplus-college", "college", "greedy", "base+", b=9),
        Workload("baselines-facebook", "facebook", "baselines", b=20, trials=200),
        # Micro configuration for the benchmark's own smoke test; not a
        # benchmark workload.
        Workload("smoke-college-mini", "college_mini", "greedy", "gas", b=3),
    )
}

BENCHMARK_WORKLOADS = [n for n in WORKLOADS if not n.startswith("smoke-")]


def dataset_seed(dataset: str) -> int:
    """The generator seed the dataset is defined with."""
    from repro.exp.datasets import DATASETS, MICRO

    return int((DATASETS.get(dataset) or MICRO[dataset])["seed"])


def build_graph(dataset: str, seed: int):
    """The workload graph for ``seed`` (see the module docstring)."""
    from repro.exp.datasets import edge_frame
    from repro.truss.local import LocalGraph

    edges = edge_frame(dataset)
    if seed != dataset_seed(dataset):
        src = edges["src"].to_numpy()
        dst = edges["dst"].to_numpy()
        perm = np.random.default_rng(seed).permutation(int(max(src.max(), dst.max())) + 1)
        edges = pd.DataFrame({"src": perm[src], "dst": perm[dst]})
    return LocalGraph(edges)


@dataclass
class JobResult:
    """What one job returned, and how long it took."""

    solve_s: float
    first_anchor_s: float
    greedy: object = None  # repro.core.greedy.GreedyResult
    baselines: dict | None = None


def run_job(spark, g, wl: Workload) -> JobResult:
    """Run the workload's job once and time it."""
    if wl.job == "greedy":
        return _greedy_job(spark, g, wl)
    return _baselines_job(spark, g, wl)


def _greedy_job(spark, g, wl: Workload) -> JobResult:
    from repro.core import greedy

    t0 = time.perf_counter()
    res = greedy.run_greedy(spark, g, wl.b, wl.method)
    solve = time.perf_counter() - t0
    first = res.seconds - sum(r.seconds for r in res.rounds[1:])
    return JobResult(solve_s=solve, first_anchor_s=first, greedy=res)


def _baselines_job(spark, g, wl: Workload) -> JobResult:
    """Table III's Rand / Sup / Tur, in ``exp.table3.run_dataset`` order.

    ``first_anchor_s`` here is the time until the first anchor set
    (Rand's) is returned.
    """
    from repro.baselines import random_sets
    from repro.core import routes
    from repro.truss import local

    t0 = time.perf_counter()
    st = local.decompose(g)
    sup = g.support()
    sizes = routes.route_sizes_spark(spark, g, st)
    rand = random_sets.random_baseline(spark, g, st, wl.b, np.arange(g.m), wl.trials, seed=1)
    first = time.perf_counter() - t0
    sup_res = random_sets.random_baseline(
        spark, g, st, wl.b, random_sets.top_frac_pool(sup), wl.trials, seed=2
    )
    tur = random_sets.random_baseline(
        spark, g, st, wl.b, random_sets.top_frac_pool(sizes), wl.trials, seed=3
    )
    solve = time.perf_counter() - t0
    out = {
        "rand": rand,
        "sup": sup_res,
        "tur": tur,
        "route_sum": int(sizes.sum()),
    }
    return JobResult(solve_s=solve, first_anchor_s=first, baselines=out)
