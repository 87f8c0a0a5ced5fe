"""Rand / Sup / Tur random baselines and the AKT vertex baseline."""
import collections
import itertools
from unittest import mock

import numpy as np
import pandas as pd
import pytest
from hypothesis import assume, given
from hypothesis import strategies as hst

from repro.baselines import akt
from repro.baselines.akt import akt_greedy, akt_sweep, anchored_ktruss_counts
from repro.baselines.exact import exact_best
from repro.baselines.random_sets import random_baseline, top_frac_pool
from repro.core.greedy import run_greedy
from repro.graphs.gen import community_graph
from repro.truss.local import LocalGraph, decompose, trussness_gain
from repro.truss.reference import ktruss_edge_set


@pytest.fixture(scope="module")
def graph():
    g = LocalGraph(
        community_graph(n=60, n_cliques=25, clique_max=8, n_noise=20, drop_frac=0.1, seed=2)
    )
    return g, decompose(g)


def test_top_frac_pool():
    scores = np.array([5, 1, 9, 3, 7, 2, 8, 0, 4, 6])
    pool = top_frac_pool(scores, 0.2)
    assert set(pool) == {2, 6}
    assert len(top_frac_pool(np.array([1.0]), 0.2)) == 1


def test_random_baseline_deterministic(graph):
    g, st = graph
    a = random_baseline(None, g, st, 3, np.arange(g.m), trials=20, seed=5)
    b = random_baseline(None, g, st, 3, np.arange(g.m), trials=20, seed=5)
    assert a == b


def test_random_baseline_gain_consistent(graph):
    g, st = graph
    gain, ids = random_baseline(None, g, st, 3, np.arange(g.m), trials=15, seed=1)
    assert gain == trussness_gain(g, st, frozenset(ids))
    assert len(ids) == 3


def test_random_baseline_more_trials_no_worse(graph):
    g, st = graph
    g5, _ = random_baseline(None, g, st, 3, np.arange(g.m), trials=5, seed=7)
    g30, _ = random_baseline(None, g, st, 3, np.arange(g.m), trials=30, seed=7)
    assert g30 >= g5  # trials are a prefix-extension with the same seeds


def test_random_spark_matches_serial(spark, spark_jobs, graph):
    g, st = graph
    serial = random_baseline(None, g, st, 3, np.arange(g.m), trials=12, seed=3)
    dist = random_baseline(spark, g, st, 3, np.arange(g.m), trials=12, seed=3)
    assert spark_jobs()
    assert serial == dist


#: Each case's ``(got, want)`` on a graph where every anchor set gains 0.
TIE_CASES = {
    "base": lambda s, g, st: (run_greedy(s, g, 1, "base").anchors, [0]),
    "rand": lambda s, g, st: (
        random_baseline(s, g, st, 3, np.arange(g.m), trials=64, seed=4),
        random_baseline(None, g, st, 3, np.arange(g.m), trials=1, seed=4),
    ),
    "exact": lambda s, g, st: (exact_best(s, g, st, 2), (0, [0, 1])),
}


@pytest.mark.parametrize("on_spark", [True, False], ids=["spark", "driver"])
@pytest.mark.parametrize("case", TIE_CASES)
def test_ties_go_to_first_anchor_set(spark, spark_jobs, case, on_spark):
    """On the triangle-free 40-cycle every anchor set gains 0, so all tie:
    BASE anchors edge 0, Rand returns trial 0's set and Exact the
    lexicographically first pair, on Spark (whatever order it returns
    the sets in) and on the driver."""
    n = 40
    g = LocalGraph(pd.DataFrame({"src": range(n), "dst": [(v + 1) % n for v in range(n)]}))
    got, want = TIE_CASES[case](spark if on_spark else None, g, decompose(g))
    assert bool(spark_jobs()) == on_spark
    assert got == want


def test_greedy_beats_random_baselines(graph):
    """The paper's headline effectiveness claim, at micro scale."""
    g, st = graph
    gas = run_greedy(None, g, 5, "gas")
    for seed in (1, 2, 3):
        gain, _ = random_baseline(None, g, st, 5, np.arange(g.m), trials=30, seed=seed)
        assert gas.total_gain >= gain


# ---- AKT ---------------------------------------------------------------

def test_akt_no_anchor_gain_zero(graph):
    """Without anchors the k-truss retains no (k-1)-trussness edge."""
    g, st = graph
    for k in range(3, st.kmax + 1):
        assert anchored_ktruss_counts(g, st, k, frozenset())[1] == 0


def test_akt_objective_monotone_in_vertices(graph):
    """AKT's own objective (protection included) is monotone; the
    *measured* cascade-only gain need not be (protecting an edge that
    previously counted as a cascade removes it from the measurement)."""
    g, st = graph
    k = 4
    frontier = [e for e in range(g.m) if int(st.t[e]) == k - 1]
    if not frontier:
        pytest.skip("no (k-1)-hull")
    verts = sorted({v for e in frontier for v in g.edge(e)})[:4]
    prev = 0
    acc: set[int] = set()
    for v in verts:
        acc.add(v)
        cur = anchored_ktruss_counts(g, st, k, frozenset(acc))[0]
        assert cur >= prev
        prev = cur


def test_akt_measured_no_more_than_objective(graph):
    g, st = graph
    for k in (3, 4, 5):
        obj, measured = anchored_ktruss_counts(
            g, st, k, frozenset(list(g.vertices())[:3])
        )
        assert 0 <= measured <= obj


def test_akt_anchored_truss_supersets_plain(graph):
    """Anchoring vertices only adds edges to the k-truss."""
    g, st = graph
    k = 4
    plain = ktruss_edge_set(g, k)
    verts = frozenset(list(g.vertices())[:3])
    cand = [e for e in range(g.m) if int(st.t[e]) >= k - 1]
    live = set(cand)
    changed = True
    while changed:
        changed = False
        for e in list(live):
            u, v = g.edge(e)
            if u in verts or v in verts:
                continue
            s = sum(1 for e1, e2 in g.triangles_of(e) if e1 in live and e2 in live)
            if s < k - 2:
                live.discard(e)
                changed = True
    assert plain <= live


def test_akt_greedy_and_sweep(graph):
    g, st = graph
    gain, verts = akt_greedy(g, st, k=4, b=3)
    assert gain >= 0 and len(verts) <= 3
    sweep = akt_sweep(None, g, st, b=2, k_values=[3, 4])
    assert set(sweep) == {3, 4}
    assert all(v >= 0 for v in sweep.values())
    assert akt_sweep(None, g, st, b=2, k_values=[]) == {}


@hst.composite
def graph_level_vertices(draw):
    """A random graph on at most 10 vertices, a level ``k`` in
    ``3..kmax+1`` and a random set of anchor vertices."""
    n = draw(hst.integers(3, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(hst.lists(hst.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    assume(edges)
    g = LocalGraph(pd.DataFrame(edges, columns=["src", "dst"]))
    st = decompose(g)
    k = draw(hst.integers(3, st.kmax + 1))
    verts = draw(hst.sets(hst.sampled_from(g.vertices()), max_size=3))
    return g, st, k, frozenset(verts)


def akt_counts_by_definition(g, st, k, verts):
    """``(objective, measured_gain)`` of the anchored k-truss of the
    ``t >= k-1`` subgraph, built as its own graph, with the edges
    incident to an anchored vertex protected (the oracle of
    :func:`anchored_ktruss_counts`)."""
    keep = [e for e in range(g.m) if st.t[e] >= k - 1]
    sub = LocalGraph(pd.DataFrame(g.edges[keep], columns=["src", "dst"]))
    t_sub = [int(st.t[g.edge_id(*sub.edge(i))]) for i in range(sub.m)]
    protected = frozenset(i for i in range(sub.m) if set(sub.edge(i)) & verts)
    frontier = [i for i in ktruss_edge_set(sub, k, protected) if t_sub[i] == k - 1]
    return len(frontier), sum(1 for i in frontier if i not in protected)


@given(graph_level_vertices())
def test_akt_counts_match_definition(case):
    """AKT's counts equal the anchored k-truss of the ``t >= k-1``
    subgraph built by the definition-level oracle, with the edges
    incident to an anchored vertex protected."""
    g, st, k, verts = case
    expected = akt_counts_by_definition(g, st, k, verts)
    assert anchored_ktruss_counts(g, st, k, verts) == expected


@given(graph_level_vertices(), hst.integers(0, 3), hst.integers(1, 4))
def test_akt_greedy_matches_definition(case, b, cap):
    """``akt_greedy`` is the greedy of the definition: each round scores
    the capped candidates (most frontier edges first, ties by vertex id)
    by the oracle's objective, takes the largest with ties to the
    smallest vertex, and reports the oracle's measured gain. The cap is
    lowered so that it binds on these small graphs."""
    g, st, k, _ = case
    incid = collections.Counter(v for e in range(g.m) if st.t[e] == k - 1 for v in g.edge(e))
    cands = sorted(incid, key=lambda v: (-incid[v], v))[: max(cap, b)]
    chosen: set[int] = set()
    for _ in range(b):
        rest = [v for v in cands if v not in chosen]
        if not rest:
            break
        score = {v: akt_counts_by_definition(g, st, k, frozenset(chosen | {v}))[0] for v in rest}
        chosen.add(min(rest, key=lambda v: (-score[v], v)))
    expected = akt_counts_by_definition(g, st, k, frozenset(chosen))[1], sorted(chosen)
    with mock.patch.object(akt, "CAND_CAP", cap):
        assert akt_greedy(g, st, k, b) == expected


def test_akt_avg_below_gas(graph):
    """Table V shape: AKT's gain *averaged over k* trails GAS at equal
    budget (the paper's avg_gain row; at micro scale the best single k
    can occasionally edge out GAS, see DESIGN.md)."""
    g, st = graph
    gas = run_greedy(None, g, 3, "gas")
    sweep = akt_sweep(None, g, st, b=3)
    avg = sum(sweep.values()) / len(sweep)
    if gas.total_gain > 0:
        assert avg < gas.total_gain


def test_akt_spark_matches_serial(spark, spark_jobs, graph):
    """The sweep over every level equals the driver's, and its Spark jobs
    do not grow with the budget: the levels fan out, not the rounds."""
    g, st = graph
    jobs = []
    for b in (1, 3):
        before = len(spark_jobs())
        assert akt_sweep(spark, g, st, b) == akt_sweep(None, g, st, b)
        jobs.append(len(spark_jobs()) - before)
    assert jobs[0] == jobs[1] > 0


@pytest.mark.parametrize("b", [-1, True, 2.5])
def test_random_baseline_bad_budget_raises(graph, b):
    g, st = graph
    with pytest.raises(ValueError, match="budget b must be a non-negative integer"):
        random_baseline(None, g, st, b, np.arange(g.m), trials=3)


@pytest.mark.parametrize("trials", [0, -2, 2.5, "3", True])
def test_random_baseline_needs_a_trial(graph, trials):
    g, st = graph
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        random_baseline(None, g, st, 2, np.arange(g.m), trials=trials)


@pytest.mark.parametrize(
    "make_pool", [lambda m: [-1], lambda m: [m], lambda m: [0.5]], ids=["-1", "m", "0.5"]
)
def test_random_baseline_bad_pool_raises(spark, graph, make_pool):
    """A pool id outside ``0..m-1`` or not an integer raises on the
    driver, before the trials fan out, instead of being truncated or
    failing inside a Spark task."""
    g, st = graph
    with pytest.raises(ValueError, match="pool must hold integer edge ids"):
        random_baseline(spark, g, st, 1, np.array(make_pool(g.m)), trials=3)


@pytest.mark.parametrize("b", [-1, True, 2.5])
def test_akt_bad_budget_raises(spark, graph, b):
    """A bad budget raises on the driver, before the sweep fans out."""
    g, st = graph
    with pytest.raises(ValueError, match="budget b must be a non-negative integer"):
        akt_greedy(g, st, k=4, b=b)
    with pytest.raises(ValueError, match="budget b must be a non-negative integer"):
        akt_sweep(spark, g, st, b)


@pytest.mark.parametrize("k", [2, 0, -1, 3.5, True])
def test_akt_bad_level_raises(spark, graph, k):
    """A level below 3 or not an integer raises on the driver, before the
    sweep fans out, instead of scoring gain 0."""
    g, st = graph
    with pytest.raises(ValueError, match="level k must be an integer >= 3"):
        akt_sweep(spark, g, st, 2, k_values=[3, k])
