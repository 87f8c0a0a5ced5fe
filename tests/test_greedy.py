"""BASE / BASE+ / GAS equivalence, caching exactness, Spark fan-out."""
import dataclasses

import numpy as np
import pandas as pd
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.followers import get_followers, may_have_followers
from repro.core.greedy import _eval_followers_local, _invalidate, run_greedy
from repro.exp.datasets import load
from repro.graphs.gen import community_graph, random_graph
from repro.graphs.toys import truss_ladder
from repro.truss.local import LocalGraph, decompose, trussness_gain


def _graphs():
    yield "ladder", truss_ladder()
    for seed in range(4):
        yield (
            f"comm{seed}",
            community_graph(
                n=50, n_cliques=20, clique_max=8, n_noise=18, drop_frac=0.1, seed=seed
            ),
        )
    yield "rand", random_graph(n=30, m=85, seed=3)


CASES = list(_graphs())


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_methods_equivalent(label, pdf):
    g = LocalGraph(pdf)
    rb = run_greedy(None, g, 3, "base")
    rp = run_greedy(None, g, 3, "base+")
    rg = run_greedy(None, g, 3, "gas")
    assert rb.anchors == rp.anchors == rg.anchors, label
    assert rb.total_gain == rp.total_gain == rg.total_gain


@pytest.mark.parametrize("label,pdf", CASES[:3], ids=[c[0] for c in CASES[:3]])
def test_round_gains_sum_to_total(label, pdf):
    g = LocalGraph(pdf)
    r = run_greedy(None, g, 4, "gas")
    assert sum(rd.gain for rd in r.rounds) == r.total_gain


@pytest.mark.parametrize("method", ["base", "base+", "gas"])
@pytest.mark.parametrize("label", ["facebook_mini", "ladder"])
def test_budget_prefix_invariance(label, method):
    """Greedy has no lookahead: a run at budget ``b' < b`` is the first
    ``b'`` rounds of the run at ``b``, with the same anchors, per-round
    gains and counts (all but ``seconds``), and its total is the gain of
    those anchors. Table V takes its GAS gain from Table III's run this
    way."""
    g = load(label) if label != "ladder" else LocalGraph(truss_ladder())
    st0 = decompose(g)
    b = 3
    full = run_greedy(None, g, b, method)

    def counts(rounds):
        return [dataclasses.replace(r, seconds=0.0) for r in rounds]

    for short_b in range(1, b):
        short = run_greedy(None, g, short_b, method)
        assert short.anchors == full.anchors[:short_b]
        assert counts(short.rounds) == counts(full.rounds[:short_b])
        assert short.total_gain == trussness_gain(g, st0, frozenset(full.anchors[:short_b]))


def test_gas_reuses_cache():
    """Every result GAS caches passed the zero-gain test, so it lies
    near the high-gain region and the first anchorings hit it; on this
    graph a complete cached result is first reused in round 4."""
    g = LocalGraph(
        community_graph(n=60, n_cliques=25, clique_max=8, n_noise=20, drop_frac=0.1, seed=2)
    )
    r = run_greedy(None, g, 5, "gas")
    assert r.rounds[0].reused == 0
    assert any(rd.reused > 0 for rd in r.rounds[1:])


def test_round_stats_count_reuse():
    """Per-round counts: every candidate is evaluated, reused or pruned,
    the two methods prune the same candidates in round 1, the anchor is
    among the changed edges and its own entry is dropped whole, every
    cached entry is then kept whole (FR), kept in part (PR) or dropped
    (NR), the candidates without a complete result next round are the
    NR and PR entries (less the anchor) and this round's pruned ones,
    and GAS recomputes fewer levels than BASE+ after round 1."""
    g = LocalGraph(
        community_graph(n=60, n_cliques=25, clique_max=8, n_noise=20, drop_frac=0.1, seed=2)
    )
    gas = run_greedy(None, g, 4, "gas")
    bp = run_greedy(None, g, 4, "base+")
    for r, (rg, rp) in enumerate(zip(gas.rounds, bp.rounds)):
        assert rg.evaluated + rg.reused + rg.pruned == rp.evaluated + rp.pruned == g.m - r
        assert rp.reused == 0
        assert rg.changed == rp.changed >= 1
        assert rg.invalidated >= 1 and rp.invalidated == 0
        assert rp.partial == 0
    for rd, nxt in zip(gas.rounds, gas.rounds[1:]):
        assert rd.invalidated + rd.partial + nxt.reused == rd.evaluated + rd.reused
        assert nxt.evaluated + nxt.pruned == rd.invalidated + rd.partial - 1 + rd.pruned
    assert gas.rounds[0].pruned == bp.rounds[0].pruned > 0
    assert gas.rounds[0].levels_recomputed == bp.rounds[0].levels_recomputed > 0
    assert sum(r.levels_recomputed for r in gas.rounds[1:]) < sum(
        r.levels_recomputed for r in bp.rounds[1:]
    )


def test_pruned_candidates_have_no_followers_on_college():
    """Replays GAS ``b=10`` on college: in each round's state every
    candidate the zero-gain test rejects has gain 0, and BASE+ prunes
    exactly those candidates."""
    g = load("college")
    gas = run_greedy(None, g, 10, "gas")
    bp = run_greedy(None, g, 10, "base+")
    assert gas.anchors == bp.anchors
    anchors: set[int] = set()
    for rd in bp.rounds:
        st = decompose(g, frozenset(anchors))
        rejected = np.flatnonzero(~may_have_followers(g, st)).tolist()
        rejected = [x for x in rejected if x not in anchors]
        assert rd.pruned == len(rejected)
        assert all(get_followers(g, st, x).gain == 0 for x in rejected)
        anchors.add(rd.best)


def test_reuse_rule_keeps_only_exact_levels_on_college():
    """Replays GAS ``b=10`` on college: after each anchoring, every entry
    the reuse rule keeps whole equals a fresh computation, and so does
    every level it keeps of an entry dropped in part."""
    g = load("college")
    gas = run_greedy(None, g, 10, "gas")
    st = decompose(g)
    cache: dict = {}
    partial: dict = {}
    anchors: set[int] = set()
    entries = levels = 0
    for rd in gas.rounds:
        todo = [x for x in np.flatnonzero(may_have_followers(g, st)).tolist() if x not in cache]
        assert len(todo) == rd.evaluated
        cache.update(_eval_followers_local(g, st, partial, todo))
        assert cache[rd.best].gain == rd.gain
        anchors.add(rd.best)
        prev, st = st, decompose(g, frozenset(anchors))
        changed = np.flatnonzero((st.t != prev.t) | (st.layer != prev.layer))
        _, partial = _invalidate(g, cache, prev, st, changed)
        for x, fr in cache.items():
            assert fr == get_followers(g, st, x)
        for x, fr in partial.items():
            fresh = get_followers(g, st, x).levels
            assert all(fresh[i] == lv for i, lv in fr.levels.items())
        entries += len(cache)
        levels += sum(len(fr.levels) for fr in partial.values())
    assert entries > 0 and levels > 0


def test_anchors_are_distinct_and_valid():
    g = LocalGraph(truss_ladder())
    r = run_greedy(None, g, 5, "gas")
    assert len(set(r.anchors)) == len(r.anchors)
    assert all(0 <= a < g.m for a in r.anchors)


def test_budget_capped_by_edge_count():
    g = LocalGraph(truss_ladder())
    r = run_greedy(None, g, g.m + 10, "base+")
    assert len(r.anchors) <= g.m


@pytest.mark.parametrize("b", [-1, 2.5, True, "3"])
def test_bad_budget_raises(b):
    g = LocalGraph(truss_ladder())
    with pytest.raises(ValueError, match="budget b must be a non-negative integer"):
        run_greedy(None, g, b, "gas")


def test_zero_budget_anchors_nothing():
    r = run_greedy(None, LocalGraph(truss_ladder()), 0, "gas")
    assert r.anchors == [] and r.total_gain == 0


def test_unknown_method_raises():
    g = LocalGraph(truss_ladder())
    with pytest.raises(ValueError):
        run_greedy(None, g, 1, "bogus")


# ---- dispatch ----------------------------------------------------------

@pytest.mark.parametrize(
    "method,graph",
    [
        ("base", dict(n=35, n_cliques=12, n_noise=8, seed=7)),
        ("base+", dict(n=40, n_cliques=15, n_noise=10, seed=7)),
        ("gas", dict(n=50, n_cliques=18, n_noise=15, seed=6)),
    ],
    ids=["base", "base+", "gas"],
)
def test_greedy_dispatch_matches_driver(spark, spark_jobs, method, graph):
    """Given ``spark``, every method returns what the driver returns.
    BASE fans out its candidates; BASE+ and GAS evaluate on the driver
    and run no Spark job."""
    g = LocalGraph(community_graph(drop_frac=0.1, **graph))
    local = run_greedy(None, g, 2, method)
    dist = run_greedy(spark, g, 2, method)
    assert bool(spark_jobs()) == (method == "base")

    def outcome(res):
        counts = [(r.evaluated, r.reused, r.pruned, r.invalidated, r.partial) for r in res.rounds]
        return res.anchors, [r.gain for r in res.rounds], res.total_gain, counts

    assert outcome(dist) == outcome(local)


# ---- per-level reuse rule (property tests) -----------------------------

@st.composite
def graph_and_anchors(draw):
    """A random graph on at most 12 vertices and a random anchor order."""
    n = draw(st.integers(4, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    assume(len(edges) >= 3)
    g = LocalGraph(pd.DataFrame(edges, columns=["src", "dst"]))
    order = draw(st.permutations(range(g.m)))
    return g, order[: draw(st.integers(1, min(4, g.m)))]


@given(graph_and_anchors())
def test_reuse_rule_keeps_only_exact_levels(case):
    """After each anchoring, every entry and level the rule keeps equals
    a fresh computation, and completing the partial entries gives the
    fresh result for every candidate."""
    g, seq = case
    state = decompose(g)
    cache = _eval_followers_local(g, state, {}, list(range(g.m)))
    anchors: set[int] = set()
    for a in seq:
        anchors.add(a)
        prev, state = state, decompose(g, frozenset(anchors))
        changed = np.flatnonzero((state.t != prev.t) | (state.layer != prev.layer))
        _, partial = _invalidate(g, cache, prev, state, changed)
        assert not anchors & (cache.keys() | partial.keys())
        for x, fr in cache.items():
            assert fr == get_followers(g, state, x)
        for x, fr in partial.items():
            fresh = get_followers(g, state, x)
            assert fr.levels.keys() < fresh.levels.keys()
            assert all(fresh.levels[i] == lv for i, lv in fr.levels.items())
        cand = [e for e in range(g.m) if e not in anchors]
        cache.update(
            _eval_followers_local(g, state, partial, [e for e in cand if e not in cache])
        )
        assert all(cache[e] == get_followers(g, state, e) for e in cand)


@given(graph_and_anchors())
def test_gas_matches_base_plus_on_random_graphs(case):
    """GAS, BASE+ and BASE pick the same anchors with the same per-round
    gains. BASE+ and GAS share the zero-gain test; BASE, a full
    re-decomposition per candidate, does not, so it would catch a
    positive-gain candidate the test wrongly prunes."""
    g, seq = case
    gas = run_greedy(None, g, len(seq), "gas")
    bp = run_greedy(None, g, len(seq), "base+")
    base = run_greedy(None, g, len(seq), "base")
    assert gas.anchors == bp.anchors == base.anchors
    assert [r.gain for r in gas.rounds] == [r.gain for r in bp.rounds] == [
        r.gain for r in base.rounds
    ]
    assert gas.total_gain == bp.total_gain == base.total_gain
