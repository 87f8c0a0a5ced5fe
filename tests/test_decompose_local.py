"""Local truss-decomposition kernel vs the naive definition oracle."""
import itertools

import pandas as pd
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.followers import get_followers
from repro.graphs.gen import clique, community_graph, random_graph, union
from repro.graphs.toys import truss_ladder, two_triangles
from repro.truss.local import INF_T, LocalGraph, decompose, trussness_gain
from repro.truss.reference import ktruss_edge_set, layers_naive, trussness_naive


def _cases():
    yield "two_triangles", two_triangles(), frozenset()
    yield "ladder", truss_ladder(), frozenset()
    for seed in range(8):
        yield f"rand{seed}", random_graph(n=28, m=80, seed=seed), frozenset()
    for seed in range(4):
        yield (
            f"comm{seed}",
            community_graph(n=45, n_cliques=14, n_noise=15, drop_frac=0.1, seed=seed),
            frozenset(),
        )
    for seed in range(4):
        yield f"anch{seed}", random_graph(n=25, m=70, seed=100 + seed), frozenset({0, 3, 7})


CASES = list(_cases())


@pytest.mark.parametrize("label,pdf,anchors", CASES, ids=[c[0] for c in CASES])
def test_trussness_matches_naive(label, pdf, anchors):
    g = LocalGraph(pdf)
    st = decompose(g, anchors)
    ref = trussness_naive(g, anchors)
    for e in range(g.m):
        assert int(st.t[e]) == ref[e], (label, g.edge(e))


@pytest.mark.parametrize("label,pdf,anchors", CASES[:8], ids=[c[0] for c in CASES[:8]])
def test_ktruss_membership_consistent(label, pdf, anchors):
    """t(e) >= k  <=>  e in the k-truss, for every k."""
    g = LocalGraph(pdf)
    st = decompose(g, anchors)
    kmax = st.kmax
    for k in range(3, kmax + 1):
        truss = ktruss_edge_set(g, k, anchors)
        for e in range(g.m):
            assert (int(st.t[e]) >= k) == (e in truss)


@pytest.mark.parametrize("seed", range(6))
def test_layers_partition_hulls(seed):
    """Layers are 1..max contiguous within each k-hull; anchors get 0."""
    g = LocalGraph(random_graph(n=26, m=75, seed=seed))
    anchors = frozenset({1, 4})
    st = decompose(g, anchors)
    by_k: dict[int, list[int]] = {}
    for e in range(g.m):
        if e in anchors:
            assert int(st.layer[e]) == 0
            assert int(st.t[e]) == INF_T
            continue
        assert int(st.layer[e]) >= 1
        by_k.setdefault(int(st.t[e]), []).append(int(st.layer[e]))
    for k, layers in by_k.items():
        assert set(layers) == set(range(1, max(layers) + 1)), k


def test_layer_semantics_on_path_of_triangles():
    """A chain of triangles peels from both ends inwards, layer by layer."""
    # triangles (0,1,2),(1,2,3) share edge (1,2): outer edges are layer 1,
    # the shared edge survives to layer 2.
    g = LocalGraph(pd.DataFrame({"src": [0, 0, 1, 1, 2], "dst": [1, 2, 2, 3, 3]}))
    st = decompose(g)
    shared = g.edge_id(1, 2)
    assert all(int(t) == 3 for t in st.t)
    assert int(st.layer[shared]) == 2
    for e in range(g.m):
        if e != shared:
            assert int(st.layer[e]) == 1


def test_anchor_preserves_trussness_monotone():
    """Anchoring can only raise (never lower) the trussness of others."""
    g = LocalGraph(community_graph(n=40, n_cliques=12, n_noise=12, drop_frac=0.15, seed=9))
    st0 = decompose(g)
    for x in range(0, g.m, 7):
        st1 = decompose(g, frozenset({x}))
        for e in range(g.m):
            if e != x:
                assert int(st1.t[e]) >= int(st0.t[e])


@pytest.mark.parametrize("seed", range(5))
def test_lemma1_single_anchor_gain_at_most_one(seed):
    g = LocalGraph(random_graph(n=24, m=65, seed=seed))
    st0 = decompose(g)
    for x in range(g.m):
        st1 = decompose(g, frozenset({x}))
        for e in range(g.m):
            if e != x:
                assert int(st1.t[e]) - int(st0.t[e]) in (0, 1), (seed, x, e)


def test_trussness_gain_definition():
    g = LocalGraph(union(clique([0, 1, 2, 3]), clique([2, 3, 4]), clique([3, 4, 5])))
    st = decompose(g)
    for x in range(g.m):
        gain = trussness_gain(g, st, {x})
        after = decompose(g, frozenset({x}))
        manual = sum(
            int(after.t[e]) - int(st.t[e]) for e in range(g.m) if e != x
        )
        assert gain == manual


def test_kmax_property():
    g = LocalGraph(clique([0, 1, 2, 3, 4, 5]))
    assert decompose(g).kmax == 6


def test_empty_and_tiny_graphs():
    g = LocalGraph(pd.DataFrame({"src": [0], "dst": [1]}))
    st = decompose(g)
    assert int(st.t[0]) == 2 and int(st.layer[0]) == 1


@pytest.mark.parametrize("bad", [-1, 3, 1.5, True, "1"])
def test_anchor_id_out_of_range_raises(bad):
    """Edge ids are integers ``0..m-1``: ``-1`` must not wrap round to
    the last edge, ``m`` and ``1.5`` must not escape as a bare
    ``IndexError``, ``True`` must not act as a boolean mask and ``"1"``
    must not escape as a ``TypeError``."""
    g = LocalGraph(clique([0, 1, 2]))
    with pytest.raises(ValueError, match=f"anchor edge id {bad} "):
        decompose(g, {bad})
    with pytest.raises(ValueError, match=f"anchor edge id {bad} "):
        trussness_gain(g, decompose(g), {0, bad})


@st.composite
def graph_and_anchor_set(draw):
    """A random graph on at most 11 vertices and a random anchor set."""
    n = draw(st.integers(3, 11))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    assume(edges)
    g = LocalGraph(pd.DataFrame(edges, columns=["src", "dst"]))
    anchors = draw(st.sets(st.integers(0, g.m - 1), max_size=min(4, g.m)))
    return g, frozenset(anchors)


@given(graph_and_anchor_set())
def test_layers_match_naive(case):
    """``decompose`` gives the definition's trussness *and* layers: GAS's
    reuse rule reads ``l``, so both must be exact."""
    g, anchors = case
    t, layer = trussness_naive(g, anchors), layers_naive(g, anchors)
    res = decompose(g, anchors)
    assert res.t.tolist() == [t[e] for e in range(g.m)]
    assert res.layer.tolist() == [layer[e] for e in range(g.m)]


@given(graph_and_anchor_set())
def test_lemma1_gain_at_most_one_under_anchors(case):
    """Lemma 1 under existing anchors ``A``: anchoring one more edge
    ``x`` raises the trussness of every other non-anchored edge by 0 or
    1, and the edges that rise are exactly the followers of ``x``."""
    g, anchors = case
    st = decompose(g, anchors)
    for x in set(range(g.m)) - anchors:
        after = decompose(g, anchors | {x})
        rest = [e for e in range(g.m) if e != x and e not in anchors]
        rise = after.t[rest] - st.t[rest]
        assert set(rise.tolist()) <= {0, 1}, x
        risen = {e for e, d in zip(rest, rise) if d}
        assert risen == get_followers(g, st, x).followers, x
