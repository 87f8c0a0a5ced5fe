"""The triangle index of ``LocalGraph`` vs brute force and networkx.

``truss/reference.py`` reads triangles through the same index as the
kernel, so this file is what keeps the oracles independent: the
expected triangles are enumerated here from the raw vertex pairs.
"""
import itertools
import pickle

import networkx as nx
import pandas as pd
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.exp.datasets import MICRO, load
from repro.truss.local import LocalGraph

#: Small ids, negative ids and ids near +-2^62.
VERTEX_IDS = st.one_of(
    st.integers(-4, 12),
    st.integers(2**62 - 3, 2**62 + 3),
    st.integers(-(2**62) - 3, -(2**62) + 3),
)


@st.composite
def edge_lists(draw):
    """Raw vertex pairs over at most 9 distinct ids, either orientation."""
    verts = draw(st.lists(VERTEX_IDS, max_size=9, unique=True))
    pairs = list(itertools.combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    flip = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [(v, u) if f else (u, v) for (u, v), k, f in zip(pairs, keep, flip) if k]


def _brute(pairs):
    """Canonical edges and every triangle as sorted edge-id triples."""
    canon = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    eid = {e: i for i, e in enumerate(canon)}
    verts = sorted({x for e in canon for x in e})
    tris = sorted(
        tuple(sorted((eid[(a, b)], eid[(b, c)], eid[(a, c)])))
        for a, b, c in itertools.combinations(verts, 3)
        if (a, b) in eid and (b, c) in eid and (a, c) in eid
    )
    return canon, verts, tris


@given(edge_lists())
@example([])  # the empty graph
@example([(0, 1), (2, 3), (-5, 2**62)])  # isolated edges, no triangle
@example([(2**62, -(2**62)), (-(2**62), 7), (7, 2**62)])  # one triangle, extreme ids
def test_triangle_index_matches_brute_force(pairs):
    g = LocalGraph(pd.DataFrame(pairs, columns=["src", "dst"], dtype="int64"))
    canon, verts, tris = _brute(pairs)
    assert g.edges.tolist() == [list(e) for e in canon]
    assert (g.m, g.n) == (len(canon), len(verts))
    assert g.tri.shape == (len(tris), 3) and g.tri.dtype == "int32"
    assert g.tri.tolist() == [list(t) for t in tris]
    assert g.support().tolist() == [sum(e in t for t in tris) for e in range(g.m)]
    for e, (u, v) in enumerate(canon):
        assert g.edge_id(u, v) == g.edge_id(v, u) == e
    for u, v in itertools.combinations(verts, 2):
        if (u, v) not in canon:
            with pytest.raises(KeyError):
                g.edge_id(u, v)
    shipped = pickle.loads(pickle.dumps(g))
    for e in range(g.m):
        want = sorted(tuple(p for p in t if p != e) for t in tris if e in t)
        assert sorted(tuple(sorted(p)) for p in g.triangles_of(e)) == want
        assert list(shipped.triangles_of(e)) == list(g.triangles_of(e))


@pytest.mark.parametrize("name", sorted(MICRO))
def test_triangle_index_matches_networkx(name):
    g = load(name)
    G = nx.Graph(g.edges.tolist())
    cliques = itertools.takewhile(lambda c: len(c) <= 3, nx.enumerate_all_cliques(G))
    want = sorted(tuple(sorted(c)) for c in cliques if len(c) == 3)
    got = sorted(tuple(sorted({x for e in t for x in g.edge(e)})) for t in g.tri.tolist())
    assert got == want
    sup = [len(list(nx.common_neighbors(G, u, v))) for u, v in g.edges.tolist()]
    assert g.support().tolist() == sup
