"""Truss component tree (Algorithm 4): structural invariants + Lemma 4."""
import pytest

from repro.core.followers import get_followers
from repro.graphs.gen import community_graph, random_graph
from repro.graphs.toys import truss_ladder, two_triangles
from repro.truss.local import INF_T, LocalGraph, decompose
from repro.truss.reference import build_tree, ktruss_edge_set, sla


def _graphs():
    yield "two_triangles", two_triangles()
    yield "ladder", truss_ladder()
    for seed in range(3):
        yield f"rand{seed}", random_graph(n=25, m=70, seed=seed)
    yield "comm", community_graph(n=45, n_cliques=14, n_noise=12, drop_frac=0.1, seed=2)


CASES = list(_graphs())


def _subtree_edges(tn):
    out = set(tn.E)
    for c in tn.C:
        out |= _subtree_edges(c)
    return out


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_tree_partitions_edges(label, pdf):
    g = LocalGraph(pdf)
    st = decompose(g)
    tree = build_tree(g, st)
    seen: set[int] = set()
    for tn in tree.nodes():
        assert not (tn.E & seen)
        seen |= tn.E
    assert seen == set(range(g.m))


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_node_invariants(label, pdf):
    g = LocalGraph(pdf)
    st = decompose(g)
    tree = build_tree(g, st)
    for tn in tree.nodes():
        assert tn.E, "empty tree node"
        assert tn.I == min(tn.E)
        for e in tn.E:
            assert int(st.t[e]) == tn.K
        for c in tn.C:
            assert c.K > tn.K
            assert c.P is tn


@pytest.mark.parametrize("label,pdf", CASES[:3], ids=[c[0] for c in CASES[:3]])
def test_subtrees_are_truss_components(label, pdf):
    """The edges under a node with TN.K = k form a k-truss (Def. 9 i)."""
    g = LocalGraph(pdf)
    st = decompose(g)
    tree = build_tree(g, st)
    truss_by_k = {}
    for tn in tree.nodes():
        k = tn.K
        if k not in truss_by_k:
            truss_by_k[k] = ktruss_edge_set(g, k)
        sub = _subtree_edges(tn)
        # Every edge under the node belongs to the k-truss; the subtree
        # is one triangle-connected component of it.
        assert sub <= truss_by_k[k] | {e for e in sub if int(st.t[e]) >= INF_T}


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_sla_definition(label, pdf):
    """sla(e) = node ids of neighbour-edges with t >= t(e), verbatim."""
    g = LocalGraph(pdf)
    st = decompose(g)
    tree = build_tree(g, st)
    for e in range(g.m):
        want = set()
        for e1, e2 in g.triangles_of(e):
            for p in (e1, e2):
                if int(st.t[p]) >= int(st.t[e]):
                    want.add(tree.node_id(p))
        assert sla(g, st, tree, e) == want


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_lemma4_followers_within_sla_nodes(label, pdf):
    """F(x) ⊆ ⋃_{id∈sla(x)} node(id).E (Lemma 4)."""
    g = LocalGraph(pdf)
    st = decompose(g)
    tree = build_tree(g, st)
    for x in range(g.m):
        allowed: set[int] = set()
        for nid in sla(g, st, tree, x):
            for tn in tree.nodes():
                if tn.I == nid:
                    allowed |= tn.E
        fr = get_followers(g, st, x)
        assert fr.followers <= allowed, (label, g.edge(x))
