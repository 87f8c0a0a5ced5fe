"""Follower computation (Algorithm 3) vs brute-force re-decomposition.

Every (graph, anchor) pair below is checked for *exact* equality of the
follower set — upward-route pruning plus the support-check fixpoint
must lose nothing and invent nothing.
"""
import pytest
from hypothesis import given

from repro.core.followers import get_followers, may_have_followers
from repro.graphs.gen import community_graph, random_graph
from repro.graphs.toys import truss_ladder, two_triangles
from repro.truss.local import INF_T, LocalGraph, decompose, trussness_gain
from repro.truss.reference import followers_naive
from tests.test_decompose_local import graph_and_anchor_set


def _graphs():
    yield "two_triangles", two_triangles(), frozenset()
    yield "ladder", truss_ladder(), frozenset()
    for seed in range(6):
        yield f"rand{seed}", random_graph(n=25, m=70, seed=seed), frozenset()
    for seed in range(4):
        yield (
            f"comm{seed}",
            community_graph(
                n=45, n_cliques=16, clique_max=7, n_noise=15, drop_frac=0.12, seed=seed
            ),
            frozenset(),
        )
    yield "anchored", random_graph(n=25, m=70, seed=11), frozenset({0, 5})
    yield (
        "comm_anchored",
        community_graph(n=40, n_cliques=12, n_noise=10, drop_frac=0.1, seed=7),
        frozenset({2, 9}),
    )


CASES = list(_graphs())


@pytest.mark.parametrize("label,pdf,anchors", CASES, ids=[c[0] for c in CASES])
def test_followers_exact(label, pdf, anchors):
    g = LocalGraph(pdf)
    st = decompose(g, anchors)
    for x in range(g.m):
        if x in anchors:
            continue
        got = set(get_followers(g, st, x).followers)
        want = followers_naive(g, x, anchors)
        assert got == want, (label, g.edge(x), sorted(got), sorted(want))


@pytest.mark.parametrize("label,pdf,anchors", CASES[:8], ids=[c[0] for c in CASES[:8]])
def test_lemma2_candidates_contain_followers(label, pdf, anchors):
    g = LocalGraph(pdf)
    st = decompose(g, anchors)
    for x in range(g.m):
        if x in anchors:
            continue
        fr = get_followers(g, st, x)
        assert fr.followers <= fr.candidates


@pytest.mark.parametrize(
    "pdf",
    [pytest.param(random_graph(n=24, m=60, seed=s), id=str(s)) for s in range(4)]
    + [
        pytest.param(
            community_graph(n=35, n_cliques=12, n_noise=10, drop_frac=0.12, seed=5),
            id="comm",
        )
    ],
)
def test_gain_equals_follower_count(pdf):
    """TG({x}) = |F(x)| (Lemma 1 corollary): BASE's re-decomposition gain
    equals the follower kernel's count."""
    g = LocalGraph(pdf)
    st = decompose(g)
    for x in range(0, g.m, 3):
        fr = get_followers(g, st, x)
        assert fr.gain == trussness_gain(g, st, {x})


def test_followers_have_same_or_higher_trussness():
    """Followers satisfy t(f) >= t(x): anchoring never lifts below."""
    g = LocalGraph(
        community_graph(n=50, n_cliques=18, n_noise=15, drop_frac=0.12, seed=3)
    )
    st = decompose(g)
    for x in range(g.m):
        tx = int(st.t[x])
        for f in get_followers(g, st, x).followers:
            assert int(st.t[f]) >= tx


def test_reads_superset_of_candidates():
    """The read-set must cover everything the result depends on."""
    g = LocalGraph(truss_ladder())
    st = decompose(g)
    for x in range(g.m):
        fr = get_followers(g, st, x)
        assert fr.candidates <= fr.reads
        assert x in fr.reads


def test_candidates_grouped_by_level():
    g = LocalGraph(truss_ladder())
    st = decompose(g)
    for x in range(g.m):
        for level, lv in get_followers(g, st, x).levels.items():
            for e in lv.candidates:
                assert int(st.t[e]) == level


def test_anchored_edges_never_followers():
    g = LocalGraph(random_graph(n=22, m=55, seed=19))
    anchors = frozenset({0, 1, 2})
    st = decompose(g, anchors)
    for x in range(g.m):
        if x in anchors:
            continue
        assert not (get_followers(g, st, x).followers & anchors)


def test_followers_read_only_finite_trussness():
    """INF_T (anchored) edges can appear in reads but not as followers."""
    g = LocalGraph(two_triangles())
    st = decompose(g)
    for x in range(g.m):
        for f in get_followers(g, st, x).followers:
            assert int(st.t[f]) < INF_T


@given(graph_and_anchor_set())
def test_zero_gain_prune_is_exact(case):
    """Every non-anchored candidate the zero-gain test rejects has no
    follower under the anchor set; anchored edges never pass."""
    g, anchors = case
    st = decompose(g, anchors)
    ok = may_have_followers(g, st)
    assert not ok[list(anchors)].any()
    for x in set(range(g.m)) - anchors:
        if not ok[x]:
            assert get_followers(g, st, x).gain == 0, x
