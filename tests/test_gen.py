"""Synthetic generators: determinism, shape knobs, dataset registry."""
import pandas as pd
import pytest

from repro.graphs.gen import clique, community_graph, random_graph, union
from repro.truss.local import LocalGraph, decompose
from repro.exp.datasets import DATASETS, MICRO, NAMES, edge_frame, load


@pytest.mark.parametrize("seed", range(5))
def test_community_deterministic(seed):
    a = community_graph(n=50, n_cliques=15, seed=seed)
    b = community_graph(n=50, n_cliques=15, seed=seed)
    pd.testing.assert_frame_equal(a, b)


def test_community_seed_changes_graph():
    a = community_graph(n=50, n_cliques=15, seed=0)
    b = community_graph(n=50, n_cliques=15, seed=1)
    assert not a.equals(b)


def test_drop_frac_reduces_edges():
    full = community_graph(n=60, n_cliques=20, drop_frac=0.0, seed=3)
    dropped = community_graph(n=60, n_cliques=20, drop_frac=0.3, seed=3)
    assert len(dropped) < len(full)


def test_drop_frac_creates_anchoring_headroom():
    """Perfect cliques leave ~no followers; imperfect ones do."""
    from repro.core.followers import get_followers

    g = LocalGraph(
        community_graph(n=60, n_cliques=25, clique_max=8, n_noise=20, drop_frac=0.1, seed=2)
    )
    st = decompose(g)
    gains = [get_followers(g, st, x).gain for x in range(g.m)]
    assert max(gains) > 0


@pytest.mark.parametrize("k", [3, 4, 5, 7])
def test_clique_truss(k):
    g = LocalGraph(clique(list(range(k))))
    st = decompose(g)
    assert g.m == k * (k - 1) // 2
    assert all(int(t) == k for t in st.t)


def test_union_dedupes():
    a = clique([0, 1, 2])
    b = clique([1, 2, 3])
    u = union(a, b)
    assert len(u) == 5  # (0,1),(0,2),(1,2),(1,3),(2,3): (1,2) deduped


@pytest.mark.parametrize("seed", range(3))
def test_random_graph_size(seed):
    pdf = random_graph(n=40, m=60, seed=seed)
    assert len(pdf) == 60
    assert (pdf["src"] < pdf["dst"]).all()


def test_registry_names_complete():
    assert set(NAMES) == set(DATASETS)
    assert len(NAMES) == 8


@pytest.mark.parametrize("name", sorted(MICRO))
def test_micro_datasets_load(name):
    g = load(name)
    assert g.m > 50
    st = decompose(g)
    assert st.kmax >= 4


@pytest.mark.parametrize("name", ["nope", ""], ids=["nope", "empty"])
def test_unknown_dataset_raises(name):
    """An unknown name (``--names college,`` leaves an empty one) gets a
    ``ValueError`` that lists the known datasets."""
    for build in (edge_frame, load):
        with pytest.raises(ValueError, match="unknown dataset.*college.*college_mini"):
            build(name)


@pytest.mark.parametrize("name", NAMES)
def test_edge_frames_deterministic(name):
    a = edge_frame(name)
    b = edge_frame(name)
    pd.testing.assert_frame_equal(a, b)


def test_datasets_ordered_by_design_size():
    """Datasets are strictly ordered by |E|, as in the paper's Table III."""
    sizes = [len(edge_frame(name)) for name in NAMES]
    assert sizes == sorted(sizes)
    assert len(set(sizes)) == len(sizes)
