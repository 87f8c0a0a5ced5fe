"""Canonicalisation and edge-id determinism."""
import pandas as pd
import pytest

from repro.graphs.edges import canonical_edges
from repro.truss.local import LocalGraph


@pytest.mark.parametrize(
    "src,dst",
    [
        ([1, 2, 2], [2, 1, 3]),
        ([0, 0, 0], [0, 1, 1]),
        ([5, 4, 3], [4, 5, 3]),
        ([10, 11, 12, 10], [11, 10, 10, 12]),
    ],
)
def test_canonical_no_dups_no_loops(src, dst):
    pdf = canonical_edges(pd.DataFrame({"src": src, "dst": dst}))
    assert (pdf["src"] < pdf["dst"]).all()
    assert not pdf.duplicated().any()


def test_canonical_sorted_and_stable():
    pdf = canonical_edges(pd.DataFrame({"src": [9, 1, 5], "dst": [2, 7, 3]}))
    assert list(pdf.itertuples(index=False)) == sorted(
        pdf.itertuples(index=False)
    )
    again = canonical_edges(pdf.sample(frac=1.0, random_state=0))
    pd.testing.assert_frame_equal(pdf, again)


@pytest.mark.parametrize("col", ["src", "dst"])
@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
def test_canonical_rejects_non_integer_ids(col, bad):
    """A fractional id would be truncated onto another vertex and NaN
    would become a huge negative id; both must raise instead."""
    pdf = pd.DataFrame({"src": [0.0, 1.0], "dst": [1.0, 2.0]})
    pdf.loc[1, col] = bad
    with pytest.raises(ValueError, match=f"column '{col}'"):
        canonical_edges(pdf)


def test_canonical_accepts_integral_floats():
    pdf = canonical_edges(pd.DataFrame({"src": [1.0, 0.0], "dst": [2.0, 1.0]}))
    assert pdf.to_dict("list") == {"src": [0, 1], "dst": [1, 2]}
    assert pdf["src"].dtype == "int64"


def test_edge_ids_deterministic():
    pdf = pd.DataFrame({"src": [3, 1, 2], "dst": [1, 2, 3]})
    g1 = LocalGraph(pdf)
    g2 = LocalGraph(pdf.iloc[::-1])
    assert (g1.edges == g2.edges).all()


def test_localgraph_queries():
    g = LocalGraph(pd.DataFrame({"src": [0, 0, 1, 1, 2], "dst": [1, 2, 2, 3, 3]}))
    assert g.m == 5 and g.n == 4
    assert g.edge_id(2, 1) == g.edge_id(1, 2)
    tri = list(g.triangles_of(g.edge_id(1, 2)))
    # The apex of each triangle is the endpoint its partner edges share.
    assert {(set(g.edge(e1)) & set(g.edge(e2))).pop() for e1, e2 in tri} == {0, 3}
    assert list(g.support()) == [1, 1, 2, 1, 1]


def test_support_array_matches_triangles():
    g = LocalGraph(
        pd.DataFrame({"src": [0, 0, 0, 1, 1, 2], "dst": [1, 2, 3, 2, 3, 3]})
    )
    sup = g.support()
    for e in range(g.m):
        assert sup[e] == len(list(g.triangles_of(e)))
