"""Theorem 1's reduction gadget: mechanical check of proof claims (i)-(v).

The gadget for a maximum-coverage instance must make the ATR optimum
coincide with the MC optimum; we verify every structural claim of the
proof and then solve both sides.
"""
import pytest

from repro.baselines.exact import exact_best
from repro.core.greedy import run_greedy
from repro.graphs.toys import np_gadget
from repro.truss.local import LocalGraph, decompose, trussness_gain

SETS = [{0, 1}, {1, 2, 3}, {0, 3}]
T = 4


@pytest.fixture(scope="module")
def gadget():
    edges, a_e, f_e = np_gadget(SETS, T)
    g = LocalGraph(edges)
    st = decompose(g)
    return g, st, a_e, f_e


def test_claim_i_a_edge_trussness(gadget):
    g, st, a_e, _ = gadget
    for i, Ti in enumerate(SETS):
        assert int(st.t[g.edge_id(*a_e[i])]) == len(Ti) + 2


def test_claim_ii_f_edge_trussness(gadget):
    g, st, _, f_e = gadget
    for j in range(T):
        assert int(st.t[g.edge_id(*f_e[j])]) == T + 2


def test_claim_iii_anchoring_a_raises_exactly_its_elements(gadget):
    g, st, a_e, f_e = gadget
    for i, Ti in enumerate(SETS):
        a = g.edge_id(*a_e[i])
        after = decompose(g, frozenset({a}))
        raised = {
            j
            for j in range(T)
            if int(after.t[g.edge_id(*f_e[j])]) > int(st.t[g.edge_id(*f_e[j])])
        }
        assert raised == Ti
        # and nothing else changes
        gain = trussness_gain(g, st, {a})
        assert gain == len(Ti)


def test_claim_iv_multiple_anchors_cap_at_one(gadget):
    g, st, a_e, f_e = gadget
    anchors = frozenset(g.edge_id(*a_e[i]) for i in range(len(SETS)))
    after = decompose(g, anchors)
    for j in range(T):
        e = g.edge_id(*f_e[j])
        assert int(after.t[e]) - int(st.t[e]) == 1


def test_claim_v_other_edges_gain_nothing(gadget):
    g, st, a_e, f_e = gadget
    a_ids = {g.edge_id(*e) for e in a_e}
    # sample non-E_a edges: all f edges + a stride of clique edges
    probes = [g.edge_id(*e) for e in f_e] + [
        e for e in range(0, g.m, 97) if e not in a_ids
    ]
    for x in probes:
        assert trussness_gain(g, st, {x}) == 0, g.edge(x)


def test_greedy_solves_max_coverage(gadget):
    """Greedy ATR on the gadget = greedy max coverage (here optimal)."""
    g, st, a_e, _ = gadget
    res = run_greedy(None, g, 2, "gas")
    # greedy MC: pick T_1 (3 elements), then either other set adds 1.
    assert res.total_gain == 4
    assert g.edge(res.anchors[0]) == a_e[1]


def test_exact_matches_mc_optimum(gadget):
    g, st, _, _ = gadget
    # b=1: best single set covers 3 elements.
    gain, _ = exact_best(None, g, st, 1)
    assert gain == 3
