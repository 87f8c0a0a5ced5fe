"""Exact enumeration baseline and greedy's optimality gap (paper Exp-2)."""
import pytest

from repro.baselines.exact import exact_best
from repro.core.greedy import run_greedy
from repro.graphs.gen import community_graph
from repro.graphs.toys import truss_ladder
from repro.truss.local import LocalGraph, decompose, trussness_gain


def _small():
    yield "ladder", truss_ladder()
    for seed in range(2):
        yield (
            f"comm{seed}",
            community_graph(n=25, n_cliques=9, clique_max=6, n_noise=8, drop_frac=0.15, seed=seed),
        )


CASES = list(_small())


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_exact_b1_matches_best_single_gain(label, pdf):
    g = LocalGraph(pdf)
    st = decompose(g)
    gain, ids = exact_best(None, g, st, 1)
    best = max(
        trussness_gain(g, st, frozenset({x})) for x in range(g.m)
    )
    assert gain == best
    assert trussness_gain(g, st, frozenset(ids)) == gain


@pytest.mark.parametrize("label,pdf", CASES, ids=[c[0] for c in CASES])
def test_greedy_b1_is_optimal(label, pdf):
    """With b=1 greedy IS exact — both pick the single best edge."""
    g = LocalGraph(pdf)
    st = decompose(g)
    exact_gain, _ = exact_best(None, g, st, 1)
    greedy = run_greedy(None, g, 1, "gas")
    assert greedy.total_gain == exact_gain


def test_greedy_b2_within_exact(label_pdf=CASES[1]):
    """Paper Exp-2: greedy achieves >= 90% of Exact for small budgets.
    We assert the safe direction (greedy <= exact) and a loose lower
    bound; the harness reports the actual ratio."""
    _, pdf = label_pdf
    g = LocalGraph(pdf)
    st = decompose(g)
    exact_gain, _ = exact_best(None, g, st, 2)
    greedy = run_greedy(None, g, 2, "gas")
    assert greedy.total_gain <= exact_gain
    if exact_gain > 0:
        assert greedy.total_gain >= 0.5 * exact_gain


def test_exact_spark_matches_serial(spark, spark_jobs):
    g = LocalGraph(truss_ladder())
    st = decompose(g)
    serial = exact_best(None, g, st, 2)
    dist = exact_best(spark, g, st, 2)
    assert spark_jobs()
    assert serial == dist


def test_exact_budget_clamped_to_edge_count():
    g = LocalGraph(truss_ladder())
    st = decompose(g)
    assert exact_best(None, g, st, g.m + 1) == exact_best(None, g, st, g.m)


@pytest.mark.parametrize("b", [-1, True, 2.5])
def test_exact_bad_budget_raises(b):
    g = LocalGraph(truss_ladder())
    with pytest.raises(ValueError, match="budget b must be a non-negative integer"):
        exact_best(None, g, decompose(g), b)
