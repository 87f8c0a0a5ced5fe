"""AKT: anchored k-truss by *vertex* anchoring (Zhang et al., ICDE'18).

The comparison baseline of paper Exp-9 / Table V. For a fixed ``k``,
anchoring a vertex ``v`` keeps every edge incident to ``v`` in the
``k``-truss computation regardless of its support (the anchored
``k``-truss of [2]); AKT greedily selects ``b`` vertices maximising
*its own* objective — the number of ``(k-1)``-trussness edges retained
in the anchored ``k``-truss, protected edges included (Fig. 1 of the
ATR paper: "anchoring vertex v8 ensures that edges (v3,v8) and (v4,v8)
remain in the 4-truss").

The ATR paper then *measures* that choice with its own metric,
trussness gain, where — exactly as Definition 4 sums over ``E \\ A`` —
artificially protected edges (incident to an anchored vertex) do not
count as genuine gain: only edges lifted into the ``k``-truss by
cascaded support do. This objective/metric split is what Table V
reports and is the root of AKT's poor ratios there: AKT's greedy
choice optimises coverage by protection, not global trussness.

Candidate vertices are restricted to endpoints of ``(k-1)``-trussness
edges (as in [2]). The levels of a sweep are independent, so they fan
out over Spark, one greedy run each; the ``b`` rounds of a run are
sequential and stay in one task.
"""
from __future__ import annotations

import functools

import numpy as np
from pyspark.sql import SparkSession

from repro.core.greedy import check_budget
from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState, is_int

#: Vertices scored per round, those on the most ``(k-1)``-trussness edges (frontier-degree pruning).
CAND_CAP = 40


def _level(g: LocalGraph, st: TrussState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The frontier ``t(e) == k-1`` and the rows of ``g.tri`` with all
    three edges at ``t >= k-1``, one on the frontier. The ``t >= k``
    edges form a ``k``-truss, so they stay whatever is protected, and a
    triangle without a frontier edge only supports edges that stay."""
    frontier = st.t == k - 1
    tri = g.tri[(st.t[g.tri] >= k - 1).all(axis=1) & frontier[g.tri].any(axis=1)]
    return frontier, tri


def _counts(
    g: LocalGraph, frontier: np.ndarray, tri: np.ndarray, k: int, anchored_vertices: frozenset[int]
) -> tuple[int, int]:
    """:func:`anchored_ktruss_counts` on a prebuilt :func:`_level`: only
    unprotected frontier edges can leave, each round those on fewer than
    ``k-2`` live triangles."""
    protected = np.isin(g.edges, list(anchored_vertices)).any(axis=1)
    kept = frontier.copy()
    while True:
        drop = kept & ~protected & (np.bincount(tri.ravel(), minlength=g.m) < k - 2)
        if not drop.any():
            break
        kept &= ~drop
        tri = tri[~drop[tri].any(axis=1)]
    return int(kept.sum()), int((kept & ~protected).sum())


def anchored_ktruss_counts(
    g: LocalGraph, st: TrussState, k: int, anchored_vertices: frozenset[int]
) -> tuple[int, int]:
    """``(objective, measured_gain)`` of a vertex-anchor set at level ``k``.

    Computes the anchored ``k``-truss of the subgraph of edges with
    ``t(e) >= k-1``; protected edges (incident to an anchored vertex)
    are never peeled.

    * ``objective``  — all retained ``(k-1)``-trussness edges
      (AKT's own selection criterion, protection included);
    * ``measured_gain`` — retained ``(k-1)``-trussness edges that are
      *not* protected (the ATR paper's trussness-gain measurement).
    """
    return _counts(g, *_level(g, st, k), k, anchored_vertices)


def akt_greedy(g: LocalGraph, st: TrussState, k: int, b: int) -> tuple[int, list[int]]:
    """Greedy ``b`` anchor vertices for level ``k``.

    Selection maximises AKT's own objective; the returned gain is the
    ATR-measured (cascade-only) trussness gain of the selected set.
    Returns ``(measured_gain, vertices)``.
    """
    b = check_budget(b, g.n)
    frontier, tri = _level(g, st, k)
    verts, incid = np.unique(g.edges[frontier], return_counts=True)
    cand_vertices = verts[np.lexsort((verts, -incid))][: max(CAND_CAP, b)].tolist()
    anchored: set[int] = set()
    for _ in range(b):
        cands = [v for v in cand_vertices if v not in anchored]
        if not cands:
            break
        scored = {v: _counts(g, frontier, tri, k, frozenset(anchored | {v}))[0] for v in cands}
        v_best = min(scored, key=lambda v: (-scored[v], v))
        anchored.add(v_best)
    gain = _counts(g, frontier, tri, k, frozenset(anchored))[1]
    return gain, sorted(anchored)


def akt_sweep(
    spark: SparkSession | None,
    g: LocalGraph,
    st: TrussState,
    b: int,
    k_values: list[int] | None = None,
) -> dict[int, int]:
    """AKT measured gain for every ``k`` (default ``3..kmax+1``), Exp-9,
    as one :func:`akt_greedy` run per level in one fan-out."""
    check_budget(b, g.n)  # bad input raises here, not inside a Spark task
    ks = list(range(3, st.kmax + 2)) if k_values is None else k_values
    for k in ks:  # every edge has trussness >= 2, so below k = 3 a level keeps nothing
        if not is_int(k) or k < 3:
            raise ValueError(f"level k must be an integer >= 3, got {k!r}")
    runs = fan_out(spark, functools.partial(akt_greedy, g, st, b=b), ks)
    return {k: gain for k, (gain, _) in zip(ks, runs)}
