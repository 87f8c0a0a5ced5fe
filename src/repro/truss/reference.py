"""Naive, definition-level truss oracle for tests.

Deliberately written from the *definitions* (Definition 2/3) rather
than the peeling kernel, so that :func:`repro.truss.local.decompose`
is checked against an independent code path: ``k``-trusses are
computed by fixpoint filtering for each ``k`` separately, trussness is
the largest ``k`` whose truss contains the edge, and a layer is the
round in which synchronous rounds remove the edge from its ``k``-truss.
Only the triangle lookups (:meth:`LocalGraph.triangles_of`) are shared
with the kernel; ``tests/test_triangles.py`` checks those against
brute force and networkx.
"""
from __future__ import annotations

from repro.truss.local import INF_T, LocalGraph


def ktruss_edge_set(
    g: LocalGraph, k: int, anchors: frozenset[int] = frozenset()
) -> set[int]:
    """Edge ids of the (anchored) ``k``-truss of ``g``.

    Iteratively removes non-anchor edges with fewer than ``k-2``
    triangles formed with surviving edges, until stable. Anchored edges
    are retained unconditionally (``sup = +inf``).
    """
    live = set(range(g.m))
    changed = True
    while changed:
        changed = False
        for e in sorted(live):
            if e in anchors:
                continue
            s = sum(1 for e1, e2 in g.triangles_of(e) if e1 in live and e2 in live)
            if s < k - 2:
                live.discard(e)
                changed = True
    return live


def trussness_naive(
    g: LocalGraph, anchors: frozenset[int] = frozenset()
) -> dict[int, int]:
    """Trussness of every edge by definition; anchors get ``INF_T``."""
    t = {e: 2 for e in range(g.m)}
    k = 3
    while True:
        live = ktruss_edge_set(g, k, anchors)
        if not (live - anchors):
            break
        for e in live:
            t[e] = k
        k += 1
    for e in anchors:
        t[e] = INF_T
    return t


def layers_naive(
    g: LocalGraph, anchors: frozenset[int] = frozenset()
) -> dict[int, int]:
    """Layer ``l(e)`` of every edge by definition; anchors get 0.

    For each ``k``, start from the ``k``-truss and repeatedly remove,
    all at once, every non-anchor edge with at most ``k-2`` triangles
    inside the current set; an edge removed in round ``r`` has
    ``t(e) = k`` and ``l(e) = r``.
    """
    layer = dict.fromkeys(range(g.m), 0)
    k = 2
    while live := ktruss_edge_set(g, k, anchors):
        if not live - anchors:
            break
        rnd = 0
        while True:
            batch = {
                e
                for e in live - anchors
                if sum(1 for e1, e2 in g.triangles_of(e) if e1 in live and e2 in live) <= k - 2
            }
            if not batch:
                break
            rnd += 1
            for e in batch:
                layer[e] = rnd
            live -= batch
        k += 1
    return layer


def followers_naive(
    g: LocalGraph, x: int, anchors: frozenset[int] = frozenset()
) -> set[int]:
    """``F(x, G_A)`` by brute force: decompose with and without ``x``."""
    before = trussness_naive(g, anchors)
    after = trussness_naive(g, anchors | {x})
    return {
        e
        for e in range(g.m)
        if e != x and e not in anchors and after[e] > before[e]
    }
