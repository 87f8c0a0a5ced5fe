"""Follower computation for a single anchor edge (paper Algorithm 3).

Anchoring edge ``x`` (support := +inf) can raise each other edge's
trussness by at most 1 (Lemma 1), so the trussness gain of ``{x}`` is
the number of *followers* ``F(x, G)``. This module computes followers
with the paper's two pruning ideas:

1. **Upward-route candidates** (Lemma 2): only edges reachable from
   ``x``'s neighbour-edges along same-trussness, deletion-order-
   increasing routes can be followers. :func:`_route_level`
   enumerates them per trussness level.
2. **Support check**: within each level ``i``, a candidate survives iff
   it keeps ``>= i-1`` *effective triangles* — triangles whose partner
   edges are the anchor, an anchored edge, an edge of trussness ``> i``
   (already in every ``(i+1)``-truss), or another surviving candidate.
   We compute the maximal surviving set by peeling to a fixpoint, which
   is an equivalent batch formulation of Algorithm 3's
   survive/eliminate/Retract bookkeeping (the fixpoint is unique, so
   processing order does not matter).

A result is split the way its computation is. The **roots** of ``x``
(its triangle partners, with ``x`` itself) decide which levels exist
and where each level's route starts; each **level** ``i`` then runs its
route search and peel independently and records every edge it read in
its own read-set. A read of edge ``p`` at level ``i`` consults only
``sign(t(p) - i)`` (an anchored edge counts as above ``i``) and, when
``t(p) = i``, the layer ``l(p)``. A level's output is therefore a
deterministic function of the recorded verdicts of its reads: while
those verdicts and the root verdicts (:func:`root_verdict`) are
unchanged, recomputing the level replays the same computation and
returns the same :class:`Level`. GAS (:mod:`repro.core.greedy`) reuses
levels on exactly that condition.

Before any of that, :func:`may_have_followers` proves most candidates
follower-free with one whole-graph numpy pass per state (not in the
paper; derived from Lemma 2 and the support check, see its docstring).
"""
from __future__ import annotations

from collections import deque
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from repro.truss.local import INF_T, LocalGraph, TrussState, triangle_incidence


@dataclass(frozen=True)
class Level:
    """Outcome of one trussness level of a follower computation."""

    followers: frozenset[int]
    candidates: frozenset[int]  # upward-route candidates of this level
    reads: frozenset[int]  # every edge whose state this level consulted


@dataclass
class FollowerResult:
    """Followers of one prospective anchor, per trussness level.

    ``root_reads`` holds ``x`` and its triangle partners, whose verdicts
    (:func:`root_verdict`, against ``x``'s own ``(t, l)``) decide the
    levels; ``levels`` maps each level with at least one root to its
    :class:`Level`. ``followers``, ``candidates`` and ``reads`` are the
    unions over the parts.
    """

    x: int
    root_reads: frozenset[int]
    levels: dict[int, Level]

    @property
    def followers(self) -> frozenset[int]:
        return frozenset().union(*(lv.followers for lv in self.levels.values()))

    @property
    def candidates(self) -> frozenset[int]:
        return frozenset().union(*(lv.candidates for lv in self.levels.values()))

    @property
    def reads(self) -> frozenset[int]:
        return self.root_reads.union(*(lv.reads for lv in self.levels.values()))

    @property
    def gain(self) -> int:
        """Trussness gain of anchoring ``x`` alone (= #followers, Lemma 1).

        Levels hold edges of distinct trussness, so they are disjoint.
        """
        return sum(len(lv.followers) for lv in self.levels.values())


def root_verdict(tp: int, lp: int, tx: int, lx: int) -> int:
    """What a partner edge ``p`` of ``x`` decides about ``x``'s roots.

    ``INF_T`` if ``p`` is anchored; ``t(p)`` if ``p`` roots level
    ``t(p)`` — Lemma 2 condition (i): ``t(p) > t(x)``, or ``t(p) = t(x)``
    and ``l(p) > l(x)``; 0 if ``p`` is not a root.
    """
    if tp >= INF_T:
        return INF_T
    if tp > tx or (tp == tx and lp > lx):
        return tp
    return 0


def _roots(
    g: LocalGraph, st: TrussState, x: int
) -> tuple[dict[int, list[int]], frozenset[int]]:
    """Neighbour-edges of ``x`` that root a level, by level, and the
    root read-set (``x`` and all its triangle partners)."""
    t, layer = st.lists
    tx, lx = t[x], layer[x]
    roots: dict[int, list[int]] = {}
    reads = {x}
    for pair in g.triangles_of(x):
        for e in pair:
            reads.add(e)
            i = root_verdict(t[e], layer[e], tx, lx)
            if 0 < i < INF_T:
                roots.setdefault(i, []).append(e)
    return roots, frozenset(reads)


def _route_level(
    g: LocalGraph,
    st: TrussState,
    x: int,
    i: int,
    roots: list[int],
    reads: set[int],
) -> set[int]:
    """Level-``i`` upward-route candidates: BFS from the level's roots,
    expanding from edge ``e`` to any neighbour-edge ``e'`` with
    ``t(e') = i`` and ``e < e'`` in deletion order (Definition 7).

    Every edge of the level has ``t = i``, so the deletion order
    between two of them is their layer order.
    """
    t, layer = st.lists
    level: set[int] = set(roots)
    queue = deque(roots)
    while queue:
        e = queue.popleft()
        le = layer[e]
        for pair in g.triangles_of(e):
            for p in pair:
                if p in level:
                    continue
                reads.add(p)
                if t[p] == i and p != x and le <= layer[p]:
                    level.add(p)
                    queue.append(p)
    return level


def _peel_level(
    g: LocalGraph,
    st: TrussState,
    x: int,
    i: int,
    cand: set[int],
    reads: set[int],
) -> set[int]:
    """Maximal subset of level-``i`` candidates passing the support check.

    An edge survives iff it has ``>= i-1`` effective triangles, where a
    partner edge counts iff it is the anchor ``x``, an anchored edge,
    has trussness ``> i``, or is itself a surviving candidate. Peeling
    to the greatest fixpoint reproduces Algorithm 3's
    survived/eliminated/Retract outcome exactly.
    """
    t = st.lists[0]
    survivors = set(cand)

    def eff(e: int) -> int:
        s = 0
        for pair in g.triangles_of(e):
            for p in pair:
                reads.add(p)
                tp = t[p]
                if p == x or tp > i or (tp == i and p in survivors):
                    continue
                break
            else:
                s += 1
        return s

    queue = deque(survivors)
    queued = set(survivors)
    while queue:
        e = queue.popleft()
        queued.discard(e)
        if e not in survivors:
            continue
        if eff(e) < i - 1:
            survivors.discard(e)
            for pair in g.triangles_of(e):
                for p in pair:
                    if p in survivors and p not in queued:
                        queue.append(p)
                        queued.add(p)
    return survivors


def _level(
    g: LocalGraph, st: TrussState, x: int, i: int, roots: list[int]
) -> Level:
    """Route search and peel of level ``i``, with the level's own reads."""
    reads = set(roots)
    cand = _route_level(g, st, x, i, roots, reads)
    followers = _peel_level(g, st, x, i, cand, reads)
    return Level(frozenset(followers), frozenset(cand), frozenset(reads))


def get_followers(
    g: LocalGraph, st: TrussState, x: int, skip: Collection[int] = ()
) -> FollowerResult:
    """``F(x, G_A)`` — the exact follower set of anchoring edge ``x``.

    ``st`` must be the decomposition of the current (possibly already
    anchored) graph; ``x`` must not itself be anchored. Levels in
    ``skip`` are left out of the result: the caller already holds them.
    """
    roots, root_reads = _roots(g, st, x)
    levels = {i: _level(g, st, x, i, rs) for i, rs in roots.items() if i not in skip}
    return FollowerResult(x=x, root_reads=root_reads, levels=levels)


def may_have_followers(g: LocalGraph, st: TrussState) -> np.ndarray:
    """Boolean mask over edges: ``False`` proves ``x`` has no follower.

    ``Z`` is the greatest set of non-anchored edges in which every edge
    ``e`` with ``t(e) = i`` has ``c2 >= i-2`` and ``c1 + c2 >= i-1``. A
    partner of ``e`` *qualifies* if ``t > i`` (anchors included) or
    ``t = i`` and it is in ``Z``; ``c2`` counts the triangles of ``e``
    whose two partners both qualify, ``c1`` those with exactly one.
    ``Z`` is computed by synchronous peeling over ``g.tri``, as
    :func:`~repro.truss.local.decompose` peels. ``x`` passes iff one
    of its roots (a partner whose :func:`root_verdict` against ``x``
    lies strictly between 0 and ``INF_T``) is in ``Z``; anchored edges
    never pass.

    Exactness. Suppose ``x`` has a non-empty set ``F`` of level-``i``
    followers. Each ``f`` in ``F`` keeps ``>= i-1`` effective
    triangles, whose partners are ``x``, anchors, edges with ``t > i``
    or edges of ``F``. At most one of them contains ``x`` (two edges
    share at most one triangle), and its other partner qualifies. So
    with ``F`` in place of ``Z`` every ``f`` has ``c2 >= i-2`` and
    ``c1 + c2 >= i-1``; the condition is monotone in the set, so
    ``F ⊆ Z``. Some ``f`` in ``F`` is a triangle partner of ``x``:
    otherwise every ``f`` keeps ``i-1`` triangles within
    ``F ∪ {t > i} ∪ A``, which would then lie in the ``(i+1)``-truss of
    ``G_A`` already. By Lemma 2 a follower comes after ``x`` in
    deletion order, so that partner is a root of ``x``, and it is in
    ``Z``.
    """
    t, m = st.t, g.m
    own, p, q = triangle_incidence(g.tri)
    z = t < INF_T
    # Peel Z. A partner above the owner's level always qualifies; one at
    # the owner's level qualifies while it is in Z.
    live = z[own]
    e, ep, eq = own[live], p[live], q[live]
    te, tp, tq = t[e], t[ep], t[eq]
    above_p, above_q, at_p, at_q = tp > te, tq > te, tp == te, tq == te
    while True:
        qp = above_p | (at_p & z[ep])
        qq = above_q | (at_q & z[eq])
        c2 = np.bincount(e[qp & qq], minlength=m)
        c12 = np.bincount(e[qp | qq], minlength=m)
        drop = z & ((c2 < t - 2) | (c12 < t - 1))
        if not drop.any():
            break
        z &= ~drop
        live = z[e]
        e, ep, eq, above_p, above_q, at_p, at_q = (
            v[live] for v in (e, ep, eq, above_p, above_q, at_p, at_q)
        )
    # x passes iff a partner r in Z roots a level of x. Edges of Z are
    # not anchored, and nothing lies above an anchored x.
    x, r = np.concatenate([own, own]), np.concatenate([p, q])
    x, r = x[z[r]], r[z[r]]
    tx, tr = t[x], t[r]
    root = (tr > tx) | ((tr == tx) & (st.layer[r] > st.layer[x]))
    out = np.zeros(m, dtype=bool)
    out[x[root]] = True
    return out
