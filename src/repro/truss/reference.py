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

The truss component tree (paper Algorithm 4) is kept here too, as the
oracle for Lemma 4: a node holds the minimum-trussness edges of one
triangle-connected subgraph, its children are the components left
after peeling those edges, and the subgraph under a node with
``TN.K = k`` is a ``k``-truss component (Definition 9). ``sla(e)``
(subtree adjacency nodes) bounds where followers of ``e`` can live:
``F(e) ⊆ ⋃_{id∈sla(e)} node(id).E``. GAS itself decides reuse by
read-sets (:mod:`repro.core.greedy`), not by the tree.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.truss.local import INF_T, LocalGraph, TrussState


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


@dataclass
class TreeNode:
    """One truss-component-tree node (paper Table II)."""

    K: int
    E: set[int] = field(default_factory=set)
    I: int = -1
    P: "TreeNode | None" = None
    C: list["TreeNode"] = field(default_factory=list)


@dataclass
class TrussTree:
    """The forest of truss component trees plus an edge -> node index."""

    roots: list[TreeNode]
    node_of: dict[int, TreeNode]

    def nodes(self) -> list[TreeNode]:
        """All nodes in preorder."""
        out: list[TreeNode] = []
        stack = list(self.roots)
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(n.C)
        return out

    def node_id(self, e: int) -> int:
        """``TN.I`` of the node containing edge ``e``."""
        return self.node_of[e].I


def _components(g: LocalGraph, edges: set[int]) -> list[set[int]]:
    """Triangle-connected components of the subgraph induced by ``edges``.

    Union-find over edges, uniting the three edges of every triangle
    whose edges all survive in ``edges``. Triangle-free edges are
    singleton components.
    """
    parent = {e: e for e in edges}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def unite(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for e in edges:
        for e1, e2 in g.triangles_of(e):
            if e1 in edges and e2 in edges:
                unite(e, e1)
                unite(e, e2)
    comps: dict[int, set[int]] = {}
    for e in edges:
        comps.setdefault(find(e), set()).add(e)
    return list(comps.values())


def build_tree(g: LocalGraph, st: TrussState) -> TrussTree:
    """Construct the truss component tree (Algorithm 4, iterative form).

    Anchored edges participate in connectivity like any other edge and
    are placed by their ``INF_T`` trussness in the deepest node of
    their component.
    """
    t = st.lists[0]
    node_of: dict[int, TreeNode] = {}
    roots: list[TreeNode] = []
    all_edges = set(range(g.m))
    # Worklist of (edge-subset, parent node); mirrors the recursion of
    # Algorithm 4 without Python recursion-depth limits.
    stack: list[tuple[set[int], TreeNode | None]] = [(all_edges, None)]
    while stack:
        edges, parent = stack.pop()
        if not edges:
            continue
        for comp in _components(g, edges):
            kmin = min(t[e] for e in comp)
            tn = TreeNode(K=kmin, P=parent)
            members = {e for e in comp if t[e] == kmin}
            tn.E = members
            tn.I = min(members)
            for e in members:
                node_of[e] = tn
            if parent is None:
                roots.append(tn)
            else:
                parent.C.append(tn)
            rest = comp - members
            if rest:
                stack.append((rest, tn))
    return TrussTree(roots=roots, node_of=node_of)


def sla(g: LocalGraph, st: TrussState, tree: TrussTree, e: int) -> set[int]:
    """Subtree-adjacency node ids of edge ``e``.

    ``id ∈ sla(e)`` iff some neighbour-edge ``e'`` of ``e`` has
    ``t(e') >= t(e)`` and lives in the node with ``TN.I = id``.
    """
    t = st.lists[0]
    out: set[int] = set()
    for pair in g.triangles_of(e):
        for p in pair:
            if t[p] >= t[e]:
                out.add(tree.node_id(p))
    return out
