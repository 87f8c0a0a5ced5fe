"""Truss component tree (paper Algorithm 4) and reuse bookkeeping.

The tree organises all edges by (triangle-connected component,
trussness): a node holds the minimum-trussness edges of one
triangle-connected subgraph, and its children are the components that
remain after peeling those edges. The subgraph under a node with
``TN.K = k`` is a ``k``-truss component (Definition 9); ``TN.I`` is the
smallest edge id in the node, which makes node identity content-stable
across rebuilds.

``sla(e)`` (subtree adjacency nodes) locates where followers of ``e``
can live: Lemma 4 says ``F(e) ⊆ ⋃_{id∈sla(e)} node(id).E``. After an
anchoring, nodes whose membership or internal ``(t, l)`` order changed
are *expired*; an edge whose ``sla`` hits no expired node has a fully
reusable follower result (Algorithm 5's ``rn(e)``).

GAS executes reuse with an exact per-level read-set check (see
:mod:`repro.core.greedy`); the tree is used for Lemma 4 / reuse
reporting (the paper's FR / PR / NR classification, Exp-8) and is
verified against brute force in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.truss.local import INF_T, LocalGraph, TrussState


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


def node_signature(tree: TrussTree, st: TrussState) -> dict[int, frozenset[tuple[int, int, int]]]:
    """Per-node content signature ``{TN.I: {(eid, t, l)}}``.

    Two rounds' nodes with equal signatures are structurally identical:
    same member edges with the same decomposition order. Used to decide
    which nodes *expired* after an anchoring.
    """
    t, layer = st.lists
    out: dict[int, frozenset[tuple[int, int, int]]] = {}
    for tn in tree.nodes():
        out[tn.I] = frozenset((e, t[e], layer[e]) for e in tn.E)
    return out


def expired_nodes(
    before: dict[int, frozenset[tuple[int, int, int]]],
    after: dict[int, frozenset[tuple[int, int, int]]],
) -> set[int]:
    """Node ids (from either round) whose signature changed — the ES set.

    Conservative superset of Algorithm 5's ES: any node created,
    removed, or with changed membership / ``(t, l)`` order is expired.
    """
    ids = set(before) | set(after)
    return {i for i in ids if before.get(i) != after.get(i)}


def classify_reuse(
    g: LocalGraph,
    st: TrussState,
    tree: TrussTree,
    es: set[int],
) -> dict[int, str]:
    """The paper's Exp-8 classification of each edge's cached result.

    ``FR`` (fully reusable): no node in ``sla(e) ∪ {node(e)}`` expired.
    ``PR`` (partially reusable): some but not all expired.
    ``NR`` (non-reusable): all expired.
    """
    t = st.lists[0]
    out: dict[int, str] = {}
    for e in range(g.m):
        if t[e] >= INF_T:
            continue
        ids = sla(g, st, tree, e) | {tree.node_id(e)}
        hit = len(ids & es)
        out[e] = "FR" if hit == 0 else ("NR" if hit == len(ids) else "PR")
    return out
