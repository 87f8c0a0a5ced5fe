"""Local (driver / executor-side) truss kernel.

The ATR algorithms evaluate thousands of candidate anchors per greedy
round. This module is the *fast per-task kernel* that every Spark
fan-out (:mod:`repro.fanout`) runs: a plain-Python adjacency view plus a
synchronous-peeling truss decomposition that supports anchored edges
(``sup = +inf``) and reports the layer index ``l(e)`` that the paper's
upward-route machinery needs. All edges with ``sup <= k-2`` are removed
together and form one *layer*. Tests check it against the naive oracle
in :mod:`repro.truss.reference`, and ``atrbench/checks.py`` checks it
against networkx ``k_truss`` on the full stand-in datasets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

#: Sentinel trussness of an anchored edge: anchors live in every truss.
INF_T = 1 << 30


class LocalGraph:
    """Adjacency view of a canonical edge list with stable edge ids.

    Edge id ``i`` is the row index of the edge in the canonical
    (``src<dst``, sorted, deduped) frame — deterministic for a given
    edge set, which makes greedy tie-breaks and tree-node ids stable.
    """

    def __init__(self, edges_pdf: pd.DataFrame):
        from repro.graphs.edges import canonical_edges

        pdf = canonical_edges(edges_pdf)
        self.edges: np.ndarray = pdf.to_numpy(dtype=np.int64)  # (m, 2)
        self.m: int = len(self.edges)
        self.eid: dict[tuple[int, int], int] = {
            (int(u), int(v)): i for i, (u, v) in enumerate(self.edges)
        }
        self.adj: dict[int, dict[int, int]] = {}
        for i, (u, v) in enumerate(self.edges):
            self.adj.setdefault(int(u), {})[int(v)] = i
            self.adj.setdefault(int(v), {})[int(u)] = i
        self.n: int = len(self.adj)

    # -- basic queries -------------------------------------------------
    def vertices(self) -> list[int]:
        """All vertex ids that appear in at least one edge."""
        return list(self.adj)

    def edge(self, i: int) -> tuple[int, int]:
        """The (src, dst) pair of edge id ``i``."""
        u, v = self.edges[i]
        return int(u), int(v)

    def edge_id(self, u: int, v: int) -> int:
        """Edge id for an (unordered) vertex pair."""
        return self.eid[(u, v) if u < v else (v, u)]

    def common_neighbors(self, u: int, v: int) -> list[int]:
        """Vertices adjacent to both ``u`` and ``v`` (triangle apexes)."""
        a, b = self.adj.get(u, {}), self.adj.get(v, {})
        if len(a) > len(b):
            a, b = b, a
        return [w for w in a if w in b]

    def triangles_of(self, i: int):
        """Yield ``(w, e1, e2)`` for each triangle containing edge ``i``.

        ``e1 = (u, w)`` and ``e2 = (v, w)`` are the partner edge ids.
        """
        u, v = self.edge(i)
        au, av = self.adj[u], self.adj[v]
        if len(au) > len(av):
            u, v = v, u
            au, av = av, au
        for w, e1 in au.items():
            e2 = av.get(w)
            if e2 is not None:
                yield w, e1, e2

    def support(self) -> np.ndarray:
        """Initial support ``sup(e, G)`` for every edge, as an array."""
        sup = np.zeros(self.m, dtype=np.int64)
        for i in range(self.m):
            sup[i] = len(self.common_neighbors(*self.edge(i)))
        return sup

    def to_pandas(self) -> pd.DataFrame:
        """The canonical edge frame (columns ``src``, ``dst``)."""
        return pd.DataFrame({"src": self.edges[:, 0], "dst": self.edges[:, 1]})


@dataclass
class TrussState:
    """Result of a truss decomposition.

    ``t[i]`` is the trussness of edge ``i`` (``INF_T`` for anchors) and
    ``layer[i]`` the 1-based synchronous-peeling round within its
    k-hull (0 for anchors). ``order(i) <= order(j)`` encodes the
    paper's ``e_i < e_j`` deletion-order relation.
    """

    t: np.ndarray
    layer: np.ndarray
    anchors: frozenset[int] = field(default_factory=frozenset)

    @property
    def kmax(self) -> int:
        """Largest finite trussness in the graph (2 if the graph is empty)."""
        finite = self.t[self.t < INF_T]
        return int(finite.max()) if len(finite) else 2

    def order(self, i: int) -> tuple[int, int]:
        """Sort key realising the paper's deletion order ``e_i < e_j``."""
        return (int(self.t[i]), int(self.layer[i]))

    def le(self, i: int, j: int) -> bool:
        """The paper's ``e_i < e_j``: earlier (or equal) deletion order."""
        return self.order(i) <= self.order(j)

    def gain_over(self, base: TrussState) -> int:
        """Trussness increase from ``base`` summed over the edges anchored
        in neither state (Definition 4's sum over ``E \\ A``)."""
        keep = (self.t < INF_T) & (base.t < INF_T)
        return int((self.t[keep] - base.t[keep]).sum())


def decompose(g: LocalGraph, anchors: frozenset[int] | set[int] = frozenset()) -> TrussState:
    """Truss decomposition with layers (Algorithm 1 + layer bookkeeping).

    Anchored edges are never removed (``sup = +inf`` abstraction); all
    other edges receive ``t(e) = k`` for the ``k`` at which they are
    peeled, and ``l(e)`` = the synchronous round index within that
    k-hull in which they fall. Deterministic for a given (graph,
    anchors) pair.
    """
    anchors = frozenset(anchors)
    m = g.m
    sup = g.support()
    alive = np.ones(m, dtype=bool)
    anchored = np.zeros(m, dtype=bool)
    for e in anchors:
        anchored[e] = True
    t = np.full(m, 2, dtype=np.int64)
    layer = np.zeros(m, dtype=np.int64)
    remaining = m - len(anchors)
    k = 2
    while remaining > 0:
        # At the start of each k, every alive non-anchor edge is a
        # removal candidate; afterwards only edges whose support was
        # decremented in the previous round can newly qualify.
        check = [e for e in range(m) if alive[e] and not anchored[e]]
        rnd = 0
        while True:
            batch = [e for e in check if alive[e] and sup[e] <= k - 2]
            if not batch:
                break
            rnd += 1
            for e in batch:
                t[e] = k
                layer[e] = rnd
            touched: set[int] = set()
            for e in batch:
                alive[e] = False
                for _w, e1, e2 in g.triangles_of(e):
                    if alive[e1] and alive[e2]:
                        sup[e1] -= 1
                        sup[e2] -= 1
                        touched.add(e1)
                        touched.add(e2)
                remaining -= 1
            check = [e for e in touched if alive[e] and not anchored[e]]
        k += 1
    for e in anchors:
        t[e] = INF_T
        layer[e] = 0
    return TrussState(t=t, layer=layer, anchors=anchors)


def trussness_gain(g: LocalGraph, base: TrussState, anchors: frozenset[int] | set[int]) -> int:
    """``TG(A, G)``: total trussness increase of non-anchor edges.

    Computed by a fresh decomposition of ``G_A`` against the trussness
    of the ``base`` state (Definition 4). ``base`` may itself already
    contain anchors (for incremental gains inside the greedy loop);
    edges anchored in either state are excluded from the sum.
    """
    return decompose(g, frozenset(anchors) | base.anchors).gain_over(base)
