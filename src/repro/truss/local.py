"""Local (driver / executor-side) truss kernel.

The ATR algorithms evaluate thousands of candidate anchors per greedy
round, and every evaluation is triangle lookups over one fixed graph.
This module is the *fast per-task kernel* that every Spark fan-out
(:mod:`repro.fanout`) runs. :class:`LocalGraph` lists the triangles
once, as an edge-id array, and keeps each edge's triangle partners for
the per-edge walks of the follower kernel. :func:`decompose` is a numpy
synchronous peel over that array: anchored edges are never removed
(``sup = +inf``), and all edges with ``sup <= k-2`` are removed
together and form one *layer* ``l(e)``, which the paper's upward-route
machinery needs. Tests check it against the naive oracles in
:mod:`repro.truss.reference`, and ``atrbench/checks.py`` checks it
against networkx ``k_truss`` on the full stand-in datasets.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

#: Sentinel trussness of an anchored edge: anchors live in every truss.
INF_T = 1 << 30


def is_int(x) -> bool:
    """The one integer rule for edge ids, budgets, levels and trial
    counts: an :class:`numbers.Integral` (``np.int64`` included) that is
    not a ``bool``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


class LocalGraph:
    """Canonical edge list with stable edge ids and a triangle index.

    Edge id ``i`` is the row index of the edge in the canonical
    (``src<dst``, sorted, deduped) frame — deterministic for a given
    edge set, which makes greedy tie-breaks and tree-node ids stable.
    ``tri`` holds the three edge ids of every triangle, ascending per
    row, rows sorted; each triangle appears once.
    """

    def __init__(self, edges_pdf: pd.DataFrame):
        from repro.graphs.edges import canonical_edges

        pdf = canonical_edges(edges_pdf)
        self.edges: np.ndarray = pdf.to_numpy(dtype=np.int64)  # (m, 2)
        self.m: int = len(self.edges)
        # Vertices relabelled 0..n-1 in id order, so that packed pair
        # keys ``u*n + v`` fit in int64 whatever the ids are. The keys
        # come out sorted because the canonical rows are.
        self.ids, local = np.unique(self.edges.ravel(), return_inverse=True)
        self.n: int = len(self.ids)
        local = local.reshape(-1, 2)
        self._keys = local[:, 0] * self.n + local[:, 1]
        self.tri: np.ndarray = _triangles(local, self.n)
        self._partners = _partner_lists(self.tri, self.m)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_partners"}

    def __setstate__(self, state: dict) -> None:
        # Tasks receive the compact arrays and rebuild the partner lists.
        self.__dict__.update(state)
        self._partners = _partner_lists(self.tri, self.m)

    # -- basic queries -------------------------------------------------
    def vertices(self) -> list[int]:
        """All vertex ids that appear in at least one edge, ascending."""
        return self.ids.tolist()

    def edge(self, i: int) -> tuple[int, int]:
        """The (src, dst) pair of edge id ``i``."""
        u, v = self.edges[i]
        return int(u), int(v)

    def edge_id(self, u: int, v: int) -> int:
        """Edge id for an (unordered) vertex pair; ``KeyError`` if absent."""
        a, b = (u, v) if u < v else (v, u)
        lu, lv = np.searchsorted(self.ids, (a, b))
        if lv < self.n and self.ids[lu] == a and self.ids[lv] == b:
            key = lu * self.n + lv
            i = int(np.searchsorted(self._keys, key))
            if i < self.m and self._keys[i] == key:
                return i
        raise KeyError((u, v))

    def triangles_of(self, i: int):
        """The ``(e1, e2)`` partner edge ids of each triangle of edge ``i``."""
        it = iter(self._partners[i])
        return zip(it, it)

    def support(self) -> np.ndarray:
        """Initial support ``sup(e, G)`` for every edge, as an array."""
        return np.bincount(self.tri.ravel(), minlength=self.m)


def _triangles(local: np.ndarray, n: int) -> np.ndarray:
    """Every triangle of the relabelled edges ``local`` as a row of edge ids.

    Each edge points from its endpoint of lower ``(degree, id)`` rank to
    the higher one, so a vertex has at most ``O(sqrt(m))`` out-edges and
    each triangle ``a -> b -> c`` closes exactly one wedge: the edge
    ``a -> b`` followed by any out-edge ``b -> c``, closed iff ``a -> c``
    is an edge (a ``searchsorted`` on the sorted ``src*n + dst`` keys).
    """
    m = len(local)
    deg = np.bincount(local.ravel(), minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    ru, rv = rank[local[:, 0]], rank[local[:, 1]]
    src, dst = np.minimum(ru, rv), np.maximum(ru, rv)
    order = np.argsort(src * n + dst)  # oriented edges by key
    src, dst = src[order], dst[order]
    keys = src * n + dst
    start = np.searchsorted(src, np.arange(n + 1))  # out-edges of r: start[r]:start[r+1]
    width = np.diff(start)[dst]  # wedges opened by each edge
    first = np.repeat(np.arange(m), width)
    second = np.arange(len(first)) - np.repeat(np.cumsum(width) - width, width)
    second += start[dst[first]]
    close = src[first] * n + dst[second]
    at = np.minimum(np.searchsorted(keys, close), max(m - 1, 0))
    hit = keys[at] == close
    tri = np.stack([order[first[hit]], order[second[hit]], order[at[hit]]], axis=1)
    tri.sort(axis=1)
    return tri[np.lexsort(tri.T[::-1])].astype(np.int32)


def triangle_incidence(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every triangle once per edge ``own``, with its partners ``p`` and ``q``."""
    a, b, c = tri.T
    return np.concatenate([a, b, c]), np.concatenate([b, a, a]), np.concatenate([c, c, b])


def _partner_lists(tri: np.ndarray, m: int) -> list[list[int]]:
    """Per edge, the flat list ``[e1, e2, e1', e2', ...]`` of the partner
    edges of its triangles. The lists share one int object per edge id,
    which keeps the index a few pointers per triangle."""
    own, p, q = triangle_incidence(tri)
    pairs = np.stack([p, q], axis=1)
    flat = pairs[np.argsort(own, kind="stable")].ravel().tolist()
    flat = list(map(list(range(m)).__getitem__, flat))
    ends = (2 * np.cumsum(np.bincount(own, minlength=m))).tolist()
    return [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]


@dataclass
class TrussState:
    """Result of a truss decomposition.

    ``t[i]`` is the trussness of edge ``i`` (``INF_T`` for anchors) and
    ``layer[i]`` the 1-based synchronous-peeling round within its
    k-hull (0 for anchors). ``(t, layer)`` in lexicographic order is
    the paper's deletion order ``e_i < e_j``.
    """

    t: np.ndarray
    layer: np.ndarray
    anchors: frozenset[int] = field(default_factory=frozenset)

    @property
    def kmax(self) -> int:
        """Largest finite trussness in the graph (2 if the graph is empty)."""
        finite = self.t[self.t < INF_T]
        return int(finite.max()) if len(finite) else 2

    @functools.cached_property
    def lists(self) -> tuple[list[int], list[int]]:
        """``(t, layer)`` as Python lists, for the kernels' per-edge reads.

        Built once per state and never pickled: a task rebuilds it.
        """
        return self.t.tolist(), self.layer.tolist()

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "lists"}

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
    k-hull in which they fall. Each round removes every peelable edge
    with ``sup <= k-2`` at once; each live triangle with a removed edge
    dies once and takes one support from each of its edges. Deterministic
    for a given (graph, anchors) pair. ``ValueError`` if an anchor is
    not an integer (:func:`is_int`) or not an edge id ``0..m-1``.
    """
    anchors = frozenset(anchors)
    m = g.m
    for a in anchors:
        if not is_int(a):
            raise ValueError(f"anchor edge id {a} is not an integer (a {type(a).__name__})")
        if not 0 <= a < m:
            raise ValueError(f"anchor edge id {a} is outside 0..m-1 (m = {m})")
    peelable = np.ones(m, dtype=bool)  # alive and not anchored
    peelable[list(anchors)] = False
    sup = g.support()
    live = [np.ascontiguousarray(col) for col in g.tri.T]  # triangles of alive edges
    t = np.full(m, 2, dtype=np.int64)
    layer = np.zeros(m, dtype=np.int64)
    remaining = m - len(anchors)
    k = 2
    while remaining > 0:
        rnd = 0
        while True:
            batch = peelable & (sup <= k - 2)
            removed = np.flatnonzero(batch)
            if not len(removed):
                break
            rnd += 1
            t[removed] = k
            layer[removed] = rnd
            peelable[removed] = False
            remaining -= len(removed)
            dead = batch[live[0]] | batch[live[1]] | batch[live[2]]
            if dead.any():
                sup -= np.bincount(np.concatenate([col[dead] for col in live]), minlength=m)
                live = [col[~dead] for col in live]
        k += 1
    t[list(anchors)] = INF_T
    return TrussState(t=t, layer=layer, anchors=anchors)


def trussness_gain(g: LocalGraph, base: TrussState, anchors: frozenset[int] | set[int]) -> int:
    """``TG(A, G)``: total trussness increase of non-anchor edges.

    Computed by a fresh decomposition of ``G_A`` against the trussness
    of the ``base`` state (Definition 4). ``base`` may itself already
    contain anchors (for incremental gains inside the greedy loop);
    edges anchored in either state are excluded from the sum.
    """
    return decompose(g, frozenset(anchors) | base.anchors).gain_over(base)
