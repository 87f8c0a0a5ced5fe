"""Output checks, run outside the timed region.

Every checked output counts as one operation toward ``attempted`` and,
if wrong, ``failed``. The checks re-derive each result independently
of the code path that produced it:

* greedy: each round's gain against a fresh anchored decomposition of
  the anchors so far, the total gain through ``trussness_gain`` on a
  fresh ``decompose(g)``, and, on seeds with pinned references, every
  anchor and the total gain;
* baselines: each reported gain against ``trussness_gain`` of the
  reported anchor set, the route-size sum against its pin, and, on
  pinned seeds, the three gains;
* every workload graph: the initial trussness against networkx
  ``k_truss``.
"""
from __future__ import annotations

import json
import pathlib

import numpy as np

PINS = pathlib.Path(__file__).resolve().parent / "pins.json"


class Checks:
    """Named pass/fail results of one run."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def expect(self, name: str, got, want) -> None:
        self.items.append({"name": name, "ok": bool(got == want), "got": got, "want": want})

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def owed(wl, pins: dict, seed: int) -> int:
    """How many checks a run of ``wl`` at ``seed`` performs."""
    if wl.job == "greedy":
        pinned = str(seed) in pins["greedy"].get(wl.dataset, {})
        return wl.b + 2 + (wl.b + 1 if pinned else 0)
    pinned = str(seed) in pins["baselines"].get(wl.dataset, {})
    return 3 + 1 + 1 + (3 if pinned else 0)


def check_trussness_networkx(checks: Checks, g, st) -> None:
    """``t(e) >= k`` iff ``e`` is in networkx's ``k_truss(G, k)``, all ``k``."""
    import networkx as nx

    from repro.truss.local import INF_T

    G = nx.Graph()
    G.add_edges_from((int(u), int(v)) for u, v in g.edges)
    t = np.asarray(st.t)
    mismatched = []
    for k in range(3, st.kmax + 2):
        truss = {g.edge_id(u, v) for u, v in nx.k_truss(G, k).edges()}
        want = {e for e in range(g.m) if k <= t[e] < INF_T}
        if truss != want:
            mismatched.append(k)
    checks.expect("initial trussness == networkx k_truss (mismatched k)", mismatched, [])


def check_greedy(checks: Checks, g, wl, res, pins: dict, seed: int) -> list[int]:
    """Check a greedy result; returns the edges changed per round.

    Replays the anchors: ``decompose(g, A_r)`` for each prefix ``A_r``.
    Round ``r``'s gain is the trussness increase of non-anchors between
    ``A_{r-1}`` and ``A_r``; the changed edges are those whose ``(t, l)``
    moved.
    """
    from repro.truss.local import decompose, trussness_gain

    st0 = decompose(g)
    check_trussness_networkx(checks, g, st0)
    prev, anchors, changed = st0, set(), []
    for r in range(wl.b):
        a = res.anchors[r] if r < len(res.anchors) else None
        if a is None:
            checks.expect(f"round {r + 1} gain", None, "an anchor")
            changed.append(0)
            continue
        anchors.add(a)
        nxt = decompose(g, frozenset(anchors))
        keep = np.ones(g.m, dtype=bool)
        keep[list(anchors)] = False
        gain = int((nxt.t[keep] - prev.t[keep]).sum())
        checks.expect(f"round {r + 1} gain", res.rounds[r].gain, gain)
        changed.append(int(((nxt.t != prev.t) | (nxt.layer != prev.layer)).sum()))
        prev = nxt
    checks.expect(
        "total gain == trussness_gain(g, decompose(g), anchors)",
        res.total_gain,
        trussness_gain(g, decompose(g), frozenset(res.anchors)),
    )
    pin = pins["greedy"].get(wl.dataset, {}).get(str(seed))
    if pin:
        for r in range(wl.b):
            got = res.anchors[r] if r < len(res.anchors) else None
            checks.expect(f"anchor {r + 1} == pinned", got, pin["anchors"][r])
        checks.expect("total gain == pinned", res.total_gain, sum(pin["gains"][: wl.b]))
    return changed


def check_baselines(checks: Checks, g, wl, out: dict, pins: dict, seed: int) -> None:
    """Check the Rand / Sup / Tur results and the route sizes."""
    from repro.truss.local import decompose, trussness_gain

    st0 = decompose(g)
    check_trussness_networkx(checks, g, st0)
    for key in ("rand", "sup", "tur"):
        gain, ids = out[key]
        checks.expect(f"{key} gain == trussness_gain(anchor ids)", gain, trussness_gain(g, st0, frozenset(ids)))
    # Route sizes depend on (t, l) and the triangle structure only, so
    # their sum is the same on every relabelling of the dataset.
    base = pins["baselines"][wl.dataset]
    checks.expect("route-size sum == pinned", out["route_sum"], base["route_sum"])
    pin = base.get(str(seed))
    if pin:
        for key in ("rand", "sup", "tur"):
            checks.expect(f"{key} gain == pinned", out[key][0], pin[key])
