"""Greedy anchor selection: BASE, BASE+ and GAS (paper Algorithms 2 & 6).

All three methods run the same outer greedy loop — in each of ``b``
rounds, evaluate the trussness gain of every non-anchored candidate
edge and anchor the best (ties broken by smallest edge id, so all
methods produce identical anchor sets) — and differ only in how a
candidate is evaluated:

* **BASE** re-runs a full truss decomposition of ``G_{A∪{e}}`` per
  candidate (Algorithm 2): ``O(m^{1.5})`` per candidate.
* **BASE+** evaluates a candidate with the upward-route + support-check
  follower kernel (Algorithm 3): only the route neighbourhood is
  visited.
* **GAS** additionally caches each candidate's follower result, split
  into its root reads and one part per trussness level
  (:mod:`repro.core.followers`), and after each anchoring drops only
  what the state change may have altered. For every edge ``p`` whose
  ``(t, l)`` moved to ``(t', l')`` (the new anchor included; an
  anchored edge counts as ``t > i`` for every level ``i``):

  - the whole entry of ``x`` is dropped if ``p = x``, or if ``p`` is a
    triangle partner of ``x`` whose root verdict
    (:func:`~repro.core.followers.root_verdict`: anchored / root at
    level ``t`` / not a root) changed;
  - otherwise level ``i`` of the entry is dropped if ``p`` is in that
    level's read-set and ``sign(t - i) != sign(t' - i)``, or
    ``i ∈ {t, t'}`` and ``l != l'``.

  The rule is exact. A level reads, of each edge, only its trussness
  relative to ``i`` and, at ``t = i``, its layer, so its output is a
  deterministic function of the recorded verdicts of its reads; where
  none moved and the roots are the same, recomputing replays the same
  computation. A candidate missing some levels recomputes its roots
  (one pass over the triangles of ``x``) and only those levels (see
  DESIGN.md for why the executable test is the read-set, not the
  paper's truss component tree).

BASE+ and GAS put one exact zero-gain test in front of the follower
search (:func:`~repro.core.followers.may_have_followers`, not in the
paper). Each round, a candidate without a complete cached result is
evaluated only if it passes; the rest score 0 and are not cached. BASE
stays the paper's full re-decomposition of every candidate.

Each round is reported as a :class:`RoundStats`: ``best`` and ``gain``;
``evaluated``, the candidates with any recomputation, ``reused``, those
served whole from the cache, and ``pruned``, those the zero-gain test
skipped, so ``evaluated + reused + pruned`` is the number of
non-anchored edges (BASE prunes nothing); ``levels_recomputed``, the
(candidate, level) follower computations run; ``changed``, the edges
whose ``(t, l)`` the anchoring moved, the anchor included;
``invalidated`` and ``partial``, the cached entries it dropped whole
and in part (GAS only); and ``seconds``.

These counts are the paper's Exp-8 reuse classes as GAS executes them,
over the candidates that passed the test. After GAS round ``r`` every
cached entry is fully reusable (FR, round ``r+1``'s ``reused``),
partially reusable (PR, ``partial``) or not reusable (NR,
``invalidated``, the new anchor included), so
``invalidated + partial + reused[r+1] == evaluated + reused`` and
``evaluated[r+1] + pruned[r+1] == invalidated + partial - 1 + pruned``.
BASE and BASE+ keep nothing: 0 / 0 / 0.

BASE+ and GAS evaluate on the driver: after the zero-gain test a round
has hundreds of follower searches, and at thousands (pokec's generator
×10 and ×50) one Spark fan-out of them took 2–6× the driver's time.
BASE's candidates, each a full decomposition, go through
:func:`best_anchor_set`, shared with the Rand / Sup / Tur and Exact
baselines.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

import numpy as np
from pyspark.sql import SparkSession

from repro.core.followers import (
    FollowerResult,
    get_followers,
    may_have_followers,
    root_verdict,
)
from repro.fanout import fan_out
from repro.truss.local import LocalGraph, TrussState, decompose, is_int, trussness_gain


@dataclass
class RoundStats:
    """Per-round diagnostics of one greedy iteration (fields: module docstring)."""

    best: int
    gain: int
    evaluated: int
    reused: int
    pruned: int
    levels_recomputed: int
    changed: int
    invalidated: int
    partial: int
    seconds: float


@dataclass
class GreedyResult:
    """Outcome of a greedy run."""

    method: str
    anchors: list[int]
    rounds: list[RoundStats]
    total_gain: int
    seconds: float


def _eval_followers_local(
    g: LocalGraph,
    st: TrussState,
    partial: dict[int, FollowerResult],
    cand: list[int],
) -> dict[int, FollowerResult]:
    """Complete follower results of ``cand``, evaluated on the driver,
    computing for each only the levels that ``partial`` does not hold
    for it."""
    out: dict[int, FollowerResult] = {}
    for x in cand:
        kept = partial[x].levels if x in partial else {}
        fr = get_followers(g, st, x, kept)
        out[x] = replace(fr, levels={**kept, **fr.levels}) if kept else fr
    return out


# Kept only because atrbench/tracing.py looks this name up to wrap it; it goes with that wrapper.
_eval_followers_spark = _eval_followers_local


def _invalidate(
    g: LocalGraph,
    cache: dict[int, FollowerResult],
    prev: TrussState,
    st: TrussState,
    changed: np.ndarray,
) -> tuple[int, dict[int, FollowerResult]]:
    """Apply GAS's reuse rule (module docstring) to the change ``prev → st``.

    ``changed`` holds the edges whose ``(t, l)`` moved. Removes every
    entry the rule touches from ``cache`` and returns how many were
    dropped whole, and the entries dropped in part, each holding the
    levels it keeps.
    """
    (t0, l0), (t, layer) = prev.lists, st.lists
    whole = set(changed.tolist())
    for p in changed.tolist():
        for pair in g.triangles_of(p):
            for x in pair:
                if x in cache and x not in whole:
                    tx, lx = t[x], layer[x]
                    if root_verdict(t0[p], l0[p], tx, lx) != root_verdict(t[p], layer[p], tx, lx):
                        whole.add(x)
    invalidated = sum(cache.pop(x, None) is not None for x in whole)

    pt, nt = prev.t[changed], st.t[changed]
    pl, nl = prev.layer[changed], st.layer[changed]
    flipped: dict[int, set[int]] = {}
    for i in {i for fr in cache.values() for i in fr.levels}:
        moved = (np.sign(pt - i) != np.sign(nt - i)) | (
            ((pt == i) | (nt == i)) & (pl != nl)
        )
        flipped[i] = set(changed[moved].tolist())
    partial: dict[int, FollowerResult] = {}
    for x, fr in cache.items():
        kept = {i: lv for i, lv in fr.levels.items() if lv.reads.isdisjoint(flipped[i])}
        if len(kept) < len(fr.levels):
            partial[x] = replace(fr, levels=kept)
    for x in partial:
        del cache[x]
    return invalidated, partial


def check_budget(b: int, cap: int) -> int:
    """The budget ``b`` clamped to ``cap`` (no more anchors than there
    are items to anchor); ``ValueError`` unless ``b`` is a non-negative
    integer."""
    if not is_int(b) or b < 0:
        raise ValueError(f"budget b must be a non-negative integer, got {b!r}")
    return min(int(b), cap)


def best_anchor_set(
    spark: SparkSession | None, g: LocalGraph, st: TrussState, sets: list
) -> tuple[int, int]:
    """The largest :func:`~repro.truss.local.trussness_gain` over ``st``
    among the anchor sets ``sets`` (non-empty) and the index of the first
    set reaching it. Fans out over Spark given a session
    (:func:`repro.fanout.fan_out`), on the driver given ``None``."""
    gains = fan_out(spark, functools.partial(trussness_gain, g, st), sets)
    best = int(np.argmax(gains))  # the first maximum
    return gains[best], best


def run_greedy(
    spark: SparkSession | None,
    g: LocalGraph,
    b: int,
    method: str = "gas",
) -> GreedyResult:
    """Run ``b`` rounds of greedy anchoring with the given method.

    ``method`` in ``{"base", "base+", "gas"}``. BASE's candidates fan
    out to Spark given a session; pass ``spark=None`` to evaluate them
    on the driver. BASE+ and GAS evaluate theirs on the driver, so they
    ignore ``spark``.
    """
    if method not in {"base", "base+", "gas"}:
        raise ValueError(f"unknown method {method!r}")
    b = check_budget(b, g.m)
    t_start = time.perf_counter()
    anchors: set[int] = set()
    st = st0 = decompose(g, frozenset())
    cache: dict[int, FollowerResult] = {}  # complete results, reusable as they are
    partial: dict[int, FollowerResult] = {}  # results missing the levels last dropped
    rounds: list[RoundStats] = []

    for _ in range(b):
        r_start = time.perf_counter()
        free = np.ones(g.m, dtype=bool)
        free[list(anchors)] = False
        levels_recomputed = pruned = 0
        if method == "base":
            cand = np.flatnonzero(free).tolist()
            gain, i = best_anchor_set(spark, g, st, [{e} for e in cand])
            best = cand[i]  # the first maximum: smallest edge id on ties
            evaluated, reused = len(cand), 0
        else:
            if method == "base+":
                cache.clear()
            stale = free.copy()
            stale[list(cache)] = False
            todo = np.flatnonzero(stale & may_have_followers(g, st)).tolist()
            partial = {x: partial[x] for x in todo if x in partial}
            fresh = _eval_followers_local(g, st, partial, todo)
            levels_recomputed = sum(len(fr.levels) for fr in fresh.values()) - sum(
                len(fr.levels) for fr in partial.values()
            )
            cache.update(fresh)
            partial = {}
            gains = np.where(free, 0, -1)  # an anchored edge is never the best
            gains[list(cache)] = [fr.gain for fr in cache.values()]
            evaluated, reused = len(todo), len(cache) - len(todo)
            pruned = int(stale.sum()) - evaluated
            best = int(np.argmax(gains))  # the first maximum: smallest edge id on ties
            gain = int(gains[best])

        anchors.add(best)
        prev = st
        st = decompose(g, frozenset(anchors))
        changed = np.flatnonzero((st.t != prev.t) | (st.layer != prev.layer))

        invalidated = 0
        if method == "gas":
            invalidated, partial = _invalidate(g, cache, prev, st, changed)
        rounds.append(
            RoundStats(
                best=best,
                gain=gain,
                evaluated=evaluated,
                reused=reused,
                pruned=pruned,
                levels_recomputed=levels_recomputed,
                changed=len(changed),
                invalidated=invalidated,
                partial=len(partial),
                seconds=time.perf_counter() - r_start,
            )
        )

    return GreedyResult(
        method=method,
        anchors=[r.best for r in rounds],
        rounds=rounds,
        total_gain=st.gain_over(st0),
        seconds=time.perf_counter() - t_start,
    )
