"""Per-layer tracing from outside the program.

A traced run replaces module-level functions of the program with thin
wrappers for the duration of one job, records a span per call (name,
start, end, parent span) and keeps what each call returned. The spans
stay in memory and are written when the run ends; the per-layer
metrics are derived from them afterwards.

Wrapped names are the ones the program's callers resolve:

* ``repro.core.greedy.decompose`` — the initial decomposition and the
  per-round state update of ``run_greedy``;
* ``repro.core.greedy._eval_followers_spark`` / ``_eval_followers_local``
  — one call per greedy round, on Spark or on the driver;
* ``repro.truss.local.decompose``, ``repro.core.routes.route_sizes_spark``
  and ``repro.baselines.random_sets.random_baseline`` — the calls the
  baselines job makes.

Only driver-side names are wrapped. The Spark kernels reach the program
through names they resolve in the executors, which stay untouched; a
wrapper must never be captured into a task closure.
"""
from __future__ import annotations

import contextlib
import statistics
import time

#: Per-layer metric names with their units, in report order.
LAYER_UNITS: dict[str, str] = {
    "datasets.load_s": "s",
    "spark.session_s": "s",
    "spark.warmup_s": "s",
    "greedy.init_decompose_s": "s",
    "greedy.round1_eval_s": "s",
    "greedy.evals_round1": "count",
    "greedy.stale_eval_s": "s",
    "greedy.evals_stale": "count",
    "greedy.reused": "count",
    "greedy.reuse_ratio": "ratio",
    "greedy.stale_unchanged_frac": "ratio",
    "greedy.state_update_s": "s",
    "greedy.changed_edges": "count",
    "greedy.stale_per_changed": "ratio",
    "greedy.other_s": "s",
    "followers.reads_mean_round1": "count",
    "followers.reads_mean_stale": "count",
    "followers.cands_mean": "count",
    "followers.driver_us_per_eval": "us",
    "spark.calls": "count",
    "spark.jobs": "count",
    "spark.call_s": "s",
    "spark.items_per_call": "count",
    "spark.closure_bytes": "B",
    "spark.noop_call_s": "s",
    "spark.overhead_frac": "ratio",
    "driver.calls": "count",
    "driver.call_s": "s",
    "local.decompose_calls": "count",
    "local.decompose_ms": "ms",
    "routes.s": "s",
    "routes.sum": "count",
    "random_sets.calls": "count",
    "random_sets.trials": "count",
    "random_sets.s": "s",
    "random_sets.ms_per_trial": "ms",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def patch(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` with ``make(original)`` until :meth:`restore`."""
        orig = getattr(module, attr)
        setattr(module, attr, make(orig))
        self._patches.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()


class LayerTrace:
    """Wrappers around the program's layer functions, and what they saw."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self.tracer = Tracer()
        self.decomposes: list[dict] = []  # greedy.decompose calls
        self.evals: list[dict] = []  # greedy eval calls, one per round
        self.fanouts: list[dict] = []  # every Spark fan-out call
        self.local_decomposes: list[float] = []  # driver-side seconds
        self.routes: list[dict] = []
        self.random_sets: list[dict] = []
        self._groups = 0

    # -- wrappers ---------------------------------------------------------
    def _spark_jobs(self, fn, *args, **kwargs):
        """Call ``fn`` under a fresh job group; return (result, jobs)."""
        self._groups += 1
        group = f"atrbench-{self._groups}"
        self.sc.setJobGroup(group, group)
        out = fn(*args, **kwargs)
        return out, len(self.sc.statusTracker().getJobIdsForGroup(group))

    def _decompose(self, orig, name: str, states: list | None):
        def decompose(g, anchors=frozenset()):
            with self.tracer.span(name) as sp:
                st = orig(g, anchors)
            secs = sp["end"] - sp["start"]
            self.local_decomposes.append(secs)
            if states is not None:
                states.append({"seconds": secs, "state": st})
            return st

        return decompose

    def _greedy_eval(self, orig, kind: str):
        def evaluate(*args):
            cand = args[-1]
            rnd = len(self.decomposes)  # the init decompose precedes round 1
            with self.tracer.span(f"greedy.eval.{kind}", round=rnd, items=len(cand)) as sp:
                if kind == "spark":
                    out, jobs = self._spark_jobs(orig, *args)
                else:
                    out, jobs = orig(*args), 0
            call = {
                "round": rnd,
                "kind": kind,
                "items": len(cand),
                "seconds": sp["end"] - sp["start"],
                "jobs": jobs,
                "results": out,
            }
            self.evals.append(call)
            if kind == "spark":
                self.fanouts.append(call)
            return out

        return evaluate

    def _routes(self, orig):
        def route_sizes_spark(spark, g, st, *args, **kwargs):
            with self.tracer.span("routes.route_sizes_spark", items=g.m) as sp:
                sizes, jobs = self._spark_jobs(orig, spark, g, st, *args, **kwargs)
            call = {"kind": "spark", "items": g.m, "seconds": sp["end"] - sp["start"], "jobs": jobs}
            self.routes.append({**call, "sum": int(sizes.sum())})
            self.fanouts.append(call)
            return sizes

        return route_sizes_spark

    def _random_baseline(self, orig):
        def random_baseline(spark, g, st, b, pool, trials, *args, **kwargs):
            with self.tracer.span("random_sets.random_baseline", items=trials) as sp:
                out, jobs = self._spark_jobs(orig, spark, g, st, b, pool, trials, *args, **kwargs)
            call = {"kind": "spark" if jobs else "driver", "items": trials,
                    "seconds": sp["end"] - sp["start"], "jobs": jobs}
            self.random_sets.append(call)
            if jobs:
                self.fanouts.append(call)
            return out

        return random_baseline

    @contextlib.contextmanager
    def installed(self):
        """The wrappers are in place inside the ``with`` block."""
        from repro.baselines import random_sets
        from repro.core import greedy, routes
        from repro.truss import local

        t = self.tracer
        t.patch(greedy, "decompose", lambda f: self._decompose(f, "greedy.decompose", self.decomposes))
        t.patch(greedy, "_eval_followers_spark", lambda f: self._greedy_eval(f, "spark"))
        t.patch(greedy, "_eval_followers_local", lambda f: self._greedy_eval(f, "driver"))
        t.patch(local, "decompose", lambda f: self._decompose(f, "local.decompose", None))
        t.patch(routes, "route_sizes_spark", self._routes)
        t.patch(random_sets, "random_baseline", self._random_baseline)
        try:
            yield self
        finally:
            t.restore()
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    # -- derived records --------------------------------------------------
    def changed_per_round(self) -> list[int]:
        """Edges whose ``(t, l)`` moved in each state update."""
        out = []
        for prev, nxt in zip(self.decomposes, self.decomposes[1:]):
            a, b = prev["state"], nxt["state"]
            out.append(int(((a.t != b.t) | (a.layer != b.layer)).sum()))
        return out

    def metrics(self, setup: dict, job, closure_bytes: int, noop_call_s: float,
                untraced_solve_s: float) -> dict[str, float]:
        """Every per-layer metric of :data:`LAYER_UNITS`."""
        m: dict[str, float] = dict.fromkeys(LAYER_UNITS, 0.0)
        m["datasets.load_s"] = setup["load_s"]
        m["spark.session_s"] = setup["session_s"]
        m["spark.warmup_s"] = setup["warmup_s"]

        round1 = [c for c in self.evals if c["round"] == 1]
        stale = [c for c in self.evals if c["round"] > 1]
        res = job.greedy
        if res is not None and self.decomposes:
            m["greedy.init_decompose_s"] = self.decomposes[0]["seconds"]
            m["greedy.round1_eval_s"] = sum(c["seconds"] for c in round1)
            m["greedy.evals_round1"] = res.rounds[0].evaluated if res.rounds else 0
            m["greedy.stale_eval_s"] = sum(c["seconds"] for c in stale)
            later = res.rounds[1:]
            m["greedy.evals_stale"] = sum(r.evaluated for r in later)
            m["greedy.reused"] = sum(r.reused for r in later)
            cand_rounds = sum(r.evaluated + r.reused for r in later)
            m["greedy.reuse_ratio"] = m["greedy.reused"] / cand_rounds if cand_rounds else 0.0
            m["greedy.stale_unchanged_frac"] = self._stale_unchanged_frac()
            updates = [d["seconds"] for d in self.decomposes[1:]]
            m["greedy.state_update_s"] = sum(updates)
            m["greedy.changed_edges"] = sum(self.changed_per_round())
            if m["greedy.changed_edges"]:
                m["greedy.stale_per_changed"] = m["greedy.evals_stale"] / m["greedy.changed_edges"]
            m["greedy.other_s"] = (
                sum(r.seconds for r in res.rounds)
                - sum(c["seconds"] for c in self.evals)
                - sum(updates)
            )
            m["followers.reads_mean_round1"] = _mean_size(round1, "reads")
            m["followers.reads_mean_stale"] = _mean_size(stale, "reads")
            m["followers.cands_mean"] = _mean_size(self.evals, "candidates")

        driver = [c for c in self.evals if c["kind"] == "driver"]
        m["driver.calls"] = len(driver)
        m["driver.call_s"] = sum(c["seconds"] for c in driver)
        driver_evals = sum(c["items"] for c in driver)
        if driver_evals:
            m["followers.driver_us_per_eval"] = m["driver.call_s"] / driver_evals * 1e6

        m["spark.calls"] = len(self.fanouts)
        m["spark.jobs"] = sum(c["jobs"] for c in self.fanouts)
        m["spark.call_s"] = sum(c["seconds"] for c in self.fanouts)
        if self.fanouts:
            m["spark.items_per_call"] = statistics.fmean(c["items"] for c in self.fanouts)
        m["spark.closure_bytes"] = closure_bytes
        m["spark.noop_call_s"] = noop_call_s
        if m["spark.call_s"]:
            m["spark.overhead_frac"] = m["spark.calls"] * noop_call_s / m["spark.call_s"]

        m["local.decompose_calls"] = len(self.local_decomposes)
        if self.local_decomposes:
            m["local.decompose_ms"] = statistics.fmean(self.local_decomposes) * 1e3

        m["routes.s"] = sum(c["seconds"] for c in self.routes)
        m["routes.sum"] = sum(c["sum"] for c in self.routes)
        m["random_sets.calls"] = len(self.random_sets)
        m["random_sets.trials"] = sum(c["items"] for c in self.random_sets)
        m["random_sets.s"] = sum(c["seconds"] for c in self.random_sets)
        if m["random_sets.trials"]:
            m["random_sets.ms_per_trial"] = m["random_sets.s"] / m["random_sets.trials"] * 1e3

        m["trace.overhead_frac"] = job.solve_s / untraced_solve_s - 1.0
        return m

    def _stale_unchanged_frac(self) -> float:
        """Share of re-evaluations (rounds >= 2) whose follower set equals
        the candidate's previous result."""
        last: dict[int, frozenset] = {}
        same = total = 0
        for call in self.evals:
            for e, fr in call["results"].items():
                if call["round"] > 1 and e in last:
                    total += 1
                    same += fr.followers == last[e]
                last[e] = fr.followers
        return same / total if total else 0.0

    def spans_payload(self) -> list[dict]:
        """Spans relative to the first span's start, for writing out."""
        t0 = self.tracer.spans[0]["start"] if self.tracer.spans else 0.0
        return [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0}
            for s in self.tracer.spans
        ]


def _mean_size(calls: list[dict], field: str) -> float:
    sizes = [len(getattr(fr, field)) for c in calls for fr in c["results"].values()]
    return statistics.fmean(sizes) if sizes else 0.0


def closure_bytes(g, st) -> int:
    """Size of the graph and state as a task closure ships them."""
    from pyspark import cloudpickle

    return len(cloudpickle.dumps((g, st)))


def noop_call_s(spark, g, st, items: int, reps: int = 3) -> float:
    """Median time of a Spark call that ships ``(g, st)`` and does nothing.

    Partitioned as ``repro.core.greedy._eval_followers_spark`` partitions
    ``items`` candidates, so ``calls x noop`` estimates the fixed cost
    inside the measured fan-out time.
    """
    import pandas as pd

    parts = max(1, min(spark.sparkContext.defaultParallelism * 2, items // 32 + 1))

    def kernel(batches):
        for pdf in batches:
            _ = (g, st)  # capture what the program's kernels capture
            yield pdf

    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        ids = spark.createDataFrame(pd.DataFrame({"eid": range(items)})).repartition(parts)
        ids.mapInPandas(kernel, schema="eid long").toPandas()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
