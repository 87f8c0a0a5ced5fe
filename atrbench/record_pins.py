"""Record the pinned reference outputs in ``pins.json``.

Run from the root of a checkout (takes several minutes)::

    python3 atrbench/record_pins.py

For each greedy dataset and each pinned seed (the dataset's own seed
and the held-out seed) it runs GAS and BASE+ at the Table III budget
``b = 20``, requires both to return the same anchors and gain, and pins
the anchor and per-round gain sequences; workloads with a smaller
budget check a prefix. For the baselines dataset it pins Rand / Sup /
Tur gains per seed, each re-checked with ``trussness_gain``, and the
route-size sum.
"""
from __future__ import annotations

import json
import pathlib
import sys

import runtime
from checks import PINS
from workloads import BENCHMARK_WORKLOADS, WORKLOADS, Workload, build_graph, dataset_seed, run_job

#: Seed never used while writing a change, for re-checking a gain claim.
HELD_OUT_SEED = 7
B_TABLE3 = 20


def main() -> int:
    try:
        runtime.prepare(pathlib.Path.cwd())
    except runtime.CheckoutError as e:
        print(f"record_pins: {e}", file=sys.stderr)
        return 2
    from repro.truss.local import decompose, trussness_gain

    spark = runtime.start_spark()
    pins: dict = {"held_out_seed": HELD_OUT_SEED, "b": B_TABLE3, "greedy": {}, "baselines": {}}
    try:
        greedy_sets = sorted({WORKLOADS[n].dataset for n in BENCHMARK_WORKLOADS
                              if WORKLOADS[n].job == "greedy"})
        for ds in greedy_sets:
            for seed in (dataset_seed(ds), HELD_OUT_SEED):
                g = build_graph(ds, seed)
                runs = {m: run_job(spark, g, Workload("pin", ds, "greedy", m, b=B_TABLE3)).greedy
                        for m in ("gas", "base+")}
                gas, bp = runs["gas"], runs["base+"]
                if gas.anchors != bp.anchors or gas.total_gain != bp.total_gain:
                    raise SystemExit(f"{ds} seed {seed}: GAS and BASE+ disagree")
                pins["greedy"].setdefault(ds, {})[str(seed)] = {
                    "anchors": gas.anchors,
                    "gains": [r.gain for r in gas.rounds],
                    "total_gain": gas.total_gain,
                }
                print(ds, seed, "gain", gas.total_gain, "gains", [r.gain for r in gas.rounds], flush=True)
        for wl in (WORKLOADS[n] for n in BENCHMARK_WORKLOADS):
            if wl.job != "baselines":
                continue
            entry = pins["baselines"].setdefault(wl.dataset, {})
            for seed in (dataset_seed(wl.dataset), HELD_OUT_SEED):
                g = build_graph(wl.dataset, seed)
                out = run_job(spark, g, wl).baselines
                st = decompose(g)
                for key in ("rand", "sup", "tur"):
                    gain, ids = out[key]
                    if trussness_gain(g, st, frozenset(ids)) != gain:
                        raise SystemExit(f"{wl.dataset} seed {seed}: {key} gain does not re-check")
                if entry.setdefault("route_sum", out["route_sum"]) != out["route_sum"]:
                    raise SystemExit(f"{wl.dataset}: route-size sum depends on the seed")
                entry[str(seed)] = {k: out[k][0] for k in ("rand", "sup", "tur")}
                print(wl.dataset, seed, entry[str(seed)], "route_sum", out["route_sum"], flush=True)
    finally:
        runtime.stop_spark(spark)
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
