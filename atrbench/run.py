"""ATR benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout of the repository::

    python3 atrbench/run.py --workload gas-facebook [--seed N] [--seconds S] [--trace 0|1]

The run starts the program's Spark session, builds the workload graph
from ``--seed``, runs the workload's job, checks every output against an
independent re-derivation (and against ``pins.json`` on pinned seeds),
and prints one metric per line followed, as the last line of standard
output, by a JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
job with the layer wrappers of ``tracing.py`` installed, reports the
per-layer metrics and writes the spans. Both write a run record under
``atrbench/out/``. See ``atrbench/README.md``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import pyspark  # noqa: E402

import checks as checks_mod  # noqa: E402
import runtime  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build_graph, dataset_seed, run_job  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"

E2E_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "driver_peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed; default: the dataset's own generator seed")
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="repeat the job until this much time has been measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root: pathlib.Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def untraced_solve_s(args, root: pathlib.Path) -> float:
    """``solve_s`` of an untraced run of the same workload and seed.

    Made in a child process just before the traced run, so that both
    start equally cold and the machine's speed has had little time to
    drift between them.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True, timeout=600)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise RuntimeError("the untraced comparison run failed its checks")
    return res["metrics"]["solve_s"]["value"]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    try:
        threads = runtime.prepare(root)
    except runtime.CheckoutError as e:
        print(f"atrbench: {e}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = dataset_seed(wl.dataset)
    t0 = time.perf_counter()
    baseline_solve = untraced_solve_s(args, root) if args.trace else None
    child_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    spark = runtime.start_spark()
    t1 = time.perf_counter()
    runtime.warm_up(spark)
    t2 = time.perf_counter()
    g = build_graph(wl.dataset, args.seed)
    t3 = time.perf_counter()
    setup = {"session_s": t1 - t0, "warmup_s": t2 - t1, "load_s": t3 - t2,
             "setup_s": t3 - T_START - child_s}

    pins = checks_mod.load_pins()
    chk = checks_mod.Checks()
    jobs, rounds, layer, spans, error = [], [], None, None, None
    try:
        if args.trace:
            lt = tracing.LayerTrace(spark)
            with lt.installed(), lt.tracer.span("job", workload=wl.name):
                jobs.append(run_job(spark, g, wl))
        else:
            measure_start = time.perf_counter()
            while not jobs or time.perf_counter() - measure_start < args.seconds:
                jobs.append(run_job(spark, g, wl))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        changed = []
        for job in jobs:
            if wl.job == "greedy":
                changed.append(checks_mod.check_greedy(chk, g, wl, job.greedy, pins, args.seed))
            else:
                checks_mod.check_baselines(chk, g, wl, job.baselines, pins, args.seed)
        job = jobs[0]
        if wl.job == "greedy":
            dispatch = [c["kind"] for c in lt.evals] if args.trace else [None] * len(job.greedy.rounds)
            rounds = [
                {"round": i + 1, "best": r.best, "gain": r.gain, "evaluated": r.evaluated,
                 "reused": r.reused, "seconds": r.seconds, "dispatch": dispatch[i],
                 "changed": changed[0][i]}
                for i, r in enumerate(job.greedy.rounds)
            ]
        if args.trace:
            from repro.truss.local import decompose

            st = decompose(g)
            items = [c["items"] for c in lt.fanouts] or [g.m]
            layer = lt.metrics(
                setup, job,
                closure_bytes=tracing.closure_bytes(g, st),
                noop_call_s=tracing.noop_call_s(spark, g, st, int(statistics.median(items))),
                untraced_solve_s=baseline_solve,
            )
            spans = lt.spans_payload()
    except Exception:  # noqa: BLE001 - a failed job is reported, not raised
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        runtime.stop_spark(spark)

    if error is None:
        attempted, failed = chk.attempted, chk.failed
    else:
        attempted = max(chk.attempted, checks_mod.owed(wl, pins, args.seed))
        failed = attempted
    correct = error is None and failed == 0

    metrics: dict[str, dict] = {}
    if args.trace and layer is not None:
        metrics = {k: {"value": layer[k], "unit": u} for k, u in tracing.LAYER_UNITS.items()}
    elif not args.trace and error is None:
        values = {
            "solve_s": statistics.median(j.solve_s for j in jobs),
            "setup_s": setup["setup_s"],
            "driver_peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    first_anchor_s = statistics.median(j.first_anchor_s for j in jobs) if jobs else None

    record = {
        "workload": wl.name,
        "dataset": wl.dataset,
        "job": wl.job,
        "method": wl.method if wl.job == "greedy" else None,
        "b": wl.b,
        "trials": wl.trials if wl.job == "baselines" else None,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions": len(jobs),
        "vertices": g.n,
        "edges": g.m,
        "nproc": os.cpu_count(),
        "spark_threads": threads,
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "setup": setup,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "first_anchor_s": first_anchor_s,
        "checks": chk.items,
        "rounds": rounds,
        "baselines": (
            {k: (v if k == "route_sum" else {"gain": v[0], "anchor_ids": v[1]})
             for k, v in jobs[0].baselines.items()}
            if jobs and jobs[0].baselines else None
        ),
        "error": error,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans, default=str))

    print(f"workload {wl.name}  seed {args.seed}  |V| {g.n}  |E| {g.m}  "
          f"nproc {os.cpu_count()}  spark {pyspark.__version__}  python {platform.python_version()}")
    for k, v in metrics.items():
        print(f"{k:<30} {v['value']:>14.6g} {v['unit']}")
    if first_anchor_s is not None:
        print(f"{'first_anchor_s':<30} {first_anchor_s:>14.6g} s  (not gated)")
    print(f"{'fail_frac':<30} {record['fail_frac']:>14.6g} ratio  ({failed}/{attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
