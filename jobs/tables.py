"""spark-submit entrypoint reproducing paper Tables III, IV and V.

Usage::

    spark-submit jobs/tables.py [--b 20] [--akt-b 10] [--trials 200]
                                [--names a,b,...] [--out-dir results]

One pass per dataset (:mod:`repro.exp.tables`). Prints one row per
dataset and writes ``table3.csv``, ``table4.csv`` and ``table5.csv``
under ``--out-dir``.
"""
from __future__ import annotations

import argparse
import pathlib

from _session import get_spark

from repro.exp.tables import run_tables


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--b", type=int, default=20)
    ap.add_argument("--akt-b", type=int, default=10)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--names", type=str, default="")
    ap.add_argument("--out-dir", type=str, default="results")
    args = ap.parse_args(argv)
    names = args.names.split(",") if args.names else None
    dfs = run_tables(
        get_spark("tables"), names=names, b=args.b, akt_b=args.akt_b, trials=args.trials
    )
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n, df in zip((3, 4, 5), dfs):
        df.to_csv(out / f"table{n}.csv", index=False)
    print(f"wrote table3.csv, table4.csv and table5.csv under {out}")


if __name__ == "__main__":
    main()
    get_spark("tables").stop()  # the session main ran on
