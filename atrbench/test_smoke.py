"""Smoke test of the benchmark on a micro configuration.

Runs ``run.py`` on ``smoke-college-mini`` (GAS, ``b = 3`` on
``college_mini``), untraced and then traced, through the same code path
as the benchmark workloads. Not collected by a bare ``pytest`` (the
repository's ``testpaths`` do not include this directory); run it with
``pytest atrbench/test_smoke.py`` from the repository root.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "smoke-college-mini",
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-4000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_and_checks_pass(trace, section):
    res = _run(trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    (tmp_path / "atrbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "atrbench" / p.name).write_text(p.read_text())
    (tmp_path / "atrbench" / "pins.json").write_text((HERE / "pins.json").read_text())
    cmd = [sys.executable, "atrbench/run.py", "--workload", "gas-facebook",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
