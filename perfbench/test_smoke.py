"""Toy-size smoke test of the benchmark itself.

Runs every workload untraced and traced on tiny problems and asserts
that every metric named in BENCHMARK.json is emitted with its unit,
that every check passed, that no process outlives a run, and that the
command fails cleanly without the source tree.  Run with
``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402


def session_pids(sid: int) -> list[int]:
    """Processes still running in session ``sid``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # ended meanwhile
            continue
        # the fields after the parenthesised command: state, ppid, pgrp,
        # session, ...
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            pids.append(int(entry.name))
    return pids


def bench(workload: str, trace: int, cwd: Path = ROOT):
    """Run the benchmark in a session of its own; return the finished
    process and the processes of its session that outlived it."""
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--size", "toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as p:
        out, err = p.communicate(timeout=600)
    proc = subprocess.CompletedProcess(p.args, p.returncode, out, err)
    return proc, session_pids(p.pid)


def test_benchmark_json_names_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, left = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert not left, f"processes outlived the run: {left}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0, name
    config = json.loads(proc.stdout.strip().splitlines()[-2])["config"]
    assert {"backend", "simd", "threads", "host"} <= set(config)


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, left = bench("serve-mix", 0, cwd=tmp_path)
    assert not left
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
