"""Tier-1 smoke of the benchmark harness (collected by ``python -m pytest``).

Runs all six workloads at toy scale (8 groups, a fraction of a second each)
through the same command the driver uses, untraced and (four of them) traced,
so a later PR that breaks the harness's use of the program's front door fails
tier-1 — not the benchmark pipeline.
"""

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _git_status() -> str | None:
    try:
        done = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def _run(workload: str, trace: int, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--smoke", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert json.loads(out.read_text())["result"] == result
    return result


def test_all_workloads_emit_every_metric(tmp_path):
    before = _git_status()
    workloads = [entry["name"] for entry in SPEC["workloads"]]
    assert len(workloads) == 6
    # Untraced: all six.  Traced: one workload per code path of the ledger
    # (in-process, single server, fleet, ingest) — the two other in-process
    # workloads would repeat cold_sqlite's path and push the test past 10 s.
    traced = ["cold_sqlite", "serve_zipf", "fleet_hot", "ingest_subscribe"]
    jobs = [(name, 1) for name in traced] + [(name, 0) for name in workloads]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda job: _run(job[0], job[1], tmp_path / f"{job[0]}-{job[1]}.json"), jobs))
    for (name, trace), result in zip(jobs, results):
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (name, trace, result)
        assert result["failed"] == 0 and result["attempted"] >= 1, (name, trace)
        assert set(result["metrics"]) == {entry["name"] for entry in declared}, (name, trace)
        for entry in declared:
            metric = result["metrics"][entry["name"]]
            assert NAME.fullmatch(entry["name"]), entry["name"]
            assert metric["unit"] == entry["unit"] and metric["unit"], entry["name"]
            # A per-layer value may be null when its binding in layers.py no
            # longer resolves (a refactor moved the entry point); an
            # end-to-end value never is.
            value = metric["value"]
            assert isinstance(value, (int, float)) or (trace and value is None), (name, entry)
    assert _git_status() == before
