"""The benchmark's hold on the program, checked from tier-1.

``bench/`` reaches into the program in two ways a refactor of ``src/`` can
break without failing any other test: ``bench/layers.py``'s ``BINDINGS``
names the entry points a traced run wraps in spans, and a traced run reports
a per-layer value of ``null`` for a binding that no longer resolves or a
span that is never called.  A result line carrying ``null`` (or ``NaN``) is
not a usable measurement, so this module fails first.  It reads ``bench/``
and never writes to it.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in the result line")


def test_every_binding_resolves():
    layers = _bench_layers()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.unavailable == {}
    finally:
        tracer.uninstall()
    assert layers.dispatcher_class() is not None


def _traced_smoke_nulls(workload: str) -> tuple[list[str], str]:
    """The per-layer metrics a traced ``--smoke`` run of ``workload`` leaves null."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, (workload, done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, (workload, result)
    nulls = sorted(name for name, metric in result["metrics"].items() if metric["value"] is None)
    return nulls, done.stdout[-2000:]


def test_traced_cold_selective_smoke_has_no_null_value():
    nulls, output = _traced_smoke_nulls("cold_selective")
    assert nulls == [], output


def test_traced_serving_smokes_have_no_null_value():
    # The serving workloads bind the dispatcher, the server and the router,
    # which the in-process workload above never starts.  Two at a time.
    workloads = ["serve_zipf", "fleet_hot", "ingest_subscribe"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(_traced_smoke_nulls, workloads))
    for workload, (nulls, output) in zip(workloads, outcomes):
        assert nulls == [], (workload, output)
