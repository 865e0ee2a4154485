#!/usr/bin/env python3
"""The MarkoView engine benchmark: one command, six workloads.

    python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1

runs one workload and prints every metric by name with its unit, the checks'
verdict, and — as the last line of standard output — one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` (default)
gives the end-to-end metrics of BENCHMARK.json from an untraced run;
``--trace 1`` gives the per-layer ledger.  Without ``--workload`` every
workload runs in turn (each in its own process, so peak memory is its own);
``--agree`` runs two sets of runs at one seed and compares.  See README.md.

Run from the root of a checkout: the program is imported from ``src/`` and
scratch files (sqlite spill, artifacts) live under ``.bench_work/`` there
while a run lasts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one of BENCHMARK.json's workloads")
    parser.add_argument("--seed", type=int, default=0, help="every input is drawn from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer ledger")
    parser.add_argument("--out", default=None,
                        help="also write the result (and, traced, the spans) to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="toy scale (8 groups, one set-up): exercises every code path fast")
    parser.add_argument("--agree", action="store_true",
                        help="two sets of runs per workload at one seed, compared against "
                             "the bounds; plus two traced runs for the exact counters")
    return parser


# ------------------------------------------------------------------ one run
def run_one(args: argparse.Namespace) -> int:
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SOURCE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))
    import measure
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    spec = _spec()
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds

    # The benchmark contract allows writes only inside the checkout, so what
    # the run spills (sqlite files, the traced artifact) goes to a directory
    # there, not to the system's; servers inherit it through TMPDIR.
    scratch_root = ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch_root))
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    try:
        inputs = workloads.make_inputs(workload, args.seed, seconds, scale)
        spans = None
        if args.trace:
            import ledger

            outcome, spans = ledger.run_traced(
                workload, inputs, args.seed, seconds, scale, SOURCE_DIR, work
            )
        elif workload.kind == "inprocess":
            outcome = measure.run_inprocess(workload, inputs, args.seed, seconds, scale)
        elif workload.kind == "serve":
            outcome = measure.run_serve(workload, inputs, args.seed, seconds, scale, SOURCE_DIR)
        else:
            outcome = measure.run_ingest(workload, inputs, args.seed, seconds, scale, SOURCE_DIR)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    # Zero by design, so it cannot be an end-to-end metric of the contract
    # ("never 0"); untraced it is the failed / attempted of the result line.
    failed_share = outcome.failed / max(outcome.attempted, 1)
    if args.trace:
        outcome.put("failed_share", failed_share)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [entry["name"] for entry in declared if entry["name"] not in outcome.metrics]
    print(f"== {workload.name}  seed={args.seed}  seconds={seconds:g}  "
          f"{'traced' if args.trace else 'untraced'}{'  (smoke scale)' if args.smoke else ''}")
    for entry in declared:
        value = outcome.metrics.get(entry["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{entry['name']:<42} {shown:>14} {entry['unit']}")
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# failed_share {failed_share:.6f} ({outcome.failed} of {outcome.attempted})")
    for name in missing:
        print(f"# MISSING metric {name}")
    result = {
        "correct": outcome.failed == 0 and not missing,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            entry["name"]: {"value": outcome.metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared if entry["name"] in outcome.metrics
        },
    }
    if args.out is not None:
        document = {"workload": workload.name, "seed": args.seed, "seconds": seconds,
                    "trace": args.trace, "result": result, "notes": outcome.notes}
        if spans is not None:
            document["spans"] = spans
        Path(args.out).write_text(json.dumps(document))
    print(json.dumps(result))
    return 0  # a printed result speaks for itself through "correct"


# ------------------------------------------------------- several runs, agree
def _child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = completed.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} (trace {trace}) exited with {completed.returncode}")
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    results = {w["name"]: _child(args, w["name"], args.trace) for w in _spec()["workloads"]}
    if args.out is not None:
        Path(args.out).write_text(json.dumps(results))
    for name, result in results.items():
        print(json.dumps({"workload": name, **result}))
    return 0 if all(result["correct"] for result in results.values()) else 1


#: Untraced runs per set of ``--agree``.
RUNS_PER_SET = 3

#: Per-layer counters that must repeat bit-for-bit at one seed (the starred
#: metrics of README.md); the other counts depend on thread interleaving.
EXACT = (
    "mvindex.components", "mvindex.nodes", "obdd.build_apply_steps", "serving.artifact.bytes",
    "mvindex.summaries.skipped_share", "query.evaluator.clauses", "query.evaluator.answers",
    "obdd.query_nodes", "mvindex.pair_expansions", "mvindex.touched_components",
    "results.json_bytes", "subscribe.evaluations", "subscribe.skips", "subscribe.skipped_share",
    "subscribe.notifications",
)


def run_agree(args: argparse.Namespace) -> int:
    """Two interleaved sets of ``RUNS_PER_SET`` untraced runs per workload, one seed.

    An end-to-end metric disagrees when the medians of the two sets differ by
    more than its bound.  (Two *single* runs cannot be held to the bounds on a
    box whose speed wanders by +-25 %; see README.md.)  The spread of all six
    values — (Q3 - Q1) / median — is printed next to the bound for the reader
    but decides nothing: with six values the quartiles lie between the two
    smallest and between the two largest, so one run in a slow minute of the
    machine sets it.
    Two traced runs follow; an :data:`EXACT` counter disagrees when it differs
    at all.  ``--out`` records the set medians, the spreads and the exact
    counters: the claim-free baseline of this commit.
    """
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    sets: tuple[list[dict[str, dict]], list[dict[str, dict]]] = ([], [])
    for _ in range(RUNS_PER_SET):
        sets[0].append({name: _child(args, name, 0) for name in names})
        sets[1].append({name: _child(args, name, 0) for name in names[::-1]})
    traced = [{name: _child(args, name, 1) for name in order} for order in (names, names[::-1])]

    disagreements = 0
    end_to_end: dict[str, dict[str, dict[str, float]]] = {}
    exact: dict[str, dict[str, float]] = {}
    print(f"== agreement of two sets of {RUNS_PER_SET} runs at seed {args.seed}")
    for name in names:
        disagreements += not all(run[name]["correct"] for run in sets[0] + sets[1] + traced)
        for metric, bound in bounds.items():
            first, second = ([run[name]["metrics"][metric]["value"] for run in one]
                             for one in sets)
            a, b = statistics.median(first), statistics.median(second)
            drift = abs(a - b) / a
            quartiles = statistics.quantiles(first + second, n=4)
            spread = (quartiles[2] - quartiles[0]) / statistics.median(first + second)
            agrees = drift <= bound
            disagreements += not agrees
            end_to_end.setdefault(name, {})[metric] = {
                "median_a": a, "median_b": b, "spread": spread}
            print(f"{name:<18} {metric:<14} {a:>12.6g} {b:>12.6g}  drift {drift:.4f} "
                  f"spread {spread:.4f} bound {bound:.2f}  {'ok' if agrees else 'DISAGREES'}")
        first_counts, second_counts = traced[0][name]["metrics"], traced[1][name]["metrics"]
        for metric in EXACT:
            a, b = first_counts[metric]["value"], second_counts[metric]["value"]
            exact.setdefault(name, {})[metric] = a
            if a != b:
                disagreements += 1
                print(f"{name:<18} {metric:<34} {a} != {b}  EXACT COUNT DIFFERS")
    print(f"== {disagreements} disagreement(s)")
    if args.out is not None:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds or spec["run_seconds"],
             "runs_per_set": RUNS_PER_SET, "disagreements": disagreements,
             "end_to_end": end_to_end, "exact": exact},
            indent=1) + "\n")
    return 0 if disagreements == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.agree:
        return run_agree(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
