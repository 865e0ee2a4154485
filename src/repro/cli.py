"""Command-line interface: experiments plus the index-serving workflow.

Two families of commands share the ``repro`` entry point:

* **experiment runners** regenerate the paper's figures::

      python -m repro list
      python -m repro fig4 --groups 14 --points 4
      python -m repro fig10 --groups 24 --out results/
      python -m repro all --groups 12 --points 3 --out results/

* **serving commands** exercise the offline/online split across processes:
  compile the DBLP workload's MV-index once and save it (``save-index``),
  extend a saved artifact with additional views without recompiling the
  untouched components (``extend-index``), cold-start a
  :class:`repro.ProbDB` from the artifact and answer a query
  (``load-index``), or serve a whole batch with the cache-aware session
  (``serve-batch``)::

      python -m repro save-index --groups 8 --out dblp-index.json.gz
      python -m repro extend-index dblp-index.json.gz --groups 8 \\
          --views V1,V2,V3 --out dblp-extended.json.gz
      python -m repro load-index dblp-index.json.gz --json \\
          --query "Q(aid) :- Student(aid, y), Advisor(aid, a), Author(a, n), n like '%Advisor 0%'"
      python -m repro serve-batch dblp-index.json.gz --count 10 --repeat 2

* **over-the-wire serving** (see ``docs/serving.md``): ``serve`` fronts an
  artifact (or an in-process build) with the JSON-HTTP server of
  :mod:`repro.serving.server`; ``subscribe`` and ``notify-listen`` register
  standing queries on a running server and read their notifications::

      python -m repro serve dblp-index.json.gz --port 8080
      python -m repro subscribe "Q(a) :- Advisor(x, a)" --threshold ">=0.5"
      python -m repro notify-listen --since 0

Everything is built on the unified client facade (:func:`repro.connect` /
:func:`repro.open`); ``--json`` prints typed results through
:meth:`repro.QueryResult.to_json`.

Exit codes are consistent across both families: **0** on success, **1**
on user errors (bad arguments, unknown experiments or methods, missing or
corrupt artifacts, unparsable queries), **2** on internal errors (a bug).
``repro --version`` prints the library version.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Callable

from repro.experiments import (
    FullDatasetSettings,
    SweepSettings,
    fig1_dataset_inventory,
    fig10_students_of_advisor,
    fig11_affiliation_of_author,
    fig4_lineage_size,
    fig5_advisor_of_student,
    fig6_students_of_advisor,
    fig7_fig8_obdd_construction,
    fig9_intersection,
    report,
    scalability_index_build,
    serving_cold_warm,
)

#: Sub-commands handled by the serving parser rather than the experiment one.
SERVING_COMMANDS = (
    "save-index",
    "extend-index",
    "load-index",
    "serve-batch",
    "serve",
    "subscribe",
    "notify-listen",
)

#: Exit codes: success / user error / internal error.
EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


def _version() -> str:
    import repro

    return f"repro {repro.__version__}"


class _CliExit(Exception):
    """Carries an exit code out of argparse's ``SystemExit``."""

    def __init__(self, code: int) -> None:
        self.code = code


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parse_args`` with the exit-code contract: argparse errors are user errors."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help/--version, 2 on errors
        raise _CliExit(EXIT_OK if exc.code in (0, None) else EXIT_USER) from None


def _sweep(args: argparse.Namespace) -> SweepSettings:
    return SweepSettings(group_count=args.groups, points=args.points, seed=args.seed)


def _full(args: argparse.Namespace) -> FullDatasetSettings:
    return FullDatasetSettings(
        group_count=args.groups, seed=args.seed, backend=getattr(args, "backend", None)
    )


def _scale_targets(args: argparse.Namespace) -> "tuple[int, ...] | None":
    raw = getattr(args, "scale_tuples", None)
    if not raw:
        return None
    return tuple(int(float(part)) for part in raw.split(",") if part.strip())


def _runners() -> dict[str, Callable[[argparse.Namespace], list]]:
    return {
        "fig1": lambda args: [fig1_dataset_inventory(_full(args))],
        "fig4": lambda args: [fig4_lineage_size(_sweep(args))],
        "fig5": lambda args: [fig5_advisor_of_student(_sweep(args))],
        "fig6": lambda args: [fig6_students_of_advisor(_sweep(args))],
        "fig7": lambda args: [fig7_fig8_obdd_construction(_sweep(args))[0]],
        "fig8": lambda args: [fig7_fig8_obdd_construction(_sweep(args))[1]],
        "fig9": lambda args: [fig9_intersection(_sweep(args))],
        "fig10": lambda args: [fig10_students_of_advisor(_full(args))],
        "fig11": lambda args: [fig11_affiliation_of_author(_full(args))],
        "scalability": lambda args: [
            scalability_index_build(_full(args), tuple_targets=_scale_targets(args))
        ],
        "serving": lambda args: [serving_cold_warm(_full(args))],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'Probabilistic Databases with MarkoViews'.",
    )
    parser.add_argument("-V", "--version", action="version", version=_version())
    parser.add_argument(
        "experiment",
        help="experiment id (fig1..fig11, scalability, serving, all, list)",
    )
    parser.add_argument("--groups", type=int, default=14, help="synthetic DBLP research groups")
    parser.add_argument("--points", type=int, default=4, help="sweep points for fig4-fig9")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--out", default=None, help="directory for CSV output (optional)")
    parser.add_argument(
        "--backend",
        default=None,
        help="storage backend: memory (default), sqlite, or sqlite:<path>",
    )
    parser.add_argument(
        "--scale-tuples",
        default=None,
        help="comma-separated tuple targets for the scalability sweep, e.g. 1e4,1e5,1e6",
    )
    return parser


# ------------------------------------------------------------------- serving
def build_serving_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Persist and serve the compiled MV-index across processes.",
    )
    parser.add_argument("-V", "--version", action="version", version=_version())
    commands = parser.add_subparsers(dest="command", required=True)

    save = commands.add_parser(
        "save-index",
        help="build the DBLP workload, compile its MV-index, and save the artifact",
    )
    save.add_argument("--groups", type=int, default=8, help="synthetic DBLP research groups")
    save.add_argument("--seed", type=int, default=0, help="generator seed")
    save.add_argument("--views", default="V1,V2,V3", help="comma-separated MarkoViews to attach")
    save.add_argument(
        "--backend",
        default=None,
        help="storage backend for the build: memory (default), sqlite, or sqlite:<path>",
    )
    save.add_argument(
        "--out", required=True, help="artifact path (.json, or .json.gz for compression)"
    )

    extend = commands.add_parser(
        "extend-index",
        help="extend a saved artifact with additional MarkoViews (incremental compile)",
    )
    extend.add_argument("artifact", help="artifact written by save-index")
    extend.add_argument("--groups", type=int, default=8, help="groups used for the original build")
    extend.add_argument("--seed", type=int, default=0, help="seed used for the original build")
    extend.add_argument(
        "--views",
        default="V1,V2,V3",
        help="comma-separated FULL view set after extension (a superset of the saved one)",
    )
    extend.add_argument(
        "--out", required=True, help="path for the extended artifact"
    )

    load = commands.add_parser(
        "load-index",
        help="cold-start a ProbDB from a saved artifact and optionally answer a query",
    )
    load.add_argument("artifact", help="artifact written by save-index")
    load.add_argument("--query", default=None, help="datalog query to answer (optional)")
    load.add_argument("--method", default="mvindex", help="evaluation method")
    load.add_argument(
        "--json", action="store_true", help="print the typed result as a JSON document"
    )

    batch = commands.add_parser(
        "serve-batch",
        help="serve a query batch from a saved artifact via the caching session",
    )
    batch.add_argument("artifact", help="artifact written by save-index")
    batch.add_argument(
        "--queries", default=None, help="file with one datalog query per line (# comments)"
    )
    batch.add_argument(
        "--count", type=int, default=10, help="number of built-in workload queries otherwise"
    )
    batch.add_argument("--method", default="mvindex", help="evaluation method")
    batch.add_argument("--repeat", type=int, default=2, help="rounds (first cold, rest warm)")
    batch.add_argument(
        "--json", action="store_true", help="print per-round typed results as JSON documents"
    )

    serve = commands.add_parser(
        "serve",
        help="serve a ProbDB over JSON-HTTP (query/query_batch/extend/stats/healthz/metrics)",
    )
    serve.add_argument(
        "artifact",
        nargs="?",
        default=None,
        help="artifact written by save-index (omit to build a DBLP workload in-process)",
    )
    serve.add_argument("--groups", type=int, default=8, help="DBLP groups when building in-process")
    serve.add_argument("--seed", type=int, default=0, help="generator seed")
    serve.add_argument(
        "--views", default="V1,V2,V3", help="comma-separated MarkoViews for the in-process build"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 picks a free one)")
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="worker processes behind a consistent-hash router (>1 forks a fleet)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, help="admission limit (admitted, unfinished requests)"
    )
    serve.add_argument(
        "--cache-size", type=int, default=None, help="session LRU capacity (default 1024)"
    )
    serve.add_argument("--verbose", action="store_true", help="log one line per request")

    subscribe = commands.add_parser(
        "subscribe",
        help="register a standing query on a running 'repro serve' server",
    )
    subscribe.add_argument("query", help="datalog standing query")
    subscribe.add_argument(
        "--url", default="http://127.0.0.1:8080", help="base URL of the running server"
    )
    subscribe.add_argument("--method", default="mvindex", help="evaluation method")
    subscribe.add_argument(
        "--threshold",
        default=None,
        help="fire when the set of answers satisfying OP VALUE changes, e.g. '>=0.5' "
        "(default: fire on any answer-probability change)",
    )
    subscribe.add_argument(
        "--webhook",
        default=None,
        help="also push notifications to this URL (single-server best-effort)",
    )

    listen = commands.add_parser(
        "notify-listen",
        help="long-poll the notification stream of a running 'repro serve' server",
    )
    listen.add_argument(
        "--url", default="http://127.0.0.1:8080", help="base URL of the running server"
    )
    listen.add_argument(
        "--since", type=int, default=0, help="resume cursor (seq of the last seen notification)"
    )
    listen.add_argument(
        "--wait", type=float, default=25.0, help="seconds each long-poll blocks for news"
    )
    listen.add_argument(
        "--max", type=int, default=None, help="exit after this many notifications (default: run on)"
    )
    return parser


def _cmd_save_index(args: argparse.Namespace) -> int:
    import repro
    from repro.dblp.config import DblpConfig
    from repro.dblp.workload import build_mvdb
    from repro.experiments.harness import time_call

    views = tuple(name.strip() for name in args.views.split(",") if name.strip())
    # The backend holds the MVDB; the translated INDB goes on a fresh sibling
    # of it (repro.core.translate), so a sqlite:<path> file is opened once.
    workload = build_mvdb(
        DblpConfig(group_count=args.groups, seed=args.seed),
        include_views=views,
        backend=args.backend,
    )
    build_seconds, db = time_call(lambda: repro.connect(workload.mvdb))
    path = db.save(args.out)
    index = db.engine.mv_index
    print(f"offline build: {build_seconds:.3f}s")
    print(f"possible tuples: {db.engine.indb.tuple_count()}")
    print(f"W lineage: {db.engine.w_lineage_size} clauses")
    if index is not None:
        print(f"MV-index: {index.component_count()} components, {index.size} nodes")
    print(f"artifact: {path} ({path.stat().st_size} bytes)")
    return EXIT_OK


def _cmd_extend_index(args: argparse.Namespace) -> int:
    import repro
    from repro.dblp.config import DblpConfig
    from repro.dblp.workload import build_mvdb
    from repro.experiments.harness import time_call

    views = tuple(name.strip() for name in args.views.split(",") if name.strip())
    db = repro.open(args.artifact)
    before = db.engine.w_lineage_size
    workload = build_mvdb(DblpConfig(group_count=args.groups, seed=args.seed), include_views=views)
    extend_seconds, added = time_call(lambda: db.extend(workload.mvdb))
    path = db.save(args.out)
    index = db.engine.mv_index
    print(f"incremental extension: {extend_seconds:.3f}s")
    print(f"W lineage: {before} -> {db.engine.w_lineage_size} clauses")
    if index is not None:
        print(
            f"MV-index: +{len(added)} components "
            f"({index.component_count()} total, {index.size} nodes)"
        )
    print(f"artifact: {path} ({path.stat().st_size} bytes)")
    return EXIT_OK


def _cmd_load_index(args: argparse.Namespace) -> int:
    import repro
    from repro.experiments.harness import time_call

    load_seconds, db = time_call(lambda: repro.open(args.artifact))
    index = db.engine.mv_index
    if not args.json:
        print(f"cold start from artifact: {load_seconds:.3f}s")
        print(f"possible tuples: {db.engine.indb.tuple_count()}")
        print(f"W lineage: {db.engine.w_lineage_size} clauses")
        if index is not None:
            print(f"MV-index: {index.component_count()} components, {index.size} nodes")
    if args.query:
        result = db.query(args.query, method=args.method)
        if args.json:
            print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        else:
            print(f"query answered in {result.wall_time * 1000:.2f}ms via {result.method!r}:")
            for answer in result:
                print(f"  {answer.values} -> {answer.probability:.6f}")
            if not len(result):
                print("  (no answers with a derivation)")
    elif args.json:
        print(json.dumps({"load_seconds": load_seconds, **db.stats()}, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.dblp.workload import students_of_advisor
    from repro.experiments.harness import time_call
    from repro.query.parser import parse_query

    db = repro.open(args.artifact)
    if args.queries:
        lines = Path(args.queries).read_text().splitlines()
        queries = [
            parse_query(line) for line in lines if line.strip() and not line.lstrip().startswith("#")
        ]
    else:
        queries = [students_of_advisor(f"Advisor {index}") for index in range(args.count)]
    if not queries:
        print("no queries to serve", file=sys.stderr)
        return EXIT_USER
    rounds = []
    for round_index in range(max(1, args.repeat)):
        seconds, results = time_call(lambda: db.query_batch(queries, method=args.method))
        label = "cold" if round_index == 0 else "warm"
        answers = sum(len(result) for result in results)
        if args.json:
            rounds.append(
                {
                    "round": round_index + 1,
                    "label": label,
                    "seconds": seconds,
                    "results": [result.to_json() for result in results],
                }
            )
        else:
            print(
                f"round {round_index + 1} ({label}): {len(queries)} queries, "
                f"{answers} answers, {seconds * 1000:.2f}ms"
            )
    info = db.session.cache_info()
    if args.json:
        print(json.dumps({"rounds": rounds, "cache": info}, indent=2, sort_keys=True))
    else:
        print(
            f"cache: {info['result_hits']} hits / {info['result_misses']} misses, "
            f"{info['relational_passes']} relational pass(es), "
            f"{info['evaluated_disjuncts']} distinct disjuncts evaluated"
        )
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover - 'repro serve' child process
    import repro
    from repro.dblp.config import DblpConfig
    from repro.dblp.workload import build_mvdb
    from repro.serving.server import ProbServer

    def extender(spec: dict) -> object:
        # /v1/extend spec -> MVDB: rebuild the synthetic DBLP workload with
        # the requested (superset) view set over the same base data.
        views = spec.get("views", ["V1", "V2", "V3"])
        if not isinstance(views, list) or not all(isinstance(view, str) for view in views):
            from repro.errors import ServingError

            raise ServingError("'views' must be a list of MarkoView names")
        groups = spec.get("groups", args.groups)
        seed = spec.get("seed", args.seed)
        if not isinstance(groups, int) or not isinstance(seed, int):
            from repro.errors import ServingError

            raise ServingError("'groups' and 'seed' must be integers")
        return build_mvdb(
            DblpConfig(group_count=groups, seed=seed), include_views=tuple(views)
        ).mvdb

    if args.artifact is not None:
        engine = repro.open(args.artifact).engine
        source = args.artifact
    else:
        views = tuple(name.strip() for name in args.views.split(",") if name.strip())
        workload = build_mvdb(
            DblpConfig(group_count=args.groups, seed=args.seed), include_views=views
        )
        engine = repro.connect(workload.mvdb).engine
        source = f"in-process DBLP workload (groups={args.groups}, views={','.join(views)})"
    def raise_interrupt(signum: int, frame: object) -> None:
        # Unwind serve_forever() so the finally-clause drains in-flight
        # requests; calling stop() from inside the handler would deadlock
        # (shutdown() waits for the serve loop the handler is parked in).
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, raise_interrupt)
    print(f"serving {source}", flush=True)
    server_kwargs = {
        "max_queue": args.max_queue,
        **({"cache_size": args.cache_size} if args.cache_size is not None else {}),
        "verbose": args.verbose,
    }
    if args.replicas > 1:
        from repro.serving.router import serve_fleet

        router = serve_fleet(
            engine,
            replicas=args.replicas,
            host=args.host,
            port=args.port,
            extender=extender,
            server_kwargs=server_kwargs,
        )
        # bind() returns only after every replica passed its first health
        # check, so the URL line below never races a half-up fleet.
        router.bind()
        print(
            f"listening on {router.url} (replicas={args.replicas}, "
            f"max_queue={args.max_queue})",
            flush=True,
        )
        try:
            router.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            router.stop()
        return EXIT_OK
    server = ProbServer(
        engine,
        host=args.host,
        port=args.port,
        extender=extender,
        # Standing queries registered against an artifact-backed server are
        # durable: a restart re-arms them from the sidecar.
        subscriptions_path=(
            f"{args.artifact}.subs.json" if args.artifact is not None else None
        ),
        **server_kwargs,
    )
    server.dispatcher.warm()
    # The URL line goes out after the server is bound (and flushed) so
    # scripts that started this process with --port 0 can read the address.
    print(f"listening on {server.url} (max_queue={args.max_queue})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.stop()
    return EXIT_OK


def _cmd_subscribe(args: argparse.Namespace) -> int:
    from repro.client import connect_remote
    from repro.errors import ClientError

    predicate = None
    if args.threshold is not None:
        raw = args.threshold.strip()
        for op in (">=", "<=", ">", "<"):
            if raw.startswith(op):
                try:
                    value = float(raw[len(op):])
                except ValueError:
                    raise ClientError(f"--threshold value in {raw!r} is not a number") from None
                predicate = {"kind": "threshold", "op": op, "value": value}
                break
        else:
            raise ClientError(f"--threshold must look like '>=0.5', got {raw!r}")
    sink = {"kind": "webhook", "url": args.webhook} if args.webhook else None
    remote = connect_remote(args.url)
    document = remote.subscribe(args.query, predicate=predicate, sink=sink, method=args.method)
    print(json.dumps(document, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_notify_listen(args: argparse.Namespace) -> int:
    from repro.client import connect_remote

    remote = connect_remote(args.url)
    cursor = args.since
    seen = 0
    while args.max is None or seen < args.max:
        batch = remote.notifications(since=cursor, wait_s=args.wait)
        for notification in batch["notifications"]:
            print(json.dumps(notification, sort_keys=True), flush=True)
            seen += 1
            if args.max is not None and seen >= args.max:
                break
        cursor = batch["next"]
    return EXIT_OK


def _serving_main(argv: list[str]) -> int:
    args = _parse_args(build_serving_parser(), argv)
    handlers = {
        "save-index": _cmd_save_index,
        "extend-index": _cmd_extend_index,
        "load-index": _cmd_load_index,
        "serve-batch": _cmd_serve_batch,
        "serve": _cmd_serve,
        "subscribe": _cmd_subscribe,
        "notify-listen": _cmd_notify_listen,
    }
    return handlers[args.command](args)


def _dispatch(argv: list[str]) -> int:
    # Both parser families register a version action, and argparse fires it
    # before checking required positionals, so bare `repro --version` works
    # through the experiment parser without a special case.
    if argv and argv[0] in SERVING_COMMANDS:
        return _serving_main(argv)
    args = _parse_args(build_parser(), argv)
    runners = _runners()
    if args.experiment == "list":
        print("available experiments:", ", ".join(sorted(runners)), "+ 'all'")
        print("serving commands:", ", ".join(SERVING_COMMANDS))
        return EXIT_OK
    if args.experiment == "all":
        names = sorted(runners)
    elif args.experiment in runners:
        names = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return EXIT_USER
    results = []
    for name in names:
        results.extend(runners[name](args))
    print(report(results, args.out))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return _dispatch(argv)
    except _CliExit as exc:
        return exc.code
    except (KeyboardInterrupt, BrokenPipeError):  # pragma: no cover - interactive
        return EXIT_USER
    except Exception as exc:
        from repro.errors import ReproError

        if isinstance(exc, (ReproError, OSError)):
            # Library failures (missing/corrupt artifact, query parse errors,
            # inference errors) and filesystem problems (unreadable query
            # file, unwritable output path) are the user's to fix: a clean
            # one-line diagnostic, not a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USER
        # Anything else is a bug in the library, not in the invocation.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
