"""A stdlib-only JSON-over-HTTP front end for a compiled probabilistic DB.

:class:`ProbServer` wraps a :class:`~repro.serving.dispatch.Dispatcher`
(admission control, coalescing, caching, metrics) in a
``ThreadingHTTPServer`` and speaks a small JSON protocol:

========================  =====================================================
``POST /v1/query``        ``{"query": "...", "method": "mvindex"}`` →
                          ``{"generation": g, "result": <QueryResult JSON>}``
``POST /v1/query_batch``  ``{"queries": [...], "method": ...}`` →
                          ``{"generation": g, "results": [...]}``
``POST /v1/extend``       extension spec (see below) →
                          ``{"added_components": k, "generation": g}``
``POST /v1/append``       ``{"facts": {relation: [...]}}`` →
                          ``{"added_tuples": n, "generation": g}``
``POST /v1/import``       one fleet op-log entry (a sealed mutation or a
                          subscription op) → ``{"generation": g}``
``POST /v1/subscribe``    ``{"query": ..., "predicate": ..., "sink": ...}`` →
                          the subscription document (id, baseline answers)
``POST /v1/unsubscribe``  ``{"id": "sub-3"}`` → ``{"id": ..., "removed": true}``
``POST /v1/notifications``  ``{"since": n, "wait_s": s, "limit": k}`` →
                          long-poll read of the notification stream
``GET /v1/subscriptions`` every registered standing query + its state
``GET /v1/stats``         the dispatcher's full statistics document
``GET /healthz``          liveness: ``{"status": "ok", "generation": g, ...}``
``GET /metrics``          Prometheus-style exposition text
========================  =====================================================

Errors are structured: every non-2xx response carries
``{"error": {"type": ..., "message": ..., "status": ...}}``, where ``type``
is the snake-case name of the library exception (``parse_error``,
``inference_error``, ...).  User mistakes map to **400**, a full admission
queue to **429** (with a ``Retry-After`` header), unknown paths to **404**,
wrong verbs to **405**, and library bugs to **500**.

Mutations (``/v1/extend``, ``/v1/append``) are serialized through the
dispatcher's single-writer mutex; their expensive compile half runs off
the serving lock, so reads keep flowing throughout.  How an extend body
becomes an :class:`~repro.core.mvdb.MVDB` is pluggable via the server's
``extender`` callable (the CLI installs one that rebuilds the synthetic
DBLP workload from ``{"groups": ..., "seed": ..., "views": [...]}``).
Both mutation endpoints accept ``"ship_artifact": true`` (set by the
router, never by clients) to include the sealed compiled delta in the
response.  ``/v1/import`` is the follower side of a fleet: its body is
one entry of the fleet's op log, applied with
:func:`~repro.serving.fleet.replay_entry` — the same call a restarted
replica replays its whole log with.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.core.engine import MVQueryEngine
from repro.core.mvdb import MVDB
from repro.errors import AdmissionError, ReproError, ServingError, wire_name
from repro.serving.dispatch import DEFAULT_MAX_QUEUE, DEFAULT_SESSION_CACHE_SIZE, Dispatcher
from repro.serving.fleet import replay_entry
from repro.subscribe import SubscriptionService

#: Largest request body accepted, in bytes (a query batch, comfortably).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Largest number of queries accepted in one ``/v1/query_batch`` call.
MAX_BATCH_SIZE = 1024


class _BadRequest(ServingError):
    """A malformed request body (not valid JSON / wrong shape)."""


def error_body(error_type: str, message: str, status: int) -> bytes:
    """The structured error document every non-2xx response carries."""
    return json.dumps(
        {"error": {"type": error_type, "message": message, "status": status}},
        sort_keys=True,
    ).encode("utf-8")


def misrouted(verb: str, path: str, routes: dict[str, Any]) -> tuple[int, bytes]:
    """The answer for a request no route serves: 405 for a known path, else 404."""
    for allowed, paths in routes.items():
        if path in paths and allowed != verb:
            return 405, error_body("method_not_allowed", f"{allowed} required for {path}", 405)
    return 404, error_body("not_found", f"unknown path {path!r}", 404)


class ActiveRequests:
    """Counts requests inside a handler, so a stop can drain them.

    Idle keep-alive connections are not counted: they are droppable,
    in-flight requests are not.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def __enter__(self) -> None:
        with self._lock:
            self.count += 1

    def __exit__(self, *exc_info: Any) -> None:
        with self._lock:
            self.count -= 1

    def drain(self, grace: float) -> None:
        """Wait up to ``grace`` seconds for the count to reach zero."""
        deadline = time.monotonic() + grace
        while self.count and time.monotonic() < deadline:
            time.sleep(0.005)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning :class:`ProbServer`."""

    protocol_version = "HTTP/1.1"
    # Without TCP_NODELAY, the response body sits in Nagle's buffer waiting
    # for the client's delayed ACK of the header segment — a ~40ms floor on
    # every request (StreamRequestHandler applies this in setup()).
    disable_nagle_algorithm = True
    server: "_HttpServer"

    # ----------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.prob_server.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.server.prob_server.dispatcher.metrics.observe_response(status)

    def _send_json(self, status: int, document: dict[str, Any]) -> None:
        self._send(status, json.dumps(document, sort_keys=True).encode("utf-8"))

    def _send_error(
        self, status: int, error_type: str, message: str, headers: dict[str, str] | None = None
    ) -> None:
        self._send(status, error_body(error_type, message, status), headers=headers)

    def _read_raw_body(self) -> bytes:
        """Read (and thereby drain) the request body.

        Called for every POST before routing: on HTTP/1.1 keep-alive
        connections an unread body would otherwise be parsed as the next
        request line, desyncing the connection after any error response
        that short-circuits before reading it (404/405/501/400).
        """
        length = self.headers.get("Content-Length")
        if length is None:
            raise _BadRequest("a JSON body with a Content-Length header is required")
        try:
            size = int(length)
        except ValueError:
            raise _BadRequest(f"invalid Content-Length {length!r}") from None
        if size < 0 or size > MAX_BODY_BYTES:
            raise _BadRequest(f"request body of {size} bytes exceeds {MAX_BODY_BYTES}")
        return self.rfile.read(size)

    def _read_body(self) -> dict[str, Any]:
        try:
            document = json.loads(self._raw_body)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}") from None
        if not isinstance(document, dict):
            raise _BadRequest("request body must be a JSON object")
        return document

    # ------------------------------------------------------------------ routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        with self.server.prob_server.requests:
            self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        with self.server.prob_server.requests:
            self._route("POST")

    def _route(self, verb: str) -> None:
        try:
            if verb == "POST":
                try:
                    self._raw_body = self._read_raw_body()
                except _BadRequest as exc:
                    # Without a believable Content-Length the connection
                    # cannot be resynced — answer and drop it.
                    self.close_connection = True
                    self._send_error(400, "bad_request", str(exc))
                    return
            handler = ROUTES[verb].get(self.path)
            if handler is None:
                self._send(*misrouted(verb, self.path, ROUTES))
            else:
                handler(self)
        except _BadRequest as exc:
            self._send_error(400, "bad_request", str(exc))
        except AdmissionError as exc:
            self._send_error(
                429,
                "admission_error",
                str(exc),
                headers={"Retry-After": str(int(exc.retry_after))},
            )
        except ReproError as exc:
            # Library-detected user mistakes: unparsable queries, unknown
            # methods, rejected extensions, ... — the caller's to fix.
            self._send_error(400, wire_name(type(exc)), str(exc))
        except Exception as exc:
            self.server.prob_server.dispatcher.metrics.observe_error()
            try:
                self._send_error(500, "internal_error", f"{type(exc).__name__}: {exc}")
            except Exception:  # pragma: no cover - client went away mid-reply
                pass

    # ---------------------------------------------------------------- handlers
    def _handle_healthz(self) -> None:
        # Liveness probes poll this; keep it cheap (no metrics snapshot,
        # which sorts the latency reservoir).
        prob_server = self.server.prob_server
        self._send_json(
            200,
            {
                "status": "ok",
                "generation": prob_server.dispatcher.generation,
                "uptime_s": prob_server.dispatcher.metrics.uptime_s(),
            },
        )

    def _handle_stats(self) -> None:
        self._send_json(200, self.server.prob_server.dispatcher.stats())

    def _handle_metrics(self) -> None:
        body = self.server.prob_server.dispatcher.metrics_text().encode("utf-8")
        self._send(200, body, content_type="text/plain; version=0.0.4")

    def _handle_subscriptions(self) -> None:
        self._send_json(200, self.server.prob_server.subscriptions.list())

    def _handle_query(self) -> None:
        document = self._read_body()
        query = document.get("query")
        if not isinstance(query, str) or not query.strip():
            raise _BadRequest("'query' must be a non-empty datalog string")
        method = document.get("method", "mvindex")
        if not isinstance(method, str):
            raise _BadRequest("'method' must be a string")
        result, generation = self.server.prob_server.dispatcher.execute(query, method=method)
        self._send_json(200, {"generation": generation, "result": result.to_json()})

    def _handle_query_batch(self) -> None:
        document = self._read_body()
        queries = document.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _BadRequest("'queries' must be a non-empty list of datalog strings")
        if len(queries) > MAX_BATCH_SIZE:
            raise _BadRequest(f"batch of {len(queries)} exceeds {MAX_BATCH_SIZE} queries")
        if not all(isinstance(query, str) and query.strip() for query in queries):
            raise _BadRequest("every entry of 'queries' must be a non-empty datalog string")
        method = document.get("method", "mvindex")
        if not isinstance(method, str):
            raise _BadRequest("'method' must be a string")
        results, generation = self.server.prob_server.dispatcher.execute_batch(
            queries, method=method
        )
        self._send_json(
            200,
            {"generation": generation, "results": [result.to_json() for result in results]},
        )

    def _handle_extend(self) -> None:
        prob_server = self.server.prob_server
        if prob_server.extender is None:
            self._send_error(501, "unsupported", "this server was started without an extender")
            return
        document = self._read_body()
        ship_artifact = bool(document.pop("ship_artifact", False))
        added, generation, sealed = prob_server.dispatcher.extend(prob_server.extender(document))
        response: dict[str, Any] = {"added_components": len(added), "generation": generation}
        if ship_artifact:
            response["artifact"] = sealed
        self._send_json(200, response)

    def _handle_append(self) -> None:
        document = self._read_body()
        facts = document.get("facts")
        if not isinstance(facts, dict) or not facts:
            raise _BadRequest("'facts' must be a non-empty object of relation -> rows")
        ship_artifact = bool(document.get("ship_artifact", False))
        added, generation, sealed = self.server.prob_server.dispatcher.append_facts(facts)
        response: dict[str, Any] = {"added_tuples": added, "generation": generation}
        if ship_artifact:
            response["artifact"] = sealed
        self._send_json(200, response)

    def _handle_import(self) -> None:
        # The follower half of the fleet's op log: apply one entry exactly
        # as a restarted replica replays it.  A stale or malformed entry
        # raises (400 serving_error); the router then force-restarts us.
        prob_server = self.server.prob_server
        replay_entry(prob_server.dispatcher, prob_server.extender, self._read_body())
        self._send_json(200, {"generation": prob_server.dispatcher.generation})

    def _handle_subscribe(self) -> None:
        document = self._read_body()
        subscription = self.server.prob_server.subscriptions.subscribe(document)
        self._send_json(200, {"subscription": subscription})

    def _handle_unsubscribe(self) -> None:
        document = self._read_body()
        sub_id = document.get("id")
        if not isinstance(sub_id, str) or not sub_id:
            raise _BadRequest("'id' must be a non-empty subscription id string")
        self._send_json(200, self.server.prob_server.subscriptions.unsubscribe(sub_id))

    def _handle_notifications(self) -> None:
        # Long-poll: blocks up to 'wait_s' (capped server-side) until the
        # stream grows past the 'since' cursor.  Each request runs on its
        # own handler thread, so parked long-polls do not block queries.
        document = self._read_body()
        since = document.get("since", 0)
        wait_s = document.get("wait_s", 0.0)
        limit = document.get("limit", 1000)
        if not isinstance(since, int) or since < 0:
            raise _BadRequest("'since' must be a non-negative integer cursor")
        if not isinstance(wait_s, (int, float)) or wait_s < 0:
            raise _BadRequest("'wait_s' must be a non-negative number")
        if not isinstance(limit, int) or limit < 1:
            raise _BadRequest("'limit' must be a positive integer")
        self._send_json(
            200,
            self.server.prob_server.subscriptions.notifications(
                since=since, wait_s=float(wait_s), limit=limit
            ),
        )


#: The endpoint table, verb -> path -> handler.  The router serves the same
#: paths except ``/v1/import``, and docs-check compares the (path, verb)
#: pairs with the endpoint table of ``docs/serving.md``.
ROUTES: dict[str, dict[str, Callable[[_Handler], None]]] = {
    "GET": {
        "/healthz": _Handler._handle_healthz,
        "/v1/stats": _Handler._handle_stats,
        "/metrics": _Handler._handle_metrics,
        "/v1/subscriptions": _Handler._handle_subscriptions,
    },
    "POST": {
        "/v1/query": _Handler._handle_query,
        "/v1/query_batch": _Handler._handle_query_batch,
        "/v1/extend": _Handler._handle_extend,
        "/v1/append": _Handler._handle_append,
        "/v1/import": _Handler._handle_import,
        "/v1/subscribe": _Handler._handle_subscribe,
        "/v1/unsubscribe": _Handler._handle_unsubscribe,
        "/v1/notifications": _Handler._handle_notifications,
    },
}


class _HttpServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning :class:`ProbServer`."""

    daemon_threads = True
    # server_close() must not join handler threads: a keep-alive client
    # parked between requests would block shutdown forever.  Draining waits
    # on ProbServer.requests instead.
    block_on_close = False
    prob_server: "ProbServer"


class ProbServer:
    """The over-the-wire serving process: one engine behind HTTP.

    Parameters
    ----------
    engine:
        The compiled engine to serve (typically ``repro.open(artifact).engine``).
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port (see :attr:`url`).
    max_queue / cache_size:
        Forwarded to the :class:`~repro.serving.dispatch.Dispatcher`, which
        answers each query on the handler thread that received it.
    extender:
        Optional callable mapping a ``/v1/extend`` JSON body to an
        :class:`~repro.core.mvdb.MVDB`; without it the endpoint answers 501.
    subscriptions_path:
        Optional JSON sidecar path (conventionally ``<artifact>.subs.json``)
        where standing-query registrations are persisted; registrations
        found there at startup are re-armed immediately.
    verbose:
        Log one line per request to stderr (off by default).
    """

    def __init__(
        self,
        engine: MVQueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = DEFAULT_MAX_QUEUE,
        cache_size: int = DEFAULT_SESSION_CACHE_SIZE,
        extender: Callable[[dict[str, Any]], MVDB] | None = None,
        subscriptions_path: str | None = None,
        verbose: bool = False,
    ) -> None:
        self.dispatcher = Dispatcher(engine, max_queue=max_queue, cache_size=cache_size)
        self.subscriptions = SubscriptionService(self.dispatcher, path=subscriptions_path)
        self.extender = extender
        self.verbose = verbose
        self._http = _HttpServer((host, port), _Handler)
        self._http.prob_server = self
        self._thread: threading.Thread | None = None
        self._serving = False
        self.requests = ActiveRequests()

    # ------------------------------------------------------------------ basics
    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """The server's base URL (with the actually-bound port)."""
        return f"http://{self.host}:{self.port}"

    # --------------------------------------------------------------- lifecycle
    def start(self) -> "ProbServer":
        """Serve on a background thread; returns ``self`` for chaining."""
        if self._thread is not None:
            raise ServingError("server is already running")
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (blocking)."""
        self._serving = True
        try:
            self._http.serve_forever()
        finally:
            self._serving = False

    @property
    def active_requests(self) -> int:
        """Requests currently inside a handler (excluding idle keep-alives)."""
        return self.requests.count

    def stop(self, grace: float = 5.0) -> None:
        """Drain in-flight requests, then shut everything down (idempotent).

        New connections stop being accepted immediately; requests already
        inside a handler get up to ``grace`` seconds to finish (idle
        keep-alive connections do not count — they are dropped).  Safe to
        call on a server that was never started: ``BaseServer.shutdown``
        blocks forever unless ``serve_forever`` is running, so it is only
        invoked while the serve loop is live.
        """
        if self._serving:
            self._http.shutdown()
        self.requests.drain(grace)
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.subscriptions.close()
        self.dispatcher.close()

    def __enter__(self) -> "ProbServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbServer({self.url}, {self.dispatcher!r})"
