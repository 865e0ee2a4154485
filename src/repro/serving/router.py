"""The fleet front-end: one HTTP port, consistent-hash fan-out, roll-up stats.

:class:`Router` accepts HTTP on a single port and relays every request to a
:class:`~repro.serving.fleet.ReplicaFleet` replica over persistent upstream
connections.  It speaks exactly the :class:`~repro.serving.server.ProbServer`
protocol, so :func:`repro.connect_remote` works unchanged against a fleet.

**Routing.**  ``/v1/query`` requests are routed by a consistent hash of the
query's *canonical* key (:func:`~repro.serving.canonical.canonical_key`) —
the cluster-level generalization of the per-worker crc32 affinity inside
each replica's :class:`~repro.serving.dispatch.Dispatcher`.  Re-phrasings of
the same query land on the same replica, whose caches are hot for it, and
the :class:`HashRing` keeps ``(K-1)/K`` of all keys in place when one of
``K`` replicas dies.  Batches and other bodies route by a hash of the raw
body bytes.  A small LRU from body bytes to routing key means the steady
state never re-parses: repeated request bodies hit the cache directly.

**Retries.**  Queries are read-only and idempotent, so a transport failure
walks the ring: pooled connection → fresh dial to the same replica → the
next alive replica, and only when every replica is unreachable does the
client see a 503.  HTTP-level errors from a replica (400/429/...) are
relayed as-is — a full admission queue is backpressure, not a routing
failure.  Every transport failure is reported to the fleet's health
monitor, which restarts replicas that stay unresponsive.

**Replicated ops.**  ``POST /v1/extend``, ``/v1/append``,
``/v1/subscribe`` and ``/v1/unsubscribe`` go through one broadcast,
serialized by a router-level lock so they form one total order.  The
first alive replica (the leader) validates and applies the op — a
mutation with ``"ship_artifact": true``, so it answers with the sealed
compiled delta — and a rejected body is relayed verbatim and touches
nothing else.  The router builds the op-log entry from the spec and the
leader's answer (the artifact, or the leader-assigned subscription id),
appends it to the fleet's log, and POSTs the entry to every other alive
replica's ``/v1/import``, which applies it with
:func:`~repro.serving.fleet.replay_entry` — the same call a restarted
replica replays the log with.  Mutations are imported, never
recompiled, so all replicas hold byte-identical state.  A replica that
fails or rejects the entry (stale epoch) is force-restarted and
converges by replaying the log; the generation counter inside each
replica advances in lock-step, and the cluster ``/v1/stats`` exposes both
``generation`` (the floor every replica reached) and ``generation_max``
(the frontier).  The artifact is stripped from the response the client
sees; ``/v1/import`` itself is replica-internal and answers 404 at the
router.

**Roll-up.**  ``GET /v1/stats`` and ``/metrics`` fan out to all alive
replicas and merge their documents with
:func:`~repro.serving.dispatch.merge_stats`; counters from dead
incarnations are folded into a retired baseline so cluster counters stay
monotonic across restarts.

The HTTP front end is a hand-rolled minimal parser on raw sockets rather
than :mod:`http.server` — the router sits in front of ``N`` replicas and
must not become the bottleneck; parsing just the request line, the three
headers it needs, and the body keeps per-request overhead far below one
replica's handler cost.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import zlib
from bisect import bisect_right
from collections import OrderedDict, deque
from http.client import responses as _REASONS
from typing import Any, Iterable, Sequence

from repro.errors import ServingError
from repro.query.parser import parse_query
from repro.serving.canonical import canonical_key
from repro.serving.dispatch import merge_stats, render_metrics
from repro.serving.fleet import ReplicaFleet
from repro.serving.server import (
    MAX_BODY_BYTES,
    ROUTES,
    ActiveRequests,
    error_body,
    misrouted,
)

#: Virtual nodes per replica on the hash ring (evens out the key split).
DEFAULT_VNODES = 64
#: Entries of the body-bytes -> routing-key LRU.
_KEY_CACHE_SIZE = 4096
#: Pooled idle upstream connections kept per replica.
_POOL_SIZE = 16
#: Seconds the router waits for a replica to answer one request.
DEFAULT_UPSTREAM_TIMEOUT = 120.0

#: The replica's endpoint table minus the replica-internal follower hop.
_PUBLIC_ROUTES = {
    verb: frozenset(paths) - {"/v1/import"} for verb, paths in ROUTES.items()
}
#: Writes applied on every replica through the fleet's op log.
_REPLICATED_OPS = ("/v1/extend", "/v1/append", "/v1/subscribe", "/v1/unsubscribe")


class HashRing:
    """Consistent hashing over replica slot ids.

    Each slot contributes ``vnodes`` points at ``crc32("slot:vnode")`` on a
    32-bit ring.  The ring is built once over *all* slots and never rebuilt:
    dead replicas are skipped at lookup time via the caller's alive filter,
    so a restarted replica's keys return home instead of resettling.
    """

    def __init__(self, slots: Sequence[int], vnodes: int = DEFAULT_VNODES) -> None:
        if not slots:
            raise ServingError("a hash ring needs at least one slot")
        points = sorted(
            (zlib.crc32(f"{slot}:{vnode}".encode("ascii")), slot)
            for slot in slots
            for vnode in range(vnodes)
        )
        self._hashes = [point for point, _ in points]
        self._slots = [slot for _, slot in points]
        self._distinct = len(set(slots))

    def order(self, key: str) -> list[int]:
        """All distinct slots in ring-walk order from ``key``'s position.

        ``order(key)[0]`` is the home replica; the tail is the failover
        sequence, which is what makes retries deterministic per key.
        """
        position = bisect_right(self._hashes, zlib.crc32(key.encode("utf-8")))
        count = len(self._slots)
        seen: set[int] = set()
        walk: list[int] = []
        for step in range(count):
            slot = self._slots[(position + step) % count]
            if slot not in seen:
                seen.add(slot)
                walk.append(slot)
                if len(walk) == self._distinct:
                    break
        return walk


class _UpstreamError(Exception):
    """A transport-level failure talking to one replica (retryable)."""


class _Upstream:
    """One pooled keep-alive connection to a replica."""

    __slots__ = ("sock", "rfile")

    def __init__(self, address: tuple[str, int], timeout: float) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        try:
            self.rfile.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class _RouterTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    # Like ProbServer's _HttpServer: never join handler threads on close —
    # idle keep-alive clients must not block shutdown; stop() drains on the
    # router's own active-request count instead.
    block_on_close = False
    request_queue_size = 128
    router: "Router"


class _RouterHandler(socketserver.StreamRequestHandler):
    """One client connection: parse minimal HTTP/1.1, relay, repeat."""

    disable_nagle_algorithm = True
    server: _RouterTCPServer

    def handle(self) -> None:
        router = self.server.router
        while True:
            try:
                request = self._read_request()
            except _BadClient as exc:
                try:
                    router._respond(self.wfile, 400, error_body("bad_request", str(exc), 400),
                                    keep_alive=False)
                except OSError:
                    pass
                return
            except OSError:
                return
            if request is None:
                return
            method, path, body, keep_alive = request
            with router.requests:
                try:
                    keep_alive = router._handle_one(self.wfile, method, path, body, keep_alive)
                except OSError:
                    return
            if not keep_alive:
                return

    def _read_request(self) -> tuple[str, str, bytes, bool] | None:
        request_line = self.rfile.readline(8192)
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadClient("malformed request line")
        method = parts[0].decode("ascii", "replace")
        path = parts[1].decode("ascii", "replace")
        keep_alive = parts[2] != b"HTTP/1.0"
        content_length = 0
        for _ in range(100):
            header = self.rfile.readline(8192)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.partition(b":")
            lowered = name.strip().lower()
            if lowered == b"content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadClient("invalid Content-Length") from None
            elif lowered == b"connection":
                token = value.strip().lower()
                if token == b"close":
                    keep_alive = False
                elif token == b"keep-alive":
                    keep_alive = True
        else:
            raise _BadClient("too many headers")
        if content_length < 0 or content_length > MAX_BODY_BYTES:
            raise _BadClient(f"request body of {content_length} bytes exceeds {MAX_BODY_BYTES}")
        body = self.rfile.read(content_length) if content_length else b""
        if len(body) < content_length:
            return None  # client went away mid-body
        return method, path, body, keep_alive


class _BadClient(Exception):
    """The client sent something unparsable; answer 400 and drop it."""


class Router:
    """One port in front of a replica fleet; see the module docstring.

    The router owns the fleet's lifecycle: :meth:`start` (or
    :meth:`serve_forever`) starts the fleet first and binds the listening
    socket only after every replica passed its first health check, and
    :meth:`stop` drains in-flight requests before stopping the fleet.
    """

    def __init__(
        self,
        fleet: ReplicaFleet,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        vnodes: int = DEFAULT_VNODES,
        upstream_timeout: float = DEFAULT_UPSTREAM_TIMEOUT,
        verbose: bool = False,
    ) -> None:
        self.fleet = fleet
        self.verbose = verbose
        self._host = host
        self._port = port
        self._upstream_timeout = upstream_timeout
        self.ring = HashRing(fleet.slots, vnodes=vnodes)
        self._http: _RouterTCPServer | None = None
        self._thread: threading.Thread | None = None
        self._serving = False
        self.requests = ActiveRequests()
        self._pools: dict[int, deque[_Upstream]] = {slot: deque() for slot in fleet.slots}
        self._pool_lock = threading.Lock()
        self._key_cache: OrderedDict[bytes, str] = OrderedDict()
        self._key_lock = threading.Lock()
        self._extend_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._last_stats: dict[int, dict[str, Any]] = {}
        self._retired: dict[str, Any] | None = None
        self._counter_lock = threading.Lock()
        self._retries_total = 0
        self._upstream_errors_total = 0
        fleet.on_death = self._on_replica_death

    # ------------------------------------------------------------------ basics
    @property
    def host(self) -> str:
        if self._http is None:
            return self._host
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        if self._http is None:
            raise ServingError("router is not bound yet (call start())")
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL — available once the fleet is up and the socket is bound."""
        return f"http://{self.host}:{self.port}"

    # --------------------------------------------------------------- lifecycle
    def bind(self) -> "Router":
        """Start the fleet and bind the listening socket (idempotent).

        Deliberately sequenced so that :attr:`url` only becomes readable —
        and the port only starts accepting — *after* every replica passed
        its first health check: a script that waits on the printed URL can
        never race a half-up fleet.
        """
        if self._http is not None:
            return self
        self.fleet.start()
        try:
            self._http = _RouterTCPServer((self._host, self._port), _RouterHandler)
            self._http.router = self
        except BaseException:
            self.fleet.stop()
            raise
        return self

    def start(self) -> "Router":
        """Start the fleet, bind, and serve on a background thread."""
        if self._thread is not None:
            raise ServingError("router is already running")
        self.bind()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Start the fleet (if needed) and serve on the calling thread."""
        self.bind()
        self._serving = True
        try:
            self._http.serve_forever()  # type: ignore[union-attr]
        finally:
            self._serving = False

    def stop(self, grace: float = 5.0) -> None:
        """Drain in-flight requests, close the socket, stop the fleet."""
        if self._http is not None:
            if self._serving:
                self._http.shutdown()
            self.requests.drain(grace)
            self._http.server_close()
            self._http = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._pool_lock:
            for pool in self._pools.values():
                while pool:
                    pool.pop().close()
        self.fleet.stop(grace=grace)

    def __enter__(self) -> "Router":  # pragma: no cover - sugar over start()
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:  # pragma: no cover - sugar over stop()
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = self._http.server_address if self._http else "unbound"
        return f"Router({bound}, {self.fleet!r})"

    # ------------------------------------------------------------ client side
    def _respond(
        self,
        wfile: Any,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        keep_alive: bool = True,
        extra_headers: Sequence[tuple[str, str]] = (),
    ) -> None:
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in extra_headers)
        wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)

    def _handle_one(
        self, wfile: Any, method: str, path: str, body: bytes, keep_alive: bool
    ) -> bool:
        paths = _PUBLIC_ROUTES.get(method)
        if paths is None:
            self._respond(
                wfile, 405,
                error_body("method_not_allowed", f"unsupported method {method}", 405),
                keep_alive=False,
            )
            return False
        if path not in paths:
            status, error = misrouted(method, path, _PUBLIC_ROUTES)
            self._respond(wfile, status, error, keep_alive=keep_alive)
        elif path in ("/v1/query", "/v1/query_batch"):
            slots = self.ring.order(self.routing_key(path, body))
            self._relay(wfile, method, path, body, keep_alive, slots)
        elif path in _REPLICATED_OPS:
            self._broadcast(wfile, path, body, keep_alive)
        elif path in ("/v1/subscriptions", "/v1/notifications"):
            # Replicated state: every replica applied the same op log, so
            # it holds the same registry and the byte-identical notification
            # stream — any alive replica's answer, and a long-poll cursor,
            # is valid cluster-wide.  A GET forwards no body.
            forwarded = body if method == "POST" else b""
            self._relay(wfile, method, path, forwarded, keep_alive, self.fleet.alive_slots())
        elif path == "/healthz":
            self._handle_healthz(wfile, keep_alive)
        elif path == "/v1/stats":
            document = self.cluster_stats()
            self._respond(
                wfile, 200, json.dumps(document, sort_keys=True).encode("utf-8"),
                keep_alive=keep_alive,
            )
        else:  # /metrics
            self._respond(
                wfile, 200, self.metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4", keep_alive=keep_alive,
            )
        return keep_alive

    def _handle_healthz(self, wfile: Any, keep_alive: bool) -> None:
        alive = len(self.fleet.alive_slots())
        document = {
            "status": "ok" if alive else "down",
            "role": "router",
            "replicas": self.fleet.replicas,
            "replicas_alive": alive,
        }
        self._respond(
            wfile,
            200 if alive else 503,
            json.dumps(document, sort_keys=True).encode("utf-8"),
            keep_alive=keep_alive,
        )

    # --------------------------------------------------------------- routing
    def routing_key(self, path: str, body: bytes) -> str:
        """The consistent-hash key for one request body (LRU-cached).

        ``/v1/query`` bodies hash by the canonical UCQ key so re-phrasings
        of one query share a replica (mirroring the dispatcher's worker
        affinity); anything else — batches, unparsable bodies — hashes the
        raw bytes, which still pins exact repeats.
        """
        cache_key = body if len(body) <= 4096 else body[:2048] + body[-2048:]
        with self._key_lock:
            cached = self._key_cache.get(cache_key)
            if cached is not None:
                self._key_cache.move_to_end(cache_key)
                return cached
        key = f"raw:{zlib.crc32(body)}:{len(body)}"
        if path == "/v1/query":
            try:
                document = json.loads(body)
                raw_query = document.get("query")
                if isinstance(raw_query, str) and raw_query.strip():
                    key = canonical_key(parse_query(raw_query))
            except Exception:
                pass  # the replica will produce the real 400
        with self._key_lock:
            self._key_cache[cache_key] = key
            if len(self._key_cache) > _KEY_CACHE_SIZE:
                self._key_cache.popitem(last=False)
        return key

    def _relay(
        self,
        wfile: Any,
        method: str,
        path: str,
        body: bytes,
        keep_alive: bool,
        slots: Iterable[int],
    ) -> None:
        """Relay a read to the first alive slot that answers, in ``slots`` order.

        Routed queries pass the ring walk from their key's position, reads
        of replicated state the alive slots; either way a transport failure
        moves on to the next slot, and every failover counts as a retry.
        """
        first = True
        for slot in slots:
            if not self.fleet.is_alive(slot):
                continue
            if not first:
                with self._counter_lock:
                    self._retries_total += 1
            first = False
            try:
                answer = self._forward(slot, method, path, body)
            except _UpstreamError:
                self._note_upstream_error(slot)
                continue
            self._respond_upstream(wfile, answer, keep_alive)
            return
        self._respond_unreachable(wfile, keep_alive)

    def _broadcast(self, wfile: Any, path: str, body: bytes, keep_alive: bool) -> None:
        """Apply one replicated op on the leader, log it, and ship the entry to the rest.

        A mutation's leader request carries ``"ship_artifact": true``, so
        followers import the sealed delta instead of recompiling, and the
        artifact never reaches the client — the relayed response is
        re-serialized without it.  A subscribe's log entry carries the
        leader-assigned id, so every replica registers the same
        subscription under the same id at the same point of the op order.
        """
        try:
            spec = json.loads(body)
            if not isinstance(spec, dict):
                raise ValueError("not an object")
        except ValueError as exc:
            self._respond(
                wfile, 400,
                error_body("bad_request", f"request body is not a JSON object: {exc}", 400),
                keep_alive=keep_alive,
            )
            return
        kind = path[len("/v1/"):]
        if kind in ("extend", "append"):
            body = json.dumps({**spec, "ship_artifact": True}, sort_keys=True).encode("utf-8")
        with self._extend_lock:
            slots = self.fleet.alive_slots()
            for position, leader in enumerate(slots):
                try:
                    answer = self._forward(leader, "POST", path, body)
                    break
                except _UpstreamError:
                    self._note_upstream_error(leader)
            else:
                self._respond_unreachable(wfile, keep_alive)
                return
            status, content_type, response, _ = answer
            if status != 200:
                # Rejected (or the leader is overloaded): relay verbatim;
                # nothing was recorded, no replica diverged.
                self._respond_upstream(wfile, answer, keep_alive)
                return
            document = json.loads(response)
            entry: dict[str, Any]
            if kind == "subscribe":
                stamped = {**spec, "id": document["subscription"]["id"]}
                entry = {"kind": kind, "subscription": stamped}
            elif kind == "unsubscribe":
                entry = {"kind": kind, "id": spec.get("id")}
            else:
                entry = {"kind": kind, "artifact": document.pop("artifact")}
                if kind == "extend":
                    entry["spec"] = spec
                response = json.dumps(document, sort_keys=True).encode("utf-8")
            log_len = self.fleet.record_extend(entry)
            try:
                self.fleet.note_extend_applied(leader, log_len)
                entry_body = json.dumps(entry, sort_keys=True).encode("utf-8")
                for follower in slots[position + 1:]:
                    if self.fleet.applied_len(follower) >= log_len:
                        continue  # a fresh fork already replayed this op
                    try:
                        applied = self._forward(follower, "POST", "/v1/import", entry_body)[0]
                    except _UpstreamError:
                        self._note_upstream_error(follower)
                        applied = None
                    if applied == 200:
                        self.fleet.note_extend_applied(follower, log_len)
                    else:
                        # Its epoch diverged or it died: re-fork it and let
                        # the log replay converge it.
                        self.fleet.force_restart(follower)
            finally:
                self.fleet.finish_broadcast(log_len)
        self._respond(wfile, 200, response, content_type=content_type, keep_alive=keep_alive)

    def _respond_upstream(
        self, wfile: Any, answer: tuple[int, str, bytes, str | None], keep_alive: bool
    ) -> None:
        status, content_type, response, retry_after = answer
        extra = [("Retry-After", retry_after)] if retry_after else []
        self._respond(
            wfile, status, response, content_type=content_type,
            keep_alive=keep_alive, extra_headers=extra,
        )

    def _respond_unreachable(self, wfile: Any, keep_alive: bool) -> None:
        self._respond(
            wfile, 503,
            error_body("serving_error", "no replica could be reached", 503),
            keep_alive=keep_alive,
        )

    def _note_upstream_error(self, slot: int) -> None:
        with self._counter_lock:
            self._upstream_errors_total += 1
        self.fleet.note_failure(slot)

    # ------------------------------------------------------------- upstreams
    def _checkout(self, slot: int) -> _Upstream | None:
        with self._pool_lock:
            pool = self._pools[slot]
            return pool.pop() if pool else None

    def _checkin(self, slot: int, upstream: _Upstream) -> None:
        with self._pool_lock:
            pool = self._pools[slot]
            if len(pool) < _POOL_SIZE:
                pool.append(upstream)
                return
        upstream.close()

    def _drop_pool(self, slot: int) -> None:
        with self._pool_lock:
            pool = self._pools[slot]
            drained = list(pool)
            pool.clear()
        for upstream in drained:
            upstream.close()

    def _forward(
        self, slot: int, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes, str | None]:
        """One request/response exchange with a replica.

        A pooled connection may have died while idle (replica restarted,
        keep-alive timeout), so a failure on a pooled socket is retried once
        on a freshly dialed one before counting as a transport failure.
        """
        pooled = self._checkout(slot)
        if pooled is not None:
            try:
                return self._exchange(slot, pooled, method, path, body)
            except (OSError, ValueError, ConnectionError):
                pooled.close()
        try:
            fresh = _Upstream(self.fleet.address(slot), self._upstream_timeout)
        except (OSError, ServingError) as exc:
            raise _UpstreamError(f"cannot dial replica {slot}: {exc}") from None
        try:
            return self._exchange(slot, fresh, method, path, body)
        except (OSError, ValueError, ConnectionError) as exc:
            fresh.close()
            raise _UpstreamError(f"replica {slot} failed mid-exchange: {exc}") from None

    def _exchange(
        self, slot: int, upstream: _Upstream, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes, str | None]:
        address = self.fleet.address(slot)
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {address[0]}:{address[1]}\r\n"
            "Connection: keep-alive\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        upstream.sock.sendall(head.encode("ascii") + body)
        status_line = upstream.rfile.readline(8192)
        if not status_line:
            raise ConnectionError("replica closed the connection")
        status = int(status_line.split(None, 2)[1])
        content_type = "application/json"
        content_length = None
        retry_after = None
        upstream_close = False
        for _ in range(100):
            header = upstream.rfile.readline(8192)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.partition(b":")
            lowered = name.strip().lower()
            if lowered == b"content-length":
                content_length = int(value.strip())
            elif lowered == b"content-type":
                content_type = value.strip().decode("latin-1")
            elif lowered == b"retry-after":
                retry_after = value.strip().decode("latin-1")
            elif lowered == b"connection" and value.strip().lower() == b"close":
                upstream_close = True
        if content_length is None:
            raise ConnectionError("replica response lacks Content-Length")
        response = upstream.rfile.read(content_length)
        if len(response) < content_length:
            raise ConnectionError("replica response truncated")
        if upstream_close:
            upstream.close()
        else:
            self._checkin(slot, upstream)
        return status, content_type, response, retry_after

    # ----------------------------------------------------------------- stats
    def _on_replica_death(self, slot: int) -> None:
        """Fold the dead incarnation's counters into the retired baseline."""
        self._drop_pool(slot)
        with self._stats_lock:
            document = self._last_stats.pop(slot, None)
            if document is None:
                return
            folded = json.loads(json.dumps(document))
            folded["max_queue"] = 0
            folded["queue_depth"] = 0
            folded["in_flight"] = 0
            folded["uptime_s"] = 0.0
            folded.get("throughput", {}).update(qps=0.0, lifetime_qps=0.0)
            folded.get("admission", {}).update(queue_depth=0, max_queue=0)
            for tier_stats in folded.get("cache", {}).values():
                tier_stats["entries"] = 0
            if self._retired is None:
                self._retired = folded
            else:
                self._retired = merge_stats([self._retired, folded])

    def cluster_stats(self) -> dict[str, Any]:
        """Fan out ``/v1/stats`` to alive replicas and merge the documents."""
        live: list[dict[str, Any]] = []
        for slot in self.fleet.alive_slots():
            try:
                status, _, response, _ = self._forward(slot, "GET", "/v1/stats", b"")
            except _UpstreamError:
                self._note_upstream_error(slot)
                continue
            if status != 200:
                continue
            document = json.loads(response)
            with self._stats_lock:
                self._last_stats[slot] = document
            live.append(document)
        documents = list(live)
        with self._stats_lock:
            if self._retired is not None:
                baseline = dict(self._retired)
                if live:
                    # Neutral under both the min and the max: retired
                    # counters must not drag the cluster generation floor
                    # back to a pre-extend epoch forever.
                    baseline["generation"] = max(d.get("generation", 0) for d in live)
                documents.append(baseline)
        merged = merge_stats(documents)
        with self._counter_lock:
            router_stats = {
                "retries_total": self._retries_total,
                "upstream_errors_total": self._upstream_errors_total,
            }
        router_stats.update(self.fleet.stats())
        merged["router"] = router_stats
        return merged

    def metrics_text(self) -> str:
        """Prometheus exposition of the cluster roll-up plus fleet gauges."""
        stats = self.cluster_stats()
        router_stats = stats["router"]
        extra = [
            "# HELP repro_replicas Configured replica count.",
            "# TYPE repro_replicas gauge",
            f"repro_replicas {router_stats['replicas']}",
            "# HELP repro_replicas_alive Replicas currently passing health checks.",
            "# TYPE repro_replicas_alive gauge",
            f"repro_replicas_alive {router_stats['replicas_alive']}",
            "# HELP repro_replica_restarts_total Replica processes re-forked by the fleet.",
            "# TYPE repro_replica_restarts_total counter",
            f"repro_replica_restarts_total {router_stats['restarts_total']}",
            "# HELP repro_router_retries_total Requests retried on another replica.",
            "# TYPE repro_router_retries_total counter",
            f"repro_router_retries_total {router_stats['retries_total']}",
            "# HELP repro_router_upstream_errors_total Transport failures talking to replicas.",
            "# TYPE repro_router_upstream_errors_total counter",
            f"repro_router_upstream_errors_total {router_stats['upstream_errors_total']}",
            "# HELP repro_generation_max The newest invalidation epoch any replica reached.",
            "# TYPE repro_generation_max gauge",
            f"repro_generation_max {stats['generation_max']}",
        ]
        return render_metrics(stats, extra_lines=extra)


def serve_fleet(
    engine: Any,
    *,
    replicas: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    extender: Any = None,
    server_kwargs: dict[str, Any] | None = None,
    health_interval: float | None = None,
    verbose: bool = False,
) -> Router:
    """Build a :class:`ReplicaFleet` + :class:`Router` pair (not yet started).

    The one-stop constructor used by ``repro serve --replicas N`` and the
    docs examples::

        router = serve_fleet(engine, replicas=2).start()
        ...
        router.stop()
    """
    fleet_kwargs: dict[str, Any] = {}
    if health_interval is not None:
        fleet_kwargs["health_interval"] = health_interval
    fleet = ReplicaFleet(
        engine,
        replicas,
        host=host,
        extender=extender,
        server_kwargs=server_kwargs,
        **fleet_kwargs,
    )
    return Router(fleet, host=host, port=port, verbose=verbose)
