"""One front door: ``repro.connect()`` / ``repro.open()`` and :class:`ProbDB`.

The paper's pipeline — MVDB → Theorem 1 translation → MV-index compile →
online query answering — used to be reachable only by stitching together
the engine, parser, session and artifact submodules.  :class:`ProbDB` owns
all of it behind one client object::

    import repro

    db = repro.connect(mvdb)                 # translate + compile offline
    result = db.query("Q(x) :- R(x), S(x)")  # typed QueryResult
    db.save("index.json.gz")                 # persist the offline products

    served = repro.open("index.json.gz")     # cold start in a serving process
    served.query_batch(queries)              # one shared relational pass

Queries may be datalog strings or parsed UCQ objects; results are typed
:class:`~repro.results.QueryResult` / :class:`~repro.results.Answer`
objects carrying probabilities, lineage sizes, OBDD work counters,
cache-hit provenance and wall time (``.to_dict()`` recovers the legacy
``{answer: probability}`` map).  Inference methods are resolved through
the pluggable registry in :mod:`repro.methods`.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro import errors as _errors
from repro.core.engine import MVQueryEngine
from repro.core.mvdb import MVDB
from repro.errors import ClientError, InferenceError, ServingError
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query, to_datalog
from repro.query.ucq import UCQ, as_ucq
from repro.results import QueryResult
from repro.serving.artifact import load_engine, save_engine
from repro.serving.session import DEFAULT_CACHE_SIZE, PreparedQuery, QuerySession

#: Anything the client accepts as a query: a datalog string or a parsed query.
QueryLike = "str | UCQ | ConjunctiveQuery"


def _as_query(query: Any) -> UCQ | ConjunctiveQuery:
    """Parse datalog strings; pass parsed queries through."""
    if isinstance(query, str):
        return parse_query(query)
    return query


class ProbDB:
    """A probabilistic database client: one engine, one caching session.

    Construct through :func:`repro.connect` (from an MVDB) or
    :func:`repro.open` (from a saved artifact).  All query entry points are
    thread-safe; the underlying engine and session remain reachable via
    :attr:`engine` / :attr:`session` for power users, and everything the
    old five-module surface could do is available on this one object.
    """

    def __init__(self, engine: MVQueryEngine, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self._engine = engine
        self._session = QuerySession(engine, cache_size=cache_size)

    # -------------------------------------------------------------- plumbing
    @property
    def engine(self) -> MVQueryEngine:
        """The underlying query engine (advanced use)."""
        return self._engine

    @property
    def session(self) -> QuerySession:
        """The caching serving session every query goes through."""
        return self._session

    # --------------------------------------------------------------- queries
    def query(self, query: QueryLike, method: str = "mvindex") -> QueryResult:
        """Typed probabilities of every answer of ``query`` (cached)."""
        return self._session.execute(_as_query(query), method=method)

    def boolean_probability(self, query: QueryLike, method: str = "mvindex") -> float:
        """``P(Q)`` for a Boolean query (0.0 if it has no derivations).

        Raises :class:`~repro.errors.InferenceError` when the query has
        free head variables.
        """
        return self._session.boolean_probability(_as_query(query), method=method)

    def prepare(self, query: QueryLike) -> PreparedQuery:
        """Pay the relational round trip now; returns a reusable handle.

        The handle's :meth:`~repro.serving.session.PreparedQuery.execute`
        runs the (cached) probability stage under any registered method.
        """
        return self._session.prepare(_as_query(query))

    def query_batch(
        self,
        queries: Sequence[QueryLike],
        method: str = "mvindex",
    ) -> list[QueryResult]:
        """Answer many queries with one shared relational evaluation pass."""
        return self._session.execute_batch([_as_query(query) for query in queries], method=method)

    def warm(self) -> None:
        """Precompute everything lazy so concurrent queries only read."""
        self._session.warm()

    # ----------------------------------------------------------- persistence
    def save(self, path: str | Path) -> Path:
        """Persist the offline pipeline products; reload with :func:`repro.open`.

        Paths ending in ``.gz`` are gzip-compressed.  The artifact restores
        bit-identically: a reopened database answers every query with
        exactly the probabilities this one computes.
        """
        return save_engine(self._engine, path)

    # --------------------------------------------------------------- mutation
    def extend(self, mvdb: MVDB) -> list[int]:
        """Extend to a superset of MarkoViews over the same base data.

        Only the new components of ``W`` are compiled
        (:meth:`~repro.core.engine.MVQueryEngine.extend_views`); the session
        caches are invalidated, since probabilities computed against the old
        view set no longer hold.  Returns the added component keys.
        """
        added = self._engine.extend_views(mvdb)
        self._session.invalidate()
        return added

    def append_facts(self, facts: Mapping[str, Any]) -> int:
        """Stream new base facts into the database; returns the tuple count.

        ``facts`` maps relation names to fact lists: plain rows for
        deterministic relations, ``(row, weight)`` pairs for probabilistic
        ones.  The engine patches its lineage and OBDD index incrementally
        (:meth:`~repro.core.engine.MVQueryEngine.append_facts`) — no view
        is recompiled from scratch — and the session caches are
        invalidated.  Existing tuples cannot change weight through appends.
        """
        added = self._engine.append_facts(facts)
        self._session.invalidate()
        return added

    # ------------------------------------------------------------ inspection
    def stats(self) -> dict[str, Any]:
        """Engine, index and cache statistics as one flat dictionary."""
        from repro import methods as method_registry

        engine = self._engine
        index = engine.mv_index
        info: dict[str, Any] = {
            "possible_tuples": engine.indb.tuple_count(),
            "w_lineage_clauses": engine.w_lineage_size,
            "index_components": index.component_count() if index is not None else 0,
            "index_nodes": index.size if index is not None else 0,
            "has_negative_weights": engine.has_nonstandard_probabilities,
            "methods": list(method_registry.names()),
        }
        info.update(self._session.cache_info())
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbDB({self._engine!r})"


def connect(
    mvdb: MVDB | None = None,
    *,
    artifact: str | Path | None = None,
    build_index: bool = True,
    permutations: Mapping[str, Sequence[str]] | None = None,
    construction: str = "concat",
    backend: Any = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
) -> ProbDB:
    """Open a probabilistic database: the single entry point of the library.

    Exactly one source must be given:

    * ``mvdb`` — run the offline pipeline now (Theorem 1 translation,
      lineage of ``W``, MV-index compilation);
    * ``artifact`` — cold-start from a file written by :meth:`ProbDB.save`
      without recompiling anything (``build_index`` / ``permutations`` /
      ``construction`` / ``backend`` do not apply and must be left
      default).

    ``backend`` selects the storage backend of the translated INDB the
    engine evaluates queries on: ``"memory"`` (default), ``"sqlite"`` (a
    temporary disk file) or ``"sqlite:<path>"`` — see
    :func:`repro.db.backend.resolve_backend`.  ``cache_size`` bounds each
    of the session's result/lineage LRU caches.
    """
    if (mvdb is None) == (artifact is None):
        raise ClientError("connect() needs exactly one of: an MVDB, or artifact=<path>")
    if artifact is not None:
        if build_index is not True or permutations is not None \
                or construction != "concat" or backend is not None:
            raise ClientError(
                "build_index/permutations/construction/backend only apply "
                "when building from an MVDB; the artifact already fixes them"
            )
        engine = load_engine(artifact)
    else:
        engine = MVQueryEngine(
            mvdb,
            build_index=build_index,
            permutations=permutations,
            construction=construction,
            backend=backend,
        )
    return ProbDB(engine, cache_size=cache_size)


def open_artifact(path: str | Path, cache_size: int = DEFAULT_CACHE_SIZE) -> ProbDB:
    """Cold-start a :class:`ProbDB` from a saved artifact (``repro.open``)."""
    return connect(artifact=path, cache_size=cache_size)


# ----------------------------------------------------------------- transport
#: Wire error type → library exception class, e.g. ``"parse_error"`` →
#: :class:`~repro.errors.ParseError`; built from the whole hierarchy with
#: the same :func:`repro.errors.wire_name` the server writes with, so the
#: remote client re-raises exactly what the in-process facade would raise.
_WIRE_ERRORS: dict[str, type] = {
    _errors.wire_name(value): value
    for value in vars(_errors).values()
    if isinstance(value, type) and issubclass(value, _errors.ReproError)
}


class RemoteProbDB:
    """A thin HTTP-backed mirror of :class:`ProbDB` (``repro.connect_remote``).

    Speaks the JSON protocol of :class:`repro.serving.server.ProbServer`.
    Queries may be datalog strings or parsed UCQ objects (serialized with
    :func:`repro.query.to_datalog`); results come back as the same typed
    :class:`~repro.results.QueryResult` objects the in-process facade
    returns, with byte-identical answers and probabilities.  Server-side
    library errors are re-raised client-side as the matching
    :class:`~repro.errors.ReproError` subclass, so code written against the
    in-process facade runs unchanged against either transport.
    """

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServingError(f"connect_remote needs an http:// URL, got {url!r}")
        self._url = url.rstrip("/")
        self._timeout = timeout
        health = self.healthz()
        if health.get("status") != "ok":
            raise ServingError(f"server at {self._url} is not healthy: {health!r}")

    # ------------------------------------------------------------------- wire
    @property
    def url(self) -> str:
        """The server's base URL."""
        return self._url

    def _fetch(self, request: "urllib.request.Request") -> bytes:
        """One HTTP exchange; every failure surfaces as a :class:`ReproError`.

        Error statuses carry the server's typed error document; a refused
        connection, a timeout, a peer that hangs up or speaks something
        other than HTTP, and a truncated body are :class:`ServingError`.
        """
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            self._raise_wire_error(exc)
        except urllib.error.URLError as exc:
            raise ServingError(f"cannot reach {self._url}: {exc.reason}") from None
        except (http.client.HTTPException, OSError) as exc:
            raise ServingError(f"transport failure talking to {self._url}: {exc!r}") from None

    def _request(self, path: str, payload: dict[str, Any] | None = None) -> Any:
        body = self._fetch(
            urllib.request.Request(
                self._url + path,
                data=None if payload is None else json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="GET" if payload is None else "POST",
            )
        )
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServingError(f"invalid JSON from {self._url + path}: {exc}") from None

    def _raise_wire_error(self, exc: "urllib.error.HTTPError") -> "Any":
        try:
            document = json.loads(exc.read())
            error = document["error"]
            error_type, message = error["type"], error["message"]
        except Exception:
            raise ServingError(f"HTTP {exc.code} from {self._url}") from None
        exception_class = _WIRE_ERRORS.get(error_type)
        if exception_class is _errors.AdmissionError:
            try:
                retry_after = float(exc.headers.get("Retry-After", 1.0))
            except ValueError:  # an HTTP-date or junk from a proxy: keep the type
                retry_after = 1.0
            raise _errors.AdmissionError(message, retry_after=retry_after) from None
        if exception_class is not None:
            raise exception_class(message) from None
        raise ServingError(f"HTTP {exc.code} ({error_type}): {message}") from None

    @staticmethod
    def _as_wire_query(query: Any) -> str:
        return query if isinstance(query, str) else to_datalog(query)

    # ---------------------------------------------------------------- queries
    def query(self, query: "str | UCQ | ConjunctiveQuery", method: str = "mvindex") -> QueryResult:
        """Typed probabilities of every answer of ``query``, over HTTP."""
        document = self._request(
            "/v1/query", {"query": self._as_wire_query(query), "method": method}
        )
        return QueryResult.from_json(document["result"])

    def query_batch(
        self,
        queries: Sequence["str | UCQ | ConjunctiveQuery"],
        method: str = "mvindex",
    ) -> list[QueryResult]:
        """Answer many queries with one server-side shared relational pass."""
        payload = {"queries": [self._as_wire_query(query) for query in queries], "method": method}
        document = self._request("/v1/query_batch", payload)
        return [QueryResult.from_json(entry) for entry in document["results"]]

    def boolean_probability(
        self, query: "str | UCQ | ConjunctiveQuery", method: str = "mvindex"
    ) -> float:
        """``P(Q)`` for a Boolean query (0.0 if it has no derivations)."""
        ucq = as_ucq(parse_query(query)) if isinstance(query, str) else as_ucq(query)
        if not ucq.is_boolean:
            raise InferenceError(
                f"boolean_probability requires a Boolean query, but {ucq.name!r} has "
                f"free head variables {tuple(v.name for v in ucq.head)}"
            )
        return self.query(ucq, method=method).probability(())

    # -------------------------------------------------------------- mutation
    def extend(self, spec: Mapping[str, Any]) -> int:
        """Extend the server's view set; returns the number of new components.

        Unlike :meth:`ProbDB.extend`, which takes an in-process MVDB, the
        remote mirror ships a JSON *extension spec* that the server's
        configured extender turns into an MVDB (for ``python -m repro
        serve`` that is ``{"groups": ..., "seed": ..., "views": [...]}``).
        """
        document = self._request("/v1/extend", dict(spec))
        return document["added_components"]

    def append_facts(self, facts: Mapping[str, Any]) -> int:
        """Stream new base facts into the server; returns the tuple count.

        The remote mirror of :meth:`ProbDB.append_facts`: same payload
        shape (deterministic rows, probabilistic ``[row, weight]`` pairs),
        shipped as ``{"facts": ...}`` to ``POST /v1/append``.
        """
        document = self._request("/v1/append", {"facts": dict(facts)})
        return document["added_tuples"]

    # ---------------------------------------------------------- subscriptions
    def subscribe(
        self,
        query: "str | UCQ | ConjunctiveQuery",
        predicate: Mapping[str, Any] | None = None,
        sink: Mapping[str, Any] | None = None,
        method: str = "mvindex",
    ) -> dict[str, Any]:
        """Register a standing query; returns the subscription document.

        ``predicate`` is ``{"kind": "change"}`` (the default: fire whenever
        any answer probability moves) or ``{"kind": "threshold", "op":
        ">|>=|<|<=", "value": p}`` (fire when the set of answers satisfying
        the comparison changes).  ``sink`` defaults to the server's
        long-poll log (read with :meth:`notifications`); pass ``{"kind":
        "webhook", "url": ...}`` for push delivery.  The returned document
        carries the server-assigned ``id`` and the baseline answers.
        """
        payload: dict[str, Any] = {
            "query": self._as_wire_query(query),
            "method": method,
        }
        if predicate is not None:
            payload["predicate"] = dict(predicate)
        if sink is not None:
            payload["sink"] = dict(sink)
        document = self._request("/v1/subscribe", payload)
        return document["subscription"]

    def unsubscribe(self, sub_id: str) -> dict[str, Any]:
        """Remove a standing query by its server-assigned id."""
        return self._request("/v1/unsubscribe", {"id": sub_id})

    def subscriptions(self) -> dict[str, Any]:
        """The server's ``/v1/subscriptions`` registry listing."""
        return self._request("/v1/subscriptions")

    def notifications(
        self, since: int = 0, wait_s: float = 0.0, limit: int = 1000
    ) -> dict[str, Any]:
        """Long-poll the notification stream from cursor ``since``.

        Returns ``{"notifications", "next", "head", "oldest", "dropped"}``;
        pass the returned ``next`` as the following call's ``since`` to
        consume the stream exactly once.  ``wait_s`` blocks server-side
        until news arrives (capped at the server's long-poll maximum), so
        size the client ``timeout`` above it.
        """
        return self._request(
            "/v1/notifications",
            {"since": since, "wait_s": wait_s, "limit": limit},
        )

    # ------------------------------------------------------------ inspection
    def stats(self) -> dict[str, Any]:
        """The server's ``/v1/stats`` document (serving-tier statistics)."""
        return self._request("/v1/stats")

    def healthz(self) -> dict[str, Any]:
        """The server's liveness document."""
        return self._request("/healthz")

    def metrics_text(self) -> str:
        """The server's Prometheus-style metrics exposition."""
        return self._fetch(urllib.request.Request(self._url + "/metrics")).decode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteProbDB({self._url!r})"


def connect_remote(url: str, timeout: float = 60.0) -> RemoteProbDB:
    """Open a :class:`RemoteProbDB` against a running ``repro serve`` server.

    The mirror of :func:`repro.connect` for the network boundary: the same
    query surface, served over HTTP by a process started with
    ``python -m repro serve`` (or an embedded
    :class:`repro.serving.server.ProbServer`).  A URL that is not
    ``http://`` and a server that cannot be reached both raise
    :class:`~repro.errors.ServingError`.
    """
    return RemoteProbDB(url, timeout=timeout)
