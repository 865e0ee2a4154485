"""Durable registration of standing probabilistic queries.

A :class:`Subscription` is a canonical-UCQ standing query plus a firing
predicate (``change`` or ``threshold``) and a notification sink spec.  The
:class:`SubscriptionRegistry` owns the id namespace and, when given a path,
persists every registration as JSON next to the serving artifact so a
``repro serve`` restart re-arms the same subscriptions (baselines are then
re-evaluated against the restarted engine's current state).

Ids are deterministic (``sub-0``, ``sub-1``, ...): in a replica fleet the
leader assigns the id and the router broadcasts the *assigned* spec, so
every replica registers the same subscription under the same name — the
precondition for byte-identical notification streams.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ServingError
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.ucq import UCQ, as_ucq
from repro.serving.canonical import ShapeParams, canonical_shape

#: Comparison operators a threshold predicate may use.
THRESHOLD_OPS = {
    ">": lambda p, v: p > v,
    ">=": lambda p, v: p >= v,
    "<": lambda p, v: p < v,
    "<=": lambda p, v: p <= v,
}

#: Sink kinds the service knows how to deliver to.
SINK_KINDS = ("memory", "webhook")


def canonical_predicate(predicate: Any) -> dict[str, Any]:
    """Validate and normalize a firing predicate.

    ``{"kind": "change"}`` fires whenever the answer set changes at all;
    ``{"kind": "threshold", "op": ">", "value": 0.8}`` fires whenever the
    set of answers satisfying ``P op value`` changes (an answer entering or
    leaving the threshold region).
    """
    if predicate is None:
        return {"kind": "change"}
    if not isinstance(predicate, Mapping):
        raise ServingError("'predicate' must be a mapping")
    kind = predicate.get("kind", "change")
    if kind == "change":
        return {"kind": "change"}
    if kind == "threshold":
        op = predicate.get("op", ">")
        if op not in THRESHOLD_OPS:
            raise ServingError(
                f"threshold op must be one of {sorted(THRESHOLD_OPS)}, got {op!r}"
            )
        try:
            value = float(predicate["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServingError("threshold predicate needs a numeric 'value'") from exc
        return {"kind": "threshold", "op": op, "value": value}
    raise ServingError(f"unknown predicate kind {kind!r}; choose 'change' or 'threshold'")


def canonical_sink(sink: Any) -> dict[str, Any]:
    """Validate and normalize a notification sink spec.

    ``memory`` (the default) delivers into the server's in-process
    notification log, read back via ``/v1/notifications`` long-polls;
    ``webhook`` additionally POSTs each notification to a URL with bounded
    retry/backoff (failures past the retry budget count as dead letters).
    """
    if sink is None:
        return {"kind": "memory"}
    if not isinstance(sink, Mapping):
        raise ServingError("'sink' must be a mapping")
    kind = sink.get("kind", "memory")
    if kind == "memory":
        return {"kind": "memory"}
    if kind == "webhook":
        url = sink.get("url")
        if not isinstance(url, str) or not url:
            raise ServingError("webhook sink needs a non-empty 'url'")
        retries = int(sink.get("retries", 3))
        backoff_s = float(sink.get("backoff_s", 0.05))
        if retries < 0 or backoff_s < 0:
            raise ServingError("webhook 'retries' and 'backoff_s' must be non-negative")
        return {"kind": "webhook", "url": url, "retries": retries, "backoff_s": backoff_s}
    raise ServingError(f"unknown sink kind {kind!r}; choose from {SINK_KINDS}")


@dataclass
class Subscription:
    """One standing query: spec (durable) plus evaluation state (runtime).

    The runtime state — last answers, last lineage variables, counters — is
    *not* persisted: after a restart the baseline is re-evaluated against
    the current engine state, which is exactly the semantics a re-armed
    subscription should have (no firing for changes that happened while the
    server was down).
    """

    sub_id: str
    query: str
    method: str = "mvindex"
    predicate: dict[str, Any] = field(default_factory=lambda: {"kind": "change"})
    sink: dict[str, Any] = field(default_factory=lambda: {"kind": "memory"})
    ucq: UCQ | None = field(default=None, repr=False)

    # Runtime evaluation state, owned by the evaluator.
    relations: frozenset[str] = frozenset()
    #: One :func:`~repro.serving.canonical.canonical_shape` per disjunct, so
    #: a tick runs the delta rule once per shape, not once per subscription.
    shapes: tuple[tuple[str, ConjunctiveQuery, ShapeParams], ...] = field(
        default=(), repr=False
    )
    variables: frozenset[int] = frozenset()
    #: The same lineage variables as a summary-layer bitmap, so each tick's
    #: disjointness test is one integer AND against the delta's bitmap.
    variables_bitmap: int = 0
    answers: dict[tuple, float] = field(default_factory=dict, repr=False)
    matching: frozenset[tuple] = frozenset()
    last_generation: int = -1
    evaluations: int = 0
    skips: int = 0
    #: Skips where no appended fact derives a row of the query and no
    #: component was recompiled (the delta rule alone decided).
    skips_signature: int = 0
    #: Skips where no appended fact derives a row and the variable bitmap
    #: proved the lineage disjoint from the recompiled components.
    skips_bitmap: int = 0
    notifications: int = 0

    def spec(self) -> dict[str, Any]:
        """The durable JSON form (what the registry persists and replays)."""
        return {
            "id": self.sub_id,
            "query": self.query,
            "method": self.method,
            "predicate": dict(self.predicate),
            "sink": dict(self.sink),
        }

    def describe(self) -> dict[str, Any]:
        """The ``/v1/subscriptions`` document: spec plus evaluation state."""
        document = self.spec()
        document.update(
            {
                "relations": sorted(self.relations),
                "last_generation": self.last_generation,
                "evaluations": self.evaluations,
                "skips": self.skips,
                "skips_signature": self.skips_signature,
                "skips_bitmap": self.skips_bitmap,
                "notifications": self.notifications,
                "answers": [
                    [list(values), probability]
                    for values, probability in sorted(
                        self.answers.items(), key=lambda item: str(item[0])
                    )
                ],
            }
        )
        return document


class SubscriptionRegistry:
    """Id assignment plus (optional) durable storage of subscription specs.

    Not thread-safe on its own — the owning
    :class:`~repro.subscribe.evaluator.SubscriptionService` serializes all
    mutations behind the dispatcher's single-writer mutex.
    """

    def __init__(self, path: "str | os.PathLike | None" = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._subscriptions: dict[str, Subscription] = {}
        self._next_id = 0

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._subscriptions)

    def get(self, sub_id: str) -> Subscription | None:
        return self._subscriptions.get(sub_id)

    def ordered(self) -> list[Subscription]:
        """All subscriptions in deterministic (registration) id order."""
        return [
            self._subscriptions[sub_id]
            for sub_id in sorted(
                self._subscriptions, key=lambda sid: (len(sid), sid)
            )
        ]

    # -------------------------------------------------------------- mutation
    def register(self, spec: Mapping[str, Any]) -> Subscription:
        """Validate a subscription spec and add it to the registry.

        ``spec["id"]`` is honored when present (the follower half of a
        fleet broadcast and registry reload both replay leader-assigned
        ids); otherwise the next deterministic id is assigned.
        """
        if not isinstance(spec, Mapping):
            raise ServingError("subscription spec must be a mapping")
        query = spec.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ServingError("subscription needs a non-empty 'query' string")
        ucq = as_ucq(parse_query(query))
        method = spec.get("method", "mvindex")
        if not isinstance(method, str):
            raise ServingError("'method' must be a string")
        predicate = canonical_predicate(spec.get("predicate"))
        sink = canonical_sink(spec.get("sink"))
        sub_id = spec.get("id")
        if sub_id is None:
            sub_id = f"sub-{self._next_id}"
            self._next_id += 1
        else:
            if not isinstance(sub_id, str) or not sub_id:
                raise ServingError("subscription 'id' must be a non-empty string")
            if sub_id in self._subscriptions:
                raise ServingError(f"subscription {sub_id!r} is already registered")
            prefix, _, suffix = sub_id.partition("-")
            if prefix == "sub" and suffix.isdigit():
                self._next_id = max(self._next_id, int(suffix) + 1)
        subscription = Subscription(
            sub_id=sub_id,
            query=query.strip(),
            method=method,
            predicate=predicate,
            sink=sink,
            ucq=ucq,
            relations=frozenset(ucq.relations()),
            shapes=tuple(canonical_shape(cq) for cq in ucq.disjuncts),
        )
        self._subscriptions[sub_id] = subscription
        return subscription

    def remove(self, sub_id: str) -> Subscription:
        """Drop a subscription; raises :class:`ServingError` if unknown."""
        subscription = self._subscriptions.pop(sub_id, None)
        if subscription is None:
            raise ServingError(f"unknown subscription {sub_id!r}")
        return subscription

    # ------------------------------------------------------------ durability
    def save(self) -> None:
        """Persist every spec as JSON (atomic rename); no-op without a path."""
        if self.path is None:
            return
        document = {
            "version": 1,
            "next_id": self._next_id,
            "subscriptions": [sub.spec() for sub in self.ordered()],
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, staging = tempfile.mkstemp(dir=directory, suffix=".subs.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
            os.replace(staging, self.path)
        except BaseException:
            try:
                os.unlink(staging)
            except OSError:
                pass
            raise

    def load_specs(self) -> list[dict[str, Any]]:
        """Read persisted specs back (empty when no path / no file yet)."""
        if self.path is None or not os.path.exists(self.path):
            return []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            specs = document["subscriptions"]
            if not isinstance(specs, list):
                raise TypeError("'subscriptions' must be a list")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ServingError(
                f"corrupt subscription registry at {self.path!r}: {exc}"
            ) from exc
        return [dict(spec) for spec in specs]


__all__ = [
    "Subscription",
    "SubscriptionRegistry",
    "canonical_predicate",
    "canonical_sink",
    "THRESHOLD_OPS",
    "SINK_KINDS",
]
