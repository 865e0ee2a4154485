"""Delta-triggered incremental re-evaluation of standing queries.

The :class:`SubscriptionService` hooks the dispatcher's epoch-swap
publication point: every published mutation emits a delta descriptor
(:meth:`repro.core.pending.PendingExtend.delta_descriptor`), and the
service runs one **tick** per delta, re-evaluating *only* the
subscriptions the delta can possibly affect.

The skip rule is the semi-naive **delta rule**, and it is sound, not
heuristic.  A subscription is re-evaluated iff

* some disjunct of its query derives at least one row when one body atom
  reads only the appended (Δ) rows and every other atom reads the live
  tables, which already hold the Δ rows at tick time — appends are
  monotone, so every new derivation uses at least one Δ fact, and a query
  with none keeps its relational lineage bit-identical (a query over
  relations the delta did not touch has no Δ atom at all); or
* the delta's recompiled/new MV-index components mention a variable of the
  subscription's answer lineages — the online probability is the
  conditional ratio ``P0(Q ∧ ¬W) / P0(¬W)`` over the components the
  lineage touches, and components it does not touch cancel, so a delta
  that recompiles only disjoint components cannot move the answer.

Everything else is *provably unchanged and skipped* (the tier-1 tests
assert skipped answers stay bit-identical to fresh queries).

The first test costs one evaluation per shape and Δ atom, constants
matched per subscription, so a tick's relational work does not grow with
the number of readers.  Each disjunct is keyed by its shape
(:func:`~repro.serving.canonical.canonical_shape`: the disjunct with every
``variable op constant`` comparison lifted into the head), and standing
queries that differ only in such constants share it; the bench's
templates are three shapes however many entities subscribe.  Each shape is
evaluated once per Δ atom into a set of head rows, and a subscription
derives iff some row of one of its shapes passes every one of its lifted
comparisons (``Comparison.test``).  A Δ atom whose own checks in the shape
— constants, repeated variables, comparisons between its own variables —
keep no Δ row is dropped before any planning.  Skips are
attributed: ``skips_signature`` when no appended fact derives a row and no
component was recompiled, ``skips_bitmap`` when components were recompiled
and the variable bitmap proved the lineage disjoint from them.  W-changing
appends leave some ticks to the bitmap alone (a new advisor edge
recompiles components of queries it derives nothing for), so it stays.
Selected subscriptions go through the same batch evaluation as a fresh
query, so fired answers are bit-identical to one by construction.

Determinism is the cluster story: ticks run inside the single-writer
mutex, immediately after publication, against a read-lock-pinned
generation; subscriptions are evaluated in registration order; the
notification payload contains no wall-clock.  Replicas that replay the
same op log (mutations interleaved with subscribe/unsubscribe, as the
router records them) therefore regenerate byte-identical notification
streams with the same sequence numbers — a client cursor resumed against
any replica sees every notification exactly once.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.engine import delta_rewrites, delta_table
from repro.db.database import Database
from repro.db.table import Table
from repro.errors import ServingError
from repro.mvindex.summaries import variables_bitmap
from repro.query.evaluator import evaluate_cq
from repro.serving.canonical import shape_admits
from repro.serving.session import QuerySession
from repro.subscribe.registry import (
    THRESHOLD_OPS,
    Subscription,
    SubscriptionRegistry,
)
from repro.subscribe.sinks import DEFAULT_LOG_CAPACITY, NotificationLog, WebhookSink

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serving.dispatch import Dispatcher

#: Capacity of the evaluator's dedicated session caches.  Sized well above
#: the expected standing-query count so a tick's shared batch pass leaves
#: every lineage cached for the per-subscription variable extraction.
EVALUATOR_CACHE_SIZE = 8192


class SubscriptionService:
    """Registry + evaluator + notification log behind one dispatcher.

    Parameters
    ----------
    dispatcher:
        The serving dispatcher to hook.  The service registers itself as
        ``dispatcher.subscription_service`` and as a delta listener.
    path:
        Optional JSON sidecar (conventionally ``<artifact>.subs.json``)
        holding the durable registrations; when the file exists its
        subscriptions are re-armed immediately (baselines re-evaluated
        against the engine's current state).
    log_capacity:
        Ring-buffer capacity of the notification log.
    """

    def __init__(
        self,
        dispatcher: "Dispatcher",
        path: str | None = None,
        log_capacity: int = DEFAULT_LOG_CAPACITY,
    ) -> None:
        self.dispatcher = dispatcher
        self.registry = SubscriptionRegistry(path)
        self.log = NotificationLog(log_capacity)
        self._session = QuerySession(dispatcher.engine, cache_size=EVALUATOR_CACHE_SIZE)
        self._evaluated_generation = -1
        self._lock = threading.Lock()
        self._webhook: WebhookSink | None = None
        self._ticks = 0
        self._evaluations = 0
        self._skips = 0
        self._skips_signature = 0
        self._skips_bitmap = 0
        self._notifications = 0
        self._delivered = 0
        self._delivery_failures = 0
        self._dead_letter = 0
        self._last_tick_ms = 0.0
        dispatcher.subscription_service = self
        dispatcher.add_delta_listener(self._on_delta)
        for spec in self.registry.load_specs():
            self.subscribe(spec, persist=False)

    # ------------------------------------------------------------ registration
    def subscribe(self, spec: Mapping[str, Any], persist: bool = True) -> dict[str, Any]:
        """Register a standing query and evaluate its baseline.

        Runs under the dispatcher's single-writer mutex so the baseline is
        computed at a well-defined generation — never halfway through a
        publish — and so fleet replicas that replay the same op order
        compute identical baselines.  Returns the subscription document.
        """
        with self.dispatcher.mutation_locked():
            with self.dispatcher.read_pinned() as generation:
                with self._lock:
                    subscription = self.registry.register(spec)
                try:
                    self._evaluate([subscription], generation, baseline=True)
                except Exception:
                    with self._lock:
                        self.registry.remove(subscription.sub_id)
                    raise
                if persist:
                    self.registry.save()
        return subscription.describe()

    def unsubscribe(self, sub_id: str, persist: bool = True) -> dict[str, Any]:
        """Remove a subscription (raises for unknown ids)."""
        with self.dispatcher.mutation_locked():
            with self._lock:
                subscription = self.registry.remove(sub_id)
            if persist:
                self.registry.save()
        return {"id": subscription.sub_id, "removed": True}

    def apply_log_entry(self, entry: Mapping[str, Any]) -> None:
        """Apply one fleet-log subscription entry (live broadcast or restart replay)."""
        kind = entry.get("kind")
        if kind == "subscribe":
            self.subscribe(entry.get("subscription"), persist=False)
        elif kind == "unsubscribe":
            self.unsubscribe(str(entry.get("id")), persist=False)
        else:
            raise ServingError(f"unknown subscription log entry kind {kind!r}")

    # -------------------------------------------------------------- the tick
    def _on_delta(self, descriptor: dict[str, Any]) -> None:
        """One tick: re-evaluate what the delta rule selects, skip the rest.

        Called by the dispatcher after every published mutation, inside the
        single-writer mutex.  The read lock pins the generation for the
        whole tick, so every fired (and skipped) answer is exactly what a
        fresh query at that generation returns.
        """
        start = time.perf_counter()
        delta_bitmap = descriptor["component_bitmap"]
        with self.dispatcher.read_pinned() as generation:
            with self._lock:
                ordered = self.registry.ordered()
            derives = self._delta_rule(descriptor["rows"], ordered)
            selected = [
                subscription
                for subscription in ordered
                if (subscription.variables_bitmap & delta_bitmap) or derives(subscription)
            ]
            fired = (
                self._evaluate(selected, generation, baseline=False)
                if selected
                else []
            )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        evaluated_ids = {subscription.sub_id for subscription in selected}
        with self._lock:
            self._ticks += 1
            tick = self._ticks
            self._evaluations += len(selected)
            self._skips += len(ordered) - len(selected)
            self._last_tick_ms = elapsed_ms
            for subscription in ordered:
                if subscription.sub_id not in evaluated_ids:
                    subscription.skips += 1
                    # Attribute the skip: a delta with no recompiled
                    # components is cleared by the delta rule alone;
                    # otherwise the variable bitmap also had to prove the
                    # lineage disjoint.
                    if delta_bitmap == 0:
                        subscription.skips_signature += 1
                        self._skips_signature += 1
                    else:
                        subscription.skips_bitmap += 1
                        self._skips_bitmap += 1
        for subscription, payload in fired:
            payload["generation"] = generation
            payload["tick"] = tick
            self.log.append(payload)
            with self._lock:
                subscription.notifications += 1
                self._notifications += 1
            if subscription.sink.get("kind") == "webhook":
                self._submit_webhook(subscription, payload)

    def _delta_rule(
        self, rows: Mapping[str, list[tuple]], subscriptions: list[Subscription]
    ) -> Callable[[Subscription], bool]:
        """Whether a subscription derives a row from the appended ``rows`` (the delta rule).

        One evaluation per shape and Δ atom, constants matched per
        subscription.  The live tables already hold the Δ rows, so each
        distinct shape among ``subscriptions``' disjuncts
        (:func:`~repro.serving.canonical.canonical_shape`) is evaluated
        once per atom over a Δ relation, that atom reading the Δ rows alone
        (:func:`~repro.core.engine.delta_rewrites`), into one set of head
        rows.  A subscription derives iff, in some disjunct, some row of
        its shape passes every one of its lifted comparisons; one with no
        such row keeps every derivation it had.  Caller holds the
        dispatcher read lock.
        """
        database = self.dispatcher.engine.indb.database
        taken: set[str] = set()
        deltas: dict[str, Table] = {}
        for relation, appended in rows.items():
            deltas[relation] = delta_table(database, relation, taken)
            deltas[relation].insert_many(appended)
        overlay = Database([*database, *deltas.values()])
        derived: dict[str, set[tuple]] = {}
        for subscription in subscriptions:
            for key, shape_cq, __ in subscription.shapes:
                if key not in derived:
                    derived[key] = {
                        row
                        for delta_cq in delta_rewrites(shape_cq, deltas)
                        for row in evaluate_cq(delta_cq, overlay).answers()
                    }

        def derives(subscription: Subscription) -> bool:
            return any(
                shape_admits(params, row)
                for key, __, params in subscription.shapes
                for row in derived[key]
            )

        return derives

    def _evaluate(
        self, subscriptions: list[Subscription], generation: int, baseline: bool
    ) -> list[tuple[Subscription, dict[str, Any]]]:
        """Batch re-evaluation at a pinned generation; returns fire decisions.

        Caller holds the dispatcher read lock.  One shared relational pass
        per method group (the existing :meth:`QuerySession.execute_batch`
        path), then per-subscription predicate checks against the previous
        state.
        """
        if generation != self._evaluated_generation:
            self._session.invalidate()
            self._evaluated_generation = generation
        by_method: dict[str, list[Subscription]] = {}
        for subscription in subscriptions:
            by_method.setdefault(subscription.method, []).append(subscription)
        results: dict[str, Any] = {}
        for method, group in by_method.items():
            batch = self._session.execute_batch(
                [subscription.ucq for subscription in group], method=method
            )
            for subscription, result in zip(group, batch):
                results[subscription.sub_id] = result
        fired: list[tuple[Subscription, dict[str, Any]]] = []
        for subscription in subscriptions:
            result = results[subscription.sub_id]
            lineages = self._session.answer_lineages(subscription.ucq)
            variables = frozenset().union(
                *(lineage.variables() for lineage in lineages.values())
            ) if lineages else frozenset()
            answers = {answer.values: answer.probability for answer in result.answers}
            payload = None if baseline else self._fire_decision(subscription, answers)
            matching = self._matching(subscription, answers)
            with self._lock:
                subscription.variables = variables
                subscription.variables_bitmap = variables_bitmap(variables)
                subscription.answers = answers
                subscription.matching = matching
                subscription.last_generation = generation
                subscription.evaluations += 1
            if payload is not None:
                fired.append((subscription, payload))
        return fired

    @staticmethod
    def _matching(subscription: Subscription, answers: dict[tuple, float]) -> frozenset:
        predicate = subscription.predicate
        if predicate["kind"] != "threshold":
            return frozenset()
        op = THRESHOLD_OPS[predicate["op"]]
        value = predicate["value"]
        return frozenset(
            values for values, probability in answers.items() if op(probability, value)
        )

    def _fire_decision(
        self, subscription: Subscription, answers: dict[tuple, float]
    ) -> dict[str, Any] | None:
        """The predicate check: a notification payload, or None to not fire.

        The payload deliberately contains no wall-clock time — it must be
        byte-identical on every replica that replays the same op log.
        """

        def rows(values_iterable: Any) -> list[list[Any]]:
            return [
                [list(values), answers[values]] if values in answers else [list(values)]
                for values in sorted(values_iterable, key=str)
            ]

        predicate = subscription.predicate
        if predicate["kind"] == "threshold":
            matching = self._matching(subscription, answers)
            if matching == subscription.matching:
                return None
            return {
                "subscription": subscription.sub_id,
                "kind": "threshold",
                "predicate": dict(predicate),
                "query": subscription.query,
                "entered": rows(matching - subscription.matching),
                "left": [
                    [list(values)] for values in sorted(
                        subscription.matching - matching, key=str
                    )
                ],
                "answers": rows(answers),
            }
        if answers == subscription.answers:
            return None
        return {
            "subscription": subscription.sub_id,
            "kind": "change",
            "predicate": dict(predicate),
            "query": subscription.query,
            "answers": rows(answers),
            "previous": [
                [list(values), probability]
                for values, probability in sorted(
                    subscription.answers.items(), key=lambda item: str(item[0])
                )
            ],
        }

    # -------------------------------------------------------------- delivery
    def _submit_webhook(self, subscription: Subscription, payload: dict[str, Any]) -> None:
        if self._webhook is None:
            self._webhook = WebhookSink(self._webhook_outcome)
        sink = subscription.sink
        self._webhook.submit(
            sink["url"], dict(payload), sink.get("retries", 3), sink.get("backoff_s", 0.05)
        )

    def _webhook_outcome(self, delivered: int, failures: int, dead: int) -> None:
        with self._lock:
            self._delivered += delivered
            self._delivery_failures += failures
            self._dead_letter += dead

    # ------------------------------------------------------------- inspection
    def notifications(
        self, since: int = 0, wait_s: float = 0.0, limit: int = 1000
    ) -> dict[str, Any]:
        """Long-poll read of the notification stream (cursor-based)."""
        return self.log.read(since=since, wait_s=wait_s, limit=limit)

    def list(self) -> dict[str, Any]:
        """The ``/v1/subscriptions`` document."""
        with self._lock:
            documents = [subscription.describe() for subscription in self.registry.ordered()]
        return {"subscriptions": documents, "active": len(documents)}

    def stats(self) -> dict[str, Any]:
        """The ``subscriptions`` section of ``/v1/stats``."""
        log = self.log.stats()
        with self._lock:
            return {
                "active": len(self.registry),
                "ticks_total": self._ticks,
                "evaluations_total": self._evaluations,
                "skips_total": self._skips,
                "skips_signature_total": self._skips_signature,
                "skips_bitmap_total": self._skips_bitmap,
                "notifications_total": self._notifications,
                "delivered_total": self._delivered,
                "delivery_failures_total": self._delivery_failures,
                "dead_letter_total": self._dead_letter,
                "seq_head": log["head"],
                "last_tick_ms": self._last_tick_ms,
            }

    def close(self) -> None:
        """Stop the webhook delivery worker (idempotent)."""
        if self._webhook is not None:
            self._webhook.close()
            self._webhook = None


__all__ = ["SubscriptionService", "EVALUATOR_CACHE_SIZE"]
