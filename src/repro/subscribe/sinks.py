"""Notification sinks: the in-process log (long-poll source) and webhooks.

The :class:`NotificationLog` is the canonical sink every notification goes
through: a bounded ring buffer of notification documents with globally
monotonic sequence numbers.  ``/v1/notifications`` long-polls read from it
with a client-held cursor — which is what makes delivery *exactly-once
cluster-wide*: replicas regenerate byte-identical streams (same seq, same
payload) from the replicated op log, so a client that resumes its cursor
against any replica sees every notification exactly once, even across a
follower SIGKILL + restart.

The :class:`WebhookSink` is push-side best-effort: a background worker
POSTs each notification to the subscription's URL with bounded
retry/backoff; deliveries that exhaust the budget are counted as dead
letters (exposed in ``/metrics``).  Webhooks are a single-process
convenience — in a fleet every replica would POST its own copy, so the
router only advertises the long-poll surface.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable

#: Default ring-buffer capacity of the notification log.
DEFAULT_LOG_CAPACITY = 65536
#: Upper bound on a single long-poll wait, seconds.
MAX_WAIT_S = 30.0


class NotificationLog:
    """Bounded, seq-numbered notification stream with long-poll reads."""

    def __init__(self, capacity: int = DEFAULT_LOG_CAPACITY) -> None:
        self.capacity = capacity
        self._condition = threading.Condition()
        self._entries: list[dict[str, Any]] = []
        self._head = 0  # seq of the last appended entry (0 = none yet)
        self._dropped = 0

    # -------------------------------------------------------------- appending
    def append(self, notification: dict[str, Any]) -> int:
        """Assign the next seq, retain the entry, wake long-pollers."""
        with self._condition:
            self._head += 1
            notification["seq"] = self._head
            self._entries.append(notification)
            if len(self._entries) > self.capacity:
                overflow = len(self._entries) - self.capacity
                del self._entries[:overflow]
                self._dropped += overflow
            self._condition.notify_all()
            return self._head

    # ---------------------------------------------------------------- reading
    def read(
        self, since: int = 0, wait_s: float = 0.0, limit: int = 1000
    ) -> dict[str, Any]:
        """Entries with ``seq > since``, blocking up to ``wait_s`` for news.

        Returns ``{"notifications", "next", "head", "oldest"}`` where
        ``next`` is the cursor to pass on the next call and ``oldest`` is
        the lowest seq still retained (a cursor behind ``oldest - 1`` has
        missed ring-buffer-evicted entries — the smoke test asserts that
        never happens at its scale).
        """
        wait_s = max(0.0, min(float(wait_s), MAX_WAIT_S))
        deadline = time.monotonic() + wait_s
        with self._condition:
            while self._head <= since:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._condition.wait(remaining)
            oldest = self._head - len(self._entries) + 1 if self._entries else self._head + 1
            start = max(since + 1, oldest)
            offset = start - oldest
            batch = self._entries[offset : offset + max(1, int(limit))]
            next_cursor = batch[-1]["seq"] if batch else max(since, self._head)
            return {
                "notifications": [dict(entry) for entry in batch],
                "next": next_cursor,
                "head": self._head,
                "oldest": oldest,
                "dropped": self._dropped,
            }

    def stats(self) -> dict[str, int]:
        with self._condition:
            return {"head": self._head, "retained": len(self._entries), "dropped": self._dropped}


class WebhookSink:
    """Background webhook delivery with bounded retry/backoff.

    ``on_outcome(delivered, attempts_failed, dead)`` reports counter
    increments back to the service after each delivery finishes.
    """

    def __init__(
        self,
        on_outcome: Callable[[int, int, int], None],
        timeout_s: float = 5.0,
    ) -> None:
        self._queue: "queue.SimpleQueue[tuple[str, dict, int, float] | None]" = (
            queue.SimpleQueue()
        )
        self._on_outcome = on_outcome
        self._timeout_s = timeout_s
        self._thread = threading.Thread(target=self._worker, daemon=True)
        self._thread.start()

    def submit(self, url: str, notification: dict[str, Any], retries: int, backoff_s: float) -> None:
        self._queue.put((url, notification, retries, backoff_s))

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=5.0)

    def _post(self, url: str, payload: bytes) -> None:
        request = urllib.request.Request(
            url, data=payload, headers={"Content-Type": "application/json"}, method="POST"
        )
        with urllib.request.urlopen(request, timeout=self._timeout_s) as response:
            status = response.status
        if status >= 400:  # pragma: no cover - urlopen raises on 4xx/5xx
            raise urllib.error.HTTPError(url, status, "webhook refused", None, None)

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            url, notification, retries, backoff_s = item
            payload = json.dumps(notification, sort_keys=True).encode("utf-8")
            failed_attempts = 0
            for attempt in range(retries + 1):
                try:
                    self._post(url, payload)
                    self._on_outcome(1, failed_attempts, 0)
                    break
                except Exception:
                    failed_attempts += 1
                    if attempt < retries:
                        time.sleep(backoff_s * (2**attempt))
            else:
                self._on_outcome(0, failed_attempts, 1)


__all__ = ["NotificationLog", "WebhookSink", "DEFAULT_LOG_CAPACITY", "MAX_WAIT_S"]
