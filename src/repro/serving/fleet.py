"""A fleet of forked replica processes, each serving the same engine.

:class:`ReplicaFleet` turns one compiled :class:`~repro.core.engine.MVQueryEngine`
into ``N`` independent serving processes.  The parent builds (or loads) the
engine **once**; each replica is then created with the ``fork`` start method,
so the engine's compiled MV-index is inherited copy-on-write — ``N`` replicas
do not cost ``N×`` the build time or anywhere near ``N×`` the memory.  Each
child wraps the inherited engine in its own
:class:`~repro.serving.server.ProbServer` on an ephemeral port; the parent
never serves queries itself (the front :class:`~repro.serving.router.Router`
relays to the children).

Responsibilities:

* **lifecycle** — :meth:`start` forks every replica and returns only once all
  of them answer their first ``/healthz`` probe, so callers can print the
  bound URL without racing a half-up fleet; :meth:`stop` SIGTERMs the
  children (each drains in-flight requests before exiting) and escalates to
  SIGKILL after a grace period;
* **health-checking** — a monitor thread probes every replica's ``/healthz``
  on a fixed interval, and the router can :meth:`note_failure` a replica to
  trigger an immediate re-probe; a replica whose process died, or that fails
  two consecutive probes, is killed and restarted with a fresh fork;
* **the op log** — every replicated op the router accepts is appended to
  one ordered log (:meth:`record_extend`): mutations (``/v1/extend``,
  ``/v1/append``) as ``{"kind", "artifact"[, "spec"]}``, where
  ``artifact`` is the leader-compiled sealed delta, and subscription ops
  as ``{"kind": "subscribe", "subscription"}`` /
  ``{"kind": "unsubscribe", "id"}``.  Every replica applies an entry with
  :func:`replay_entry`, whether it arrives live (the router POSTs it to
  the follower's ``/v1/import``) or from the log a restarted replica
  replays before serving.  A mutation is **imported**
  (:meth:`~repro.serving.dispatch.Dispatcher.apply_sealed`), never
  recompiled, so replicas stay byte-identical; a subscription op re-arms
  the standing query at the same point of the order, so every replica
  regenerates the identical notification stream.  Once the router has
  finished broadcasting an entry (:meth:`finish_broadcast`), the monitor
  re-forks any replica that has not applied it — a replica can never
  serve a stale view set for longer than one health interval.

The fleet requires the ``fork`` start method (POSIX); on platforms without
it, construction raises :class:`~repro.errors.ServingError` — use a single
:class:`~repro.serving.server.ProbServer` there instead.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.request
from typing import Any, Callable

from repro.core.engine import MVQueryEngine
from repro.core.mvdb import MVDB
from repro.errors import ServingError

#: Default replica count (1 keeps single-process semantics, behind a router).
DEFAULT_REPLICAS = 1
#: Seconds between periodic health probes of each replica.
DEFAULT_HEALTH_INTERVAL = 1.0
#: Seconds the monitor waits before re-forking a crashed replica.
DEFAULT_RESTART_BACKOFF = 0.5
#: Seconds a fork gets to come up (replay extends, bind, pass /healthz).
DEFAULT_READY_TIMEOUT = 120.0
#: Per-probe HTTP timeout, seconds.
_PROBE_TIMEOUT = 2.0
#: Consecutive failed probes of a live process before it is restarted.
_SUSPECT_THRESHOLD = 2


def replay_entry(
    dispatcher: Any,
    extender: Callable[[dict[str, Any]], MVDB] | None,
    entry: dict[str, Any],
) -> None:
    """Apply one op-log entry to a dispatcher: the one way any replica applies an op.

    Mutation entries carry the leader's sealed compiled delta and are
    imported as-is (byte-identical replicas, no recompile); an ``extend``
    artifact that attaches views additionally needs the extender to
    rebuild the spec MVDB the view names resolve against.

    The log also interleaves subscription ops (``{"kind": "subscribe",
    "subscription": spec}`` / ``{"kind": "unsubscribe", "id": ...}``) in
    the exact order the router accepted them; applying them through the
    dispatcher's attached subscription service gives every replica the
    same notification stream (same seq numbers, same payloads).

    Entries also arrive over HTTP (a follower's ``/v1/import``), so a
    malformed one raises :class:`~repro.errors.ServingError`.
    """
    if entry.get("kind") in ("subscribe", "unsubscribe"):
        service = getattr(dispatcher, "subscription_service", None)
        if service is None:
            raise ServingError(
                "mutation log holds a subscription op but no subscription "
                "service is attached to the dispatcher"
            )
        service.apply_log_entry(entry)
        return
    artifact = entry.get("artifact")
    if not isinstance(artifact, dict):
        raise ServingError("mutation log entry carries no sealed artifact")
    mvdb = None
    if artifact.get("kind") == "extend" and artifact.get("new_view_names"):
        if extender is None:
            raise ServingError(
                "mutation log holds an extend artifact but no extender was configured"
            )
        spec = entry.get("spec")
        if not isinstance(spec, dict):
            raise ServingError("an extend entry that attaches views needs its 'spec'")
        mvdb = extender(dict(spec))
    dispatcher.apply_sealed(artifact, mvdb=mvdb)


def _replica_main(  # pragma: no cover - runs in a forked replica process
    engine: MVQueryEngine,
    host: str,
    server_kwargs: dict[str, Any],
    extender: Callable[[dict[str, Any]], MVDB] | None,
    extend_specs: list[dict[str, Any]],
    ready_conn: Any,
) -> None:
    """Child-process entry point: serve the fork-inherited engine.

    Replays the mutation log *before* binding, reports the bound port
    through ``ready_conn``, then parks until SIGTERM, which triggers a
    graceful drain.  Exits via ``os._exit`` so the inherited parent state
    (router sockets, monitor thread bookkeeping) is never torn down twice.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # The parent owns Ctrl-C: a foreground ^C hits the whole process group,
    # and the drain must be driven by the parent's SIGTERM, not a racing
    # KeyboardInterrupt in every child.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.serving.server import ProbServer

    exit_code = 0
    try:
        server = ProbServer(engine, host=host, port=0, extender=extender, **server_kwargs)
        for entry in extend_specs:
            replay_entry(server.dispatcher, extender, entry)
        server.start()
        ready_conn.send(server.port)
        ready_conn.close()
        stop.wait()
        server.stop()
    except BaseException:  # pragma: no cover - crash path, parent restarts us
        exit_code = 1
    os._exit(exit_code)


class _Slot:
    """Parent-side bookkeeping for one replica position in the fleet."""

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.process: Any = None
        self.port: int | None = None
        self.alive = False
        self.suspect = False
        self.incarnation = 0
        self.restarts = 0
        self.consecutive_failures = 0
        #: How many entries of the extend log this replica has applied
        #: (replayed at fork time or delivered by the router's broadcast).
        self.applied_len = 0


class ReplicaFleet:
    """Forks, health-checks, and restarts ``replicas`` serving processes.

    Parameters
    ----------
    engine:
        The compiled engine every replica serves (inherited via fork).
    replicas:
        Number of worker processes.
    host:
        Interface each replica binds (always on an ephemeral port).
    extender:
        Optional ``spec -> MVDB`` callable, forwarded to every replica's
        :class:`~repro.serving.server.ProbServer` and used to replay the
        extend log on restart.
    server_kwargs:
        Extra keyword arguments for each replica's ``ProbServer``
        (``max_queue``, ``cache_size``, ``verbose``).
    health_interval / restart_backoff / ready_timeout:
        Monitor cadence, re-fork delay, and per-fork startup budget.
    on_death:
        Callback ``(slot_id) -> None`` invoked just before a replica is
        restarted or the fleet stops tracking it — the router uses this to
        fold the replica's last-seen counters into its retired baseline and
        to drop pooled connections to the dead process.
    """

    def __init__(
        self,
        engine: MVQueryEngine,
        replicas: int = DEFAULT_REPLICAS,
        *,
        host: str = "127.0.0.1",
        extender: Callable[[dict[str, Any]], MVDB] | None = None,
        server_kwargs: dict[str, Any] | None = None,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        restart_backoff: float = DEFAULT_RESTART_BACKOFF,
        ready_timeout: float = DEFAULT_READY_TIMEOUT,
        on_death: Callable[[int], None] | None = None,
    ) -> None:
        if replicas < 1:
            raise ServingError(f"a fleet needs at least one replica, got {replicas}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ServingError(
                "replica fleets require the 'fork' start method (POSIX); "
                "use a single ProbServer on this platform"
            )
        self._ctx = multiprocessing.get_context("fork")
        self.engine = engine
        self.host = host
        self.extender = extender
        self.server_kwargs = dict(server_kwargs or {})
        self.health_interval = health_interval
        self.restart_backoff = restart_backoff
        self.ready_timeout = ready_timeout
        self.on_death = on_death
        self._slots = [_Slot(slot_id) for slot_id in range(replicas)]
        self._extend_log: list[dict[str, Any]] = []
        #: Length of the log prefix whose broadcast has finished: an entry
        #: past it may still be on its way to a follower.
        self._broadcast_len = 0
        self._lock = threading.RLock()
        self._poke = threading.Event()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------------ views
    @property
    def slots(self) -> list[int]:
        """All replica slot ids (stable across restarts — the ring hashes these)."""
        return [slot.slot_id for slot in self._slots]

    @property
    def replicas(self) -> int:
        return len(self._slots)

    def is_alive(self, slot_id: int) -> bool:
        return self._slots[slot_id].alive

    def alive_slots(self) -> list[int]:
        return [slot.slot_id for slot in self._slots if slot.alive]

    def address(self, slot_id: int) -> tuple[str, int]:
        """The (host, port) a slot's current incarnation is serving on."""
        port = self._slots[slot_id].port
        if port is None:
            raise ServingError(f"replica {slot_id} has no bound port (not started)")
        return (self.host, port)

    @property
    def restarts_total(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    def applied_len(self, slot_id: int) -> int:
        with self._lock:
            return self._slots[slot_id].applied_len

    def pid(self, slot_id: int) -> int | None:
        """The slot's current process id (None before start / mid-restart).

        Public so chaos tests can SIGKILL a specific replica and assert the
        fleet's replay-based recovery.
        """
        with self._lock:
            process = self._slots[slot_id].process
            return None if process is None else process.pid

    def stats(self) -> dict[str, Any]:
        """Fleet-level process bookkeeping (merged into the router's stats)."""
        with self._lock:
            return {
                "replicas": len(self._slots),
                "replicas_alive": len(self.alive_slots()),
                "restarts_total": self.restarts_total,
                "extend_log_len": len(self._extend_log),
                "slots": [
                    {
                        "slot": slot.slot_id,
                        "port": slot.port,
                        "alive": slot.alive,
                        "incarnation": slot.incarnation,
                        "restarts": slot.restarts,
                        "applied_len": slot.applied_len,
                    }
                    for slot in self._slots
                ],
            }

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "ReplicaFleet":
        """Fork every replica and block until all pass a first health-check."""
        if self._started:
            raise ServingError("fleet is already running")
        self._started = True
        try:
            for slot in self._slots:
                self._launch(slot)
        except BaseException:
            self._started = False
            self._terminate_all()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self, grace: float = 5.0) -> None:
        """SIGTERM every replica (graceful drain), escalate to SIGKILL."""
        self._stopping.set()
        self._poke.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.health_interval + 5.0)
            self._monitor = None
        self._terminate_all(grace=grace)
        self._started = False

    def _terminate_all(self, grace: float = 5.0) -> None:
        for slot in self._slots:
            process = slot.process
            slot.alive = False
            if process is None or not process.is_alive():
                continue
            process.terminate()  # SIGTERM: the child drains, then exits
        deadline = time.monotonic() + grace
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - stuck drain
                process.kill()
                process.join(timeout=1.0)
            slot.process = None

    # ------------------------------------------------------------ extend log
    def record_extend(self, entry: dict[str, Any]) -> int:
        """Append one accepted op to the log; returns the log's new length.

        The router then broadcasts the entry and calls
        :meth:`finish_broadcast` with the returned length.
        """
        with self._lock:
            self._extend_log.append(json.loads(json.dumps(entry)))  # defensive copy
            return len(self._extend_log)

    def finish_broadcast(self, log_len: int) -> None:
        """Router callback: the broadcast of the first ``log_len`` entries is over.

        Only from now on does the monitor treat a replica that has not
        applied them as behind; re-forking it mid-broadcast would kill a
        healthy follower the router is about to deliver the entry to.
        """
        with self._lock:
            self._broadcast_len = max(self._broadcast_len, log_len)

    @property
    def extend_log_len(self) -> int:
        with self._lock:
            return len(self._extend_log)

    def note_extend_applied(self, slot_id: int, applied_len: int) -> None:
        """Router callback: ``slot_id`` has applied the first ``applied_len`` specs."""
        with self._lock:
            slot = self._slots[slot_id]
            slot.applied_len = max(slot.applied_len, applied_len)

    # ---------------------------------------------------------------- health
    def note_failure(self, slot_id: int) -> None:
        """Router callback on a transport failure: re-probe this slot *now*."""
        self._slots[slot_id].suspect = True
        self._poke.set()

    def force_restart(self, slot_id: int) -> None:  # pragma: no cover - no test stalls a follower yet
        """Mark a slot dead (e.g. it rejected an extend) so the monitor re-forks it."""
        slot = self._slots[slot_id]
        slot.alive = False
        slot.consecutive_failures = _SUSPECT_THRESHOLD
        slot.suspect = True
        self._poke.set()

    def _probe(self, slot: _Slot) -> bool:
        if slot.port is None:
            return False
        try:
            url = f"http://{self.host}:{slot.port}/healthz"
            with urllib.request.urlopen(url, timeout=_PROBE_TIMEOUT) as response:
                document = json.loads(response.read().decode("utf-8"))
            return document.get("status") == "ok"
        except Exception:
            return False

    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            self._poke.wait(timeout=self.health_interval)
            self._poke.clear()
            if self._stopping.is_set():
                return
            for slot in self._slots:
                if self._stopping.is_set():
                    return
                try:
                    self._check(slot)
                except Exception:  # pragma: no cover - monitor must survive
                    pass

    def _check(self, slot: _Slot) -> None:
        process = slot.process
        if process is None or not process.is_alive():
            self._restart(slot)
            return
        if slot.alive and not slot.suspect:
            # Consistency check: a replica forked before the latest op was
            # recorded, and skipped by the broadcast because it was mid
            # launch, is behind the log — re-fork it (the replay catches up).
            with self._lock:
                behind = slot.applied_len < self._broadcast_len
            if behind:
                self._restart(slot)
                return
        if self._probe(slot):
            slot.consecutive_failures = 0
            slot.suspect = False
            slot.alive = True
            return
        slot.consecutive_failures += 1
        if slot.consecutive_failures >= _SUSPECT_THRESHOLD:
            self._restart(slot)
        else:
            slot.alive = slot.alive and slot.process is not None
            self._poke.set()  # re-probe promptly rather than a full interval

    def _restart(self, slot: _Slot) -> None:
        slot.alive = False
        if self.on_death is not None:
            try:
                self.on_death(slot.slot_id)
            except Exception:  # pragma: no cover - callback must not kill monitor
                pass
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()  # it failed health checks; no point draining it
        if process is not None:
            process.join(timeout=5.0)
        slot.process = None
        if self._stopping.wait(timeout=self.restart_backoff):
            return
        slot.incarnation += 1
        slot.restarts += 1
        try:
            self._launch(slot)
        except ServingError:
            # Leave the slot dead; the next monitor cycle tries again.
            slot.consecutive_failures = 0
            self._poke.set()

    def _launch(self, slot: _Slot) -> None:
        """Fork one replica and wait until it is serving and healthy."""
        with self._lock:
            extend_specs = list(self._extend_log)
            slot.applied_len = len(extend_specs)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_replica_main,
            args=(
                self.engine,
                self.host,
                self.server_kwargs,
                self.extender,
                extend_specs,
                child_conn,
            ),
            name=f"repro-replica-{slot.slot_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.port = None
        deadline = time.monotonic() + self.ready_timeout
        try:
            while time.monotonic() < deadline:
                if parent_conn.poll(0.05):
                    slot.port = parent_conn.recv()
                    break
                if not process.is_alive():
                    raise ServingError(
                        f"replica {slot.slot_id} exited with code {process.exitcode} "
                        "before binding"
                    )
            if slot.port is None:
                raise ServingError(
                    f"replica {slot.slot_id} did not bind within {self.ready_timeout}s"
                )
        finally:
            parent_conn.close()
        while not self._probe(slot):
            if time.monotonic() >= deadline or not process.is_alive():
                process.kill()
                process.join(timeout=1.0)
                slot.process = None
                raise ServingError(
                    f"replica {slot.slot_id} never passed its first health check"
                )
            time.sleep(0.02)
        slot.consecutive_failures = 0
        slot.suspect = False
        slot.alive = True

    # ------------------------------------------------------------- ergonomics
    def __enter__(self) -> "ReplicaFleet":  # pragma: no cover - sugar over start()
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:  # pragma: no cover - sugar over stop()
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaFleet({len(self.alive_slots())}/{len(self._slots)} alive, "
            f"restarts={self.restarts_total})"
        )
