"""The harness's own HTTP driver and server-process management.

Deliberately not ``repro.serving.loadgen``: that is program code later PRs
may change, and the benchmark must keep measuring the same thing.  Servers
are always separate processes started through the documented front door
(``python -m repro serve``), one generator process drives them in a closed
loop (each caller waits for its reply), and every process started here is
stopped and waited for before the run ends.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterable

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_JSON_HEADERS = {"Content-Type": "application/json"}


def peak_rss_mb(pid: int | str = "self") -> float:
    """The peak resident set (VmHWM) of one live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we were looking
        if int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


class Connection:
    """One keep-alive HTTP/1.1 connection (one closed-loop caller)."""

    def __init__(self, host: str, port: int) -> None:
        self._http = http.client.HTTPConnection(host, port, timeout=120.0)

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        self._http.request("POST", path, body=body, headers=_JSON_HEADERS)
        response = self._http.getresponse()
        return response.status, response.read()

    def post_json(self, path: str, document: Any) -> tuple[int, Any]:
        status, body = self.post(path, json.dumps(document).encode("utf-8"))
        return status, json.loads(body)

    def get_json(self, path: str) -> tuple[int, Any]:
        self._http.request("GET", path)
        response = self._http.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self._http.close()


class Server:
    """One ``python -m repro serve`` process (a single server or a fleet)."""

    def __init__(self, source_dir: Path, groups: int, seed: int, replicas: int = 1) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--groups", str(groups),
                   "--seed", str(seed), "--port", "0"]
        if replicas > 1:
            command += ["--replicas", str(replicas)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source_dir), env.get("PYTHONPATH")]))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        assert self.process.stdout is not None
        for line in self.process.stdout:
            match = _LISTENING.search(line)
            if match:
                break
        else:
            self.process.wait()
            raise RuntimeError(f"{' '.join(command)} exited before printing its URL")
        #: Seconds from spawn to the "listening on" line.
        self.start_s = time.perf_counter() - started
        self.host, self.port = match.group(1), int(match.group(2))
        self.replicas = replicas
        self._pids = [self.process.pid] + _children(self.process.pid)

    def connect(self, port: int | None = None) -> Connection:
        return Connection(self.host, self.port if port is None else port)

    def stats(self) -> dict[str, Any]:
        connection = self.connect()
        try:
            status, document = connection.get_json("/v1/stats")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return document

    def replica_ports(self) -> list[int]:
        """Ports of the fleet's replicas (the router publishes them in stats)."""
        return [slot["port"] for slot in self.stats()["router"]["slots"]]

    def peak_rss_mb(self) -> float:
        """Engine-owning processes: the server, or router parent + replicas."""
        return sum(peak_rss_mb(pid) for pid in self._pids)

    def stop(self) -> None:
        """SIGTERM (the server drains), wait; SIGKILL the group as a last resort."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                pass

        def replicas_alive() -> bool:
            return any(Path(f"/proc/{pid}").exists() for pid in self._pids[1:])

        deadline = time.monotonic() + 5.0
        while replicas_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        if self.process.poll() is None or replicas_alive():
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()
        assert self.process.stdout is not None
        self.process.stdout.close()


class Calibration:
    """How slowly this box runs the interpreter while a phase lasts.

    The box's speed wanders by tens of percent over seconds and minutes (see
    README.md, "Reference speed"), which no length of run averages out.  So
    every timed phase — a set-up, a measured phase — runs inside one of these:
    a sampler thread wakes every ``INTERVAL_S`` and times one *probe*, a fixed
    piece of pure-Python work shaped like the program's own (a tuple-keyed hash
    lookup into a table larger than the L2 cache, a few short-lived containers
    and a substring test per row).  The mean probe time over the phase,
    divided by ``REFERENCE_S``, is the phase's :attr:`slowdown`; the timing
    metrics are reported divided by it, i.e. at the reference speed.

    A probe keeps no container alive, so the collector's counters stand where
    the measured program left them; it takes ~0.3 ms, about 1 % of the phase,
    and holds the interpreter lock for that long.
    """

    #: Seconds one probe takes beside the measured work on this box in a quiet
    #: hour, so that a slowdown of 1.0 is this box at its usual best.  Any
    #: constant would do: it only fixes the unit.
    REFERENCE_S = 0.000310
    INTERVAL_S = 0.025
    ROWS = 20_000
    ROWS_PER_PROBE = 150

    _rows: list[tuple[int, int, str]] = []
    _index: dict[tuple[int, int], tuple[int, int, str]] = {}
    _order: list[int] = []

    def __init__(self) -> None:
        if not Calibration._rows:
            # Built once per process, read-only afterwards.
            Calibration._rows = [(key, 1990 + key % 30, f"Person {key}-{key * 7919 % 1000}")
                                 for key in range(self.ROWS)]
            Calibration._index = {(row[0], row[1]): row for row in Calibration._rows}
            Calibration._order = random.Random(0).sample(range(self.ROWS), self.ROWS)
        #: Seconds each probe took.
        self.samples: list[float] = []
        self._position = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _probe(self) -> None:
        rows, index, clock = Calibration._rows, Calibration._index, time.perf_counter
        start = self._position
        self._position = (start + self.ROWS_PER_PROBE) % (self.ROWS - self.ROWS_PER_PROBE)
        keys = Calibration._order[start:start + self.ROWS_PER_PROBE]
        total = 0
        started = clock()
        for key in keys:
            row = rows[key]
            hit = index[(row[0], row[1])]
            pair = [key, hit[1]]
            box = {key: pair}
            if "7-" in hit[2]:
                total += len(box)
        self.samples.append(clock() - started)

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._probe()

    def __enter__(self) -> "Calibration":
        self._probe()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        self._probe()

    @property
    def slowdown(self) -> float:
        """Mean probe time of the phase over the reference probe time.

        The slowest twentieth of the probes is left out: a probe that lost its
        processor for a few milliseconds says nothing about the box's speed.
        """
        kept = sorted(self.samples)[: max(1, len(self.samples) * 19 // 20)]
        return sum(kept) / len(kept) / self.REFERENCE_S


class Rounds:
    """Paces the ``ingest_subscribe`` reader by the writer's appends.

    The writer grants the reader a fixed number of requests per round and
    ends the round only when they were all answered, so what a round's reads
    find in the caches is fixed by the workload — not by how long an append
    happens to take.
    """

    def __init__(self) -> None:
        self._granted = threading.Semaphore(0)
        self._answered = threading.Semaphore(0)

    def grant(self, requests: int) -> None:
        self._granted.release(requests)

    def take(self) -> None:
        """Reader, before each request."""
        self._granted.acquire()

    def answered(self) -> None:
        """Reader, after each request."""
        self._answered.release()

    def wait(self, requests: int) -> None:
        """Writer, at the end of a round that granted ``requests``."""
        for _ in range(requests):
            if not self._answered.acquire(timeout=30.0):
                raise RuntimeError("the reader did not finish its round")


# ------------------------------------------------------------------ responses
def answers_slice(body: bytes) -> bytes:
    """The ``"answers": [...]`` bytes of a ``/v1/query`` response.

    The server renders with sorted keys, so the answers sit between the
    ``"answers"`` key and the ``"cached"`` key; everything else in the body
    (wall time, cache provenance) legitimately differs between repeats.
    """
    start = body.find(b'"answers": ')
    end = body.find(b', "cached"', start)
    if start < 0 or end < 0:
        raise ValueError("response has no result.answers section")
    return body[start:end]


def generation_of(body: bytes) -> int:
    """The generation a ``/v1/query`` response was computed at."""
    match = re.match(rb'\{"generation": (\d+)', body)
    if match is None:
        raise ValueError("response does not start with its generation")
    return int(match.group(1))


class ReadLoop:
    """A closed-loop reader: walks its operation list until told to stop.

    Records one ``(string index, latency seconds)`` sample per request, counts
    non-200 replies, and checks inside the loop that every response for one
    canonical query at one generation has byte-identical answers.
    """

    def __init__(
        self,
        connection: Connection,
        bodies: list[bytes],
        canonical: list[int],
        ops: Iterable[int],
        first_answers: dict[tuple[int, int], bytes],
    ) -> None:
        self._connection = connection
        self._bodies = bodies
        self._canonical = canonical
        self._ops = ops
        self._first = first_answers
        self.samples: list[tuple[int, float]] = []
        self.failed = 0
        self.exhausted = False
        self.last_body: dict[int, bytes] = {}
        self.error: BaseException | None = None

    def run(
        self, stop: threading.Event, keep: frozenset[int] = frozenset(),
        rounds: Rounds | None = None,
    ) -> None:
        """``keep``: string indices whose latest response body is retained;
        ``rounds``: the writer that hands this reader its requests, if any."""
        post, bodies, canonical = self._connection.post, self._bodies, self._canonical
        first, samples, clock = self._first, self.samples, time.perf_counter
        try:
            for op in self._ops:
                if rounds is not None:
                    rounds.take()
                if stop.is_set():
                    return
                started = clock()
                status, body = post("/v1/query", bodies[op])
                samples.append((op, clock() - started))
                if rounds is not None:
                    rounds.answered()
                if status != 200:
                    self.failed += 1
                    continue
                answers = answers_slice(body)
                key = (canonical[op], generation_of(body))
                if first.setdefault(key, answers) != answers:
                    self.failed += 1
                if op in keep:
                    self.last_body[op] = body
            self.exhausted = True
        except BaseException as exc:  # re-raised by the thread's joiner
            self.error = exc
