"""The one binding table for layer entry points, and the outside-in tracer.

The untraced benchmark drives the program only through its front door
(``repro.connect``, ``ProbDB.query``, ``python -m repro serve`` ...).  The
traced run additionally needs to know *where each layer begins*: which
module namespace binds ``evaluate_cq`` for the serving session, which class
attribute holds the CC-MVIntersect kernel, and so on.  Every such fact lives
in :data:`BINDINGS` below and nowhere else, so a refactor that moves or
renames an entry point breaks one line of this table — it yields ``null``
for that layer's metrics, with the reason printed — and never the gated
end-to-end runs, which do not import this table's targets at all.

A span carries name, start, end, parent and a per-request id; a layer's self
time is its span minus the part its children cover.  Spans are kept in
memory and only written out (``--out``) when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Attribute lookups that mean "this entry point is not where the table says".
_MISSING = (ImportError, AttributeError)


@dataclass(frozen=True)
class Binding:
    """One place where the program binds a layer's public entry point.

    ``module`` is imported and ``attr`` (a dotted path inside it) is the
    name the *caller* resolves at call time — the patch site.  Several
    bindings may share a ``span`` when one entry point is bound in several
    namespaces (``parse_query`` is imported by both the client facade and
    the dispatcher).
    """

    span: str
    module: str
    attr: str


BINDINGS: tuple[Binding, ...] = (
    # ---- offline pipeline (repro.dblp.build_mvdb, repro.connect, ProbDB.warm/save)
    Binding("dblp.generate", "repro.dblp.workload", "generate_dblp"),
    Binding("core.translate", "repro.core.engine", "translate"),
    Binding("indb.w_lineage", "repro.indb.database", "TupleIndependentDatabase.lineage_of"),
    Binding("mvindex.build", "repro.mvindex.index", "MVIndex.__init__"),
    Binding("mvindex.summaries.build", "repro.mvindex.summaries", "SummaryStore.from_index"),
    Binding("mvindex.flat_prewarm", "repro.serving.session", "prewarm_flat_encodings"),
    Binding("serving.artifact.save", "repro.client", "save_engine"),
    Binding("serving.artifact.load", "repro.client", "load_engine"),
    # ---- online query path (ProbDB.query -> QuerySession.execute -> method)
    Binding("query.parse", "repro.client", "parse_query"),
    Binding("query.parse", "repro.serving.dispatch", "parse_query"),
    Binding("serving.canonical.key", "repro.serving.session", "canonical_key"),
    Binding("serving.canonical.key", "repro.serving.dispatch", "canonical_key"),
    Binding("mvindex.summaries.analyze", "repro.core.engine", "MVQueryEngine.skip_analysis"),
    Binding("query.evaluator.lineage", "repro.serving.session", "evaluate_cq"),
    Binding("query.evaluator.lineage", "repro.core.engine", "evaluate_ucq"),
    Binding("methods.probability", "repro.methods", "MvIndexMethod.probability"),
    Binding("mvindex.intersect", "repro.methods", "MvIndexMethod._intersect"),
    Binding("obdd.compile", "repro.mvindex.cc_intersect", "compile_query_obdd"),
    Binding("mvindex.touched_factor", "repro.mvindex.index", "MVIndex.touched_factor_of"),
    Binding("results.to_json", "repro.results", "QueryResult.to_json"),
    # ---- write path (Dispatcher itself is reached through DISPATCHER)
    Binding("serving.dispatch.append", "repro.serving.dispatch", "Dispatcher.append_facts"),
    Binding("core.prepare_append", "repro.core.engine", "MVQueryEngine.prepare_append"),
    Binding("core.apply_pending", "repro.core.engine", "MVQueryEngine.apply_pending"),
)

#: The one program class the traced run instantiates itself (not a span).
DISPATCHER = ("repro.serving.dispatch", "Dispatcher")


def _walk(module_name: str, attr: str) -> tuple[Any, str]:
    """The object owning the last component of ``attr`` and that component."""
    owner: Any = importlib.import_module(module_name)
    *parents, leaf = attr.split(".")
    for part in parents:
        owner = getattr(owner, part)
    inspect.getattr_static(owner, leaf)  # raises AttributeError when absent
    return owner, leaf


def dispatcher_class() -> Any:
    """``Dispatcher``, or ``None`` when it has moved."""
    try:
        owner, leaf = _walk(*DISPATCHER)
    except _MISSING:
        return None
    return getattr(owner, leaf)


def read_attr(obj: Any, path: str) -> Any:
    """``obj.a.b.c`` or ``None``: counters read off program objects."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: int


class Tracer:
    """In-memory span recorder wrapped around the entry points of BINDINGS."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: span name -> reason, for bindings that did not resolve.
        self.unavailable: dict[str, str] = {}
        self._installed: list[tuple[Any, str, Any, bool]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request = 0

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._request)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def request(self, name: str = "request") -> "_SpanContext":
        """A root span; everything recorded inside shares a fresh request id."""
        self._request += 1
        return _SpanContext(self, name)

    def _wrap(self, span: str, function: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(span)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    # ------------------------------------------------------------ patching
    def install(self, prefixes: tuple[str, ...] = ("",)) -> None:
        """Wrap every binding whose span starts with one of ``prefixes``."""
        for binding in BINDINGS:
            if not binding.span.startswith(prefixes):
                continue
            try:
                owner, leaf = _walk(binding.module, binding.attr)
            except _MISSING as exc:
                self.unavailable[binding.span] = (
                    f"{binding.module}:{binding.attr} not found ({exc})"
                )
                continue
            own = leaf in vars(owner)
            raw = inspect.getattr_static(owner, leaf)
            if isinstance(raw, staticmethod):
                patched: Any = staticmethod(self._wrap(binding.span, raw.__func__))
            elif isinstance(raw, classmethod):
                patched = classmethod(self._wrap(binding.span, raw.__func__))
            else:
                patched = self._wrap(binding.span, raw)
            setattr(owner, leaf, patched)
            self._installed.append((owner, leaf, raw, own))

    def uninstall(self) -> None:
        """Restore every patched site (inherited attributes are deleted)."""
        for owner, leaf, raw, own in reversed(self._installed):
            if own:
                setattr(owner, leaf, raw)
            else:
                delattr(owner, leaf)
        self._installed.clear()

    # ------------------------------------------------------------- reporting
    def totals(self, since: int = 0) -> dict[str, tuple[float, float, int]]:
        """span name -> (total seconds, self seconds, count), from span ``since`` on."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans[since:]:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, tuple[float, float, int]] = {}
        for index in range(since, len(self.spans)):
            span = self.spans[index]
            duration = span.end - span.start
            total, own, count = out.get(span.name, (0.0, 0.0, 0))
            out[span.name] = (total + duration, own + duration - child_time[index], count + 1)
        return out

    def top_level_seconds(self, root: str = "request") -> float:
        """Sum of the layer spans that are direct children of a root span."""
        return sum(
            span.end - span.start
            for span in self.spans
            if span.parent >= 0 and self.spans[span.parent].name == root
        )

    def dump(self) -> Iterator[dict[str, Any]]:
        for index, span in enumerate(self.spans):
            yield {
                "id": index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "request": span.request,
            }


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._index = self._tracer._open(self._name)

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._close(self._index)
