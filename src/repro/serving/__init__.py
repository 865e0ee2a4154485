"""Persistent, cache-aware query serving on top of the MV-index engine.

This package turns the paper's offline/online split into an operational
serving story:

* :mod:`repro.serving.artifact` — persist the offline pipeline products
  (translated INDB, variable order, lineage of ``W``, compiled MV-index with
  its OBDD node tables) to disk and cold-start engines from the saved
  artifact instead of recompiling;
* :mod:`repro.serving.canonical` — canonical cache keys for UCQs, so
  re-phrased queries share cache entries;
* :mod:`repro.serving.session` — a thread-safe :class:`QuerySession` with
  LRU result/lineage caches, prepared-query handles, and a batch API that
  shares one relational evaluation pass across many queries;
* :mod:`repro.serving.dispatch` — admission control (bounded queue →
  429), one shared session answering each query on its caller's thread,
  coalescing of identical in-flight queries, a raw-text cache tier, and
  the serving metrics registry;
* :mod:`repro.serving.server` — the stdlib-only JSON-over-HTTP server
  (``python -m repro serve``; see ``docs/serving.md``).

Import from the submodules; client code reaches the session and the
artifact functions through the facade (:func:`repro.connect`,
:meth:`repro.ProbDB.save`, :func:`repro.open`).
"""
