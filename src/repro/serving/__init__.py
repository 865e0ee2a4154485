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
  429), per-worker session affinity, coalescing of identical in-flight
  queries, a raw-text cache tier, and the serving metrics registry;
* :mod:`repro.serving.server` — the stdlib-only JSON-over-HTTP server
  (``python -m repro serve``; see ``docs/serving.md``).

.. deprecated::
    Package-level re-exports from ``repro.serving`` (``QuerySession``,
    ``load_engine``, ``save_engine``, ...) are deprecated in favour of the
    unified facade: :func:`repro.connect` builds a cached client,
    :meth:`repro.ProbDB.save` / :func:`repro.open` replace
    ``save_engine`` / ``load_engine``.  The submodules themselves remain
    importable without a warning.
"""

from __future__ import annotations

import importlib
import warnings

#: Deprecated package-level names: source module and blessed replacement.
_DEPRECATED = {
    "ARTIFACT_FORMAT": ("repro.serving.artifact", "repro.serving.artifact.ARTIFACT_FORMAT"),
    "ARTIFACT_VERSION": ("repro.serving.artifact", "repro.serving.artifact.ARTIFACT_VERSION"),
    "DEFAULT_CACHE_SIZE": (
        "repro.serving.session",
        "repro.serving.session.DEFAULT_CACHE_SIZE",
    ),
    "PreparedQuery": ("repro.serving.session", "repro.ProbDB.prepare()"),
    "QuerySession": ("repro.serving.session", "repro.connect() (ProbDB.session)"),
    "SessionStatistics": ("repro.serving.session", "repro.ProbDB.stats()"),
    "canonical_cq_key": ("repro.serving.canonical", "repro.serving.canonical.canonical_cq_key"),
    "canonical_key": ("repro.serving.canonical", "repro.serving.canonical.canonical_key"),
    "engine_from_state": ("repro.serving.artifact", "repro.serving.artifact.engine_from_state"),
    "engine_state": ("repro.serving.artifact", "repro.serving.artifact.engine_state"),
    "load_engine": ("repro.serving.artifact", "repro.open()"),
    "save_engine": ("repro.serving.artifact", "repro.ProbDB.save()"),
}

__all__ = sorted(_DEPRECATED)


def __getattr__(name: str):
    try:
        module_name, replacement = _DEPRECATED[name]
    except KeyError:
        raise AttributeError(f"module 'repro.serving' has no attribute {name!r}") from None
    warnings.warn(
        f"importing {name!r} from 'repro.serving' is deprecated; "
        f"use {replacement} (see docs/api.md)",
        DeprecationWarning,
        stacklevel=2,
    )
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_DEPRECATED))
