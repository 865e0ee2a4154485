"""Persistence of the offline pipeline products (the MV-index artifact).

The whole point of the paper's architecture is that the expensive work —
translating the MVDB into an INDB (Theorem 1), computing the lineage of the
view query ``W``, and compiling it into an MV-index — happens *offline* so
that online queries are fast.  This module makes the offline/online split
real across process boundaries: :func:`save_engine` serializes every product
a query-serving engine needs into a single JSON document (optionally
gzip-compressed), and :func:`load_engine` rebuilds a fully functional
:class:`~repro.core.engine.MVQueryEngine` from it without re-running any of
the offline pipeline.

The artifact stores:

* the translated INDB — every relation's schema, the deterministic rows, and
  every probabilistic tuple with its weight and its Boolean variable id;
* the variable order Π of the index;
* the lineage of ``W`` as a sorted list of sorted clauses;
* the MV-index: the OBDD node tables (children-first, stable ids — see
  :meth:`repro.obdd.manager.ObddManager.export_nodes`) and each component's
  key, root and tuple variables.

Restoration is *bit-identical*: variable ids, node ids, component order and
therefore every floating-point annotation and query probability match the
engine that was saved (``tests/test_serving.py`` asserts exact equality).

The document is written by Python's :mod:`json` with its default
``allow_nan=True``, because certain tuples carry weight ``+Infinity``; read
it back with Python rather than a strict JSON parser.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any, Mapping

import repro
from repro.core.engine import MVQueryEngine
from repro.errors import ArtifactError, ReproError
from repro.indb.database import TupleIndependentDatabase
from repro.lineage.dnf import DNF
from repro.mvindex.index import MVIndex
from repro.mvindex.summaries import SummaryStore
from repro.obdd.order import VariableOrder

#: Identifier written into (and required from) every artifact document.
ARTIFACT_FORMAT = "repro-mv-index"
#: Version of the artifact layout; bumped on incompatible changes.  The
#: library restores exactly the version it writes.
ARTIFACT_VERSION = 2


def engine_state(engine: MVQueryEngine) -> dict[str, Any]:
    """Serialize an engine's offline products into JSON-compatible data.

    The source MVDB is *not* stored — online query answering only needs the
    translated products.  Engines built with ``build_index=False`` are
    supported; their state simply carries ``index: None``.
    """
    indb = engine.indb
    relations = []
    for table in indb.database:
        name = table.name
        entry: dict[str, Any] = {
            "name": name,
            "attributes": list(table.schema.attribute_names),
            "probabilistic": indb.is_probabilistic(name),
        }
        if not entry["probabilistic"]:
            entry["rows"] = [list(row) for row in table.rows()]
        relations.append(entry)
    # Restoring in increasing variable order reproduces the original ids,
    # because the INDB hands them out sequentially from zero.
    tuples = sorted(
        ([relation, list(row), weight, variable]
         for relation, row, weight, variable in indb.probabilistic_tuples()),
        key=lambda item: item[3],
    )
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "library_version": repro.__version__,
        "construction": engine.construction,
        "relations": relations,
        "tuples": tuples,
        "order": engine.order.variables(),
        "w_lineage": sorted(sorted(clause) for clause in engine.w_lineage.clauses),
        "index": engine.mv_index.export_state() if engine.mv_index is not None else None,
        "summaries": (
            engine.summaries.export_state() if engine.summaries is not None else None
        ),
    }


def engine_from_state(state: Mapping[str, Any]) -> MVQueryEngine:
    """Rebuild a query-serving engine from :func:`engine_state` output."""
    if state.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"not an MV-index artifact: format {state.get('format')!r} "
            f"(expected {ARTIFACT_FORMAT!r})"
        )
    if state.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {state.get('version')!r} "
            f"(this library reads version {ARTIFACT_VERSION})"
        )
    try:
        return _restore_engine(state)
    except ReproError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        # A well-versioned but structurally mangled document (missing keys,
        # out-of-range node ids, wrong shapes) must surface as a corrupt
        # artifact, not as a raw traceback.
        raise ArtifactError(
            f"corrupt MV-index artifact: {type(exc).__name__}: {exc}"
        ) from exc


def _restore_engine(state: Mapping[str, Any]) -> MVQueryEngine:
    indb = TupleIndependentDatabase()
    for relation in state["relations"]:
        if relation["probabilistic"]:
            indb.add_probabilistic_table(relation["name"], relation["attributes"])
        else:
            indb.add_deterministic_table(
                relation["name"],
                relation["attributes"],
                [tuple(row) for row in relation["rows"]],
            )
    for name, row, weight, variable in state["tuples"]:
        assigned = indb.add_probabilistic_tuple(name, tuple(row), weight)
        if assigned != variable:
            raise ArtifactError(
                f"corrupt artifact: tuple {name}{tuple(row)} restored as variable "
                f"{assigned}, expected {variable}"
            )

    order = VariableOrder(state["order"])
    clauses = state["w_lineage"]
    w_lineage = DNF(clauses) if clauses else DNF.false()
    mv_index = None
    if state["index"] is not None:
        mv_index = MVIndex.from_state(
            state["index"],
            indb.probabilities(),
            order,
            construction=state.get("construction", "concat"),
        )
    summaries = None
    if mv_index is not None and state["summaries"] is not None:
        summaries = SummaryStore.from_state(state["summaries"])
    return MVQueryEngine.from_parts(
        indb,
        w_lineage,
        order,
        mv_index=mv_index,
        construction=state.get("construction", "concat"),
        summaries=summaries,
    )


def save_engine(engine: MVQueryEngine, path: str | Path) -> Path:
    """Write an engine's offline products to ``path`` and return the path.

    Paths ending in ``.gz`` are gzip-compressed (the node tables compress
    extremely well).  The parent directory is created if needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(engine_state(engine), separators=(",", ":"))
    if path.suffix == ".gz":
        # mtime=0 and an empty FNAME header field keep the artifact bytes a
        # pure function of the engine state: identical engines produce
        # identical artifacts regardless of when or under what file name
        # they are saved (the parallel-build equivalence test relies on it).
        with path.open("wb") as raw:
            with gzip.GzipFile(
                filename="", fileobj=raw, mode="wb", mtime=0
            ) as handle:
                handle.write(payload.encode("utf-8"))
    else:
        path.write_text(payload, encoding="utf-8")
    return path


def load_engine(path: str | Path) -> MVQueryEngine:
    """Load an engine from an artifact previously written by :func:`save_engine`."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"no MV-index artifact at {path}")
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                state = json.load(handle)
        else:
            with path.open("rt", encoding="utf-8") as handle:
                state = json.load(handle)
    except (OSError, EOFError, ValueError) as exc:
        # gzip reports truncated streams as EOFError, malformed JSON as
        # ValueError; both mean the artifact on disk is unusable.
        raise ArtifactError(f"cannot read MV-index artifact {path}: {exc}") from exc
    return engine_from_state(state)
