"""Pluggable storage backends for the relational substrate.

A :class:`StorageBackend` owns the physical representation of a
:class:`~repro.db.database.Database`'s tables.  Two implementations ship
with the library:

* ``memory`` — the reference backend: :class:`~repro.db.table.Table`
  objects holding Python dict/tuple rows with lazily-built hash indexes
  (fast for small instances, the semantics baseline for everything else);
* ``sqlite`` — a disk-backed backend (:mod:`repro.db.sqlite_backend`) that
  stores each relation in a SQLite file opened in WAL mode with
  ``synchronous=NORMAL``, which is what lets the DBLP generator and the
  query evaluator scale to million-tuple MVDBs without exhausting memory.

Backends are selected by *spec*: the strings ``"memory"`` and ``"sqlite"``,
``"sqlite:<path>"`` for a sqlite file at an explicit location, an existing
backend instance, or ``None`` for the default (memory).  Every component
that creates a :class:`~repro.db.database.Database` — ``repro.connect``,
the CLI, CSV ingest and the DBLP generator — accepts such a spec through
its ``backend=`` parameter.

Table objects returned by :meth:`StorageBackend.create_table` implement the
informal relation protocol of :class:`~repro.db.table.Table`: ``insert`` /
``insert_many`` / ``delete`` / ``__contains__`` / ``__iter__`` / ``__len__``
/ ``rows`` / ``scan`` / ``lookup`` / ``distinct_count`` / ``active_domain`` plus
the ``schema`` and ``name`` attributes.  The query evaluator and every
layer above it only ever speak this protocol, so backends are freely
interchangeable — the differential harness in ``tests/test_differential.py``
asserts bit-identical probabilities across them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.db.schema import RelationSchema
    from repro.db.table import Table

#: Specs accepted wherever a backend may be chosen.
BackendSpec = "str | StorageBackend | None"

#: Names of the built-in backends (the valid string specs, plus
#: ``"sqlite:<path>"`` for an explicitly-located sqlite file).
BACKEND_NAMES = ("memory", "sqlite")


@runtime_checkable
class StorageBackend(Protocol):
    """The storage layer behind a :class:`~repro.db.database.Database`.

    A backend is a factory for relation instances plus lifecycle hooks.
    It is *not* shared between databases: each database owns one backend
    instance (relation names are unique per backend).
    """

    #: Short backend name (``"memory"`` or ``"sqlite"``).
    name: str

    def create_table(  # pragma: no cover - protocol stub
        self, schema: "RelationSchema", rows: Iterable[Sequence[Any]] = ()
    ) -> Any:
        """Create an empty relation for ``schema`` and bulk-load ``rows``."""
        ...  # pragma: no cover - protocol

    def spawn(self) -> "StorageBackend":  # pragma: no cover - protocol stub
        """A fresh sibling backend of the same kind (for copies/migrations)."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:  # pragma: no cover - protocol stub
        """Release any resources (files, connections) held by the backend."""
        ...  # pragma: no cover - protocol


class MemoryBackend:
    """The reference backend: plain in-memory :class:`~repro.db.table.Table`."""

    name = "memory"

    def create_table(
        self, schema: "RelationSchema", rows: Iterable[Sequence[Any]] = ()
    ) -> "Table":
        from repro.db.table import Table

        return Table(schema, rows)

    def spawn(self) -> "MemoryBackend":
        return MemoryBackend()

    def close(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MemoryBackend()"


def resolve_backend(spec: Any = None) -> StorageBackend:
    """Turn a backend *spec* into a backend instance.

    ``None`` and ``"memory"`` yield a fresh :class:`MemoryBackend`;
    ``"sqlite"`` a temp-file-backed :class:`~repro.db.sqlite_backend.SqliteBackend`;
    ``"sqlite:<path>"`` a sqlite backend at an explicit path.  An existing
    backend instance passes through unchanged.

    Raises
    ------
    SchemaError
        If the spec names no known backend.
    """
    if spec is None or spec == "memory":
        return MemoryBackend()
    if isinstance(spec, str):
        if spec == "sqlite":
            from repro.db.sqlite_backend import SqliteBackend

            return SqliteBackend()
        if spec.startswith("sqlite:"):
            from repro.db.sqlite_backend import SqliteBackend

            path = spec[len("sqlite:") :]
            if not path:
                raise SchemaError("empty path in sqlite backend spec 'sqlite:'")
            return SqliteBackend(path)
        raise SchemaError(
            f"unknown storage backend {spec!r}; choose from {', '.join(BACKEND_NAMES)} "
            "or 'sqlite:<path>'"
        )
    if isinstance(spec, StorageBackend):
        return spec
    raise SchemaError(f"not a storage backend spec: {spec!r}")
