"""Disk-backed storage: one SQLite file per database, WAL mode.

The ``sqlite`` backend stores every relation of a
:class:`~repro.db.database.Database` as a table in a single SQLite file.
It exists to break the toy-scale ceiling of the in-memory dict tables: a
million-tuple synthetic DBLP instance does not fit comfortably in Python
dicts, but is a small SQLite file.

Physical design:

* the connection runs in **WAL mode** with ``synchronous=NORMAL`` — readers
  never block the writer and commits need no fsync-per-transaction, the
  recipe for concurrent serving traffic over a live ingest stream — and an
  explicit ``busy_timeout``, so a second connection to the same file waits
  for a lock instead of failing with ``database is locked``;
* columns are declared **without type affinity**, so SQLite preserves the
  storage class of every value (ints stay ints, floats stay floats, text
  stays text) and round trips are exact;
* set semantics are enforced by a **unique index over all columns**
  (``INSERT OR IGNORE`` implements the reference backend's duplicate
  handling), and every relation gets a **covering index on its schema
  key** (key columns first, then the rest) so key lookups are pure index
  scans;
* additional per-position-set indexes are created **lazily on first
  lookup**, mirroring the memory backend's lazily-built hash indexes;
* ``rows()`` / ``__iter__`` order by ``rowid``, which is insertion order —
  the same stable order the memory backend guarantees, and the property
  that keeps tuple-variable assignment (and therefore OBDD variable
  orders and probabilities) bit-identical across backends.

Supported cell values are ``int``, ``float``, ``str``, ``bool`` and
``None``; anything else raises :class:`~repro.errors.SchemaError` rather
than being silently pickled.  (Note that ``True``/``False`` are stored as
integers — exactly how Python dict keys already collapse ``True`` and
``1``.)
"""

from __future__ import annotations

import sqlite3
import tempfile
import threading
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.db.schema import RelationSchema
from repro.db.table import Row
from repro.errors import SchemaError

#: Cell types a sqlite-backed relation accepts.
SUPPORTED_TYPES = (int, float, str, bool, type(None))

#: Rows fetched per lock acquisition while streaming a scan.
SCAN_BATCH = 4096

#: How long a statement waits on a lock another connection to the same file
#: holds before it fails with ``database is locked``.  Set as a pragma so it
#: does not depend on the driver's connect-time default (5 s in ``sqlite3``).
BUSY_TIMEOUT_MS = 30_000


def _quote(identifier: str) -> str:
    """Quote an SQL identifier (relation names may be arbitrary strings)."""
    return '"' + identifier.replace('"', '""') + '"'


class SqliteBackend:
    """A storage backend keeping all relations in one SQLite file.

    Parameters
    ----------
    path:
        Database file.  When omitted, a temporary file is created and
        removed again by :meth:`close` (the backend is then purely a
        spill area, not a persistence mechanism).
    """

    name = "sqlite"

    def __init__(self, path: str | Path | None = None) -> None:
        if path is None:
            handle = tempfile.NamedTemporaryFile(
                prefix="repro-db-", suffix=".sqlite", delete=False
            )
            handle.close()
            self.path = Path(handle.name)
            self._ephemeral = True
        else:
            self.path = Path(path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._ephemeral = False
        self._connection: sqlite3.Connection | None = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None
        )
        #: One lock serializes all statements: the sqlite3 module's own
        #: serialized mode protects the connection object, but batched
        #: fetches and multi-statement transactions need exclusion too.
        self.lock = threading.RLock()
        cursor = self._connection.cursor()
        cursor.execute("PRAGMA journal_mode=WAL")
        cursor.execute("PRAGMA synchronous=NORMAL")
        cursor.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        cursor.execute("PRAGMA temp_store=MEMORY")
        cursor.execute("PRAGMA cache_size=-65536")  # 64 MiB page cache

    # -------------------------------------------------------------- lifecycle
    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection; raises once the backend is closed."""
        if self._connection is None:
            raise SchemaError(f"sqlite backend at {self.path} is closed")
        return self._connection

    def spawn(self) -> "SqliteBackend":
        """A fresh sibling backend in its own (temporary) file."""
        return SqliteBackend()

    def close(self) -> None:
        """Close the connection; ephemeral files are deleted."""
        if self._connection is None:
            return
        with self.lock:
            self._connection.close()
            self._connection = None
        if self._ephemeral:
            for suffix in ("", "-wal", "-shm"):
                Path(str(self.path) + suffix).unlink(missing_ok=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ----------------------------------------------------------------- tables
    def create_table(
        self, schema: RelationSchema, rows: Iterable[Sequence[Any]] = ()
    ) -> "SqliteTable":
        table = SqliteTable(schema, self)
        table.insert_many(rows)
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteBackend({str(self.path)!r})"


class SqliteTable:
    """One relation stored in a :class:`SqliteBackend` file.

    Implements the same relation protocol as the in-memory
    :class:`~repro.db.table.Table` (insert/delete/lookup/scan/rows/...),
    so the query evaluator and everything above it cannot tell the two
    apart — except by memory footprint.
    """

    def __init__(self, schema: RelationSchema, backend: SqliteBackend) -> None:
        self.schema = schema
        self.backend = backend
        self._sql_name = _quote(schema.name)
        self._columns = [f"c{i}" for i in range(schema.arity)]
        self._indexed: set[tuple[int, ...]] = set()
        self._count = 0
        self._distinct: dict[int, int] = {}  # position -> distinct values
        column_list = ", ".join(self._columns)
        with backend.lock:
            cursor = backend.connection.cursor()
            cursor.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
                (schema.name,),
            )
            if cursor.fetchone() is not None:
                raise SchemaError(
                    f"sqlite file {backend.path} already holds relation {schema.name!r}; "
                    "give a path that no earlier run has filled"
                )
            cursor.execute(f"CREATE TABLE {self._sql_name} ({column_list})")
            # Set semantics: the unique index over all columns is what makes
            # INSERT OR IGNORE equivalent to the memory backend's dict-of-rows.
            cursor.execute(
                f"CREATE UNIQUE INDEX {_quote(schema.name + '!rows')} "
                f"ON {self._sql_name} ({column_list})"
            )
            key_positions = schema.key_positions()
            if key_positions != tuple(range(schema.arity)):
                # Covering index on the relation key: key columns first, then
                # every remaining column, so key lookups never touch the heap.
                rest = [i for i in range(schema.arity) if i not in key_positions]
                covering = ", ".join(f"c{i}" for i in (*key_positions, *rest))
                cursor.execute(
                    f"CREATE INDEX {_quote(schema.name + '!key')} "
                    f"ON {self._sql_name} ({covering})"
                )
                self._indexed.add(tuple(sorted(key_positions)))
        self._insert_sql = (
            f"INSERT OR IGNORE INTO {self._sql_name} ({column_list}) "
            f"VALUES ({', '.join('?' for __ in self._columns)})"
        )

    # ------------------------------------------------------------------- CRUD
    def check_row(self, row: Sequence[Any]) -> Row:
        """The row as this table stores it; :class:`SchemaError` if it cannot be."""
        row_tuple = tuple(row)
        if len(row_tuple) != self.schema.arity:
            raise SchemaError(
                f"row {row_tuple!r} has arity {len(row_tuple)}, expected "
                f"{self.schema.arity} for {self.schema.name!r}"
            )
        for value in row_tuple:
            if not isinstance(value, SUPPORTED_TYPES):
                raise SchemaError(
                    f"value {value!r} of type {type(value).__name__} is not "
                    f"storable in the sqlite backend (use int/float/str)"
                )
        return row_tuple

    def insert(self, row: Sequence[Any]) -> bool:
        """Insert a row; return ``True`` if it was not already present."""
        row_tuple = self.check_row(row)
        with self.backend.lock:
            cursor = self.backend.connection.execute(self._insert_sql, row_tuple)
            inserted = cursor.rowcount > 0
        if inserted:
            self._count += 1
            self._distinct.clear()
        return inserted

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert inside one transaction; return the number of new rows."""
        checked = [self.check_row(row) for row in rows]
        if not checked:
            return 0
        connection = self.backend.connection
        with self.backend.lock:
            before = connection.total_changes
            connection.execute("BEGIN")
            try:
                connection.executemany(self._insert_sql, checked)
                connection.execute("COMMIT")
            except BaseException:
                connection.execute("ROLLBACK")
                raise
            added = connection.total_changes - before
        self._count += added
        if added:
            self._distinct.clear()
        return added

    def delete(self, row: Sequence[Any]) -> bool:
        """Delete a row; return ``True`` if it was present."""
        row_tuple = tuple(row)
        if len(row_tuple) != self.schema.arity:
            return False
        where = " AND ".join(f"{c} IS ?" for c in self._columns)
        with self.backend.lock:
            cursor = self.backend.connection.execute(
                f"DELETE FROM {self._sql_name} WHERE {where}", row_tuple
            )
            deleted = cursor.rowcount > 0
        if deleted:
            self._count -= 1
            self._distinct.clear()
        return deleted

    def __contains__(self, row: Sequence[Any]) -> bool:
        row_tuple = tuple(row)
        if len(row_tuple) != self.schema.arity:
            return False
        where = " AND ".join(f"{c} IS ?" for c in self._columns)
        with self.backend.lock:
            cursor = self.backend.connection.execute(
                f"SELECT 1 FROM {self._sql_name} WHERE {where} LIMIT 1", row_tuple
            )
            return cursor.fetchone() is not None

    def __iter__(self) -> Iterator[Row]:
        return self.scan({})

    def __len__(self) -> int:
        return self._count

    @property
    def name(self) -> str:
        """Relation name (from the schema)."""
        return self.schema.name

    def rows(self) -> list[Row]:
        """All rows as a list, in insertion (rowid) order."""
        with self.backend.lock:
            cursor = self.backend.connection.execute(
                f"SELECT * FROM {self._sql_name} ORDER BY rowid"
            )
            return cursor.fetchall()

    def distinct_count(self, position: int) -> int:
        """Number of distinct values in one column (join-order statistics).

        Memoised per column until the next insert or delete that changes a
        row, so the planner's repeated lookups issue no SQL.
        """
        count = self._distinct.get(position)
        if count is None:
            # COUNT(DISTINCT c) skips NULLs; the subselect counts NULL as one
            # value, exactly like the memory backend's set-of-values count.
            with self.backend.lock:
                cursor = self.backend.connection.execute(
                    f"SELECT COUNT(*) FROM (SELECT DISTINCT c{position} FROM {self._sql_name})"
                )
                count = self._distinct[position] = cursor.fetchone()[0]
        return count

    # ---------------------------------------------------------------- lookups
    def _where(self, positions: Sequence[int]) -> str:
        return " AND ".join(f"c{p} = ?" for p in positions)

    def ensure_index(self, positions: tuple[int, ...]) -> None:
        """Create an index over the given attribute positions if missing.

        Mirrors the memory backend's lazily-built hash indexes: the first
        lookup on a position set pays the build, later lookups are index
        scans.
        """
        positions = tuple(sorted(positions))
        if not positions or positions in self._indexed:
            return
        column_list = ", ".join(f"c{p}" for p in positions)
        suffix = "!" + "_".join(map(str, positions))
        with self.backend.lock:
            self.backend.connection.execute(
                f"CREATE INDEX IF NOT EXISTS {_quote(self.schema.name + suffix)} "
                f"ON {self._sql_name} ({column_list})"
            )
        self._indexed.add(positions)

    def lookup(self, bindings: dict[int, Any]) -> list[Row]:
        """Rows whose value at each bound position equals the bound value."""
        if not bindings:
            return self.rows()
        positions = tuple(sorted(bindings))
        self.ensure_index(positions)
        values = tuple(bindings[p] for p in positions)
        with self.backend.lock:
            cursor = self.backend.connection.execute(
                f"SELECT * FROM {self._sql_name} WHERE {self._where(positions)} "
                "ORDER BY rowid",
                values,
            )
            return cursor.fetchall()

    def scan(self, bindings: dict[int, Any] | None = None) -> Iterator[Row]:
        """Stream rows matching ``bindings`` in batches (constant memory)."""
        bindings = bindings or {}
        positions = tuple(sorted(bindings))
        sql = f"SELECT * FROM {self._sql_name}"
        values: tuple[Any, ...] = ()
        if positions:
            self.ensure_index(positions)
            sql += f" WHERE {self._where(positions)}"
            values = tuple(bindings[p] for p in positions)
        sql += " ORDER BY rowid"
        with self.backend.lock:
            cursor = self.backend.connection.execute(sql, values)
            batch = cursor.fetchmany(SCAN_BATCH)
        while batch:
            yield from batch
            with self.backend.lock:
                batch = cursor.fetchmany(SCAN_BATCH)

    def active_domain(self) -> set[Any]:
        """All constants appearing anywhere in the table."""
        values: set[Any] = set()
        for row in self.scan({}):
            values.update(row)
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteTable({self.schema.name}, {len(self)} rows)"
