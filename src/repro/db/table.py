"""In-memory tables with hash indexes.

A :class:`Table` stores a *set* of rows (tuples of Python values) under a
:class:`~repro.db.schema.RelationSchema`.  Lookups by equality on any subset
of attributes are served by lazily-built hash indexes, which is what the
query evaluator uses to run the index-nested-loop joins behind conjunctive
queries and MarkoView materialisation.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.db.schema import RelationSchema
from repro.errors import SchemaError

Row = tuple[Any, ...]


class Table:
    """A deterministic relation instance: a set of rows plus indexes.

    Parameters
    ----------
    schema:
        The relation schema.
    rows:
        Optional initial rows.
    validate:
        When true, every inserted row is type-checked against the schema.
    """

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Sequence[Any]] = (),
        validate: bool = False,
    ) -> None:
        self.schema = schema
        self._validate = validate
        self._rows: dict[Row, None] = {}
        self._indexes: dict[tuple[int, ...], dict[tuple[Any, ...], list[Row]]] = {}
        self._distinct: dict[int, int] = {}  # position -> distinct values
        for row in rows:
            self.insert(row)

    # ------------------------------------------------------------------ CRUD
    def check_row(self, row: Sequence[Any]) -> Row:
        """The row as this table stores it; :class:`SchemaError` if it cannot be."""
        if self._validate:
            return self.schema.validate_row(row)
        row_tuple = tuple(row)
        if len(row_tuple) != self.schema.arity:
            raise SchemaError(
                f"row {row_tuple!r} has arity {len(row_tuple)}, expected "
                f"{self.schema.arity} for {self.schema.name!r}"
            )
        return row_tuple

    def insert(self, row: Sequence[Any]) -> bool:
        """Insert a row; return ``True`` if it was not already present."""
        row_tuple = self.check_row(row)
        if row_tuple in self._rows:
            return False
        self._rows[row_tuple] = None
        self._distinct.clear()
        for positions, index in self._indexes.items():
            key = tuple(row_tuple[p] for p in positions)
            index.setdefault(key, []).append(row_tuple)
        return True

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many rows; return the number of new rows."""
        return sum(1 for row in rows if self.insert(row))

    def delete(self, row: Sequence[Any]) -> bool:
        """Delete a row; return ``True`` if it was present."""
        row_tuple = tuple(row)
        if row_tuple not in self._rows:
            return False
        del self._rows[row_tuple]
        self._distinct.clear()
        for positions, index in self._indexes.items():
            key = tuple(row_tuple[p] for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                bucket.remove(row_tuple)
                if not bucket:
                    del index[key]
        return True

    def __contains__(self, row: Sequence[Any]) -> bool:
        return tuple(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def name(self) -> str:
        """Relation name (from the schema)."""
        return self.schema.name

    def rows(self) -> list[Row]:
        """All rows as a list (stable insertion order)."""
        return list(self._rows)

    # --------------------------------------------------------------- lookups
    def _index_for(self, positions: tuple[int, ...]) -> dict[tuple[Any, ...], list[Row]]:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self._rows:
                key = tuple(row[p] for p in positions)
                index.setdefault(key, []).append(row)
            self._indexes[positions] = index
        return index

    def lookup(self, bindings: dict[int, Any]) -> list[Row]:
        """Rows whose value at each position in ``bindings`` equals the bound value.

        An empty ``bindings`` dict returns all rows.  Positions are 0-based
        attribute positions; this is the primitive behind index-nested-loop
        joins in the query evaluator.
        """
        if not bindings:
            return self.rows()
        positions = tuple(sorted(bindings))
        index = self._index_for(positions)
        key = tuple(bindings[p] for p in positions)
        return list(index.get(key, ()))

    def scan(self, bindings: dict[int, Any] | None = None) -> Iterator[Row]:
        """Stream rows matching ``bindings`` (protocol twin of the sqlite scan)."""
        if not bindings:
            yield from self._rows
        else:
            yield from self.lookup(bindings)

    def distinct_count(self, position: int) -> int:
        """Number of distinct values in one column (join-order statistics).

        Memoised per column until the next successful insert or delete, so
        the planner's repeated lookups cost a dict probe, not a column scan.
        """
        count = self._distinct.get(position)
        if count is None:
            index = self._indexes.get((position,))
            if index is not None:
                count = len(index)
            else:
                count = len({row[position] for row in self._rows})
            self._distinct[position] = count
        return count

    def active_domain(self) -> set[Any]:
        """All constants appearing anywhere in the table."""
        values: set[Any] = set()
        for row in self._rows:
            values.update(row)
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name}, {len(self)} rows)"
