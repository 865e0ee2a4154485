"""Unit tests for the relational substrate (schemas, tables, databases, CSV I/O)."""

import pytest

from repro.db import (
    Attribute,
    Database,
    RelationSchema,
    SqliteBackend,
    Table,
    load_database,
    load_table,
    save_database,
)
from repro.errors import SchemaError, UnknownRelationError


class TestRelationSchema:
    def test_arity_and_names(self):
        schema = RelationSchema("Author", ["aid", "name"])
        assert schema.arity == 2
        assert schema.attribute_names == ("aid", "name")

    def test_default_key_is_all_attributes(self):
        schema = RelationSchema("R", ["a", "b"])
        assert schema.key == ("a", "b")

    def test_explicit_key(self):
        schema = RelationSchema("R", ["a", "b"], key=["a"])
        assert schema.key_positions() == (0,)

    def test_position_of_unknown_attribute_raises(self):
        schema = RelationSchema("R", ["a"])
        with pytest.raises(SchemaError):
            schema.position_of("z")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a", "a"])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [])

    def test_unknown_key_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a"], key=["b"])

    def test_validate_row_checks_arity(self):
        schema = RelationSchema("R", ["a", "b"])
        with pytest.raises(SchemaError):
            schema.validate_row((1,))

    def test_typed_attribute_validation(self):
        attribute = Attribute("year", int)
        attribute.validate(2005)
        with pytest.raises(SchemaError):
            attribute.validate("2005")


class TestTable:
    """Relation contracts, on the memory backend's :class:`Table`."""

    @pytest.fixture
    def make(self):
        """``make(attributes, rows=())``: a fresh table named ``R``."""
        return lambda attributes, rows=(): Table(RelationSchema("R", attributes), rows=rows)

    def test_insert_and_contains(self, make):
        table = make(["a", "b"])
        assert table.insert((1, 2)) is True
        assert table.insert((1, 2)) is False
        assert (1, 2) in table
        assert len(table) == 1

    def test_insert_wrong_arity_raises(self, make):
        table = make(["a", "b"])
        with pytest.raises(SchemaError):
            table.insert((1,))

    def test_delete(self, make):
        table = make(["a"], [(1,), (2,)])
        assert table.delete((1,)) is True
        assert table.delete((1,)) is False
        assert len(table) == 1

    def test_lookup_by_position(self, make):
        table = make(["a", "b"], [(1, 10), (1, 20), (2, 30)])
        assert sorted(table.lookup({0: 1})) == [(1, 10), (1, 20)]
        assert table.lookup({0: 1, 1: 20}) == [(1, 20)]
        assert table.lookup({0: 9}) == []

    def test_lookup_empty_bindings_returns_all(self, make):
        table = make(["a"], [(1,), (2,)])
        assert sorted(table.lookup({})) == [(1,), (2,)]

    def test_lookup_by_attributes(self, make):
        # Scans stream what lookups return, in insertion order: the order
        # the evaluator's derivation stream (and so every probability's
        # bits) depends on, on either backend.
        rows = [(2, 20), (1, 10), (2, 5), (1, 30)]
        table = make(["a", "b"], rows)
        assert list(table) == list(table.scan()) == table.rows() == rows
        assert list(table.scan({0: 2})) == table.lookup({0: 2}) == [(2, 20), (2, 5)]
        assert list(table.scan({0: 1, 1: 30})) == [(1, 30)]
        assert list(table.scan({1: 99})) == []

    def test_index_maintained_after_insert_and_delete(self, make):
        table = make(["a", "b"], [(1, 10)])
        assert table.lookup({0: 1}) == [(1, 10)]
        table.insert((1, 99))
        assert sorted(table.lookup({0: 1})) == [(1, 10), (1, 99)]
        table.delete((1, 10))
        assert table.lookup({0: 1}) == [(1, 99)]

    def test_project_distinct(self, make):
        # Set semantics under bulk insert: insert_many counts only new rows,
        # and a deleted row inserted again goes to the end of the order.
        table = make(["a", "b"], [(1, 10), (2, 20)])
        assert table.insert_many([(2, 20), (3, 30), (3, 30), (1, 10)]) == 1
        assert table.rows() == [(1, 10), (2, 20), (3, 30)]
        assert table.delete((1, 10)) is True
        assert table.insert_many([(1, 10)]) == 1
        assert table.rows() == [(2, 20), (3, 30), (1, 10)]
        assert len(table) == 3

    def test_active_domain(self, make):
        table = make(["a", "b"], [(1, "x")])
        assert table.active_domain() == {1, "x"}


class TestSqliteTable(TestTable):
    """The same relation contracts on the sqlite backend's table."""

    @pytest.fixture
    def make(self):
        backend = SqliteBackend()
        yield lambda attributes, rows=(): backend.create_table(
            RelationSchema("R", attributes), rows
        )
        backend.close()


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table("R", ["a"], [(1,), (2,)])
        assert len(db.table("R")) == 2
        assert "R" in db

    def test_subscript_is_table(self):
        db = Database()
        table = db.create_table("R", ["a"], [(1,)])
        assert db["R"] is db.table("R") is table
        with pytest.raises(UnknownRelationError):
            db["nope"]

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("R", ["a"])
        with pytest.raises(SchemaError):
            db.create_table("R", ["a"])

    def test_unknown_table_raises(self):
        db = Database()
        with pytest.raises(UnknownRelationError):
            db.table("nope")

    def test_drop_table(self):
        db = Database()
        db.create_table("R", ["a"])
        db.drop_table("R")
        assert "R" not in db
        with pytest.raises(UnknownRelationError):
            db.drop_table("R")

    def test_size_report(self):
        db = Database()
        db.create_table("R", ["a"], [(1,)])
        db.create_table("S", ["a"], [(1,), (2,)])
        assert db.size_report() == {"R": 1, "S": 2}
        assert db.total_rows() == 3

    def test_copy_is_independent(self):
        db = Database()
        db.create_table("R", ["a"], [(1,)])
        clone = db.copy()
        clone.insert("R", (2,))
        assert len(db.table("R")) == 1
        assert len(clone.table("R")) == 2

    def test_active_domain_union(self):
        db = Database()
        db.create_table("R", ["a"], [(1,)])
        db.create_table("S", ["a"], [("x",)])
        assert db.active_domain() == {1, "x"}
        assert db.active_domain(["R"]) == {1}


class TestCsvRoundTrip:
    def test_save_and_load_database(self, tmp_path):
        db = Database()
        db.create_table("Author", ["aid", "name"], [(1, "Ada"), (2, "Alan")])
        db.create_table("Pub", ["pid", "year"], [(7, 1999)])
        save_database(db, tmp_path)
        loaded = load_database(tmp_path)
        assert sorted(loaded.rows("Author")) == [(1, "Ada"), (2, "Alan")]
        assert loaded.rows("Pub") == [(7, 1999)]


class TestCsvEdgeCases:
    """Edge cases of db/csvio.py: quoting, blanks, arity, duplicates."""

    def test_quoted_fields_with_embedded_delimiters(self, tmp_path):
        path = tmp_path / "Author.csv"
        path.write_text(
            'aid,name\n1,"Lovelace, Ada"\n2,"Turing ""Alan"""\n3,"multi\nline"\n'
        )
        table = load_table("Author", path)
        assert sorted(table.rows()) == [
            (1, "Lovelace, Ada"),
            (2, 'Turing "Alan"'),
            (3, "multi\nline"),
        ]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n\n1,2\n\n\n3,4\n\n")
        table = load_table("R", path)
        assert sorted(table.rows()) == [(1, 2), (3, 4)]

    def test_arity_mismatch_reports_line_number(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(SchemaError, match=r"R\.csv:3: row has 3 fields, expected 2"):
            load_table("R", path)

    def test_missing_field_is_an_arity_mismatch_too(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(SchemaError, match="row has 1 fields, expected 2"):
            load_table("R", path)

    def test_empty_file_without_header_is_rejected(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty CSV file"):
            load_table("R", path)

    def test_duplicate_rows_collapse_to_set_semantics(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\n1,2\n1,2\n3,4\n1,2\n")
        table = load_table("R", path)
        assert len(table) == 2
        assert sorted(table.rows()) == [(1, 2), (3, 4)]

    def test_type_inference_round_trips(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b,c\n1,1.5,one\n-2,2e3,1_0\n")
        table = load_table("R", path)
        # ints stay ints (including zero-padded and underscore forms, which
        # int() accepts), floats stay floats, non-numeric strings stay strings.
        assert sorted(table.rows()) == [(-2, 2000.0, 10), (1, 1.5, "one")]

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_backends_load_identically(self, tmp_path, backend):
        path = tmp_path / "R.csv"
        path.write_text('a,b\n1,"x,y"\n\n1,"x,y"\n2,z\n')
        table = load_table("R", path, backend=backend)
        assert list(table.rows()) == [(1, "x,y"), (2, "z")]

    def test_load_database_on_sqlite_backend(self, tmp_path):
        db = Database()
        db.create_table("Author", ["aid", "name"], [(1, "Ada"), (2, "Alan")])
        save_database(db, tmp_path)
        loaded = load_database(tmp_path, backend="sqlite")
        assert loaded.backend.name == "sqlite"
        assert sorted(loaded.rows("Author")) == [(1, "Ada"), (2, "Alan")]
        loaded.close()


class TestDistinctCountMemo:
    """``distinct_count`` is memoised, and every write that changes a row clears it."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_memo_matches_a_fresh_recount_after_every_write(self, backend):
        db = Database(backend=backend)
        table = db.create_table("R", ["a", "b"], [(1, "x"), (2, "x"), (2, "y")])

        def check(expected):
            recount = [len({row[p] for row in table.rows()}) for p in (0, 1)]
            assert [table.distinct_count(p) for p in (0, 1)] == recount == expected

        check([2, 2])  # fills the memo
        table.insert((3, "z"))
        check([3, 3])
        table.insert_many([(4, "z"), (5, "w")])
        check([5, 4])
        table.delete((3, "z"))  # the last 3; "z" survives in (4, "z")
        check([4, 4])
        table.lookup({1: "w"})  # memory: an index on b now serves its count
        table.delete((5, "w"))  # the last 5 and the last "w"
        check([3, 3])
        assert table.insert((4, "z")) is False and table.delete((9, "q")) is False
        check([3, 3])
        db.close()

    def test_a_repeated_sqlite_count_issues_no_sql(self):
        db = Database(backend="sqlite")
        table = db.create_table("R", ["a"], [(1,), (2,)])
        statements: list[str] = []
        db.backend.connection.set_trace_callback(statements.append)
        try:
            assert table.distinct_count(0) == 2
            issued = len(statements)
            assert issued >= 1
            assert table.distinct_count(0) == 2
            assert len(statements) == issued
            table.insert((3,))
            assert table.distinct_count(0) == 3
            assert len(statements) > issued + 1  # the insert, then one recount
        finally:
            db.backend.connection.set_trace_callback(None)
            db.close()
