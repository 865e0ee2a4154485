"""Tests for the command-line interface."""

import json

import pytest

import repro
from repro.cli import build_parser, main
from repro.dblp.workload import advisor_of_student, affiliation_of_author, students_of_advisor


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig4" in output and "fig10" in output

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_flag_on_subparsers(self, capsys):
        # argparse's version action exits 0 from either parser family.
        assert main(["fig4", "--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_bad_arguments_are_user_errors(self, capsys):
        # argparse would exit 2; the CLI contract maps usage errors to 1.
        assert main(["fig4", "--groups", "not-a-number"]) == 1
        assert main(["save-index"]) == 1  # missing required --out

    def test_internal_errors_exit_2(self, capsys, monkeypatch):
        def boom(settings):
            raise RuntimeError("kaboom")

        monkeypatch.setattr("repro.cli.fig4_lineage_size", boom)
        assert main(["fig4", "--groups", "4", "--points", "2"]) == 2
        assert "internal error: RuntimeError: kaboom" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig4_tiny_run(self, capsys, tmp_path):
        code = main(["fig4", "--groups", "4", "--points", "2", "--out", str(tmp_path)])
        assert code == 0
        assert "fig4_lineage_size" in capsys.readouterr().out
        assert (tmp_path / "fig4_lineage_size.csv").exists()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig9"])
        assert args.groups == 14
        assert args.points == 4
        assert args.out is None

    @pytest.mark.parametrize("experiment", ["fig1", "scalability"])
    def test_full_dataset_experiments_tiny(self, capsys, experiment):
        assert main([experiment, "--groups", "4"]) == 0
        assert experiment.replace("fig1", "fig1_dataset_inventory") in capsys.readouterr().out or True

    def test_serving_experiment_tiny(self, capsys):
        assert main(["serving", "--groups", "4"]) == 0
        assert "serving_cold_warm" in capsys.readouterr().out


class TestServingCli:
    def test_save_load_serve_round_trip(self, capsys, tmp_path):
        artifact = tmp_path / "dblp.json.gz"
        assert main(["save-index", "--groups", "4", "--out", str(artifact)]) == 0
        assert artifact.exists()
        assert "MV-index" in capsys.readouterr().out

        query = (
            "Q(aid) :- Student(aid, y), Advisor(aid, a), Author(a, n), n like '%Advisor 0%'"
        )
        assert main(["load-index", str(artifact), "--query", query]) == 0
        output = capsys.readouterr().out
        assert "cold start from artifact" in output
        assert "query answered" in output

        assert main(["serve-batch", str(artifact), "--count", "10", "--repeat", "2"]) == 0
        output = capsys.readouterr().out
        assert "round 1 (cold)" in output and "round 2 (warm)" in output
        assert "1 relational pass(es)" in output

    def test_build_index_workers_byte_identical(self, capsys, tmp_path):
        # One build path: two save-index runs write byte-identical artifacts,
        # and the retired build-index alias is refused as a user error.
        first = tmp_path / "first.json.gz"
        second = tmp_path / "second.json.gz"
        assert main(["save-index", "--groups", "4", "--out", str(first)]) == 0
        assert main(["save-index", "--groups", "4", "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()
        capsys.readouterr()
        assert main(["build-index", "--groups", "4", "--out", str(tmp_path / "x.json")]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_save_index_on_sqlite_path_answers_like_memory(self, capsys, tmp_path):
        memory = tmp_path / "memory.json.gz"
        on_disk = tmp_path / "sqlite.json.gz"
        common = ["save-index", "--groups", "3", "--seed", "1"]
        assert main([*common, "--out", str(memory)]) == 0
        backend = f"sqlite:{tmp_path / 'x.db'}"
        assert main([*common, "--backend", backend, "--out", str(on_disk)]) == 0
        capsys.readouterr()
        expected, actual = repro.open(memory), repro.open(on_disk)
        for query in (
            students_of_advisor("Advisor 0"),
            advisor_of_student("Student 1-0"),
            affiliation_of_author("Student 2-0"),
        ):
            answers = actual.query(query).to_json()["answers"]
            assert answers == expected.query(query).to_json()["answers"]

    def test_save_index_on_a_filled_sqlite_path_is_a_user_error(self, capsys, tmp_path):
        database = tmp_path / "x.db"
        common = ["save-index", "--groups", "3", "--backend", f"sqlite:{database}"]
        assert main([*common, "--out", str(tmp_path / "first.json.gz")]) == 0
        capsys.readouterr()
        assert main([*common, "--out", str(tmp_path / "second.json.gz")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(database) in err and "'Author'" in err
        assert "internal error" not in err

    def test_extend_index_round_trip(self, capsys, tmp_path):
        partial = tmp_path / "partial.json.gz"
        extended = tmp_path / "extended.json.gz"
        assert (
            main(["save-index", "--groups", "4", "--views", "V1,V2", "--out", str(partial)])
            == 0
        )
        assert (
            main(
                [
                    "extend-index",
                    str(partial),
                    "--groups",
                    "4",
                    "--views",
                    "V1,V2,V3",
                    "--out",
                    str(extended),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "incremental extension" in output
        assert (
            main(
                [
                    "load-index",
                    str(extended),
                    "--query",
                    "Q(aid) :- Student(aid, y), Advisor(aid, a), Author(a, n), "
                    "n like '%Advisor 0%'",
                ]
            )
            == 0
        )
        assert "query answered" in capsys.readouterr().out

    def test_extend_index_rejects_mismatched_base(self, capsys, tmp_path):
        partial = tmp_path / "partial.json.gz"
        assert (
            main(["save-index", "--groups", "4", "--views", "V1,V2", "--out", str(partial)])
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "extend-index",
                str(partial),
                "--groups",
                "5",
                "--views",
                "V1,V2,V3",
                "--out",
                str(tmp_path / "bad.json.gz"),
            ]
        )
        assert code == 1
        assert "cannot extend" in capsys.readouterr().err

    def test_serve_batch_from_query_file(self, capsys, tmp_path):
        artifact = tmp_path / "dblp.json"
        assert main(["save-index", "--groups", "4", "--out", str(artifact)]) == 0
        capsys.readouterr()
        queries = tmp_path / "queries.dl"
        queries.write_text(
            "# workload\n"
            "Q(aid) :- Student(aid, y), Advisor(aid, a), Author(a, n), n like '%Advisor 0%'\n"
            "Q(aid1) :- Student(aid, y), Advisor(aid, aid1), Author(aid, n), n like '%Student 1-0%'\n"
        )
        assert main(["serve-batch", str(artifact), "--queries", str(queries)]) == 0
        assert "2 queries" in capsys.readouterr().out

    def test_load_index_json_output(self, capsys, tmp_path):
        artifact = tmp_path / "dblp.json.gz"
        assert main(["save-index", "--groups", "4", "--out", str(artifact)]) == 0
        capsys.readouterr()
        query = (
            "Q(aid) :- Student(aid, y), Advisor(aid, a), Author(a, n), n like '%Advisor 0%'"
        )
        assert main(["load-index", str(artifact), "--query", query, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["method"] == "mvindex"
        assert document["exact"] is True
        assert document["answers"]
        for answer in document["answers"]:
            assert 0.0 <= answer["probability"] <= 1.0
            assert answer["lineage_size"] >= 1

    def test_serve_batch_json_output(self, capsys, tmp_path):
        artifact = tmp_path / "dblp.json.gz"
        assert main(["save-index", "--groups", "4", "--out", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["serve-batch", str(artifact), "--count", "3", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [round_["label"] for round_ in document["rounds"]] == ["cold", "warm"]
        warm = document["rounds"][1]["results"]
        assert all(result["cached"] for result in warm)
        assert document["cache"]["relational_passes"] == 1

    def test_load_index_missing_artifact_fails(self, capsys, tmp_path):
        assert main(["load-index", str(tmp_path / "missing.json")]) == 1
        assert "no MV-index artifact" in capsys.readouterr().err

    def test_load_index_corrupt_artifact_fails(self, capsys, tmp_path):
        artifact = tmp_path / "dblp.json.gz"
        assert main(["save-index", "--groups", "4", "--out", str(artifact)]) == 0
        capsys.readouterr()
        artifact.write_bytes(artifact.read_bytes()[:100])  # truncate the stream
        assert main(["load-index", str(artifact)]) == 1
        assert "cannot read MV-index artifact" in capsys.readouterr().err

    def test_save_index_rejects_unknown_views(self, capsys, tmp_path):
        # The guard lives in build_mvdb; the CLI relays it as a clean error.
        code = main(["save-index", "--groups", "4", "--views", "V1,V9", "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "unknown MarkoView name(s)" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_serve_batch_missing_query_file_fails(self, capsys, tmp_path):
        artifact = tmp_path / "dblp.json"
        assert main(["save-index", "--groups", "4", "--out", str(artifact)]) == 0
        capsys.readouterr()
        missing = tmp_path / "missing.dl"
        assert main(["serve-batch", str(artifact), "--queries", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_load_index_bad_query_fails(self, capsys, tmp_path):
        artifact = tmp_path / "dblp.json"
        assert main(["save-index", "--groups", "4", "--out", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["load-index", str(artifact), "--query", "Q(aid) :- "]) == 1
        assert "error:" in capsys.readouterr().err


class TestSubscriptionCli:
    """``subscribe`` and ``notify-listen`` against an in-process server."""

    @staticmethod
    def _engine():
        mvdb = repro.MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 0.5)])
        mvdb.add_probabilistic_table("S", ["x"], [(("a",), 2.0)])
        mvdb.add_markoview(repro.MarkoView("V", repro.parse_query("V(x) :- R(x), S(x)"), 0.25))
        return repro.connect(mvdb).engine

    def test_subscribe_then_notify_listen_prints_the_notification(self, capsys):
        from repro.serving.server import ProbServer

        with ProbServer(self._engine(), port=0) as server:
            url = server.url
            assert main(["subscribe", "--url", url, "Q(x) :- R(x)", "--threshold", ">=0.3"]) == 0
            registered = json.loads(capsys.readouterr().out)
            assert registered["predicate"] == {"kind": "threshold", "op": ">=", "value": 0.3}
            repro.connect_remote(url).append_facts({"R": [[["c"], 3.0]]})
            assert main(["notify-listen", "--url", url, "--max", "1", "--wait", "5"]) == 0
            (line,) = capsys.readouterr().out.splitlines()
        notification = json.loads(line)
        assert notification["subscription"] == registered["id"]
        assert notification["seq"] == 1
        assert notification["entered"] == [[["c"], 0.75]]

    def test_subscribe_rejects_a_malformed_threshold(self, capsys):
        assert main(["subscribe", "Q(x) :- R(x)", "--threshold", "0.5"]) == 1
        assert "--threshold must look like" in capsys.readouterr().err
