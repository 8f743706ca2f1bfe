"""Unit tests: the itag CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["version"]).command == "version"
        args = parser.parse_args(["run-experiment", "EXP-T1", "--fast"])
        assert args.experiment_id == "EXP-T1"
        assert args.fast


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "repro" in capsys.readouterr().out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T1" in out
        assert "EXP-UI" in out

    def test_run_experiment_fast_with_save(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        code = main(["run-experiment", "EXP-ST", "--fast", "--save", str(path)])
        assert code == 0
        assert path.exists()
        assert "EXP-ST" in capsys.readouterr().out

    def test_run_unknown_experiment_exits_2(self, capsys):
        assert main(["run-experiment", "EXP-NOPE"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_store_explain_indexed_predicates(self, capsys):
        code = main(
            [
                "store", "explain", "resources",
                "--where", "project_id=3",
                "--where", "quality>=0.5",
                "--rows", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hash-index(resources.project_id=3" in out
        assert "[plan-cache:" in out

    def test_store_explain_order_and_limit_streams_topk(self, capsys):
        code = main(
            [
                "store", "explain", "resources",
                "--order-by", "quality", "--descending", "--limit", "5",
                "--rows", "100",
            ]
        )
        assert code == 0
        assert "top-k(resources.quality desc" in capsys.readouterr().out

    def test_store_explain_join_shows_strategy(self, capsys):
        code = main(
            [
                "store", "explain", "resources",
                "--where", "project_id=3",
                "--join", "posts", "--on", "id=resource_id",
                "--rows", "200",
            ]
        )
        assert code == 0
        assert "index-nl-join(resources.id = posts.resource_id" in capsys.readouterr().out

    def test_store_explain_chained_joins_show_planned_order(self, capsys):
        code = main(
            [
                "store", "explain", "projects",
                "--where", "state=name-3",
                "--join", "users", "--on", "provider_id=id",
                "--join", "tasks", "--on", "id=project_id",
                "--rows", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # the planner chose its own order (tasks narrows before users)
        assert "[join-order: projects -> tasks -> users (dp)]" in out
        assert "[plan-cache:" in out

    def test_store_explain_rejects_unknown_inputs(self, capsys):
        assert main(["store", "explain", "nope"]) == 2
        assert main(["store", "explain", "resources", "--where", "bogus=1"]) == 2
        assert main(["store", "explain", "resources", "--where", "quality?1"]) == 2
        assert (
            main(["store", "explain", "resources", "--join", "posts"]) == 2
        )  # missing --on
        assert (
            main([
                "store", "explain", "resources",
                "--join", "posts", "--on", "id=resource_id",
                "--join", "tasks",
            ]) == 2
        )  # second join lacks its --on
        capsys.readouterr()

    def _make_state_dir(self, tmp_path, torn: bool = False):
        from repro.store import Column, Database, DataType, Schema

        state = tmp_path / "state"
        database = Database.open(state, fsync="never")
        table = database.create_table(
            "items",
            Schema(
                [Column("id", DataType.INT), Column("v", DataType.TEXT)],
                primary_key="id",
            ),
        )
        for index in range(6):
            table.insert({"v": f"v{index}"})
        database.close()
        if torn:
            # the log is a segment directory; a torn tail lives at the
            # end of the active (highest-numbered) segment
            active = sorted((state / "wal.log").glob("wal-*.log"))[-1]
            with active.open("ab") as handle:
                handle.write(b'00000000 {"lsn": 999, "txn": [')
        return state

    def test_store_recover_reports_clean_state(self, tmp_path, capsys):
        state = self._make_state_dir(tmp_path)
        assert main(["store", "recover", "--dir", str(state)]) == 0
        out = capsys.readouterr().out
        assert "replayed 7 committed records" in out  # 1 DDL + 6 inserts
        assert "torn tail: none" in out
        assert "verify: ok" in out

    def test_store_recover_discards_torn_tail(self, tmp_path, capsys):
        state = self._make_state_dir(tmp_path, torn=True)
        assert main(["store", "recover", "--dir", str(state)]) == 0
        out = capsys.readouterr().out
        assert "discarded torn tail" in out
        assert "'items': 6" in out
        assert "verify: ok" in out

    def test_store_checkpoint_prunes_wal(self, tmp_path, capsys):
        state = self._make_state_dir(tmp_path)
        assert main(["store", "checkpoint", "--dir", str(state), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint written: checkpoint-000001.manifest.json" in out
        # the first generation retains the full suffix (fallback safety)
        assert "7 -> 7" in out
        assert "generation 1 (wal_lsn 7)" in out
        assert "tables: 1 rewritten, 0 reused of 1" in out
        # recovery loads the checkpoint and replays nothing
        assert main(["store", "recover", "--dir", str(state)]) == 0
        out = capsys.readouterr().out
        assert "replayed 0 committed records" in out
        # a second generation prunes what the first one covers; the
        # untouched table is reused, not rewritten
        assert main(["store", "checkpoint", "--dir", str(state), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint written: checkpoint-000002.manifest.json" in out
        assert "7 -> 0" in out
        assert "tables: 0 rewritten, 1 reused of 1" in out

    def test_store_smoke_durable_reports_checkpoint(self, capsys):
        assert main(
            ["store", "smoke", "--readers", "1", "--tasks", "5", "--durable"]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict: consistent" in out
        assert "durability: checkpoint gen 1 in" in out
        assert "segment(s) live" in out

    def test_store_smoke_is_consistent(self, capsys):
        assert main(["store", "smoke", "--readers", "2", "--tasks", "15"]) == 0
        out = capsys.readouterr().out
        assert "torn reads: 0" in out
        assert "verdict: consistent" in out

    def test_generate_dataset_report(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        code = main(
            [
                "generate-dataset",
                "--resources", "10",
                "--posts", "40",
                "--seed", "3",
                "--report",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "gini" in captured
        assert "saved:" in captured

    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "11"]) == 0
        assert "EXP-UI" in capsys.readouterr().out
