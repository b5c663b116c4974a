"""Unit tests for the simulate/migrate/stats/export CLI commands."""

import json

import pytest

from regimes import FAN_OUT, scheduler
from repro.bpel.xml_io import process_to_xml
from repro.cli import main
from repro.core.runtime import get_runtime
from repro.scenario.procurement import (
    accounting_private,
    accounting_private_subtractive_change,
    accounting_private_variant_change,
    buyer_private,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, factory in (
        ("buyer", buyer_private),
        ("accounting", accounting_private),
        ("accounting_cancel", accounting_private_variant_change),
        ("accounting_sub", accounting_private_subtractive_change),
    ):
        path = tmp_path / f"{name}.xml"
        path.write_text(process_to_xml(factory()))
        paths[name] = str(path)
    return paths


class TestSimulateCommand:
    def test_consistent_pair_exit_zero(self, files, capsys):
        code = main(
            ["simulate", files["buyer"], files["accounting"],
             "--runs", "10"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "0 deadlock(s)" in output

    def test_broken_pair_exit_one(self, files, capsys):
        code = main(
            ["simulate", files["buyer"], files["accounting_cancel"],
             "--runs", "30"]
        )
        assert code == 1
        assert "deadlock" in capsys.readouterr().out

    def test_verbose_prints_traces(self, files, capsys):
        main(
            ["simulate", files["buyer"], files["accounting"],
             "--runs", "3", "--verbose"]
        )
        output = capsys.readouterr().out
        assert "completed" in output

    def test_log_writes_executed_traces(self, files, tmp_path, capsys):
        log = tmp_path / "log.json"
        code = main(
            ["simulate", files["buyer"], files["accounting"],
             "--runs", "4", "--log", str(log)]
        )
        assert code == 0
        entries = json.loads(log.read_text())
        assert len(entries) == 4
        for entry in entries:
            assert entry["outcome"] in ("completed", "step-limit")
            assert isinstance(entry["trace"], list)
            assert entry["blocked_on"] is None
        # Completed runs carry a real message sequence.
        assert any(entry["trace"] for entry in entries)

    def test_log_to_stdout_keeps_deadlock_exit(self, files, capsys):
        code = main(
            ["simulate", files["buyer"], files["accounting_cancel"],
             "--runs", "30", "--log", "-"]
        )
        # Non-zero on deadlock, with or without --log.
        assert code == 1
        captured = capsys.readouterr()
        # With --log -, stdout is pure JSON (directly pipeable into
        # `migrate --traces`); the human-readable lines go to stderr.
        entries = json.loads(captured.out)
        assert any(entry["blocked_on"] for entry in entries)
        assert "deadlock(s)" in captured.err


class TestMigrateCommand:
    def test_generated_fleet_report(self, files, capsys):
        code = main(
            ["migrate", files["accounting"], files["accounting_sub"],
             "--fleet", "200", "--seed", "3"]
        )
        output = capsys.readouterr().out
        assert "200 running instance(s)" in output
        assert "migratable:" in output
        # The subtractive change strands part of the fleet.
        assert code == 1

    def test_identity_step_strands_only_divergent_logs(
        self, files, capsys
    ):
        code = main(
            ["migrate", files["accounting"], files["accounting"],
             "--fleet", "50", "--seed", "3", "--distinct", "4",
             "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        # On an identity step, every non-corrupted log migrates; only
        # the generated divergent logs strand — and those were already
        # divergent from the old model (it *is* the old model here).
        non_migratable = [
            entry
            for entry in payload["verdicts"]
            if entry["verdict"] != "migratable"
        ]
        assert non_migratable, "default mix includes divergent logs"
        assert all(
            entry["verdict"] == "stranded"
            and entry["compliant_with_old"] is False
            for entry in non_migratable
        )
        assert payload["counts"]["stranded"] == len(non_migratable)
        assert code == 1  # stranded instances → non-zero

    def test_json_report_and_worker_invariance(self, files, capsys):
        args = ["migrate", files["accounting"], files["accounting_sub"],
                "--fleet", "120", "--seed", "5", "--json"]
        main(args)
        serial = json.loads(capsys.readouterr().out)
        dispatches = get_runtime().counters["dispatches"]
        with scheduler(**FAN_OUT):
            main(args + ["--workers", "4"])
        assert get_runtime().counters["dispatches"] == dispatches + 1
        fanned = json.loads(capsys.readouterr().out)
        assert serial["counts"] == fanned["counts"]
        assert serial["verdicts"] == fanned["verdicts"]
        assert serial["instances"] == 120
        assert serial["classes"] < 120  # prefix sharing batched classes

    def test_traces_from_simulate_log(self, files, tmp_path, capsys):
        log = tmp_path / "log.json"
        main(
            ["simulate", files["buyer"], files["accounting"],
             "--runs", "6", "--log", str(log)]
        )
        capsys.readouterr()
        # Bilateral logs replay against the τ_B views (--view): the
        # identity step migrates every recorded conversation.
        code = main(
            ["migrate", files["accounting"], files["accounting"],
             "--traces", str(log), "--view", "B", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["instances"] == 6
        assert payload["counts"] == {"migratable": 6}

    def test_simulate_log_strands_on_subtractive_change(
        self, files, tmp_path, capsys
    ):
        log = tmp_path / "log.json"
        main(
            ["simulate", files["buyer"], files["accounting"],
             "--runs", "25", "--log", str(log)]
        )
        capsys.readouterr()
        code = main(
            ["migrate", files["accounting"], files["accounting_sub"],
             "--traces", str(log), "--view", "B", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        counts = payload["counts"]
        # Conversations that entered the (removed) tracking loop are
        # stranded by the subtractive change; the rest carry forward.
        assert counts.get("migratable", 0) > 0
        assert counts.get("stranded", 0) > 0
        assert code == 1


class TestStatsCommand:
    def test_stats_output(self, files, capsys):
        assert main(["stats", files["buyer"]]) == 0
        output = capsys.readouterr().out
        assert "states" in output
        assert "cyclic" in output
        assert "public process of buyer" in output


class TestExportCommand:
    def test_export_full_public(self, files, capsys):
        assert main(["export", files["accounting"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["start"] == "1"
        assert any(
            "deliverOp" in label for label in payload["alphabet"]
        )

    def test_export_view(self, files, capsys):
        assert main(
            ["export", files["accounting"], "--partner", "B"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all("L" not in label.split("#")[:2]
                   for label in payload["alphabet"])

    def test_export_round_trips(self, files, capsys):
        from repro.afsa.serialize import afsa_from_json

        main(["export", files["buyer"]])
        automaton = afsa_from_json(capsys.readouterr().out)
        assert len(automaton.states) == 5
