"""End-to-end tests of the ``python -m repro.trace`` command line."""

import hashlib
import json

import pytest

from repro.trace.__main__ import main


@pytest.fixture
def recorded(tmp_path):
    path = str(tmp_path / "run.jsonl")
    code = main(
        [
            "record",
            "--graph", "cycle",
            "--graph-args", "6",
            "--homes", "0", "2",
            "--protocol", "elect",
            "--seed", "3",
            "--out", path,
        ]
    )
    assert code == 0
    return path


class TestCli:
    def test_record_writes_header_and_events(self, recorded, capsys):
        lines = [json.loads(l) for l in open(recorded) if l.strip()]
        assert lines[0]["type"] == "header"
        assert lines[0]["meta"]["graph"] == "cycle"
        assert all(rec["type"] == "event" for rec in lines[1:])
        assert len(lines) > 10

    def test_summarize(self, recorded, capsys):
        assert main(["summarize", recorded]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "event kind" in out
        assert "total moves" in out

    def test_check_passes_on_healthy_trace(self, recorded, capsys):
        assert main(["check", recorded]) == 0
        out = capsys.readouterr().out
        assert "whiteboard-mutual-exclusion: ok" in out
        assert "theorem-3.1-bound: ok" in out
        assert "invariants hold" in out

    def test_check_fails_on_tampered_trace(self, recorded, tmp_path, capsys):
        lines = open(recorded).read().splitlines()
        # Duplicate the first event line: two primaries at one step.
        first_event = next(
            i for i, l in enumerate(lines)
            if json.loads(l).get("type") == "event"
            and json.loads(l)["step"] >= 0
        )
        lines.insert(first_event + 1, lines[first_event])
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["check", str(bad)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_replay_reproduces_recording(self, recorded, capsys):
        assert main(["replay", recorded]) == 0
        out = capsys.readouterr().out
        assert "event streams identical: True" in out
        assert "outcome: elected" in out

    def test_replay_without_meta_errors_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bare.jsonl"
        path.write_text(
            json.dumps(
                {"type": "event", "step": 0, "kind": "read",
                 "agent": 0, "node": 0}
            )
            + "\n"
        )
        assert main(["replay", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_record_validates_graph_choice(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "record",
                    "--graph", "doughnut",
                    "--homes", "0",
                    "--out", str(tmp_path / "x.jsonl"),
                ]
            )


#: sha256 of the JSONL that ``python -m repro.trace record --graph hypercube
#: --graph-args 3 --homes 0 3 5 --protocol elect --seed 11`` writes.  Any
#: change to an event, a view the agents act on, or the header moves it.
GOLDEN_Q3_SEED11_SHA256 = (
    "714b801658e67770a066c487f7fd497ab9dee421124680efe858645d32e94f5d"
)


class TestGoldenTrace:
    def test_hypercube_elect_recording_is_byte_stable(self, tmp_path, capsys):
        path = tmp_path / "elect.jsonl"
        code = main(
            [
                "record",
                "--graph", "hypercube",
                "--graph-args", "3",
                "--homes", "0", "3", "5",
                "--protocol", "elect",
                "--seed", "11",
                "--out", str(path),
            ]
        )
        assert code == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_Q3_SEED11_SHA256
