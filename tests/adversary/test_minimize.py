"""ddmin minimization: the injected-regression acceptance scenario.

The deliberately broken matching variant (``ElectAgent(matching="toctou")``,
test-only) splits the atomic ``TryAcquire`` of a match into a read, a
check, and a write.  The bug is purely schedule-dependent: it needs two
searchers whose tours reach the same waiter first (a function of the
port-shuffle seed) *and* a schedule that interleaves their check/write
windows.  The fuzzer must find it, ddmin must shrink the failing schedule
to a handful of pinned decisions, and the reproducer must replay
byte-identically.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.adversary import (
    DEFAULT_FALLBACK,
    FuzzCampaignSpec,
    FuzzConfig,
    InstanceSpec,
    Reproducer,
    minimize_row,
    replay_reproducer,
    row_failure_signature,
    run_fuzz,
    verify_reproducer,
)
from repro.adversary.fuzz import _evaluate_case
from repro.adversary.minimize import PatchedScheduler
from repro.adversary.specs import build_scheduler
from repro.errors import AdversaryError

#: The instance whose AGENT-REDUCE rounds run true 2-searcher matching.
K23 = InstanceSpec("complete_bipartite", (2, 3), (0, 1, 2, 3, 4), "K_2,3")

TOCTOU = FuzzConfig(seed=1, agent_kwargs=(("matching", "toctou"),))


@pytest.fixture(scope="module")
def toctou_report():
    return run_fuzz(instances=[K23], runs=120, config=TOCTOU, workers=2)


@pytest.fixture(scope="module")
def minimized(toctou_report):
    return minimize_row(toctou_report.failures[0], config=TOCTOU)


class TestRegressionCatch:
    def test_fuzzer_flags_the_broken_variant(self, toctou_report):
        assert not toctou_report.ok
        assert toctou_report.failures
        assert toctou_report.counts["schedule-failure"] > 0
        for row in toctou_report.failures:
            assert "round matched" in row.detail

    def test_failing_rows_keep_their_schedules(self, toctou_report):
        for row in toctou_report.failures:
            assert row.choices is not None
            assert row.runnable_sizes is not None
            assert len(row.choices) == len(row.runnable_sizes)
            assert len(row.choices) == row.schedule_len

    def test_atomic_variant_is_green_on_the_same_grid(self):
        report = run_fuzz(
            instances=[K23],
            runs=120,
            config=FuzzConfig(seed=1),
            workers=2,
        )
        assert report.ok


class TestDdmin:
    def test_shrinks_to_a_quarter_or_less(self, minimized):
        assert minimized.minimized_len >= 1
        assert minimized.reduction <= 0.25
        assert minimized.probes > 0

    def test_replay_is_byte_identical(self, minimized):
        assert minimized.verified
        # Re-verify from the artifact alone (no state from the fuzz run).
        assert verify_reproducer(minimized.reproducer, config=TOCTOU)

    def test_reproducer_round_trips_through_json(self, minimized, tmp_path):
        path = str(tmp_path / "repro.json")
        minimized.reproducer.save(path)
        loaded = Reproducer.load(path)
        assert loaded == minimized.reproducer
        result = replay_reproducer(loaded)
        assert result.signature == loaded.failure

    def test_cli_repro_reproduces_and_detects_tampering(
        self, minimized, tmp_path
    ):
        path = str(tmp_path / "repro.json")
        minimized.reproducer.save(path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        ok = subprocess.run(
            [sys.executable, "-m", "repro.adversary", "repro", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        assert "reproduced" in ok.stdout

        data = json.loads(open(path).read())
        data["failure"] = "ProtocolError: something else entirely"
        tampered = str(tmp_path / "tampered.json")
        with open(tampered, "w") as fh:
            json.dump(data, fh)
        bad = subprocess.run(
            [sys.executable, "-m", "repro.adversary", "repro", tampered],
            capture_output=True,
            text=True,
            env=env,
        )
        assert bad.returncode == 1

    def test_report_carries_agent_kwargs_for_cli_minimize(
        self, toctou_report
    ):
        # The JSON result records the sweep's agent kwargs so the
        # ``minimize`` subcommand can rebuild the exact failing
        # configuration from the file alone.
        data = json.loads(json.dumps(toctou_report.to_dict()))
        assert data["agent_kwargs"] == {"matching": "toctou"}
        assert all("choices" in row for row in data["failures"])

    def test_cli_minimize_turns_the_fuzz_json_into_reproducers(
        self, toctou_report, tmp_path
    ):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(toctou_report.to_dict()))
        artifacts = tmp_path / "reproducers"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.adversary",
                "minimize",
                str(path),
                "--artifacts",
                str(artifacts),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        failing = [row.index for row in toctou_report.failures]
        assert proc.stdout.count("verified=True") == len(failing)
        saved = sorted(artifacts.iterdir())
        assert [p.name for p in saved] == [
            f"repro-{index:04d}.json" for index in failing
        ]
        for artifact in saved:
            loaded = Reproducer.load(str(artifact))
            assert replay_reproducer(loaded).signature == loaded.failure

    def test_unsupported_artifact_version_is_rejected(self, minimized):
        data = minimized.reproducer.to_dict()
        data["version"] = 99
        with pytest.raises(AdversaryError):
            Reproducer.from_dict(data)

    def test_minimizing_a_green_row_is_an_error(self, toctou_report):
        failing = {row.index for row in toctou_report.failures}
        spec = FuzzCampaignSpec(instances=[K23], runs=120, config=TOCTOU)
        index = next(i for i in range(spec.total) if i not in failing)
        green = _evaluate_case(spec.task(index))
        assert not green.failed
        with pytest.raises(AdversaryError):
            row_failure_signature(green)
        with pytest.raises(AdversaryError):
            minimize_row(green, config=TOCTOU)


class TestPatchedScheduler:
    def test_pins_override_the_fallback(self):
        sched = PatchedScheduler(
            {0: 2, 3: 1}, build_scheduler(DEFAULT_FALLBACK)
        )
        assert sched.choose([0, 1, 2], 0) == 2
        # Unpinned steps delegate to the fallback (greedy starts at the
        # lowest runnable agent and sticks with it).
        assert sched.choose([0, 1, 2], 1) == 0
        assert sched.choose([0, 1, 2], 2) == 0
        assert sched.choose([0, 1, 2], 3) == 1

    def test_unrunnable_pin_falls_through(self):
        sched = PatchedScheduler({0: 7}, build_scheduler(DEFAULT_FALLBACK))
        assert sched.choose([0, 1], 0) in (0, 1)
