"""Crash-kill resume harness: SIGKILL a live campaign, resume, compare.

The acceptance contract of the campaign engine: a 1000-case fuzz
campaign killed with SIGKILL at a randomized point and then resumed
yields a ledger whose ``digest()`` is byte-identical to an uninterrupted
run's, for workers ∈ {1, 4} and shards ∈ {1, 2}.

The campaign runs in a real subprocess (its own session, so the kill
also reaps any pool workers), is killed while rows are landing, and is
resumed by a second subprocess — exactly the operational story of a
preempted CI shard.
"""

import os
import random
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.obs.ledger import RunLedger

RUNS = 1000
SEED = 9
CHECKPOINT_EVERY = 25

CHILD = r"""
import sys
from repro.adversary.fuzz import FuzzConfig, run_fuzz

ledger, shard, workers, resume, runs, every, seed = sys.argv[1:8]
run_fuzz(
    runs=int(runs),
    config=FuzzConfig(seed=int(seed)),
    quick=True,
    workers=int(workers),
    ledger=ledger,
    shard=shard,
    resume=resume == "1",
    checkpoint_every=int(every),
)
print("COMPLETED")
"""


def _spawn(ledger: str, shard: str, workers: int, resume: bool):
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            CHILD,
            ledger,
            shard,
            str(workers),
            "1" if resume else "0",
            str(RUNS),
            str(CHECKPOINT_EVERY),
            str(SEED),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # the SIGKILL must take the pool down too
        env=os.environ.copy(),
    )


def _committed_rows(ledger: str) -> int:
    """Rows visible to a fresh reader (i.e. durably committed)."""
    if not os.path.exists(ledger):
        return 0
    try:
        conn = sqlite3.connect(ledger, timeout=5)
        try:
            (n,) = conn.execute("SELECT COUNT(*) FROM runs").fetchone()
            return int(n)
        finally:
            conn.close()
    except sqlite3.Error:
        return 0


def _kill_at(proc: subprocess.Popen, ledger: str, threshold: int) -> bool:
    """SIGKILL the child's session once >= threshold rows are committed.

    Returns True if the kill landed mid-sweep, False if the child beat us
    to completion (the run is then simply uninterrupted).
    """
    deadline = time.monotonic() + 180
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return False
        if _committed_rows(ledger) >= threshold:
            try:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            except ProcessLookupError:
                return False
            proc.wait(timeout=30)
            return True
        time.sleep(0.05)
    raise AssertionError("campaign subprocess made no progress before kill")


@pytest.fixture(scope="module")
def reference_digest(tmp_path_factory):
    """The uninterrupted 1-shard serial run every scenario must match."""
    from repro.adversary.fuzz import FuzzConfig, run_fuzz

    path = str(tmp_path_factory.mktemp("reference") / "ref.db")
    run_fuzz(
        runs=RUNS,
        config=FuzzConfig(seed=SEED),
        quick=True,
        workers=1,
        ledger=path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    with RunLedger(path) as led:
        digest = led.digest(kind="fuzz")
        rows = led.count(kind="fuzz")
    assert rows == RUNS
    return digest


@pytest.mark.parametrize(
    "workers,shards",
    [(1, 1), (4, 1), (1, 2), (4, 2)],
    ids=["w1-s1", "w4-s1", "w1-s2", "w4-s2"],
)
def test_sigkill_then_resume_matches_uninterrupted_digest(
    workers, shards, reference_digest, tmp_path
):
    rng = random.Random(f"kill:{workers}:{shards}")
    shard_paths = []
    killed_any = False
    for i in range(shards):
        ledger = str(tmp_path / f"shard{i}.db")
        shard_paths.append(ledger)
        shard = f"{i}/{shards}"
        scheduled = len(range(i, RUNS, shards))

        proc = _spawn(ledger, shard, workers, resume=False)
        threshold = rng.randint(5, max(6, scheduled // 2))
        killed = _kill_at(proc, ledger, threshold)
        killed_any = killed_any or killed

        if killed:
            # The kill must have truncated the sweep (not landed post-run).
            assert _committed_rows(ledger) < scheduled
            resumed = _spawn(ledger, shard, workers, resume=True)
            out, err = resumed.communicate(timeout=300)
            assert resumed.returncode == 0, err
            assert "COMPLETED" in out

        with RunLedger(ledger) as led:
            cp = led.checkpoint("fuzz", f"fuzz:seed={SEED}:runs={RUNS}", i, shards)
            assert cp is not None and cp.done == scheduled
            assert led.count(kind="fuzz") == scheduled  # exactly-once

    # At least one shard must actually have been interrupted, or this
    # test degenerates into the plain digest check.
    assert killed_any, "child always finished before the kill threshold"

    if shards == 1:
        with RunLedger(shard_paths[0]) as led:
            assert led.digest(kind="fuzz") == reference_digest
    else:
        merged = RunLedger(str(tmp_path / "merged.db"))
        try:
            for path in shard_paths:
                merged.merge_from(path)
            assert merged.count(kind="fuzz") == RUNS
            assert merged.digest(kind="fuzz") == reference_digest
        finally:
            merged.close()
