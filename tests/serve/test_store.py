"""The persistent SQLite store: round-trips, LRU, versioning, persistence."""

import os
import signal
import subprocess
import sys

import pytest

from repro.errors import ServeError
from repro.serve import metrics as serve_metrics
from repro.serve.store import CanonicalStore


def test_put_get_round_trip():
    with CanonicalStore(":memory:") as store:
        assert store.get("classify", "h1") is None
        store.put("classify", "h1", {"verdict": "possible", "gcd": 1})
        assert store.get("classify", "h1") == {"verdict": "possible", "gcd": 1}
        assert ("classify", "h1") in store
        assert len(store) == 1


def test_ops_are_separate_namespaces():
    with CanonicalStore(":memory:") as store:
        store.put("classify", "h", {"a": 1})
        store.put("elect", "h", {"b": 2})
        assert store.get("classify", "h") == {"a": 1}
        assert store.get("elect", "h") == {"b": 2}
        assert sorted(store.keys()) == [("classify", "h"), ("elect", "h")]


def test_persists_across_reopen(tmp_path):
    path = str(tmp_path / "answers.db")
    with CanonicalStore(path) as store:
        store.put("feasibility", "abc", {"gcd": 2})
    with CanonicalStore(path) as store:
        assert store.get("feasibility", "abc") == {"gcd": 2}
        assert store.stats()["persistent_hits"] == 1  # the get above


def test_lru_eviction_drops_oldest():
    with CanonicalStore(":memory:", max_entries=3) as store:
        for i in range(3):
            store.put("op", f"h{i}", {"i": i})
        store.get("op", "h0")  # refresh h0: h1 becomes LRU
        store.put("op", "h3", {"i": 3})
        assert len(store) == 3
        assert store.get("op", "h1") is None
        assert store.get("op", "h0") is not None
        assert serve_metrics.STORE_EVICTIONS.total() == 1


def test_eviction_reads_the_lru_index():
    with CanonicalStore(":memory:", max_entries=2) as store:
        statements = []
        store._conn.set_trace_callback(statements.append)
        for i in range(3):
            store.put("op", f"h{i}", {"i": i})
        store._conn.set_trace_callback(None)
        (evict,) = [s for s in statements if s.startswith("DELETE")]
        # Older Pythons trace the statement with its `?` unbound.
        params = (1,) if "?" in evict else ()
        plan = [
            row[-1]
            for row in store._conn.execute("EXPLAIN QUERY PLAN " + evict, params)
        ]
    assert any("entries_lru" in step for step in plan), plan
    assert not any("TEMP B-TREE" in step for step in plan), plan


def test_file_store_runs_the_write_ahead_log(tmp_path):
    with CanonicalStore(str(tmp_path / "answers.db")) as store:
        assert store._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
    with CanonicalStore(":memory:") as store:
        assert store._conn.execute("PRAGMA journal_mode").fetchone() == ("memory",)


KILLED_AFTER_PUT = r"""
import os, signal, sys
from repro.serve.store import CanonicalStore

store = CanonicalStore(sys.argv[1])
store.put("feasibility", "abc", {"gcd": 2})
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_committed_answer_survives_a_killed_process(tmp_path):
    path = str(tmp_path / "answers.db")
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_AFTER_PUT, path],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    with CanonicalStore(path) as store:
        assert store.get("feasibility", "abc") == {"gcd": 2}


def test_version_mismatch_is_refused_then_wipeable(tmp_path):
    path = str(tmp_path / "answers.db")
    with CanonicalStore(path) as store:
        store.put("classify", "h", {"v": 1})
        with store._lock, store._conn:
            store._conn.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
    with pytest.raises(ServeError, match="version mismatch"):
        CanonicalStore(path)
    with CanonicalStore(path, wipe_on_mismatch=True) as store:
        assert len(store) == 0  # derived data dropped, stamps rewritten
        store.put("classify", "h", {"v": 2})
    with CanonicalStore(path) as store:  # stamps are fresh again
        assert store.get("classify", "h") == {"v": 2}


def test_corrupt_entry_raises_serve_error():
    store = CanonicalStore(":memory:")
    store.put("classify", "h", {"v": 1})
    with store._lock, store._conn:
        store._conn.execute("UPDATE entries SET value = 'not json'")
    with pytest.raises(ServeError, match="corrupt"):
        store.get("classify", "h")


def test_clear_and_delete():
    with CanonicalStore(":memory:") as store:
        store.put("a", "h1", {})
        store.put("b", "h2", {})
        store.delete("a", "h1")
        assert ("a", "h1") not in store
        store.clear()
        assert len(store) == 0


def test_stats_shape():
    with CanonicalStore(":memory:") as store:
        store.put("classify", "h1", {})
        store.put("classify", "h2", {})
        store.put("elect", "h1", {})
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["by_op"] == {"classify": 2, "elect": 1}
        assert serve_metrics.STORE_PUTS.total() == 3
