"""The persistent canonical-form answer cache (SQLite, cross-run).

Where :mod:`repro.perf.cache` memoizes per *network object* and dies with
the process, this store is keyed by the content-addressed
:func:`~repro.graphs.canonical.canonical_hash` of an instance and survives
restarts: a second server process pointed at the same file answers warm
queries without ever running refinement.

Schema (version 1)::

    meta(key TEXT PRIMARY KEY, value TEXT)
        -- 'schema_version', 'canonical_hash_version'
    entries(op TEXT, chash TEXT, value TEXT,       -- canonical JSON
            created REAL, last_used REAL, hits INTEGER,
            PRIMARY KEY (op, chash))

Both version stamps are enforced on open: a store written under a
different schema or a different canonical encoding is refused (a hash
computed under encoding v1 must never address an answer computed under
v2), with ``wipe_on_mismatch=True`` offered for caches that are pure
derived data.

Eviction is LRU by ``last_used`` once ``max_entries`` is exceeded, counted
in ``serve_store_evictions_total``.  The index ``entries_lru`` on
``(last_used, op, chash)`` holds the eviction order, so evicting at
capacity reads the oldest rows off the index instead of sorting the
table.  All access goes through one connection guarded by an ``RLock`` —
the serve layer calls in from executor threads — and every value is
canonical JSON text, so a row read back is byte-identical to the bytes
that were served when it was written.

A file store runs SQLite's write-ahead log with ``synchronous=NORMAL``,
as :class:`~repro.obs.ledger.RunLedger` does: a commit appends to the log
without syncing it, so a ``put`` or the LRU update of a hit costs tens of
microseconds instead of a synced rollback journal's most of a
millisecond.  A committed answer survives a killed process, and the log
cannot be corrupted mid-commit; the last commits before a power loss may
roll back, which the rollback journal's synced commits would have kept.
That is acceptable for the same reason ``wipe_on_mismatch`` is: the
store holds only derived data, and a lost answer is computed again.  An
in-memory store reports journal mode ``memory`` and keeps it.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from ..errors import ServeError
from ..graphs.canonical import CANONICAL_HASH_VERSION
from . import metrics as _m

SCHEMA_VERSION = 1


class CanonicalStore:
    """SQLite-backed ``(op, canonical_hash) → answer`` cache.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` for an ephemeral store (tests).
    max_entries:
        LRU capacity; ``None`` disables eviction.
    wipe_on_mismatch:
        When the file carries a different schema or canonical-encoding
        version, drop its contents instead of raising.  Safe because the
        store holds only derived data.
    """

    def __init__(
        self,
        path: str,
        max_entries: Optional[int] = 100_000,
        wipe_on_mismatch: bool = False,
    ):
        self.path = path
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._init_schema(wipe_on_mismatch)

    # ------------------------------------------------------------------
    # Schema and versioning
    # ------------------------------------------------------------------

    def _init_schema(self, wipe_on_mismatch: bool) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "op TEXT NOT NULL, chash TEXT NOT NULL, value TEXT NOT NULL,"
                "created REAL NOT NULL, last_used REAL NOT NULL,"
                "hits INTEGER NOT NULL DEFAULT 0,"
                "PRIMARY KEY (op, chash))"
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS entries_lru "
                "ON entries (last_used, op, chash)"
            )
            stamps = {
                "schema_version": str(SCHEMA_VERSION),
                "canonical_hash_version": str(CANONICAL_HASH_VERSION),
            }
            existing = dict(
                self._conn.execute("SELECT key, value FROM meta").fetchall()
            )
            stale = {
                key: existing[key]
                for key, want in stamps.items()
                if key in existing and existing[key] != want
            }
            if stale:
                if not wipe_on_mismatch:
                    raise ServeError(
                        f"store {self.path!r} version mismatch {stale}; "
                        "expected schema_version="
                        f"{SCHEMA_VERSION}, canonical_hash_version="
                        f"{CANONICAL_HASH_VERSION} (pass wipe_on_mismatch "
                        "to rebuild)"
                    )
                self._conn.execute("DELETE FROM entries")
                self._conn.execute("DELETE FROM meta")
            for key, value in stamps.items():
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    (key, value),
                )

    # ------------------------------------------------------------------
    # Lookup and insert
    # ------------------------------------------------------------------

    def get(self, op: str, chash: str) -> Optional[Dict[str, Any]]:
        """The cached answer, or ``None``.  A hit refreshes LRU recency."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM entries WHERE op = ? AND chash = ?",
                (op, chash),
            ).fetchone()
            if row is None:
                return None
            with self._conn:
                self._conn.execute(
                    "UPDATE entries SET last_used = ?, hits = hits + 1 "
                    "WHERE op = ? AND chash = ?",
                    (time.time(), op, chash),
                )
        try:
            return json.loads(row[0])
        except ValueError as exc:
            raise ServeError(
                f"corrupt store entry ({op}, {chash[:12]}…): {exc}"
            )

    def put(self, op: str, chash: str, value: Dict[str, Any]) -> None:
        """Insert (or overwrite) an answer; evicts LRU past capacity."""
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
        now = time.time()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO entries "
                "(op, chash, value, created, last_used, hits) "
                "VALUES (?, ?, ?, ?, ?, 0)",
                (op, chash, text, now, now),
            )
            _m.STORE_PUTS.inc()
            if self.max_entries is not None:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
                excess = count - self.max_entries
                if excess > 0:
                    self._conn.execute(
                        "DELETE FROM entries WHERE (op, chash) IN ("
                        "SELECT op, chash FROM entries "
                        "ORDER BY last_used ASC, op ASC, chash ASC LIMIT ?)",
                        (excess,),
                    )
                    _m.STORE_EVICTIONS.inc(excess)

    def delete(self, op: str, chash: str) -> None:
        """Drop one entry (used when verification finds a mismatch)."""
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM entries WHERE op = ? AND chash = ?", (op, chash)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()
            return int(count)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        op, chash = key
        with self._lock:
            return (
                self._conn.execute(
                    "SELECT 1 FROM entries WHERE op = ? AND chash = ?",
                    (op, chash),
                ).fetchone()
                is not None
            )

    def keys(self) -> Iterator[Tuple[str, str]]:
        """All ``(op, chash)`` keys (snapshot, deterministic order)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT op, chash FROM entries ORDER BY op, chash"
            ).fetchall()
        return iter([(op, chash) for (op, chash) in rows])

    def stats(self) -> Dict[str, Any]:
        """Row counts per op plus totals (for /healthz and reports)."""
        with self._lock:
            by_op = dict(
                self._conn.execute(
                    "SELECT op, COUNT(*) FROM entries GROUP BY op ORDER BY op"
                ).fetchall()
            )
            (hits,) = self._conn.execute(
                "SELECT COALESCE(SUM(hits), 0) FROM entries"
            ).fetchone()
        return {
            "path": self.path,
            "entries": sum(by_op.values()),
            "by_op": by_op,
            "persistent_hits": int(hits),
        }

    def clear(self) -> None:
        """Drop every entry (version stamps survive)."""
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM entries")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "CanonicalStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CanonicalStore({self.path!r}, entries={len(self)})"
