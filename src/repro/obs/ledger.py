"""The persistent run ledger: an append-only record of what actually ran.

A campaign's run result (:class:`repro.campaign.CampaignRunResult`) is
in-memory and dies with the process; the serve layer caches *answers*
but not the fact that a query ran.  The ledger is the durable
complement: every battery case, campaign pair, fuzz case and serve
compute appends one row to a schema-versioned SQLite file — instance
canonical hash, seed, outcome classification, move count against the
Theorem 3.1 ``C·r·|E|`` budget, wall time, and the flight-recorder
trace ids — so "what did last night's run actually do?" is a query, not
an archaeology dig.  This is the substrate the ROADMAP's "one campaign
engine, million-case scale" item checkpoints into.

Schema (version 1)::

    meta(key TEXT PRIMARY KEY, value TEXT)
        -- 'schema_version', 'canonical_hash_version'
    runs(id INTEGER PRIMARY KEY AUTOINCREMENT,
         kind TEXT, campaign TEXT, case_index INTEGER,
         instance TEXT, family TEXT, chash TEXT,
         seed INTEGER, predicted TEXT, outcome TEXT, detail TEXT,
         moves INTEGER, budget REAL, steps INTEGER,
         wall_ms REAL, trace_id TEXT, span_id TEXT, created REAL)
    checkpoints(kind TEXT, campaign TEXT,
                shard_index INTEGER, shard_count INTEGER,
                done INTEGER, fingerprint TEXT, version INTEGER,
                state TEXT, updated REAL,
                PRIMARY KEY (kind, campaign, shard_index, shard_count))

Versioning mirrors :class:`repro.serve.store.CanonicalStore`: both
stamps are enforced on open (``wipe_on_mismatch=True`` rebuilds —
ledger rows are derived data in the sense that re-running the campaign
regenerates them byte-identically, wall times aside).

Concurrency: the ledger opens in WAL journal mode with a generous busy
timeout, so several shard processes of one campaign can append to the
same file concurrently — each :meth:`RunLedger.append` (and each
:meth:`RunLedger.append_with_checkpoint`) is a single serialized
transaction.  :meth:`append_with_checkpoint` is the campaign engine's
durability primitive: a chunk of rows and the shard's advanced
checkpoint commit **atomically**, so a SIGKILL at any instant leaves
either both or neither — resuming from the stored checkpoint can never
duplicate or skip a case, which is what makes a resumed run's
:meth:`digest` byte-identical to an uninterrupted one.

Determinism contract: for a fixed campaign config, every column except
``wall_ms`` and ``created`` is a pure function of the seed — including
``trace_id``/``span_id``, which are minted deterministically whether or
not the flight recorder is on.  :meth:`RunLedger.digest` hashes exactly
those deterministic columns in ``case_index`` order, so two ledgers
written by runs with different worker counts compare equal by digest.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from ..errors import MetricsError

LEDGER_SCHEMA_VERSION = 1

#: Version stamp carried by every checkpoint row; a campaign resume
#: refuses checkpoints written by an incompatible engine.
CHECKPOINT_SCHEMA_VERSION = 1

#: Columns hashed by :meth:`RunLedger.digest`, in order.  ``wall_ms`` and
#: ``created`` are deliberately absent: they are the only
#: machine-dependent columns.
DIGEST_COLUMNS = (
    "kind",
    "campaign",
    "case_index",
    "instance",
    "family",
    "chash",
    "seed",
    "predicted",
    "outcome",
    "moves",
    "budget",
    "steps",
    "trace_id",
    "span_id",
)


_INSERT_RUN = (
    "INSERT INTO runs (kind, campaign, case_index, instance,"
    " family, chash, seed, predicted, outcome, detail, moves,"
    " budget, steps, wall_ms, trace_id, span_id, created)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)


@dataclass
class LedgerRow:
    """One appended run record (field semantics in the module docstring)."""

    kind: str
    campaign: str
    case_index: int
    instance: str
    family: str
    chash: str
    seed: int
    predicted: str
    outcome: str
    detail: str = ""
    moves: int = 0
    budget: float = 0.0
    steps: int = 0
    wall_ms: float = 0.0
    trace_id: str = ""
    span_id: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "campaign": self.campaign,
            "case_index": self.case_index,
            "instance": self.instance,
            "family": self.family,
            "chash": self.chash,
            "seed": self.seed,
            "predicted": self.predicted,
            "outcome": self.outcome,
            "detail": self.detail,
            "moves": self.moves,
            "budget": self.budget,
            "steps": self.steps,
            "wall_ms": self.wall_ms,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }


@dataclass
class Checkpoint:
    """One shard's durable progress marker inside a campaign.

    ``done`` counts this shard's committed cases (the first ``done``
    positions of the shard's deterministic index sequence).
    ``fingerprint`` hashes the campaign configuration so a resume with a
    different grid is refused instead of silently mixing sweeps.
    ``state`` carries the JSON state of the engine's resumable stages
    (outcome counts, dedup signature sets) as of the last commit.
    """

    kind: str
    campaign: str
    shard_index: int = 0
    shard_count: int = 1
    done: int = 0
    fingerprint: str = ""
    state: Dict[str, Any] = None  # type: ignore[assignment]
    version: int = CHECKPOINT_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.state is None:
            self.state = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "campaign": self.campaign,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "done": self.done,
            "fingerprint": self.fingerprint,
            "version": self.version,
        }


class RunLedger:
    """SQLite-backed append-only run ledger.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` for an ephemeral ledger (tests).
    wipe_on_mismatch:
        When the file carries a different schema or canonical-encoding
        version, drop its contents instead of raising.
    busy_timeout_ms:
        How long a writer waits on a locked database before giving up —
        generous by default so concurrent shard appends queue instead of
        failing.
    """

    def __init__(
        self,
        path: str,
        wipe_on_mismatch: bool = False,
        busy_timeout_ms: int = 30_000,
    ):
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        # WAL lets shard readers (progress polls, digests) proceed while a
        # writer commits, and keeps committed transactions durable across
        # a SIGKILL.  In-memory databases report "memory" and stay as-is.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._init_schema(wipe_on_mismatch)

    def _init_schema(self, wipe_on_mismatch: bool) -> None:
        # Imported here, not at module top: obs is a low layer and
        # graphs.canonical pulls in the refinement stack.
        from ..graphs.canonical import CANONICAL_HASH_VERSION

        with self._lock, self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS runs ("
                "id INTEGER PRIMARY KEY AUTOINCREMENT,"
                "kind TEXT NOT NULL, campaign TEXT NOT NULL,"
                "case_index INTEGER NOT NULL,"
                "instance TEXT NOT NULL, family TEXT NOT NULL,"
                "chash TEXT NOT NULL,"
                "seed INTEGER NOT NULL, predicted TEXT NOT NULL,"
                "outcome TEXT NOT NULL, detail TEXT NOT NULL DEFAULT '',"
                "moves INTEGER NOT NULL DEFAULT 0,"
                "budget REAL NOT NULL DEFAULT 0,"
                "steps INTEGER NOT NULL DEFAULT 0,"
                "wall_ms REAL NOT NULL DEFAULT 0,"
                "trace_id TEXT NOT NULL DEFAULT '',"
                "span_id TEXT NOT NULL DEFAULT '',"
                "created REAL NOT NULL)"
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS runs_kind_campaign "
                "ON runs (kind, campaign, case_index)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS checkpoints ("
                "kind TEXT NOT NULL, campaign TEXT NOT NULL,"
                "shard_index INTEGER NOT NULL, shard_count INTEGER NOT NULL,"
                "done INTEGER NOT NULL, fingerprint TEXT NOT NULL,"
                "version INTEGER NOT NULL,"
                "state TEXT NOT NULL DEFAULT '{}',"
                "updated REAL NOT NULL,"
                "PRIMARY KEY (kind, campaign, shard_index, shard_count))"
            )
            stamps = {
                "schema_version": str(LEDGER_SCHEMA_VERSION),
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
                    raise MetricsError(
                        f"ledger {self.path!r} version mismatch {stale}; "
                        f"expected schema_version={LEDGER_SCHEMA_VERSION}, "
                        "canonical_hash_version="
                        f"{CANONICAL_HASH_VERSION} (pass wipe_on_mismatch "
                        "to rebuild)"
                    )
                self._conn.execute("DELETE FROM runs")
                self._conn.execute("DELETE FROM checkpoints")
                self._conn.execute("DELETE FROM meta")
            for key, value in stamps.items():
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    (key, value),
                )

    # ------------------------------------------------------------------
    # Append and query
    # ------------------------------------------------------------------

    @staticmethod
    def _row_tuple(r: LedgerRow):
        return (
            r.kind, r.campaign, r.case_index, r.instance, r.family,
            r.chash, r.seed, r.predicted, r.outcome, r.detail,
            r.moves, r.budget, r.steps, r.wall_ms,
            r.trace_id, r.span_id, time.time(),
        )

    def append(self, rows: Iterable[LedgerRow]) -> int:
        """Append rows (one transaction); returns the number written."""
        payload = [self._row_tuple(r) for r in rows]
        with self._lock, self._conn:
            self._conn.executemany(_INSERT_RUN, payload)
        return len(payload)

    def append_with_checkpoint(
        self, rows: Iterable[LedgerRow], checkpoint: Checkpoint
    ) -> int:
        """Append ``rows`` and advance ``checkpoint`` in ONE transaction.

        This is the campaign engine's commit primitive: either the chunk's
        rows land *and* the shard's checkpoint moves past them, or (after a
        crash) neither happened.  Returns the number of rows written.
        """
        payload = [self._row_tuple(r) for r in rows]
        with self._lock, self._conn:
            if payload:
                self._conn.executemany(_INSERT_RUN, payload)
            self._conn.execute(
                "INSERT OR REPLACE INTO checkpoints (kind, campaign,"
                " shard_index, shard_count, done, fingerprint, version,"
                " state, updated) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    checkpoint.kind,
                    checkpoint.campaign,
                    checkpoint.shard_index,
                    checkpoint.shard_count,
                    checkpoint.done,
                    checkpoint.fingerprint,
                    checkpoint.version,
                    json.dumps(checkpoint.state, sort_keys=True),
                    time.time(),
                ),
            )
        return len(payload)

    def checkpoint(
        self,
        kind: str,
        campaign: str,
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> Optional[Checkpoint]:
        """The stored checkpoint for one campaign shard, if any."""
        with self._lock:
            row = self._conn.execute(
                "SELECT done, fingerprint, version, state FROM checkpoints"
                " WHERE kind = ? AND campaign = ? AND shard_index = ?"
                " AND shard_count = ?",
                (kind, campaign, shard_index, shard_count),
            ).fetchone()
        if row is None:
            return None
        done, fingerprint, version, state = row
        if int(version) != CHECKPOINT_SCHEMA_VERSION:
            raise MetricsError(
                f"ledger {self.path!r} holds a checkpoint with schema "
                f"version {version}; this engine speaks "
                f"{CHECKPOINT_SCHEMA_VERSION}"
            )
        return Checkpoint(
            kind=kind,
            campaign=campaign,
            shard_index=shard_index,
            shard_count=shard_count,
            done=int(done),
            fingerprint=str(fingerprint),
            state=json.loads(state),
            version=int(version),
        )

    def checkpoints(self) -> List[Dict[str, Any]]:
        """Every stored checkpoint (shard progress roll-up for ``status``)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT kind, campaign, shard_index, shard_count, done,"
                " fingerprint, version, updated FROM checkpoints"
                " ORDER BY kind, campaign, shard_count, shard_index"
            ).fetchall()
        columns = (
            "kind", "campaign", "shard_index", "shard_count", "done",
            "fingerprint", "version", "updated",
        )
        return [dict(zip(columns, row)) for row in rows]

    def merge_from(self, source: Any) -> int:
        """Copy every run row from ``source`` (a path or ledger) into this
        ledger, preserving all columns including ``created``.

        The shard-merge path: N shard processes each write their own
        ledger file, then CI merges them and checks
        :meth:`digest` equality against a single-shard run — the digest
        orders rows by ``case_index``, so the union of disjoint shards
        hashes identically to the uninterrupted sweep.  Checkpoints are
        deliberately **not** merged (they are per-file shard state).
        Returns the number of rows copied.
        """
        src = source if isinstance(source, RunLedger) else RunLedger(str(source))
        try:
            rows = src.rows()
        finally:
            if src is not source:
                src.close()
        payload = [
            (
                r["kind"], r["campaign"], r["case_index"], r["instance"],
                r["family"], r["chash"], r["seed"], r["predicted"],
                r["outcome"], r["detail"], r["moves"], r["budget"],
                r["steps"], r["wall_ms"], r["trace_id"], r["span_id"],
                r["created"],
            )
            for r in rows
        ]
        with self._lock, self._conn:
            self._conn.executemany(_INSERT_RUN, payload)
        return len(payload)

    def _where(
        self,
        kind: Optional[str],
        campaign: Optional[str],
        outcome: Optional[str] = None,
    ):
        clauses, params = [], []
        for column, value in (
            ("kind", kind), ("campaign", campaign), ("outcome", outcome)
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params

    def count(
        self, kind: Optional[str] = None, campaign: Optional[str] = None
    ) -> int:
        where, params = self._where(kind, campaign)
        with self._lock:
            (n,) = self._conn.execute(
                f"SELECT COUNT(*) FROM runs{where}", params
            ).fetchone()
        return int(n)

    def outcomes(
        self, kind: Optional[str] = None, campaign: Optional[str] = None
    ) -> Dict[str, int]:
        """Outcome-class histogram (matches a report's ``counts``)."""
        where, params = self._where(kind, campaign)
        with self._lock:
            rows = self._conn.execute(
                f"SELECT outcome, COUNT(*) FROM runs{where} "
                "GROUP BY outcome ORDER BY outcome",
                params,
            ).fetchall()
        return {outcome: int(n) for outcome, n in rows}

    def rows(
        self,
        kind: Optional[str] = None,
        campaign: Optional[str] = None,
        outcome: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Matching rows as dicts, ordered by ``(campaign, case_index)``."""
        where, params = self._where(kind, campaign, outcome)
        sql = (
            "SELECT kind, campaign, case_index, instance, family, chash,"
            " seed, predicted, outcome, detail, moves, budget, steps,"
            " wall_ms, trace_id, span_id, created"
            f" FROM runs{where} ORDER BY kind, campaign, case_index, id"
        )
        if limit is not None:
            sql += " LIMIT ?"
            params = params + [limit]
        with self._lock:
            fetched = self._conn.execute(sql, params).fetchall()
        columns = (
            "kind", "campaign", "case_index", "instance", "family", "chash",
            "seed", "predicted", "outcome", "detail", "moves", "budget",
            "steps", "wall_ms", "trace_id", "span_id", "created",
        )
        return [dict(zip(columns, row)) for row in fetched]

    def campaigns(self) -> List[Dict[str, Any]]:
        """Per-``(kind, campaign)`` roll-up: rows, outcomes, total moves."""
        with self._lock:
            groups = self._conn.execute(
                "SELECT kind, campaign, COUNT(*), SUM(moves), SUM(wall_ms)"
                " FROM runs GROUP BY kind, campaign ORDER BY kind, campaign"
            ).fetchall()
        out = []
        for kind, campaign, n, moves, wall in groups:
            out.append(
                {
                    "kind": kind,
                    "campaign": campaign,
                    "rows": int(n),
                    "moves": int(moves or 0),
                    "wall_ms": round(float(wall or 0.0), 3),
                    "outcomes": self.outcomes(kind, campaign),
                }
            )
        return out

    def digest(
        self, kind: Optional[str] = None, campaign: Optional[str] = None
    ) -> str:
        """SHA-256 over the deterministic columns, in case order.

        Two runs of the same campaign config — any worker count, any
        machine — must produce equal digests; that is the acceptance
        check for byte-identical ledger writes.
        """
        digest = hashlib.sha256()
        for row in self.rows(kind, campaign):
            record = {col: row[col] for col in DIGEST_COLUMNS}
            digest.update(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                .encode("utf-8")
            )
            digest.update(b"\n")
        return digest.hexdigest()

    def stats(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "rows": self.count(),
            "campaigns": self.campaigns(),
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunLedger({self.path!r}, rows={self.count()})"


def open_ledger(ledger: Any) -> "RunLedger":
    """Coerce a path or :class:`RunLedger` to a ledger (campaign runners
    accept either)."""
    if isinstance(ledger, RunLedger):
        return ledger
    return RunLedger(str(ledger))
