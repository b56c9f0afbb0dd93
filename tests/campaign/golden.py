"""Shared sweep helper of the ledger golden tests.

``RunLedger.digest`` hashes only ``DIGEST_COLUMNS``, so it misses the
``detail`` column.  :func:`sweep` also returns a hash over every column
``RunLedger.rows()`` returns except the two that are not a function of
the configuration (``wall_ms`` and ``created``), which pins ``detail``
too.
"""

import hashlib
import json

from repro.campaign.engine import CampaignEngine
from repro.obs.ledger import open_ledger
from repro.perf import invalidate

#: The ``rows()`` columns that depend on the clock, not the configuration.
CLOCK_COLUMNS = ("wall_ms", "created")


def sweep(spec, tmp_path):
    """Run ``spec`` serially into a fresh ledger, with cold caches.

    Returns ``(run result, full-row hash)``.
    """
    invalidate()
    ledger = open_ledger(str(tmp_path / "ledger.db"))
    try:
        run = CampaignEngine(spec, ledger=ledger, workers=1).run()
        rows = hashlib.sha256()
        for row in ledger.rows():
            record = {k: v for k, v in row.items() if k not in CLOCK_COLUMNS}
            rows.update(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                .encode("utf-8")
            )
            rows.update(b"\n")
        return run, rows.hexdigest()
    finally:
        ledger.close()
