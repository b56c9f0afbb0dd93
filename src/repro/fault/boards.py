"""Whiteboard faults: lost/corrupted writes, CRC detection, provenance.

:class:`FaultyWhiteboard` replaces a node's board and misbehaves on a
declaratively chosen agent write — the *nth* runtime-era append is dropped
(the agent believes it wrote; nothing lands) or corrupted (an integer delta
is applied to the payload).  Every append also journals the CRC-32
fingerprint of the sign the agent *asked* to store
(:meth:`repro.sim.signs.Sign.fingerprint`), so :meth:`FaultyWhiteboard.audit`
can afterwards detect any surviving corrupted sign — the detection side of
the fault model, analogous to checksummed storage.

The board also decides **provenance** as it stores each sign: it knows the
color of the agent that *performed* the write (the ``writer=`` the runtime
threads through :meth:`Whiteboard.append`), and a sign whose claimed color
differs from its writer is a *forgery* — a Byzantine lie, not a bit flip.
Forged writes are journaled with their writer in :attr:`FaultyWhiteboard.forged`;
:meth:`audit_findings` reports the two evidence kinds separately so the
campaign classifier can tell injection kinds apart, and the cheat detector
reads the live forgeries alone (:meth:`FaultyWhiteboard.forgeries`).

Home-base marks (``kind == "homebase"``) are exempt from both faults and
from the nth-write counting: the paper treats them as part of the *instance*
("the home-base of a is marked with a sign of color c(a)"), not as runtime
messages, and dropping one would change which election problem is being
solved rather than perturb how it is solved.  Their provenance is still
checked: a *forged* home-base mark (an agent planting another color's
home claim) is precisely the spoofed-ownership lie the detection layer
exists to catch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..colors import Color
from ..sim.signs import HOMEBASE, Sign
from ..sim.whiteboard import Whiteboard

#: Audit finding kinds (first element of :meth:`FaultyWhiteboard.audit_findings`).
CORRUPTED = "corrupted"
FORGED = "forged"


class FaultyWhiteboard(Whiteboard):
    """A whiteboard that drops or corrupts selected agent writes."""

    __slots__ = (
        "node",
        "_drops",
        "_corruptions",
        "_appends",
        "journal",
        "forged",
        "_log",
    )

    def __init__(
        self,
        node: int,
        drops: Sequence[int] = (),
        corruptions: Sequence[Tuple[int, int]] = (),
        log: Optional[object] = None,
    ):
        """``drops`` are 1-based agent-write indices to lose; ``corruptions``
        are ``(nth, delta)`` pairs applying ``delta`` to the first payload
        element of the nth agent write.  ``log`` is the fault plan's
        injection journal (anything with ``record(kind, **info)``)."""
        super().__init__()
        self.node = node
        self._drops = frozenset(drops)
        self._corruptions = dict(corruptions)
        self._appends = 0
        #: ``(stored_sign, requested_fingerprint)`` pairs.  Strong
        #: references on purpose: the audit must be able to recompute the
        #: fingerprint of exactly the object that was stored.
        self.journal: List[Tuple[Sign, int]] = []
        #: ``(stored_sign, writer_color)`` pairs for every stored write
        #: whose sign claims a color other than its writer's, in write
        #: order (home-base marks included, dropped writes excluded —
        #: nothing landed, so nothing can mislead).  Direct board pokes
        #: that bypass the runtime have no writer and are never forged.
        self.forged: List[Tuple[Sign, Color]] = []
        self._log = log

    def append(
        self, sign: Sign, writer: Optional[Color] = None
    ) -> Optional[Sign]:
        if sign.kind == HOMEBASE:
            stored = super().append(sign, writer)
            self._journal_forgery(stored, writer)
            return stored
        self._appends += 1
        nth = self._appends
        if nth in self._drops:
            if self._log is not None:
                self._log.record(
                    "write-drop", node=self.node, sign=sign.kind, nth=nth
                )
            # The write is lost: no board mutation, no version bump.  The
            # runtime's Write path returns None to signal the loss (the
            # *agent* is not told — that is the point of the fault).
            return None
        requested = sign
        delta = self._corruptions.get(nth)
        if delta is not None:
            payload = sign.payload
            payload = (
                (payload[0] + delta,) + payload[1:] if payload else (delta,)
            )
            sign = Sign(kind=sign.kind, color=sign.color, payload=payload)
            if self._log is not None:
                self._log.record(
                    "write-corrupt",
                    node=self.node,
                    sign=sign.kind,
                    nth=nth,
                    delta=delta,
                )
        stored = super().append(sign, writer)
        self.journal.append((stored, requested.fingerprint()))
        self._journal_forgery(stored, writer)
        return stored

    def _journal_forgery(self, stored: Sign, writer: Optional[Color]) -> None:
        if (
            writer is not None
            and stored.color is not None
            and stored.color != writer
        ):
            self.forged.append((stored, writer))

    def forgeries(self) -> List[str]:
        """One message per live forged sign, in write order.

        Erased forgeries cannot mislead anyone and are skipped.  No CRC is
        computed: this is the provenance half of :meth:`audit_findings`.
        """
        if not self.forged:
            return []
        live = {id(s) for s in self._signs}
        return [
            f"node {self.node}: {stored.kind} sign claims color "
            f"{stored.color.name or '?'} but was written by "
            f"{writer.name or '?'} (forged provenance)"
            for stored, writer in self.forged
            if id(stored) in live
        ]

    def audit_findings(self) -> List[Tuple[str, str]]:
        """Typed audit: ``(kind, message)`` per detectable bad sign.

        Two evidence kinds, distinguishable by the classifier:

        * :data:`CORRUPTED` — a surviving sign whose bits mismatch the
          write-time CRC fingerprint (a benign fault: storage corruption);
        * :data:`FORGED` — a surviving sign whose claimed color differs
          from the recorded writer's color (a Byzantine lie: the sign was
          planted, not corrupted — its CRC is intact).

        Erased signs cannot mislead anyone and are skipped in both cases.
        """
        # Read the raw list (not snapshot()) so audits do not perturb the
        # whiteboard observation hook's counters.
        live = {id(s) for s in self._signs}
        findings: List[Tuple[str, str]] = []
        for stored, requested_fp in self.journal:
            if id(stored) not in live:
                continue
            if stored.fingerprint() != requested_fp:
                findings.append(
                    (
                        CORRUPTED,
                        f"node {self.node}: stored {stored.kind} sign "
                        f"payload={stored.payload} fails its write-time CRC",
                    )
                )
        findings.extend((FORGED, message) for message in self.forgeries())
        return findings

    def audit(self) -> List[str]:
        """Human-readable findings (see :meth:`audit_findings`).

        An empty list means every surviving write is bit-identical to what
        its writer requested *and* carries its true writer's color.
        """
        return [message for _, message in self.audit_findings()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultyWhiteboard(node={self.node}, {len(self._signs)} signs, "
            f"drops={sorted(self._drops)}, corruptions={self._corruptions})"
        )
