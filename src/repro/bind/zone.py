"""Authoritative zones with SOA serial numbers.

A zone maps (owner name, record type) to record sets.  Dynamic updates
— the HNS modification to BIND — bump the SOA serial, which secondary
servers and the cache-preload mechanism use to detect staleness.

Each update is also journalled: the zone keeps a bounded list of
:class:`ZoneDelta` entries, one per serial bump, recording the record
set for the touched ``(name, type)`` *after* the change (an empty set
means the key was deleted).  :meth:`Zone.delta_since` replays the
journal for incremental zone transfer (IXFR); when the requested serial
predates the journal window, it returns ``None`` and the caller falls
back to a full AXFR.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.bind.errors import NameNotFound
from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType


@dataclasses.dataclass(frozen=True)
class ZoneDelta:
    """One journalled dynamic update: the state of ``(name, rtype)``
    after the serial bump that produced it.  ``records`` empty means
    the key was deleted."""

    serial: int
    name: DomainName
    rtype: RRType
    records: typing.Tuple[ResourceRecord, ...]


class Zone:
    """All authoritative data under one origin."""

    def __init__(
        self,
        origin: typing.Union[str, DomainName],
        default_ttl: float = 3_600_000,
        journal_limit: int = 512,
    ):
        if default_ttl < 0:
            raise ValueError("default TTL must be non-negative")
        if journal_limit < 0:
            raise ValueError("journal limit must be non-negative")
        self.origin = DomainName(origin)
        self.default_ttl = default_ttl
        self.serial = 1
        self.journal_limit = journal_limit
        self._journal: typing.List[ZoneDelta] = []
        self._records: typing.Dict[
            typing.Tuple[DomainName, RRType], typing.List[ResourceRecord]
        ] = {}

    # ------------------------------------------------------------------
    def _check_in_zone(self, name: DomainName) -> None:
        if not name.is_subdomain_of(self.origin):
            raise ValueError(f"{name} is outside zone {self.origin}")

    def _journal_current(self, name: DomainName, rtype: RRType) -> None:
        """Journal the post-change state of (name, rtype) at the
        current serial."""
        records = tuple(self._records.get((name, rtype), ()))
        self._append_delta(ZoneDelta(self.serial, name, rtype, records))

    def _append_delta(self, delta: ZoneDelta) -> None:
        self._journal.append(delta)
        if len(self._journal) > self.journal_limit:
            del self._journal[: len(self._journal) - self.journal_limit]

    def add(self, record: ResourceRecord) -> None:
        """Add one record (duplicates by exact data are collapsed)."""
        self._check_in_zone(record.name)
        key = (record.name, record.rtype)
        existing = self._records.setdefault(key, [])
        if any(r.data == record.data for r in existing):
            # Same data: treat as a TTL refresh.
            self._records[key] = [
                record if r.data == record.data else r for r in existing
            ]
        else:
            existing.append(record)
        self.serial += 1
        self._journal_current(record.name, record.rtype)

    def remove(self, name: typing.Union[str, DomainName], rtype: RRType) -> int:
        """Delete all records for (name, type); returns how many."""
        name = DomainName(name)
        removed = self._records.pop((name, rtype), [])
        if removed:
            self.serial += 1
            self._journal_current(name, rtype)
        return len(removed)

    def replace(
        self, name: typing.Union[str, DomainName], rtype: RRType, records: typing.Sequence[ResourceRecord]
    ) -> None:
        """Atomically replace the record set for (name, type)."""
        name = DomainName(name)
        self._check_in_zone(name)
        for record in records:
            if record.name != name or record.rtype is not rtype:
                raise ValueError(f"{record} does not belong to ({name}, {rtype})")
        if records:
            self._records[(name, rtype)] = list(records)
        else:
            self._records.pop((name, rtype), None)
        self.serial += 1
        self._journal_current(name, rtype)

    # ------------------------------------------------------------------
    def delta_since(self, serial: int) -> typing.Optional[typing.List[ZoneDelta]]:
        """Journal entries newer than ``serial``, oldest first.

        Returns ``[]`` when the requester is already current, and
        ``None`` when the journal no longer reaches back far enough
        (truncated by ``journal_limit``, or the requester predates the
        journal entirely) — the IXFR signal to fall back to AXFR.
        Serial bumps are one journal entry each, so coverage holds iff
        the oldest entry's serial is ``<= serial + 1``.
        """
        if serial >= self.serial:
            return []
        journal = self._journal
        if not journal or journal[0].serial > serial + 1:
            return None
        # Journal serials ascend: bisect for the first entry past
        # ``serial`` (by hand, since bisect takes no key= before 3.10).
        lo, hi = 0, len(journal)
        while lo < hi:
            mid = (lo + hi) // 2
            if journal[mid].serial > serial:
                hi = mid
            else:
                lo = mid + 1
        return journal[lo:]

    def apply_delta(self, delta: ZoneDelta) -> None:
        """Apply one journalled update from a primary to this replica.

        Installs the record set verbatim, adopts the delta's serial, and
        re-journals the entry so the replica can itself serve IXFR to
        downstream requesters.
        """
        self._check_in_zone(delta.name)
        key = (delta.name, delta.rtype)
        if delta.records:
            self._records[key] = list(delta.records)
        else:
            self._records.pop(key, None)
        self.serial = delta.serial
        self._append_delta(delta)

    def reset_journal(self) -> None:
        """Discard the journal (after a full AXFR install the local
        journal's serials are fabricated, so downstream IXFR must fall
        back to AXFR until real deltas accumulate)."""
        self._journal.clear()

    def lookup(
        self, name: typing.Union[str, DomainName], rtype: RRType
    ) -> typing.List[ResourceRecord]:
        """Exact-match lookup; raises :class:`NameNotFound` on miss."""
        name = DomainName(name)
        records = self._records.get((name, rtype))
        if not records:
            raise NameNotFound(f"{name} {rtype} in zone {self.origin}")
        return list(records)

    def contains(self, name: typing.Union[str, DomainName], rtype: RRType) -> bool:
        return (DomainName(name), rtype) in self._records

    def names(self) -> typing.Set[DomainName]:
        return {name for name, _ in self._records}

    def all_records(self) -> typing.List[ResourceRecord]:
        """Every record in the zone, in stable order (for AXFR)."""
        out: typing.List[ResourceRecord] = []
        for key in sorted(self._records, key=lambda k: (k[0], k[1].value)):
            out.extend(self._records[key])
        return out

    @property
    def record_count(self) -> int:
        return sum(len(v) for v in self._records.values())

    def wire_size(self) -> int:
        """Approximate transfer size of the whole zone (bytes)."""
        return sum(r.wire_size() for r in self.all_records())

    def __repr__(self) -> str:
        return f"<Zone {self.origin} serial={self.serial} records={self.record_count}>"
