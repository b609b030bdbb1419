"""The primary-side log shipper and write-acknowledgement tracking.

One :class:`ReplicationManager` hangs off an
:class:`~repro.sd.complex.SDComplex` (``replicate=`` seam).  It keeps a
byte cursor into every instance's local log, collects newly *stable*
records through :func:`~repro.wal.merge.merge_headers` (LSN-only
comparisons — the Section 3.2.2 discipline), and ships them in bounded
batches over the network fabric to every attached
:class:`~repro.replication.standby.StandbyComplex`.

Only forced records ever leave the primary (``stable_only=True``):
shipping the volatile tail would let a standby hold records the
primary itself loses in a crash, inverting the durability order.

Write-ack levels (the adjustable-durability knob):

* ``local``  — the commit is acknowledged by the primary's log force
  alone; shipping is asynchronous and only the overflow beyond the
  in-flight window is pushed out at commit.
* ``quorum`` — the commit point ships everything stable and waits for
  a majority of {primary} ∪ standbys to hold the commit record.
* ``all``    — every attached standby must hold it.

"Waits" is one bounded synchronous round per standby (retry with
deterministic backoff via :func:`~repro.faults.policy.run_with_retry`);
a standby that cannot be reached is disconnected and the commit
proceeds with the acks it has — the primary enters **ack-degraded**
mode (trace event + counter) rather than stalling.  Every commit's ack
decision is recorded as a :class:`CommitAck`, which the failover drill
audits against what survives promotion.

Disabled replication is the shared :data:`NULL_REPLICATION` object
(``enabled=False``), so ``replicate=None`` stacks stay byte-identical
to pre-replication runs per the equivalence discipline.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.common.errors import (
    FaultInjectedError,
    ReproError,
    RetryExhaustedError,
)
from repro.common.lsn import Lsn
from repro.common.stats import (
    REPL_ACKS,
    REPL_BATCHES_SHIPPED,
    REPL_COMMITS_ACKED,
    REPL_DEGRADED_ENTRIES,
    REPL_RECORDS_SHIPPED,
    REPL_SHIP_RETRIES,
)
from repro.faults import points as fp
from repro.faults.injector import FAIL
from repro.faults.policy import RetryPolicy, run_with_retry
from repro.obs import events as ev
from repro.replication.standby import StandbyComplex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sd.complex import SDComplex

ACK_LOCAL = "local"
ACK_QUORUM = "quorum"
ACK_ALL = "all"
ACK_LEVELS = (ACK_LOCAL, ACK_QUORUM, ACK_ALL)

#: A shipped unit: (source system id, serialized record bytes).
ShipItem = Tuple[int, bytes]


class ReplicationConfig:
    """Tuning knobs for one primary's log shipping."""

    def __init__(
        self,
        ack: str = ACK_QUORUM,
        window_records: int = 64,
        batch_records: int = 8,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if ack not in ACK_LEVELS:
            raise ValueError(f"ack must be one of {ACK_LEVELS}, got {ack!r}")
        if window_records < 1:
            raise ValueError("window_records must be >= 1")
        if batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        self.ack = ack
        self.window_records = window_records
        self.batch_records = batch_records
        self.retry = retry if retry is not None else RetryPolicy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicationConfig(ack={self.ack!r}, "
            f"window_records={self.window_records}, "
            f"batch_records={self.batch_records})"
        )


class CommitAck:
    """The recorded ack decision for one committed transaction."""

    __slots__ = ("system", "txn", "lsn", "level", "satisfied")

    def __init__(self, system: int, txn: int, lsn: int, level: str,
                 satisfied: bool) -> None:
        self.system = system
        self.txn = txn
        self.lsn = lsn
        self.level = level
        self.satisfied = satisfied

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CommitAck(system={self.system}, txn={self.txn}, "
            f"lsn={self.lsn}, level={self.level!r}, "
            f"satisfied={self.satisfied})"
        )


class NullReplication:
    """The zero-cost default: replication switched off.

    Mirrors :data:`~repro.obs.tracer.NULL_TRACER` /
    :data:`~repro.faults.injector.NULL_INJECTOR`: call sites guard on
    ``enabled``, so a ``replicate=None`` stack pays one attribute read
    and emits nothing.
    """

    enabled: bool = False

    def on_commit(self, system: int, txn: int, lsn: Lsn) -> bool:
        """No-op commit hook (never called behind the guard)."""
        return True

    def add_standby(self, system_id: int) -> "StandbyComplex":
        raise ReproError("replication is not enabled on this complex")


#: Shared process-wide null replication; safe because it holds no state.
NULL_REPLICATION = NullReplication()


class _StandbyLink:
    """Primary-side state for one attached standby."""

    __slots__ = ("standby", "acked_lsn", "connected", "degraded")

    def __init__(self, standby: StandbyComplex) -> None:
        self.standby = standby
        self.acked_lsn: int = 0
        self.connected = True
        self.degraded = False

    @property
    def system_id(self) -> int:
        return self.standby.system_id


class ReplicationManager(NullReplication):
    """Ships the primary's merged stable log stream to its standbys."""

    enabled = True

    def __init__(self, primary: "SDComplex",
                 config: Optional[ReplicationConfig] = None) -> None:
        self.primary = primary
        self.config = config if config is not None else ReplicationConfig()
        self.stats = primary.stats
        self.tracer = primary.tracer
        self.injector = primary.injector
        self.network = primary.network
        #: Per-source byte offset already collected into the pending
        #: queue (the ship cursor into each local log).
        self._shipped_offsets: Dict[int, int] = {}
        #: Collected-but-unshipped records, in merged LSN order.
        self._pending: Deque[ShipItem] = deque()
        self._links: Dict[int, _StandbyLink] = {}
        #: Every commit-point ack decision, in commit order (the
        #: failover drill's loss audit reads this).
        self.commit_acks: List[CommitAck] = []

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_standby(self, system_id: int) -> StandbyComplex:
        """Attach a new standby complex mirroring the primary geometry."""
        if system_id in self._links:
            raise ReproError(f"standby {system_id} already attached")
        if system_id in self.primary.instances:
            raise ReproError(
                f"system {system_id} is a primary instance, not a standby")
        standby = StandbyComplex(system_id, self.primary)
        self._links[system_id] = _StandbyLink(standby)
        return standby

    def standbys(self) -> Dict[int, StandbyComplex]:
        return {sid: link.standby for sid, link in self._links.items()}

    def acked_lsn(self, system_id: int) -> int:
        """The cumulative LSN the standby last acknowledged."""
        return self._links[system_id].acked_lsn

    def connected(self, system_id: int) -> bool:
        return self._links[system_id].connected

    @property
    def ack_degraded(self) -> bool:
        """Is any standby currently behind on acks / unreachable?"""
        return any(link.degraded for link in self._links.values())

    def pending_records(self) -> int:
        """Collected records not yet shipped (the replication lag, in
        records, against the primary's stable log boundary)."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # the commit hook
    # ------------------------------------------------------------------
    def on_commit(self, system: int, txn: int, lsn: Lsn) -> bool:
        """Enforce the configured ack level for one forced commit.

        Called by :meth:`DbmsInstance._commit` right after the commit
        log force (the record at ``lsn`` is stable locally).  Returns
        whether the level was satisfied; the commit proceeds either way
        — an unsatisfied level degrades, never stalls.
        """
        self._collect()
        level = self.config.ack
        if level == ACK_LOCAL:
            # Asynchronous shipping: only the overflow beyond the
            # in-flight window leaves at the commit point, so the
            # unshipped tail — the most a crash can lose — stays
            # bounded by window_records.
            self._flush(limit=self.config.window_records)
            satisfied = True
            self._note_link_health()
        else:
            self._flush(limit=0)
            satisfied = self._await_acks(int(lsn), level)
        ack = CommitAck(system, txn, int(lsn), level, satisfied)
        self.commit_acks.append(ack)
        if satisfied:
            self.stats.incr(REPL_COMMITS_ACKED)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.REPL_COMMIT_ACK, system=system, txn=txn, lsn=int(lsn),
                level=level, satisfied=satisfied,
            )
        return satisfied

    def drain(self) -> int:
        """Collect and ship everything stable; returns records shipped.

        The between-commits pump (benchmarks call it to simulate an
        idle-time shipper tick; ``local`` mode relies on it to keep lag
        near zero when commits are sparse).
        """
        self._collect()
        shipped = len(self._pending)
        self._flush(limit=0)
        return shipped - len(self._pending)

    # ------------------------------------------------------------------
    # collect / ship
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        """Pull newly stable records from the merged local logs."""
        from repro.wal.merge import merge_headers

        logs = self.primary.local_logs()
        shipped = self._shipped_offsets
        if all(log.flushed_offset <= shipped.get(log.system_id, 0)
               for log in logs):
            return  # nothing newly stable (every commit of a group asks)
        for tail, offset, next_offset, _ in merge_headers(
                logs, stats=self.stats, from_offsets=dict(shipped),
                stable_only=True):
            self._pending.append(
                (tail.system_id, tail.raw(offset, next_offset)))
            shipped[tail.system_id] = next_offset

    def _flush(self, limit: int) -> None:
        """Ship pending records until at most ``limit`` remain."""
        links = [link for link in self._links.values() if link.connected]
        while len(self._pending) > limit:
            batch: List[ShipItem] = []
            while self._pending and len(batch) < self.config.batch_records:
                batch.append(self._pending.popleft())
            for link in links:
                if link.connected:
                    self._ship_to(link, batch)

    def _ship_to(self, link: _StandbyLink, batch: List[ShipItem]) -> None:
        """Ship one batch to one standby, with bounded retry/backoff.

        An injected ``fail`` at ``repl.ship`` (or anywhere inside the
        standby's apply) is retried under the configured policy;
        exhaustion disconnects the standby — crash-flavoured injections
        propagate untouched, they are the drill's kill signal.
        """
        nbytes = sum(len(data) for _, data in batch)

        def attempt() -> None:
            if self.injector.enabled:
                self.injector.fire(fp.REPL_SHIP, system=link.system_id,
                                   standby=link.system_id,
                                   records=len(batch))
            self.network.message(0, link.system_id, "repl.ship", nbytes)
            link.standby.receive(batch)

        def note_retry(_attempt: int) -> None:
            self.stats.incr(REPL_SHIP_RETRIES)

        try:
            run_with_retry(
                self.config.retry, attempt,
                retryable=FaultInjectedError,
                stats=self.stats, on_retry=note_retry,
                label=f"repl.ship->{link.system_id}",
                should_retry=lambda exc: getattr(exc, "action", "") == FAIL,
            )
        except RetryExhaustedError:
            self._disconnect(link, "ship retry budget exhausted")
            return
        self.stats.incr(REPL_BATCHES_SHIPPED)
        self.stats.incr(REPL_RECORDS_SHIPPED, len(batch))
        if self.tracer.enabled:
            max_lsn = link.standby.applied_max_lsn
            self.tracer.emit(
                ev.REPL_SHIP, system=0, standby=link.system_id,
                records=len(batch), nbytes=nbytes, max_lsn=int(max_lsn),
            )
        self._ack(link)

    def _ack(self, link: _StandbyLink) -> None:
        """One standby→primary ack round trip (cumulative applied LSN).

        An injected ``fail`` at ``repl.ack`` models a lost ack: the
        shipped records survive on the standby, the primary's view of
        its progress simply does not advance until the next round.
        """
        try:
            if self.injector.enabled:
                self.injector.fire(fp.REPL_ACK, system=link.system_id,
                                   standby=link.system_id)
        except FaultInjectedError as exc:
            if exc.action != FAIL:
                raise
            return
        self.network.message(link.system_id, 0, "repl.ack", 16)
        link.acked_lsn = int(link.standby.applied_max_lsn)
        self.stats.incr(REPL_ACKS)
        if self.tracer.enabled:
            self.tracer.emit(ev.REPL_ACK, system=0,
                             standby=link.system_id, lsn=link.acked_lsn)

    # ------------------------------------------------------------------
    # ack accounting
    # ------------------------------------------------------------------
    def _await_acks(self, commit_lsn: int, level: str) -> bool:
        """Has ``level`` been met for the commit record at ``commit_lsn``?

        Everything stable — the commit record included — has been
        shipped by the preceding ``_flush(limit=0)``, so a connected
        standby that acked ``>= commit_lsn`` holds the commit record.
        Standbys whose recorded ack lags get one probe round trip (the
        earlier ack may simply have been lost).
        """
        for _, link in sorted(self._links.items()):
            if link.connected and link.acked_lsn < commit_lsn:
                self._ack(link)
        holders = [link for link in self._links.values()
                   if link.connected and link.acked_lsn >= commit_lsn]
        if level == ACK_ALL:
            satisfied = len(holders) == len(self._links)
        else:  # quorum over {primary} ∪ standbys; the primary's own
            # log force is its vote.
            votes = len(holders) + 1
            total = len(self._links) + 1
            satisfied = votes * 2 > total
        self._note_link_health(commit_lsn)
        return satisfied

    def _note_link_health(self, commit_lsn: Optional[int] = None) -> None:
        """Flip per-standby ack-degraded state and emit the events."""
        for _, link in sorted(self._links.items()):
            behind = (not link.connected
                      or (commit_lsn is not None
                          and link.acked_lsn < commit_lsn))
            if behind and not link.degraded:
                link.degraded = True
                self.stats.incr(REPL_DEGRADED_ENTRIES)
                if self.tracer.enabled:
                    reason = ("disconnected" if not link.connected
                              else "ack behind commit")
                    self.tracer.emit(
                        ev.REPL_DEGRADED_ENTER, system=0,
                        standby=link.system_id, reason=reason,
                    )
            elif not behind and link.degraded:
                link.degraded = False
                if self.tracer.enabled:
                    self.tracer.emit(ev.REPL_DEGRADED_EXIT, system=0,
                                     standby=link.system_id)

    def _disconnect(self, link: _StandbyLink, reason: str) -> None:
        if not link.connected:
            return
        link.connected = False
        if not link.degraded:
            link.degraded = True
            self.stats.incr(REPL_DEGRADED_ENTRIES)
            if self.tracer.enabled:
                self.tracer.emit(ev.REPL_DEGRADED_ENTER, system=0,
                                 standby=link.system_id, reason=reason)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicationManager(ack={self.config.ack!r}, "
            f"standbys={sorted(self._links)}, "
            f"pending={len(self._pending)})"
        )
