"""ARIES restart recovery, adapted to the multi-system setting.

The three passes over the failed system's **local log only** — the
paper's Section 3.1 assumption (medium page-transfer scheme: a page on
disk holds dirty updates of at most one system) is precisely what makes
single-log redo correct, and this module is where that assumption pays
off.

Redo logic is untouched relative to single-system ARIES (Section 3.2.1,
"Restart Processing": redo iff ``record.LSN > page_LSN``) — that is the
paper's point: the USN scheme preserves the page-state comparison while
abandoning the address interpretation of LSNs.  The test itself lives in
:mod:`repro.recovery.redo`; the passes here only schedule it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Optional, Tuple

from repro.common.config import NULL_LSN
from repro.common.lsn import Lsn
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.recovery.apply import apply_payload
from repro.recovery.redo import emit, redo_record
from repro.txn.transaction import Transaction
from repro.wal.records import (
    NO_PAGE,
    CheckpointData,
    LogRecord,
    RecordKind,
    make_clr,
)

_COMMITTED = 1
_ACTIVE = 0

# Record kinds as the header walk yields them (the raw code byte).
_COMMIT = int(RecordKind.COMMIT)
_END = int(RecordKind.END)
_END_CHECKPOINT = int(RecordKind.END_CHECKPOINT)


@dataclass
class RestartSummary:
    """What restart recovery did (experiment E7 reports these)."""

    records_analyzed: int = 0
    records_redone: int = 0
    redo_skipped_by_lsn: int = 0
    loser_transactions: int = 0
    clrs_written: int = 0
    dirty_pages_at_crash: int = 0
    redo_scan_start: int = 0


def _tracer_of(instance) -> NullTracer:
    """The instance's tracer (instances are duck-typed here)."""
    return getattr(instance, "tracer", NULL_TRACER)


def restart_recovery(instance, fix_page=None,
                     unfix_page=None) -> RestartSummary:
    """Recover one failed system from its own local log.

    ``instance`` is duck-typed: it needs ``log``, ``pool`` and
    ``system_id``.  On return, all committed updates are reflected in
    the buffer pool / disk, all loser transactions are undone with CLRs
    and closed with END records.

    ``fix_page``/``unfix_page`` override how the **undo** pass reaches
    pages.  In the multi-system architectures they must go through the
    coherency layer: under record locking a loser's page may have
    migrated to another system after the loser's update (the page with
    its uncommitted bytes was legally written to disk and re-fetched),
    so the disk version the local pool would read can be stale —
    undoing against it would stamp a CLR LSN at or above another
    system's committed record and break per-page monotonicity.  Redo
    needs no override: the medium transfer scheme guarantees the disk
    version lacks only this system's own tail of updates.
    """
    log = instance.log
    tracer = _tracer_of(instance)
    system_id = instance.system_id
    summary = RestartSummary()
    with tracer.span(ev.SPAN_RECOVERY, system=system_id, mode="restart"):
        if tracer.enabled:
            tracer.emit(ev.RECOVERY_BEGIN, system=system_id,
                        mode="restart")
        # The Lamport clock must be re-seeded before any CLR is appended.
        log.recover_local_max()

        with tracer.span(ev.SPAN_ANALYSIS, system=system_id):
            dpt, losers = analysis_pass(log, summary)
        summary.dirty_pages_at_crash = len(dpt)
        summary.loser_transactions = len(losers)
        with tracer.span(ev.SPAN_REDO, system=system_id):
            _redo_pass(instance, dpt, summary)
        with tracer.span(ev.SPAN_UNDO, system=system_id):
            _undo_pass(instance, losers, summary,
                       fix_page=fix_page, unfix_page=unfix_page)
        log.force()
        if tracer.enabled:
            tracer.emit(
                ev.RECOVERY_END, system=system_id,
                redone=summary.records_redone,
                skipped=summary.redo_skipped_by_lsn,
                losers=summary.loser_transactions,
                clrs=summary.clrs_written,
            )
    return summary


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def analysis_pass(
    log, summary: RestartSummary
) -> Tuple[Dict[int, Tuple[Lsn, int]], Dict[int, Lsn]]:
    """Rebuild the dirty page table and find loser transactions.

    Returns ``(dpt, losers)`` where dpt maps page_id -> (RecLSN,
    RecAddr) and losers maps txn_id -> last_lsn.

    Public because it is the shared first act of every restart
    flavour: classic eager recovery here, staged restart
    (:mod:`repro.recovery.staged`) and instant restart
    (:mod:`repro.recovery.instant`) both run exactly this pass and
    then diverge in *when* redo work happens.
    """
    dpt: Dict[int, Tuple[Lsn, int]] = {}
    txn_table: Dict[int, Tuple[Lsn, int]] = {}  # txn -> (last_lsn, state)
    tail = log.tail(from_offset=log.master_record_offset or 0)
    analyzed = 0
    for offset, _, header in tail.headers():
        lsn, _, txn_id, _, page_id, _, _, _, _, _, kind = header
        analyzed += 1
        if kind == _END_CHECKPOINT:
            data = CheckpointData.from_bytes(tail.record(offset, header).extra)
            for page_id, entry in data.dirty_pages.items():
                dpt.setdefault(page_id, entry)
            for txn_id, entry in data.transactions.items():
                txn_table.setdefault(txn_id, entry)
            continue
        if txn_id:
            if kind == _END:
                txn_table.pop(txn_id, None)
            elif kind == _COMMIT:
                txn_table[txn_id] = (lsn, _COMMITTED)
            else:
                prior_state = txn_table.get(txn_id, (0, _ACTIVE))[1]
                txn_table[txn_id] = (lsn, prior_state)
        if page_id != NO_PAGE and page_id not in dpt:
            dpt[page_id] = (lsn, offset)
    summary.records_analyzed += analyzed
    losers = {
        txn_id: last_lsn
        for txn_id, (last_lsn, state) in txn_table.items()
        if state != _COMMITTED
    }
    return dpt, losers


# ----------------------------------------------------------------------
# redo — repeating history
# ----------------------------------------------------------------------
def _redo_pass(instance, dpt: Dict[int, Tuple[Lsn, int]],
               summary: RestartSummary) -> None:
    """Repeat history in local-log order from the oldest RecAddr."""
    if not dpt:
        return
    pool = instance.pool
    tracer = _tracer_of(instance)
    redo_start = min(rec_addr for _, rec_addr in dpt.values())
    summary.redo_scan_start = redo_start
    tail = instance.log.tail(from_offset=redo_start)
    load = tail.record
    for offset, next_offset, header in tail.headers():
        page_id = header[4]
        entry = dpt.get(page_id)
        if entry is None or offset < entry[1]:
            continue  # not dirty at the crash, or written to disk since
        lsn = header[0]
        page = pool.fix(page_id)
        try:
            prev = redo_record(page, lsn, load, offset, header)
            if prev is not None:
                pool.note_update(page_id, lsn, offset, next_offset)
                summary.records_redone += 1
            else:
                summary.redo_skipped_by_lsn += 1
            if tracer.enabled:
                emit(tracer, instance.system_id, page_id, lsn, prev,
                     page.page_lsn)
        finally:
            pool.unfix(page_id)


# ----------------------------------------------------------------------
# fast-scheme restart: merged-log redo (the paper's Section 5 extension)
# ----------------------------------------------------------------------
def fast_restart_recovery(
    instance,
    all_logs,
    candidate_pages,
    skip_page_ids=(),
    fix_page=None,
    unfix_page=None,
) -> RestartSummary:
    """Restart recovery under the fast page-transfer scheme.

    With memory-to-memory dirty-page transfer, a page lost with the
    failed system's buffers may carry updates from *several* systems
    that never reached disk, so redo must replay the **merged** local
    logs ([MoNa91]; the paper's Section 5: schemes that "rely on a
    realtime merged log").  Redo targets are ``candidate_pages`` (the
    failed system's dirty-page table plus its retained page ownership);
    ``skip_page_ids`` are pages whose current version is safe in a live
    system's buffer pool and therefore needs no reconstruction.

    Undo still uses only the failed system's own log — transactions are
    local — but applies through ``fix_page``/``unfix_page`` (usually
    coherency-mediated), because a loser's page may by now live in
    another system's pool.
    """
    log = instance.log
    tracer = _tracer_of(instance)
    system_id = instance.system_id
    summary = RestartSummary()
    with tracer.span(ev.SPAN_RECOVERY, system=system_id, mode="fast"):
        if tracer.enabled:
            tracer.emit(ev.RECOVERY_BEGIN, system=system_id, mode="fast")
        log.recover_local_max()
        with tracer.span(ev.SPAN_ANALYSIS, system=system_id):
            dpt, losers = analysis_pass(log, summary)
        summary.dirty_pages_at_crash = len(dpt)
        summary.loser_transactions = len(losers)

        targets = (set(dpt) | set(candidate_pages)) - set(skip_page_ids)
        with tracer.span(ev.SPAN_REDO, system=system_id):
            if targets:
                _merged_redo(instance, all_logs, targets, summary)
        with tracer.span(ev.SPAN_UNDO, system=system_id):
            _undo_pass(instance, losers, summary,
                       fix_page=fix_page, unfix_page=unfix_page)
        log.force()
        if tracer.enabled:
            tracer.emit(
                ev.RECOVERY_END, system=system_id,
                redone=summary.records_redone,
                skipped=summary.redo_skipped_by_lsn,
                losers=summary.loser_transactions,
                clrs=summary.clrs_written,
            )
    return summary


def _merged_redo(instance, all_logs, targets, summary: RestartSummary) -> None:
    """Merged-log redo (fast scheme) over the target pages."""
    from repro.wal.merge import merge_headers

    log = instance.log
    pool = instance.pool
    tracer = _tracer_of(instance)
    for tail, offset, _, header in merge_headers(all_logs):
        page_id = header[4]
        if page_id == NO_PAGE or page_id not in targets:
            continue
        lsn = header[0]
        page = pool.fix(page_id)
        try:
            prev = redo_record(page, lsn, tail.record, offset, header)
            if prev is not None:
                # The covering records are in their writers' stable
                # logs; nothing to force locally before page writes.
                bcb = pool.bcb(page_id)
                if not bcb.dirty:
                    bcb.dirty = True
                    bcb.rec_lsn = lsn
                    bcb.rec_addr = log.end_offset
                summary.records_redone += 1
            else:
                summary.redo_skipped_by_lsn += 1
            if tracer.enabled:
                emit(tracer, instance.system_id, page_id, lsn, prev,
                     page.page_lsn)
        finally:
            pool.unfix(page_id)


# ----------------------------------------------------------------------
# undo — rollback of losers with CLRs
# ----------------------------------------------------------------------
def _undo_pass(instance, losers: Dict[int, Lsn],
               summary: RestartSummary,
               fix_page=None, unfix_page=None) -> None:
    if not losers:
        return
    log = instance.log
    index = _loser_index(log, losers)
    next_undo: Dict[int, Lsn] = dict(losers)
    last_lsn: Dict[int, Lsn] = dict(losers)
    while next_undo:
        txn_id = max(next_undo, key=lambda t: next_undo[t])
        lsn = next_undo[txn_id]
        offset = index.get(lsn)
        if offset is None or lsn == NULL_LSN:
            _finish_loser(instance, txn_id, last_lsn[txn_id])
            del next_undo[txn_id]
            continue
        record = log.read_record_at(offset)
        if record.kind == RecordKind.CLR:
            follow = record.undo_next_lsn
        elif record.is_undoable():
            clr_lsn = _compensate(instance, txn_id, record,
                                  last_lsn[txn_id],
                                  fix_page=fix_page, unfix_page=unfix_page)
            last_lsn[txn_id] = clr_lsn
            summary.clrs_written += 1
            follow = record.prev_lsn
        else:
            follow = record.prev_lsn
        if follow == NULL_LSN:
            _finish_loser(instance, txn_id, last_lsn[txn_id])
            del next_undo[txn_id]
        else:
            next_undo[txn_id] = follow


def _loser_index(log, losers: Collection[int]) -> Dict[Lsn, int]:
    """LSN -> log offset of every record the ``losers`` wrote.

    A header walk: no record is decoded here; undo decodes (with
    ``log.read_record_at``) only the records it follows.  LSNs are
    unique within one local log because the USN rule is strictly
    increasing.  The archive-truncation rule keeps every active
    transaction's records on the active log, so the walk starts there.
    """
    return {
        header[0]: offset
        for offset, _, header
        in log.tail(from_offset=log.archived_offset).headers()
        if header[2] in losers
    }


def _compensate(instance, txn_id: int, record: LogRecord,
                prev_lsn: Lsn, fix_page=None, unfix_page=None) -> Lsn:
    """Undo one update, logging the CLR first (so the rollback itself
    survives a crash-during-restart).

    ``fix_page``/``unfix_page`` default to the instance's own pool; the
    fast-transfer restart path passes coherency-mediated accessors
    because a loser's page may live in another system's buffer.
    """
    log = instance.log
    pool = instance.pool
    if fix_page is None:
        fix_page = pool.fix
    if unfix_page is None:
        unfix_page = pool.unfix
    page = fix_page(record.page_id)
    try:
        clr = make_clr(
            txn_id=txn_id, system_id=instance.system_id,
            page_id=record.page_id, slot=record.slot,
            redo=record.undo, undo_next_lsn=record.prev_lsn,
            prev_lsn=prev_lsn,
        )
        page_lsn_prev = page.page_lsn
        addr = log.append(clr, page_lsn=page_lsn_prev)
        apply_payload(page, record.slot, record.undo, clr.lsn)
        pool.note_update(record.page_id, clr.lsn, addr.offset,
                         log.end_offset)
        tracer = _tracer_of(instance)
        if tracer.enabled:
            tracer.emit(
                ev.RECOVERY_CLR, system=instance.system_id,
                page=record.page_id, txn=txn_id, lsn=int(clr.lsn),
                page_lsn_prev=int(page_lsn_prev),
            )
        return clr.lsn
    finally:
        unfix_page(record.page_id)


def _finish_loser(instance, txn_id: int, prev_lsn: Lsn) -> None:
    end = LogRecord(kind=RecordKind.END, txn_id=txn_id, prev_lsn=prev_lsn)
    instance.log.append(end)


# ----------------------------------------------------------------------
# normal-processing rollback entry point (re-exported convenience)
# ----------------------------------------------------------------------
def rollback_transaction(instance, txn: Transaction,
                         to_savepoint: Optional[str] = None) -> None:
    """Roll back a live transaction (delegates to the instance)."""
    instance.rollback(txn, to_savepoint=to_savepoint)
