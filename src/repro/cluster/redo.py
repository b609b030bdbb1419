"""Parallel partitioned restart redo.

Redo is embarrassingly parallel *across pages*: the page_LSN test and
``apply_redo`` touch nothing but the page image and the record, and a
page's records must merely be replayed in log order — the order
*between* pages is immaterial (the serial pass happens to interleave
them only because it walks the log once).  So the pass partitions the
redo targets by ``page_id % parallelism`` and replays each partition on
its own thread over private state:

* the **parent** builds the per-page record lists (one deterministic
  scan of the local log, or of the merged local logs under the fast
  transfer scheme) and reads each target page image from the shared
  disk;
* each **worker** owns a disjoint set of pages; it applies the exact
  serial screening (``record.lsn > page_lsn``) and mutates only its own
  page images and private counters/event buffers — no shared registry,
  tracer or pool is touched from a worker thread;
* after the join, the parent writes the modified images back to the
  shared disk (WAL is satisfied: every covering record came from a
  stable log), emits the buffered ``RECOVERY_REDO``/``RECOVERY_SKIP``
  events in partition order, and folds the counts into the
  :class:`~repro.recovery.aries.RestartSummary`.

Serial equivalence: per page, the same records pass the same screening
in the same order, so the final page images are byte-identical to the
serial pass followed by a flush — the property
``tests/test_parallel_redo.py`` asserts across parallelism levels and
``docs/scaleout.md`` argues in full.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.aries import RestartSummary
    from repro.sd.instance import DbmsInstance
    from repro.wal.log_manager import LogManager

from repro.common.stats import (
    CLUSTER_REDO_PARALLEL_RUNS,
    CLUSTER_REDO_PARTITIONS,
)
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER
from repro.recovery.apply import apply_redo
from repro.storage.page import Page
from repro.wal.records import NO_PAGE, LogRecord

#: One page's redo candidates in log order: ``(lsn, serialized
#: record)``.  The LSN screens (``lsn > page_lsn``) without decoding;
#: only a record that passes is decoded and applied.
RedoChain = List[Tuple[int, bytes]]


def partition_of(page_id: int, n_partitions: int) -> int:
    """The redo partition a page belongs to (stable, trivially even)."""
    return page_id % n_partitions


@dataclass
class _Partition:
    """One worker's share: disjoint pages, records in log order."""

    index: int
    pages: List[Tuple[int, Page, RedoChain]] = field(
        default_factory=list)


@dataclass
class _Outcome:
    """A worker's privately accumulated results."""

    redone: int = 0
    skipped: int = 0
    #: (was_redo, page_id, lsn, other_lsn) in replay order, where
    #: other_lsn is page_lsn_prev for redos and page_lsn for skips.
    events: List[Tuple[bool, int, int, int]] = field(default_factory=list)
    modified: List[int] = field(default_factory=list)


def _replay(partition: _Partition, sabotage: bool) -> _Outcome:
    """Replay one partition (runs on a worker thread; private state
    only — the pages in ``partition`` belong to this worker alone)."""
    out = _Outcome()
    for page_id, page, records in partition.pages:
        touched = False
        for lsn, raw in records:
            if sabotage or lsn > page.page_lsn:
                page_lsn_prev = page.page_lsn
                apply_redo(page, LogRecord.from_bytes(raw)[0])
                touched = True
                out.redone += 1
                out.events.append(
                    (True, page_id, int(lsn), int(page_lsn_prev)))
            else:
                out.skipped += 1
                out.events.append(
                    (False, page_id, int(lsn), int(page.page_lsn)))
        if touched:
            out.modified.append(page_id)
    return out


def replay_partitioned(
    instance: "DbmsInstance",
    per_page: Dict[int, RedoChain],
    parallelism: int,
    summary: "RestartSummary",
    sabotage: bool = False,
) -> None:
    """Partition ``per_page`` and replay it across ``parallelism``
    threads, then write back, trace and account — see the module
    docstring for the split of work between parent and workers.

    ``per_page`` maps page_id -> that page's :data:`RedoChain`, its
    redo candidates in log order (the caller has already applied the
    scan-level screening — RecAddr bounds for local redo, the target
    set for merged redo).
    ``summary`` is the caller's RestartSummary; ``records_redone`` and
    ``redo_skipped_by_lsn`` are folded in.
    """
    disk = instance.pool.disk
    tracer = getattr(instance, "tracer", NULL_TRACER)
    stats = getattr(instance, "stats", None)
    total_records = sum(len(records) for records in per_page.values())

    partitions: Dict[int, _Partition] = {}
    for page_id in sorted(per_page):
        records = per_page[page_id]
        if not records:
            continue
        index = partition_of(page_id, parallelism)
        part = partitions.get(index)
        if part is None:
            part = _Partition(index=index)
            partitions[index] = part
        # The parent reads the image; the worker owns it until the
        # join.  A borrowed copy-on-write view suffices: workers whose
        # records all screen out (``lsn <= page_lsn``) never copy the
        # page at all, and the first ``apply_redo`` detaches a private
        # image — partitions are page-disjoint, so no two workers
        # touch the same window.
        page = disk.read_page_view(page_id)
        part.pages.append((page_id, page, records))
    ordered = [partitions[i] for i in sorted(partitions)]

    if tracer.enabled:
        tracer.emit(
            ev.CLUSTER_REDO_PLAN, system=instance.system_id,
            partitions=len(ordered), parallelism=parallelism,
            records=total_records,
        )
    if stats is not None:
        stats.incr(CLUSTER_REDO_PARALLEL_RUNS)
        stats.incr(CLUSTER_REDO_PARTITIONS, len(ordered))
    if not ordered:
        return

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        outcomes = list(
            pool.map(lambda part: _replay(part, sabotage), ordered))

    # Post-join, single-threaded: deterministic trace emission (partition
    # order, then log order within each page), disk write-back of the
    # modified images, and summary accounting.  Each partition's buffered
    # events land inside a redo_part span so the profiler can attribute
    # the replay cost per partition.
    for part, out in zip(ordered, outcomes):
        if tracer.enabled:
            with tracer.span(
                ev.SPAN_REDO_PART, system=instance.system_id,
                partition=part.index,
            ):
                for was_redo, page_id, lsn, other in out.events:
                    if was_redo:
                        tracer.emit(
                            ev.RECOVERY_REDO, system=instance.system_id,
                            page=page_id, lsn=lsn, page_lsn_prev=other,
                        )
                    else:
                        tracer.emit(
                            ev.RECOVERY_SKIP, system=instance.system_id,
                            page=page_id, lsn=lsn, page_lsn=other,
                        )
                tracer.emit(
                    ev.CLUSTER_REDO_PART, system=instance.system_id,
                    partition=part.index, pages=len(part.pages),
                    records=sum(len(r) for _, _, r in part.pages),
                    redone=out.redone, skipped=out.skipped,
                )
        summary.records_redone += out.redone
        summary.redo_skipped_by_lsn += out.skipped
    modified = {
        page_id: page
        for part in ordered
        for page_id, page, _ in part.pages
    }
    for part, out in zip(ordered, outcomes):
        for page_id in out.modified:
            disk.write_page(modified[page_id])


def collect_local_redo(
    log: "LogManager", dpt: Dict[int, Tuple[int, int]], redo_start: int
) -> Dict[int, RedoChain]:
    """Per-page redo candidates for single-log restart: exactly the
    records the serial pass would consider (page in the DPT, record at
    or after the page's RecAddr), screened on their headers and kept
    as serialized bytes until a replay decides to apply them."""
    per_page: Dict[int, RedoChain] = {}
    tail = log.tail(from_offset=redo_start)
    for offset, next_offset, header in tail.headers():
        page_id = header[4]
        entry = dpt.get(page_id)
        if entry is None or offset < entry[1]:
            continue
        per_page.setdefault(page_id, []).append(
            (header[0], tail.raw(offset, next_offset)))
    return per_page


def collect_merged_redo(
    all_logs: Sequence["LogManager"], targets: Collection[int],
) -> Dict[int, RedoChain]:
    """Per-page redo candidates for merged-log (fast scheme) restart:
    the deterministic k-way header merge filtered to the target pages."""
    from repro.wal.merge import merge_headers

    per_page: Dict[int, RedoChain] = {}
    for tail, offset, next_offset, header in merge_headers(all_logs):
        page_id = header[4]
        if page_id != NO_PAGE and page_id in targets:
            per_page.setdefault(page_id, []).append(
                (header[0], tail.raw(offset, next_offset)))
    return per_page
