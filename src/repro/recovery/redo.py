"""The one redo mechanism every recovery flavour runs.

The paper's restart rule is a single test (Section 3.2.1, "Restart
Processing"): apply a log record to a page iff ``record.LSN >
page_LSN``.  This module is the only place that test lives.  Each
flavour feeds records through it and differs only in its *schedule* —
which records, in which order, against which page image, and where the
result goes:

* eager restart walks the local log (``aries._redo_pass``) or, under
  the fast transfer scheme, the merged logs (``aries._merged_redo``)
  in log order through the buffer pool; the CS server's client
  recovery (``CsServer._client_redo``) does the same over its log;
* instant restart drains per-page chains on first touch or from the
  sweeper (:meth:`~repro.recovery.instant.InstantRecoveryManager.
  recover_page`) straight against the shared disk;
* the hot standby applies each shipped record as it arrives;
* media recovery and the SD complex's undo-fixer fallback replay the
  merged logs over an image copy or a stale disk page, silently.

Pieces:

* chain collection — :data:`RedoChain`, :func:`collect_local_redo`,
  :func:`collect_merged_redo`: per-page candidate lists in log order;
* the kernel — :func:`redo_record` screens one record against a page
  and applies it when it passes; :func:`apply_chain` runs a whole
  chain through it;
* :func:`emit` — the one ``RECOVERY_REDO``/``RECOVERY_SKIP`` emitter.

Redo order matters only *within* a page, so any schedule that keeps
each page's records in log order leaves the same page images.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs import events as ev
from repro.obs.tracer import NullTracer
from repro.recovery.apply import apply_redo
from repro.storage.page import Page
from repro.wal.records import NO_PAGE, LogRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wal.log_manager import LogManager

#: One page's redo candidates in log order: ``(lsn, serialized
#: record)``.  The LSN screens (``lsn > page_lsn``) without decoding;
#: only a record that passes is decoded and applied.
RedoChain = List[Tuple[int, bytes]]

#: One redo decision of a chain, as :func:`emit` takes it: ``(lsn,
#: prev, page_lsn)`` — ``prev`` is :func:`redo_record`'s result and
#: ``page_lsn`` the page's LSN right after the decision.
Outcome = Tuple[int, Optional[int], int]

# Deliberate-breakage seam for the chaos campaign's self-test: with
# redo screening disabled, every redo flavour re-applies records
# already reflected in the page (double-apply), which the verifier and
# invariant checker must catch — proving the campaign can actually
# fail.  Never set outside
# ``repro.faults.campaign.sabotage_redo_screening``.
_SABOTAGE_DISABLE_REDO_SCREENING = False


def redo_record(page: Page, lsn: int, load: Callable[..., LogRecord],
                *args: Any) -> Optional[int]:
    """Apply the record with LSN ``lsn`` to ``page`` iff it is newer
    than the page.

    Returns the page_LSN the record replaced when it applied, ``None``
    when the screen skipped it.  ``load(*args)`` decodes the record; it
    runs only when the record applies, so a screened-out record is
    never decoded.  The page header is read once: a ``page_lsn`` read
    unpacks it, and redo is dominated by such reads.
    """
    page_lsn = page.page_lsn
    if _SABOTAGE_DISABLE_REDO_SCREENING or lsn > page_lsn:
        apply_redo(page, load(*args))
        return page_lsn
    return None


def _decode(raw: bytes) -> LogRecord:
    return LogRecord.from_bytes(raw)[0]


def apply_chain(page: Page, chain: RedoChain) -> List[Outcome]:
    """Run one page's chain through :func:`redo_record` in log order.

    The page changed iff some outcome's ``prev`` is not ``None``; the
    caller writes it back only then (a chain that screens out entirely
    leaves a copy-on-write view uncopied).
    """
    outcomes: List[Outcome] = []
    for lsn, raw in chain:
        prev = redo_record(page, lsn, _decode, raw)
        outcomes.append(
            (lsn, prev, lsn if prev is not None else page.page_lsn))
    return outcomes


def emit(tracer: NullTracer, system: int, page_id: int, lsn: int,
         prev: Optional[int], page_lsn: int) -> None:
    """Trace one redo decision: ``RECOVERY_REDO`` when the record
    applied over ``prev``, else ``RECOVERY_SKIP`` against ``page_lsn``.

    Callers test ``tracer.enabled`` first, so an untraced pass never
    reads the page header for the event.
    """
    if prev is not None:
        tracer.emit(ev.RECOVERY_REDO, system=system, page=page_id,
                    lsn=int(lsn), page_lsn_prev=int(prev))
    else:
        tracer.emit(ev.RECOVERY_SKIP, system=system, page=page_id,
                    lsn=int(lsn), page_lsn=int(page_lsn))


def collect_local_redo(
    log: "LogManager", dpt: Dict[int, Tuple[int, int]], redo_start: int
) -> Dict[int, RedoChain]:
    """Per-page redo candidates for single-log restart: exactly the
    records the eager pass would consider (page in the DPT, record at
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
