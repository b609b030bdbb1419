"""The four benchmark workloads, driven through the public ``repro`` API.

Every workload runs in *rounds*: a round builds its system from scratch
(timed as set-up), drives closed-loop traffic, injects the workload's
failure after each chunk of traffic and times the recovery, then checks
every row against the benchmark's own model of committed writes and
finishes with a media failure of every data page.  Rounds repeat until
the run's time is spent, so a run's medians pool identical rounds and
do not drift with how many rounds a faster program fits in.

All inputs come from ``random.Random`` seeded with the workload name,
the run seed and the round number; the program never sees the seed.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from calibrate import Timeline, clock
from repro.common.errors import DeadlockError, LockWouldBlock
from repro.common.stats import StatsRegistry
from repro.cs import CsSystem
from repro.recovery import media
from repro.replication import ReplicationConfig
from repro.sd import SDComplex
from repro.storage.image_copy import ImageCopy
from repro.storage.page import Page
from repro.workload.generator import populate_pages

Row = Tuple[int, int]
#: One record op: ``(page_id, slot, payload)``; ``payload`` None reads.
Op = Tuple[int, int, Optional[bytes]]

PAYLOAD_BYTES = 32
#: A deadlock victim reruns from its first op at most this many times.
MAX_RERUNS = 10


class CheckFailed(AssertionError):
    """The program's output disagrees with the benchmark's model."""


# ----------------------------------------------------------------------
# sizes — see README.md for why each workload is shaped this way
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OltpShape:
    rows_per_page: int = 8
    pages: int = 256
    hot_pages: int = 16
    hot_fraction: float = 0.3
    ops_per_txn: int = 8
    read_fraction: float = 0.5
    in_flight: int = 4
    chunks: int = 3
    txns_per_chunk: int = 400


@dataclass(frozen=True)
class BulkShape:
    rows_per_page: int = 8
    pages: int = 1024
    hot_pages: int = 8
    hot_fraction: float = 0.2
    ops_per_txn: int = 64
    read_fraction: float = 0.5
    group_commit_every: int = 8
    #: Short rounds, so a run holds enough of them; the percentiles are
    #: then over all the run's transactions (see run.txn_percentile).
    txns: int = 500
    crashes: int = 1


@dataclass(frozen=True)
class RestartShape:
    rows_per_page: int = 8
    pages: int = 128
    ops_per_txn: int = 8
    read_fraction: float = 0.25
    cycles: int = 3
    txns_per_cycle: int = 400
    #: Every this many commits each instance steals one dirty page.
    steal_every: int = 10


#: oltp-sd crashes each instance in turn after all its traffic, so
#: every restart replays about the same amount of log; oltp-cs crashes
#: one client after each chunk, in rotation.
OLTP_SD = OltpShape(chunks=1, txns_per_chunk=1200)
OLTP_CS = OltpShape()
BULK = BulkShape()
RESTART = RestartShape()
BUFFER_FRAMES = 128
CS_CLIENTS = 3
CS_CACHE_PAGES = 64


# ----------------------------------------------------------------------
# what one round measured
# ----------------------------------------------------------------------
#: The RoundResult fields that hold seconds; a round records them as
#: (start, end) pairs on calibrate's clock and :meth:`RoundResult.finish`
#: turns each pair into nominal seconds.
TIMED = ("latencies", "recovery_s", "ttft_s", "recovered_s", "media_s")


@dataclass
class RoundResult:
    timeline: Timeline = field(repr=False)
    setup_s: float = 0.0
    traffic_s: float = 0.0
    #: Record ops of committed transactions.
    ops: int = 0
    #: Seconds from ``begin`` to the durable ack, per committed txn.
    latencies: List[float] = field(default_factory=list)
    #: Logical transactions (a deadlock rerun is the same one).
    txns: int = 0
    #: Logical transactions that never committed.
    lost: int = 0
    #: Transaction attempts, counting each deadlock rerun.
    attempts: int = 0
    committed: int = 0
    user_bytes: int = 0
    log_bytes: int = 0
    #: Failure -> recovery call returns.
    recovery_s: List[float] = field(default_factory=list)
    #: Failure -> first post-recovery commit returns.
    ttft_s: List[float] = field(default_factory=list)
    #: Failure -> every page recovered (instant restart only).
    recovered_s: List[float] = field(default_factory=list)
    media_s: List[float] = field(default_factory=list)
    would_block: int = 0
    deadlock_aborts: int = 0
    records_redone: int = 0
    records_skipped: int = 0
    #: Registry counter deltas from end of set-up to end of round.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Clock (start, end) pairs: "setup", "traffic" and TIMED.
    marks: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict, repr=False)

    def mark(self, what: str, start: float) -> None:
        """Record the interval from ``start`` to now as ``what``."""
        self.marks.setdefault(what, []).append((start, clock()))

    def finish(self) -> "RoundResult":
        """Close the timeline and convert every mark to nominal
        seconds (see calibrate.py)."""
        self.timeline.tick()
        span = self.timeline.span
        spans = {what: [span(a, b) for a, b in pairs]
                 for what, pairs in self.marks.items()}
        self.setup_s = sum(spans.get("setup", ()))
        self.traffic_s = sum(spans.get("traffic", ()))
        for what in TIMED:
            setattr(self, what, spans.get(what, []))
        return self


class Probe:
    """Hooks a round calls at fixed points; the traced run overrides
    :meth:`setup_done` to start recording spans there.  Rounds of one
    run share the run's ``timeline``."""

    def __init__(self, timeline: Optional[Timeline] = None) -> None:
        self.timeline = timeline if timeline is not None else Timeline()
        self.stats = StatsRegistry()
        self._after_setup: Dict[str, int] = {}

    def setup_done(self, result: RoundResult, start: float) -> None:
        result.mark("setup", start)
        result.timeline.tick()
        self._after_setup = self.stats.snapshot()

    def counters(self) -> Dict[str, int]:
        return self.stats.diff(self._after_setup)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def round_rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def pick_rows(rng: random.Random, rows: Sequence[Row], hot: Sequence[Row],
              hot_fraction: float, n: int) -> List[Row]:
    return [rng.choice(hot) if hot and rng.random() < hot_fraction
            else rng.choice(rows) for _ in range(n)]


def make_ops(rng: random.Random, rows: Sequence[Row], hot: Sequence[Row],
             hot_fraction: float, n_ops: int,
             read_fraction: float) -> List[Op]:
    """One transaction's ops, in row order: every caller locks rows in
    the same order, so lock waits never close a cycle."""
    ops = [(page, slot, None if rng.random() < read_fraction
            else rng.randbytes(PAYLOAD_BYTES))
           for page, slot in pick_rows(rng, rows, hot, hot_fraction, n_ops)]
    ops.sort(key=lambda op: (op[0], op[1]))
    return ops


def hot_rows(rng: random.Random, rows: Sequence[Row],
             n_hot_pages: int) -> List[Row]:
    pages = sorted({page for page, _ in rows})
    hot = set(rng.sample(pages, n_hot_pages))
    return [row for row in rows if row[0] in hot]


def initial_rows(handles: Iterable[Row]) -> Dict[Row, bytes]:
    """What :func:`populate_pages` wrote: record ``r`` of a page holds
    ``r % 251`` repeated."""
    model: Dict[Row, bytes] = {}
    per_page: Dict[int, int] = {}
    for page, slot in handles:
        r = per_page.get(page, 0)
        per_page[page] = r + 1
        model[(page, slot)] = bytes([r % 251] * PAYLOAD_BYTES)
    return model


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def data_digest(disk, page_ids: Iterable[int]) -> str:
    digest = hashlib.sha256()
    for page_id in sorted(page_ids):
        digest.update(page_id.to_bytes(8, "little"))
        digest.update(bytes(disk.raw_image(page_id)))
    return digest.hexdigest()


def check_rows(disk, model: Dict[Row, bytes], where: str,
               forbidden: Iterable[bytes] = ()) -> None:
    """Every row on ``disk`` equals the model's last committed write."""
    pages: Dict[int, Page] = {}
    banned = set(forbidden)
    for (page_id, slot), want in model.items():
        page = pages.get(page_id)
        if page is None:
            page = pages[page_id] = Page.from_bytes(disk.raw_image(page_id))
        got = page.read_record(slot)
        if got != want:
            raise CheckFailed(f"{where}: row {page_id}/{slot} holds "
                              f"{got!r}, model says {want!r}")
        if got in banned:
            raise CheckFailed(f"{where}: loser update survives in "
                              f"row {page_id}/{slot}")


def check_read(got: Optional[bytes], want: bytes, row: Row) -> None:
    if got != want:
        raise CheckFailed(f"read of row {row[0]}/{row[1]} returned "
                          f"{got!r}, expected {want!r}")


def media_failure(result: RoundResult, disk, logs, image: ImageCopy,
                  page_ids: Sequence[int]) -> None:
    """Lose every data page, rebuild them from the image copy and the
    logs, and require the pre-failure images back."""
    before = data_digest(disk, page_ids)
    for page_id in page_ids:
        disk.lose_page(page_id)
    result.timeline.tick()
    start = clock()
    media.recover_database_from_media(image, logs, disk, page_ids)
    result.mark("media_s", start)
    result.timeline.tick()
    if data_digest(disk, page_ids) != before:
        raise CheckFailed("media recovery did not restore the "
                          "pre-failure data pages")


# ----------------------------------------------------------------------
# closed-loop traffic
# ----------------------------------------------------------------------
class _Live:
    __slots__ = ("engine", "ops", "began", "txn", "idx", "reruns", "own")

    def __init__(self, engine, ops: List[Op], began: float) -> None:
        self.engine = engine
        self.ops = ops
        self.began = began
        self.txn = None
        self.idx = 0
        self.reruns = 0
        self.own: Dict[Row, bytes] = {}


def commit_ops(result: RoundResult, model: Dict[Row, bytes],
               ops: Sequence[Op]) -> None:
    for page, slot, payload in ops:
        if payload is not None:
            model[(page, slot)] = payload
            result.user_bytes += len(payload)
    result.ops += len(ops)
    result.committed += 1


def run_interleaved(result: RoundResult, engines: Sequence,
                    scripts: Sequence[Tuple[int, List[Op]]],
                    model: Dict[Row, bytes], in_flight: int) -> None:
    """Closed loop: ``in_flight`` transactions, one op each per sweep
    (round robin); a finished transaction's slot takes the next script.

    Reads are checked on the spot: a reader waits out any writer's X
    lock, so it must see the model's committed value or its own write.
    """
    pending = deque(scripts)
    live: List[_Live] = []
    stalls = 0
    start = clock()
    while pending or live:
        result.timeline.poll()
        while pending and len(live) < in_flight:
            index, ops = pending.popleft()
            live.append(_Live(engines[index], ops, clock()))
            result.txns += 1
        progressed = False
        for entry in list(live):
            engine = entry.engine
            if entry.txn is None:
                entry.txn = engine.begin()
                result.attempts += 1
            if entry.idx == len(entry.ops):
                engine.commit(entry.txn)
                result.mark("latencies", entry.began)
                commit_ops(result, model, entry.ops)
                live.remove(entry)
                progressed = True
                continue
            page, slot, payload = entry.ops[entry.idx]
            try:
                if payload is None:
                    got = engine.read(entry.txn, page, slot)
                    check_read(got, entry.own.get((page, slot),
                                                  model[(page, slot)]),
                               (page, slot))
                else:
                    engine.update(entry.txn, page, slot, payload)
                    entry.own[(page, slot)] = payload
            except LockWouldBlock:
                result.would_block += 1
                continue
            except DeadlockError:
                engine.rollback(entry.txn)
                result.deadlock_aborts += 1
                entry.txn, entry.idx, entry.own = None, 0, {}
                entry.reruns += 1
                if entry.reruns > MAX_RERUNS:
                    live.remove(entry)
                    result.lost += 1
                progressed = True
                continue
            entry.idx += 1
            progressed = True
        stalls = 0 if progressed else stalls + 1
        if stalls > 1000:
            raise CheckFailed("closed loop stalled: lock waits never "
                              "resolved")
    result.mark("traffic", start)


def run_one(result: RoundResult, engine, ops: Sequence[Op],
            model: Dict[Row, bytes]) -> None:
    """A single caller's transaction, begin to forced commit."""
    began = clock()
    txn = engine.begin()
    result.attempts += 1
    result.txns += 1
    own: Dict[Row, bytes] = {}
    for page, slot, payload in ops:
        if payload is None:
            got = engine.read(txn, page, slot)
            check_read(got, own.get((page, slot), model[(page, slot)]),
                       (page, slot))
        else:
            engine.update(txn, page, slot, payload)
            own[(page, slot)] = payload
    engine.commit(txn)
    result.mark("latencies", began)
    commit_ops(result, model, ops)


def run_group_commit(result: RoundResult, engine,
                     batches: Sequence[List[Op]], model: Dict[Row, bytes],
                     group: int) -> None:
    """Bulk lane: one ``read_many`` + one ``update_many`` per txn, lazy
    commits acknowledged by one ``sync_commits`` per group.

    A lazy commit holds its page locks until the sync, so a batch that
    touches a page the pending group updated syncs first.
    """
    pending: List[Tuple[float, List[Op]]] = []
    held: set = set()

    def sync() -> None:
        if not pending:
            return
        engine.sync_commits()
        for began, ops in pending:
            result.mark("latencies", began)
            commit_ops(result, model, ops)
        pending.clear()
        held.clear()

    start = clock()
    for ops in batches:
        result.timeline.poll()
        reads = [(page, slot) for page, slot, payload in ops
                 if payload is None]
        updates = [op for op in ops if op[2] is not None]
        if held.intersection(page for page, _, _ in ops):
            sync()
        began = clock()
        txn = engine.begin()
        result.attempts += 1
        result.txns += 1
        for row, got in zip(reads, engine.read_many(txn, reads)):
            check_read(got, model[row], row)
        engine.update_many(txn, updates)
        engine.commit(txn, lazy=True)
        pending.append((began, ops))
        held.update(page for page, _, _ in updates)
        if len(pending) >= group:
            sync()
    sync()
    result.mark("traffic", start)


def first_commit(engine, row: Row, payload: bytes,
                 model: Dict[Row, bytes]) -> None:
    """The first post-recovery transaction: one update, forced."""
    txn = engine.begin()
    engine.update(txn, row[0], row[1], payload)
    engine.commit(txn)
    model[row] = payload


def fail_and_recover(result: RoundResult, crash: Callable[[], None],
                     recover: Callable[[], object], engine,
                     rng: random.Random, rows: Sequence[Row],
                     model: Dict[Row, bytes]):
    """Time one failure: to the recovery call's return, and to the
    first commit on ``engine`` after it.  Returns what ``recover`` did."""
    row, payload = rng.choice(rows), rng.randbytes(PAYLOAD_BYTES)
    result.timeline.tick()
    failed_at = clock()
    crash()
    summary = recover()
    result.mark("recovery_s", failed_at)
    first_commit(engine, row, payload, model)
    result.mark("ttft_s", failed_at)
    result.timeline.tick()
    return summary


def note_restart(result: RoundResult, summaries) -> None:
    for summary in summaries:
        result.records_redone += summary.records_redone
        result.records_skipped += summary.redo_skipped_by_lsn


def log_end(logs) -> int:
    return sum(log.end_offset for log in logs)


# ----------------------------------------------------------------------
# oltp-sd
# ----------------------------------------------------------------------
def oltp_sd_round(rng: random.Random, probe: Probe,
                  shape: OltpShape = OLTP_SD) -> RoundResult:
    """Two SD instances, four transactions in flight; after each chunk
    each instance in turn crashes and restarts."""
    result = RoundResult(probe.timeline)
    result.timeline.tick()
    start = clock()
    sd = SDComplex(n_data_pages=shape.pages + 64, stats=probe.stats)
    instances = [sd.add_instance(sid, buffer_capacity=BUFFER_FRAMES)
                 for sid in (1, 2)]
    handles = populate_pages(instances[0], shape.pages, shape.rows_per_page,
                             PAYLOAD_BYTES)
    for instance in instances:
        instance.pool.flush_all()
    page_ids = sorted({page for page, _ in handles})
    image = ImageCopy.take(sd.disk, page_ids, logs=sd.local_logs())
    probe.setup_done(result, start)

    model = initial_rows(handles)
    hot = hot_rows(rng, handles, shape.hot_pages)
    log_start = log_end(sd.local_logs())
    for _ in range(shape.chunks):
        scripts = [(t % len(instances),
                    make_ops(rng, handles, hot, shape.hot_fraction,
                             shape.ops_per_txn, shape.read_fraction))
                   for t in range(shape.txns_per_chunk)]
        with result.timeline.deferred():
            run_interleaved(result, instances, scripts, model,
                            shape.in_flight)
        for victim in instances:
            sid = victim.system_id
            note_restart(result, [fail_and_recover(
                result, lambda: sd.crash_instance(sid),
                lambda: sd.restart_instance(sid), victim, rng, handles,
                model)])
    result.log_bytes = log_end(sd.local_logs()) - log_start
    for instance in instances:
        instance.pool.flush_all()
    check_rows(sd.disk, model, "oltp-sd")
    media_failure(result, sd.disk, sd.local_logs(), image, page_ids)
    result.counters = probe.counters()
    return result.finish()


# ----------------------------------------------------------------------
# bulk-standby
# ----------------------------------------------------------------------
def bulk_standby_round(rng: random.Random, probe: Probe,
                       shape: BulkShape = BULK) -> RoundResult:
    """One SD instance shipping to a hot standby at ``ack="quorum"``;
    64-op bulk transactions, group commit every 8.  After the traffic
    the primary complex crashes and restarts."""
    result = RoundResult(probe.timeline)
    result.timeline.tick()
    start = clock()
    sd = SDComplex(n_data_pages=shape.pages + 64, stats=probe.stats,
                   replicate=ReplicationConfig(ack="quorum"))
    primary = sd.add_instance(1, buffer_capacity=BUFFER_FRAMES)
    standby = sd.replication.add_standby(9)
    handles = populate_pages(primary, shape.pages, shape.rows_per_page,
                             PAYLOAD_BYTES)
    primary.pool.flush_all()
    page_ids = sorted({page for page, _ in handles})
    image = ImageCopy.take(sd.disk, page_ids, logs=sd.local_logs())
    probe.setup_done(result, start)

    model = initial_rows(handles)
    hot = hot_rows(rng, handles, shape.hot_pages)
    log_start = log_end(sd.local_logs())
    batches = [make_ops(rng, handles, hot, shape.hot_fraction,
                        shape.ops_per_txn, shape.read_fraction)
               for _ in range(shape.txns)]
    with result.timeline.deferred():
        run_group_commit(result, primary, batches, model,
                         shape.group_commit_every)
    for _ in range(shape.crashes):
        note_restart(result, fail_and_recover(
            result, sd.crash_complex, sd.restart_complex, primary, rng,
            handles, model).values())
    result.log_bytes = log_end(sd.local_logs()) - log_start
    primary.pool.flush_all()
    check_rows(sd.disk, model, "bulk-standby primary")
    sd.replication.drain()
    if data_digest(standby.disk, page_ids) != data_digest(sd.disk, page_ids):
        raise CheckFailed("standby data pages differ from the primary's")
    media_failure(result, sd.disk, sd.local_logs(), image, page_ids)
    result.counters = probe.counters()
    return result.finish()


# ----------------------------------------------------------------------
# restart-sd
# ----------------------------------------------------------------------
def _twin(mode: str, shape: RestartShape, stats: StatsRegistry):
    sd = SDComplex(n_data_pages=shape.pages + 64, stats=stats,
                   restart_mode=mode)
    instances = [sd.add_instance(sid, buffer_capacity=BUFFER_FRAMES)
                 for sid in (1, 2)]
    handles = populate_pages(instances[0], shape.pages, shape.rows_per_page,
                             PAYLOAD_BYTES)
    for instance in instances:
        instance.pool.flush_all()
    return sd, instances, handles


def _steal(instance, page_id: int) -> None:
    if instance.pool.contains(page_id) and instance.pool.is_dirty(page_id):
        instance.pool.write_page(page_id)


def restart_sd_round(rng: random.Random, probe: Probe,
                     shape: RestartShape = RESTART) -> RoundResult:
    """An eager and an instant twin get the same update-heavy history
    (page steals, one in-flight loser per instance); each cycle crashes
    both, restarts both, drains the instant twin, compares the twins'
    disks, then fails every data page of the eager twin."""
    result = RoundResult(probe.timeline)
    result.timeline.tick()
    start = clock()
    eager, eager_insts, handles = _twin("eager", shape, probe.stats)
    instant, instant_insts, _ = _twin("instant", shape, probe.stats)
    page_ids = sorted({page for page, _ in handles})
    image = ImageCopy.take(eager.disk, page_ids, logs=eager.local_logs())
    probe.setup_done(result, start)

    model = initial_rows(handles)
    shadow = dict(model)
    twins = ((eager, eager_insts, model), (instant, instant_insts, shadow))
    log_start = log_end(eager.local_logs()) + log_end(instant.local_logs())
    losers: List[bytes] = []
    for cycle in range(shape.cycles):
        history = [make_ops(rng, handles, (), 0.0, shape.ops_per_txn,
                            shape.read_fraction)
                   for _ in range(shape.txns_per_cycle)]
        traffic_start = clock()
        with result.timeline.deferred():
            for t, ops in enumerate(history):
                result.timeline.poll()
                for _, insts, rows in twins:
                    instance = insts[t % 2]
                    run_one(result, instance, ops, rows)
                    if (t + 1) % shape.steal_every == 0:
                        _steal(instance, ops[0][0])
        result.mark("traffic", traffic_start)
        # One in-flight loser per instance, its page stolen to disk.
        loser_rows = rng.sample(page_ids, 2)
        for index, page_id in enumerate(loser_rows):
            payload = b"loser-%d-%d-" % (cycle, index)
            payload += b"x" * (PAYLOAD_BYTES - len(payload))
            losers.append(payload)
            for _, insts, _ in twins:
                txn = insts[index].begin()
                insts[index].update(txn, page_id, 0, payload)
                insts[index].pool.write_page(page_id)
        row, payload = rng.choice(handles), rng.randbytes(PAYLOAD_BYTES)

        eager.crash_complex()
        instant.crash_complex()
        result.timeline.tick()
        failed_at = clock()
        note_restart(result, eager.restart_complex().values())
        result.mark("recovery_s", failed_at)
        first_commit(eager_insts[0], row, payload, model)

        result.timeline.tick()
        failed_at = clock()
        instant.restart_complex()
        first_commit(instant_insts[0], row, payload, shadow)
        result.mark("ttft_s", failed_at)
        instant.instant_drain()
        result.mark("recovered_s", failed_at)
        result.timeline.tick()

        for _, insts, _ in twins:
            for instance in insts:
                instance.pool.flush_all()
        if data_digest(eager.disk, page_ids) != \
                data_digest(instant.disk, page_ids):
            raise CheckFailed(f"cycle {cycle}: drained instant twin's "
                              "disk differs from the eager twin's")
        check_rows(eager.disk, model, f"restart-sd cycle {cycle}",
                   forbidden=losers)
        media_failure(result, eager.disk, eager.local_logs(), image,
                      page_ids)
    result.log_bytes = (log_end(eager.local_logs())
                        + log_end(instant.local_logs()) - log_start)
    result.counters = probe.counters()
    return result.finish()


# ----------------------------------------------------------------------
# oltp-cs
# ----------------------------------------------------------------------
def oltp_cs_round(rng: random.Random, probe: Probe,
                  shape: OltpShape = OLTP_CS) -> RoundResult:
    """Three CS clients run the oltp-sd mix; after each chunk one
    client (in rotation) crashes and the server recovers it."""
    result = RoundResult(probe.timeline)
    result.timeline.tick()
    start = clock()
    cs = CsSystem(n_data_pages=shape.pages + 64, stats=probe.stats)
    clients = [cs.add_client(cid, cache_capacity=CS_CACHE_PAGES)
               for cid in range(1, CS_CLIENTS + 1)]
    handles = populate_pages(clients[0], shape.pages, shape.rows_per_page,
                             PAYLOAD_BYTES)
    cs.quiesce()
    page_ids = sorted({page for page, _ in handles})
    image = ImageCopy.take(cs.server.disk, page_ids, logs=[cs.server.log])
    probe.setup_done(result, start)

    model = initial_rows(handles)
    hot = hot_rows(rng, handles, shape.hot_pages)
    log_start = cs.server.log.end_offset
    for chunk in range(shape.chunks):
        scripts = [(t % len(clients),
                    make_ops(rng, handles, hot, shape.hot_fraction,
                             shape.ops_per_txn, shape.read_fraction))
                   for t in range(shape.txns_per_chunk)]
        with result.timeline.deferred():
            run_interleaved(result, clients, scripts, model,
                            shape.in_flight)
        victim = clients[chunk % len(clients)]
        cid = victim.client_id
        summary = fail_and_recover(
            result, lambda: cs.crash_client(cid),
            lambda: cs.recover_client(cid), victim, rng, handles, model)
        result.records_redone += summary.records_redone
        result.records_skipped += (summary.redo_skipped_by_lsn
                                   + summary.redo_skipped_buffer_hit)
    result.log_bytes = cs.server.log.end_offset - log_start
    cs.quiesce()
    check_rows(cs.server.disk, model, "oltp-cs")
    media_failure(result, cs.server.disk, [cs.server.log], image, page_ids)
    result.counters = probe.counters()
    return result.finish()


ROUNDS: Dict[str, Callable[[random.Random, Probe], RoundResult]] = {
    "oltp-sd": oltp_sd_round,
    "bulk-standby": bulk_standby_round,
    "restart-sd": restart_sd_round,
    "oltp-cs": oltp_cs_round,
}
