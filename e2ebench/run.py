"""Run one benchmark workload against the checkout's ``src/repro``.

    python3 e2ebench/run.py --workload oltp-sd --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats rounds of the workload for ``--seconds`` and
reports the end-to-end metrics, times in nominal seconds (see
calibrate.py).  ``--trace 1`` runs round 0 untraced twice (cold, then
warm) and then traced, and reports the per-layer metrics and
``trace_overhead_ratio``; the spans go to ``.e2ebench/`` in the
checkout.
The last line of standard output is one JSON object; a failed output
check or coverage guard exits non-zero without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

import spans
from calibrate import Timeline
from calibrate import clock as cpu_clock
from measure import (
    TooFewSamples,
    bytes_per_user_byte,
    failed_txn_ratio,
    median,
    peak_rss_mb,
    percentile,
)

# ``workloads`` and ``repro`` are imported inside the functions, after
# main() has put the checkout's src first on the path.

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

#: name -> unit; the same list, with directions and bounds, is in
#: BENCHMARK.json.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "txn_p50_ms": "ms",
    "txn_p99_ms": "ms",
    "log_bytes_per_user_byte": "ratio",
    "rss_peak_mb": "MB",
    "recovery_s": "s",
    "ttft_s": "s",
    "media_recovery_s": "s",
}

PER_LAYER: Dict[str, str] = {
    "locking.requests": "count",
    "locking.would_block": "count",
    "locking.deadlock_aborts": "count",
    "locking.self_s": "s",
    "sd.coherency_calls": "count",
    "sd.coherency_s": "s",
    "sd.self_s": "s",
    "wal.records": "count",
    "wal.forces": "count",
    "wal.records_per_force": "ratio",
    "wal.append_s": "s",
    "wal.force_s": "s",
    "wal.scan_records": "count",
    "wal.scan_s": "s",
    "buffer.fixes": "count",
    "buffer.hit_ratio": "ratio",
    "buffer.self_s": "s",
    "storage.page_reads": "count",
    "storage.page_writes": "count",
    "storage.write_bytes_per_user_byte": "ratio",
    "storage.self_s": "s",
    "recovery.analysis_s": "s",
    "recovery.records_redone": "count",
    "recovery.records_skipped": "count",
    "recovery.redo_useful_ratio": "ratio",
    "recovery.demand_pages": "count",
    "recovery.sweep_pages": "count",
    "recovery.self_s": "s",
    "replication.records_shipped": "count",
    "replication.batches": "count",
    "replication.acks": "count",
    "replication.ship_s": "s",
    "replication.apply_s": "s",
    "cs.client_s": "s",
    "cs.server_s": "s",
    "net.messages": "count",
    "net.bytes": "count",
    "net.self_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: What ``recovery_s`` times on each workload (``ttft_s`` adds the first
#: post-recovery commit; on restart-sd it is the instant twin's).
RECOVERY_EVENT = {
    "oltp-sd": "one instance crashes -> restart_instance returns",
    "bulk-standby": "primary complex crashes -> restart_complex returns",
    "restart-sd": "eager twin crashes -> restart_complex returns",
    "oltp-cs": "crash_client -> recover_client returns",
}

#: Every metric is one value per round, and the run reports the median
#: over at least this many rounds.
MIN_ROUNDS = 3
#: A run that still lacks MIN_ROUNDS rounds after this long fails.
MAX_RUN_S = 150.0
#: Transactions a round needs for its own p99 (10 samples beyond it).
ROUND_SAMPLES = 1000


class BenchError(RuntimeError):
    """The run cannot report numbers."""


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# timed run
# ----------------------------------------------------------------------
def run_rounds(workload: str, seed: int, seconds: float,
               timeline: Timeline) -> List:
    """Measured rounds of ``workload``, after one warm-up round.

    The warm-up pays the process's one-off costs (the allocator grows
    its heap to the log's size) and is checked but not reported.  A
    round starts only if it should end within ``seconds`` of the start,
    or while the run has fewer than :data:`MIN_ROUNDS` rounds.  The
    timeline's kernel ticks all along (see calibrate.py).
    """
    from workloads import ROUNDS, Probe, round_rng

    play = ROUNDS[workload]
    start = clock()
    rounds: List = []
    with timeline.sampling():
        play(round_rng(workload, seed, 0), Probe(timeline))
        while True:
            gc.collect()
            rounds.append(play(round_rng(workload, seed, len(rounds) + 1),
                               Probe(timeline)))
            elapsed = clock() - start
            per_round = elapsed / (len(rounds) + 1)
            if len(rounds) >= MIN_ROUNDS and elapsed + per_round > seconds:
                return rounds
            if elapsed > MAX_RUN_S:
                raise BenchError(f"only {len(rounds)} rounds after "
                                 f"{elapsed:.0f} s")


def round_values(r) -> Dict[str, float]:
    """One round's value of each end-to-end metric but the transaction
    percentiles and peak RSS."""
    return {
        "setup_s": r.setup_s,
        "ops_per_s": r.ops / r.traffic_s,
        "log_bytes_per_user_byte": bytes_per_user_byte(r.log_bytes,
                                                       r.user_bytes),
        "recovery_s": median(r.recovery_s),
        "ttft_s": median(r.ttft_s),
        "media_recovery_s": median(r.media_s),
    }


def end_to_end(rounds: List) -> Dict[str, float]:
    """The median over rounds of each round's value, so a stretch the
    calibration kernel does not track moves a few rounds, not the run.
    """
    per_round = [round_values(r) for r in rounds]
    values = {name: median([v[name] for v in per_round])
              for name in per_round[0]}
    for pct in (50, 99):
        values[f"txn_p{pct}_ms"] = txn_percentile(rounds, pct) * 1e3
    values["rss_peak_mb"] = peak_rss_mb()
    return values


def txn_percentile(rounds: List, pct: float) -> float:
    """The median over rounds of each round's percentile when every round
    has :data:`ROUND_SAMPLES` transactions; else the percentile of all
    the run's transactions.  (bulk-standby's rounds are too long for a
    run to hold enough of them for a median, so it runs short rounds.)
    """
    if min(len(r.latencies) for r in rounds) >= ROUND_SAMPLES:
        return median([percentile(r.latencies, pct) for r in rounds])
    return percentile([t for r in rounds for t in r.latencies], pct)


def timed(workload: str, seed: int, seconds: float) -> dict:
    timeline = Timeline()
    rounds = run_rounds(workload, seed, seconds, timeline)
    values = end_to_end(rounds)
    attempts = sum(r.attempts for r in rounds)
    committed = sum(r.committed for r in rounds)
    txns = sum(r.txns for r in rounds)
    lost = sum(r.lost for r in rounds)
    per_round = min(len(r.latencies) for r in rounds)
    events = min(len(r.recovery_s) for r in rounds)
    print(f"workload {workload}  seed {seed}  rounds {len(rounds)}  "
          f"transactions {txns}")
    print(f"each value is the median over {len(rounds)} rounds; per round: "
          f">= {per_round} transaction latencies, {events} recovery "
          f"events")
    if per_round < ROUND_SAMPLES:
        pooled = sum(len(r.latencies) for r in rounds)
        print(f"percentiles are over all {pooled} transaction latencies "
              f"of the run")
    print(f"recovery_s: {RECOVERY_EVENT[workload]}")
    print(f"times are nominal seconds; the machine ran at "
          f"{timeline.speed():.3g}x nominal time ({len(timeline.starts)} "
          f"kernel runs)")
    print(f"{'metric':<26}{'value':>14}  unit")
    for name, unit in END_TO_END.items():
        print(f"{name:<26}{values[name]:>14.6g}  {unit}")
    print(f"{'failed_txn_ratio':<26}"
          f"{failed_txn_ratio(attempts, committed):>14.6g}  ratio "
          f"({attempts} attempts)")
    recovered = [median(r.recovered_s) for r in rounds if r.recovered_s]
    if recovered:
        print(f"{'recovered_s':<26}{median(recovered):>14.6g}  s")
    return {
        "correct": True,
        "attempted": txns,
        "failed": lost,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def traced(workload: str, seed: int) -> dict:
    from workloads import ROUNDS, Probe, round_rng

    class TracedProbe(Probe):
        def __init__(self, rec: spans.SpanRecorder) -> None:
            super().__init__()
            self.rec = rec

        def setup_done(self, result, start: float) -> None:
            super().setup_done(result, start)
            self.rec.active = True

    play = ROUNDS[workload]

    def after_setup(result) -> float:
        """CPU seconds from the end of set-up to now."""
        return cpu_clock() - result.marks["setup"][0][1]

    def untraced():
        gc.collect()
        result = play(round_rng(workload, seed, 0), Probe())
        return result, after_setup(result)

    # The first round in a process pays one-off costs (allocator arenas,
    # lazy imports); the overhead compares against a warm untraced run.
    plain, _ = untraced()
    _, plain_s = untraced()

    rec = spans.SpanRecorder()
    installed = spans.install(rec)
    try:
        gc.collect()
        shadow = play(round_rng(workload, seed, 0), TracedProbe(rec))
        traced_s = after_setup(shadow)
    finally:
        rec.active = False
        spans.uninstall(installed)
    counts = spans.span_counts(rec.spans())
    spans.check_coverage(workload, counts)
    values = layer_metrics(plain, rec, counts)
    values["trace_overhead_ratio"] = (traced_s - plain_s) / plain_s

    out_dir = ROOT / ".e2ebench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
    rec.write(str(path))
    print(f"workload {workload}  seed {seed}  spans {len(rec)} "
          f"-> {path.relative_to(ROOT)}")
    print(f"untraced {plain_s:.3f} s  traced {traced_s:.3f} s  "
          f"trace_overhead_ratio {values['trace_overhead_ratio']:.3f}")
    print(f"{'metric':<36}{'value':>14}  unit")
    for name, unit in PER_LAYER.items():
        print(f"{name:<36}{values[name]:>14.6g}  {unit}")
    return {
        "correct": True,
        "attempted": plain.txns,
        "failed": plain.lost,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
    }


def layer_metrics(plain, rec, counts) -> Dict[str, float]:
    """Counts from the untraced round's registry and restart summaries;
    call counts and every ``*_s`` self time from the traced round."""
    from repro.common import stats as st
    from repro.common.config import PAGE_SIZE

    c = plain.counters.get
    selfs = spans.self_times(rec.spans())
    layers = spans.layer_of()

    def own(*names: str) -> float:
        return sum(selfs.get(name, 0.0) for name in names)

    def layer(name: str) -> float:
        return sum(v for n, v in selfs.items() if layers[n] == name)

    def cs_side(prefix: str) -> float:
        return sum(v for n, v in selfs.items()
                   if layers[n] == "cs" and n.startswith(prefix))

    redone = plain.records_redone + c(st.INSTANT_RECORDS_REDONE, 0)
    skipped = plain.records_skipped + c(st.INSTANT_RECORDS_SKIPPED, 0)
    fixes = counts["BufferPool.fix"]
    return {
        "locking.requests": c(st.LOCK_REQUESTS, 0),
        "locking.would_block": plain.would_block,
        "locking.deadlock_aborts": plain.deadlock_aborts,
        "locking.self_s": layer("locking"),
        "sd.coherency_calls": counts["CoherencyController.access"],
        "sd.coherency_s": own("CoherencyController.access"),
        "sd.self_s": layer("sd"),
        "wal.records": c(st.LOG_RECORDS_WRITTEN, 0),
        "wal.forces": c(st.LOG_FORCES, 0),
        "wal.records_per_force": ratio(c(st.LOG_RECORDS_WRITTEN, 0),
                                       c(st.LOG_FORCES, 0)),
        "wal.append_s": own("LogManager.append", "LogManager.append_many",
                            "LogManager.append_raw",
                            "ClientLogManager.append"),
        "wal.force_s": own("LogManager.force", "LogManager.force_through"),
        "wal.scan_records": rec.scan_records,
        "wal.scan_s": own("LogManager.scan"),
        "buffer.fixes": fixes,
        "buffer.hit_ratio": ratio(rec.fix_hits, fixes),
        "buffer.self_s": layer("buffer"),
        "storage.page_reads": c(st.DISK_PAGE_READS, 0),
        "storage.page_writes": c(st.DISK_PAGE_WRITES, 0),
        "storage.write_bytes_per_user_byte": ratio(
            c(st.DISK_PAGE_WRITES, 0) * PAGE_SIZE, plain.user_bytes),
        "storage.self_s": layer("storage"),
        "recovery.analysis_s": own("analysis_pass"),
        "recovery.records_redone": redone,
        "recovery.records_skipped": skipped,
        "recovery.redo_useful_ratio": ratio(redone, redone + skipped),
        "recovery.demand_pages": c(st.INSTANT_DEMAND_RECOVERIES, 0),
        "recovery.sweep_pages": c(st.INSTANT_SWEEP_RECOVERIES, 0),
        "recovery.self_s": layer("recovery"),
        "replication.records_shipped": c(st.REPL_RECORDS_SHIPPED, 0),
        "replication.batches": c(st.REPL_BATCHES_SHIPPED, 0),
        "replication.acks": c(st.REPL_ACKS, 0),
        "replication.ship_s": own("ReplicationManager.on_commit",
                                  "ReplicationManager.drain"),
        "replication.apply_s": own("StandbyComplex.receive"),
        "cs.client_s": cs_side("CsClient."),
        "cs.server_s": cs_side("CsServer."),
        "net.messages": c(st.MESSAGES_SENT, 0),
        "net.bytes": c(st.MESSAGE_BYTES, 0),
        "net.self_s": layer("net"),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(RECOVERY_EVENT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import CheckFailed

    try:
        if args.trace:
            result = traced(args.workload, args.seed)
        else:
            result = timed(args.workload, args.seed, args.seconds)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    except (spans.CoverageError, TooFewSamples, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
