"""Tests for the page-partitioned restart redo model.

Restart redo runs serially; partitioning it by page survives as a
critical-path *model* (docs/scaleout.md, bench S1): a screened redo
record belongs to partition ``page_id % P`` of its system, and the
partitions are independent because the redo rule is a per-page test.
These tests check the two facts that model rests on, on the serial
trace of a 4-instance whole-complex restart: every partition's share
of the trace is invariant-clean on its own, and the partitions account
for exactly the records the restart summaries report.
"""

from collections import Counter

import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.obs import events as ev
from repro.obs.invariants import check_trace
from repro.obs.tracer import Tracer
from repro.workload.scaleout import ScaleoutConfig, run_scaleout

#: Sharing high enough that hot pages land in several instances' redo
#: sets.
WORKLOAD = ScaleoutConfig(n_transactions=24, sharing_ratio=0.2, seed=11)

_REDO_KINDS = (ev.RECOVERY_REDO, ev.RECOVERY_SKIP)


def crash_and_recover():
    """Run the workload, crash the whole complex and restart it under a
    tracer; return the restart summaries and the trace."""
    tracer = Tracer()
    sd = build_cluster(
        ClusterConfig(n_instances=4, lock_shards=1, n_data_pages=256),
        tracer=tracer,
    )
    result = run_scaleout(sd, WORKLOAD)
    assert result.committed > 0
    sd.crash_complex()
    summaries = sd.restart_complex()
    return summaries, tracer.events()


def redo_events(events):
    return [event for event in events if event.kind in _REDO_KINDS]


class TestObservability:
    @pytest.mark.parametrize("partitions", [1, 2, 4, 8])
    def test_trace_invariants_hold(self, partitions):
        _, events = crash_and_recover()
        assert check_trace(events) == []
        screened = redo_events(events)
        assert screened, "restart screened no redo records"
        seen = 0
        for partition in range(partitions):
            share = [event for event in screened
                     if event.fields["page"] % partitions == partition]
            assert check_trace(share) == [], (
                f"partition {partition} of {partitions} is not clean "
                f"on its own")
            seen += len(share)
        assert seen == len(screened)


class TestPartitioning:
    def test_redo_and_skip_counts_match_serial(self):
        summaries, events = crash_and_recover()
        per_partition = Counter(
            (event.system, event.fields["page"] % 4, event.kind)
            for event in redo_events(events)
        )
        modelled = Counter()
        for (system, _, kind), records in per_partition.items():
            modelled[(system, kind)] += records

        def counts(table):
            return sorted(
                (sid, table[(sid, ev.RECOVERY_REDO)],
                 table[(sid, ev.RECOVERY_SKIP)])
                for sid in summaries
            )

        serial = Counter()
        for sid, summary in summaries.items():
            serial[(sid, ev.RECOVERY_REDO)] = summary.records_redone
            serial[(sid, ev.RECOVERY_SKIP)] = summary.redo_skipped_by_lsn
        assert counts(modelled) == counts(serial)
        assert sum(serial.values()) > 0
