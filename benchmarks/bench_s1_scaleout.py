"""S1 — scale-out: partitioned GLM + a page-partitioned restart model.

The scale-out thesis (ROADMAP north star; Sauer/Härder and Lomet et
al. in PAPERS.md): restart time can be won by partitioning redo by
page, and the same partitioning shards the global lock manager.  This
bench drives the low-sharing scale-out workload across N-instance
complexes with K GLM shards, crashes the whole complex, and restarts
it serially.

Both scaling figures are critical-path *models* over exact counters,
not wall-clock speedups:

* **GLM scaling** = total lock requests / max per-shard requests — the
  throughput factor K independent shard servers would sustain, given
  the observed routing balance (1.0 by definition at K=1).
* **Restart speedup model** = total redo records / sum over instances
  of their largest page partition, where a record belongs to partition
  ``page_id % P``.  The partition sizes are counted from the serial
  restart's ``RECOVERY_REDO``/``RECOVERY_SKIP`` events, one per record
  the redo pass screened (1.0 by definition at P=1).

The measured serial restart wall time is printed beside the model.
"""

from collections import Counter

from repro.cluster import ClusterConfig, build_cluster
from repro.common.clock import wall_seconds
from repro.common.stats import LOCK_REQUESTS, glm_shard_counter
from repro.harness import Table, print_banner
from repro.harness.experiment import ExperimentResult
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.workload.scaleout import LOW_SHARING, run_scaleout

from _common import bench_main

_REDO_KINDS = (ev.RECOVERY_REDO, ev.RECOVERY_SKIP)


def restart_critical_path(events, partitions):
    """Sum over systems of the largest ``page_id % partitions`` share of
    that system's screened redo records."""
    per_partition = Counter(
        (event.system, event.fields["page"] % partitions)
        for event in events if event.kind in _REDO_KINDS
    )
    largest = {}
    for (system, _), records in per_partition.items():
        largest[system] = max(largest.get(system, 0), records)
    return sum(largest.values())


def run_config(n_instances, shards, partitions):
    """One sweep point; returns the row dict for the tables."""
    tracer = Tracer()
    sd = build_cluster(
        ClusterConfig(n_instances=n_instances, lock_shards=shards,
                      n_data_pages=256),
        tracer=tracer,
    )
    workload = run_scaleout(sd, LOW_SHARING)
    total_requests = sd.stats.get(LOCK_REQUESTS)
    if shards > 1:
        per_shard = [
            sd.stats.get(glm_shard_counter(index)) for index in range(shards)
        ]
    else:
        per_shard = [total_requests]
    glm_scaling = total_requests / max(max(per_shard), 1)

    sd.crash_complex()
    started = wall_seconds()
    summaries = sd.restart_complex()
    restart_wall = wall_seconds() - started
    redo_records = sum(s.records_redone + s.redo_skipped_by_lsn
                       for s in summaries.values())
    critical_path = restart_critical_path(tracer.events(), partitions)
    return {
        "stats": sd.stats,
        "committed": workload.committed,
        "lock_requests": total_requests,
        "per_shard": per_shard,
        "glm_scaling": glm_scaling,
        "redo_records": redo_records,
        "critical_path": critical_path,
        "restart_speedup": redo_records / max(critical_path, 1),
        "restart_wall": restart_wall,
    }


def run_experiment():
    sweep = {}
    for n_instances, shards, partitions in (
            (1, 1, 1), (2, 2, 2), (4, 1, 1), (4, 4, 4)):
        sweep[(n_instances, shards, partitions)] = run_config(
            n_instances, shards, partitions)
    return sweep


def build_result():
    sweep = run_experiment()
    result = ExperimentResult(
        "S1",
        "a 4-shard GLM and a 4-way page-partitioned restart both model "
        "> 1.5x over the monolithic/serial baseline on the low-sharing "
        "scale-out workload",
    )
    table = Table(["instances", "GLM shards", "redo partitions",
                   "committed", "lock requests", "GLM scaling (model)",
                   "redo records", "critical path",
                   "restart speedup (model)", "serial restart wall s"])
    for key in sorted(sweep):
        n_instances, shards, partitions = key
        row = sweep[key]
        table.add_row(n_instances, shards, partitions, row["committed"],
                      row["lock_requests"], row["glm_scaling"],
                      row["redo_records"], row["critical_path"],
                      row["restart_speedup"], row["restart_wall"])
    result.add_table("scale-out sweep (low-sharing profile)", table)

    shard_table = Table(["shard", "requests"])
    scaled = sweep[(4, 4, 4)]
    for index, requests in enumerate(scaled["per_shard"]):
        shard_table.add_row(index, requests)
    result.add_table("per-shard GLM routing at K=4", shard_table)

    baseline = sweep[(4, 1, 1)]
    result.record("glm_scaling_1_shard", round(baseline["glm_scaling"], 3))
    result.record("glm_scaling_4_shards", round(scaled["glm_scaling"], 3))
    result.record("restart_speedup_model_serial",
                  baseline["restart_speedup"])
    result.record("restart_speedup_model_4_partitions",
                  round(scaled["restart_speedup"], 3))
    result.record("restart_wall_serial_s", round(scaled["restart_wall"], 4))
    result.attach_stats(scaled["stats"])
    return result.conclude(
        scaled["glm_scaling"] > 1.5
        and baseline["glm_scaling"] == 1.0
        and scaled["restart_speedup"] > 1.5
        and scaled["redo_records"] == baseline["redo_records"]
    )


def main(argv=None):
    return bench_main(build_result, argv)


if __name__ == "__main__":
    raise SystemExit(main())


def test_s1_scaleout(benchmark):
    result = benchmark.pedantic(build_result, rounds=1, iterations=1)
    print_banner("S1", "scale-out GLM shards + page-partitioned restart model")
    print(result.render())
    assert result.holds
