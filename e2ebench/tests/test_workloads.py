import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads as w

SMALL_OLTP = w.OltpShape(pages=32, hot_pages=4, chunks=1, txns_per_chunk=40)
SMALL = [
    (w.oltp_sd_round, SMALL_OLTP, 40, 2, 1),
    (w.oltp_cs_round, SMALL_OLTP, 40, 1, 1),
    (w.bulk_standby_round, w.BulkShape(pages=32, hot_pages=2, txns=20),
     20, 1, 1),
    (w.restart_sd_round, w.RestartShape(pages=16, cycles=2,
                                        txns_per_cycle=20), 80, 2, 2),
]


def test_same_seed_same_inputs():
    rows = [(page, slot) for page in range(64, 96) for slot in range(8)]

    def plan(seed):
        rng = w.round_rng("oltp-sd", seed, 0)
        hot = w.hot_rows(rng, rows, 4)
        return [w.make_ops(rng, rows, hot, 0.3, 8, 0.5) for _ in range(20)]

    assert plan(7) == plan(7)
    assert plan(7) != plan(8)


def _counts(result):
    return (result.counters, result.txns, result.attempts, result.committed,
            result.ops, result.user_bytes, result.log_bytes,
            result.would_block, result.records_redone,
            result.records_skipped)


@pytest.mark.parametrize("play, shape, txns, failures, media", SMALL)
def test_same_seed_same_counts(play, shape, txns, failures, media):
    first = play(w.round_rng("t", 3, 0), w.Probe(), shape)
    second = play(w.round_rng("t", 3, 0), w.Probe(), shape)
    assert _counts(first) == _counts(second)
    assert first.committed == first.txns == txns
    assert len(first.recovery_s) == len(first.ttft_s) == failures
    assert len(first.media_s) == media


def test_check_rows_catches_a_wrong_row():
    from repro.sd import SDComplex
    from repro.workload.generator import populate_pages

    sd = SDComplex(n_data_pages=16)
    instance = sd.add_instance(1)
    handles = populate_pages(instance, 2, 4, w.PAYLOAD_BYTES)
    instance.pool.flush_all()
    model = w.initial_rows(handles)
    w.check_rows(sd.disk, model, "fresh")
    model[handles[0]] = b"z" * w.PAYLOAD_BYTES
    with pytest.raises(w.CheckFailed):
        w.check_rows(sd.disk, model, "stale")


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert {x["name"] for x in spec["workloads"]} == set(w.ROUNDS) == \
        set(run.RECOVERY_EVENT)


def test_failed_check_exits_nonzero_without_json(monkeypatch, capsys):
    def broken(rng, probe):
        raise w.CheckFailed("row 64/0 holds b'x'")

    monkeypatch.setitem(w.ROUNDS, "oltp-sd", broken)
    argv = ["--workload", "oltp-sd", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "output check failed" in out.err


def test_percentiles_per_round_or_over_the_run():
    def rounds(size, offsets):
        return [SimpleNamespace(latencies=[float(i + k) for i in range(size)])
                for k in offsets]

    # Rounds of 1000: the median of each round's p50 (499 + offset).
    assert run.txn_percentile(rounds(1000, (0, 10, 500)), 50) == 509.0
    # Rounds of 600 cannot give a p99 each; all 1800 samples pool.
    pooled = rounds(600, (0, 0, 0))
    assert run.txn_percentile(pooled, 99) == 593.0
