import pytest

from measure import (
    TooFewSamples,
    bytes_per_user_byte,
    failed_txn_ratio,
    percentile,
)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(TooFewSamples):
        percentile(range(1, 20), 50)
    assert percentile(range(1, 1001), 99) == 990
    with pytest.raises(TooFewSamples):
        percentile(range(1, 1000), 99)


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile(range(100), 100)


def test_failed_txn_ratio_hand_computed():
    # 8 attempts: 6 commits, one deadlock rerun, one given up.
    assert failed_txn_ratio(8, 6) == 0.25
    assert failed_txn_ratio(5, 5) == 0.0
    with pytest.raises(ValueError):
        failed_txn_ratio(0, 0)
    with pytest.raises(ValueError):
        failed_txn_ratio(3, 4)


def test_bytes_per_user_byte_hand_computed():
    # Two committed 32-byte updates logged in 300 bytes of records.
    assert bytes_per_user_byte(300, 64) == 300 / 64
    with pytest.raises(ValueError):
        bytes_per_user_byte(300, 0)
