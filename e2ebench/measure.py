"""Arithmetic the benchmark reports: percentiles, ratios, peak memory.

Kept free of any ``repro`` import so the tests can check it on
hand-computed inputs.
"""

from __future__ import annotations

import math
import resource
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, the tail value is one unlucky sample.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct`` percentile of ``samples``.

    Raises :class:`TooFewSamples` unless at least
    :data:`MIN_TAIL_SAMPLES` samples rank above it, so p99 needs 1000
    samples and p50 needs 20.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {pct}")
    n = len(samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {MIN_TAIL_SAMPLES}")
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("median of no samples")
    return statistics.median(samples)


def failed_txn_ratio(attempts: int, committed: int) -> float:
    """Transaction attempts that did not commit, over attempts."""
    if attempts <= 0:
        raise ValueError("no transactions were attempted")
    if not 0 <= committed <= attempts:
        raise ValueError(f"{committed} commits out of {attempts} attempts")
    return (attempts - committed) / attempts


def bytes_per_user_byte(written: int, user_bytes: int) -> float:
    """Bytes a layer wrote per payload byte the workload committed."""
    if user_bytes <= 0:
        raise ValueError("no payload bytes were committed")
    return written / user_bytes


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
