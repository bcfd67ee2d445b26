"""Summary statistics the benchmark reports."""

from __future__ import annotations

from statistics import median

#: a tail percentile is reported only with this many samples beyond it
TAIL_BEYOND = 10


def tail(samples: list[float], beyond: int = TAIL_BEYOND
         ) -> tuple[float, float, int]:
    """``(percentile, value, n)``: the highest nearest-rank percentile
    of ``samples`` that has at least ``beyond`` samples above it.

    With ``n`` sorted samples that is the sample at rank ``n - beyond``
    (1-based), i.e. percentile ``100 * (n - beyond) / n``.  When that
    percentile would fall below the median (fewer than ``2 * beyond``
    samples) it is no tail, and the slowest sample is reported as
    percentile 100 instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - beyond
    if 2 * rank < n:
        return 100.0, ordered[-1], n
    return 100.0 * rank / n, ordered[rank - 1], n


def summarize(samples: list[float]) -> dict:
    pct, value, n = tail(samples)
    return {"p50": median(samples), "tail": value, "tail_pct": pct,
            "n": n}
