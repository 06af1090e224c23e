"""Order statistics the benchmark reports: median, the tail percentile
rule, and the run-to-run spread used to judge whether it is steady."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # requests that must lie beyond the reported tail value
TAIL_SHARE = 10  # and at least one request in TAIL_SHARE lies beyond it


def median(values) -> float:
    return float(statistics.median(values))


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile, up to p90, with at least
    TAIL_BEYOND requests beyond it, as (value, percentile, sample count).

    With n sorted samples that is the (n - 10)-th one, at percentile
    100 (n - 10) / n, for n up to 100; above that, the sample with n / 10
    (rounded up) beyond it. The cap keeps a few thousandths of requests
    that a shared host stalls from deciding the figure: with ten samples
    beyond it, p98 of a run of 500 requests moved by a fifth between runs
    of the same code, and p90 by a twentieth. Below 2 * TAIL_BEYOND
    samples the rank falls under the median, and the median (percentile
    50) is reported instead: a tail is never read below the middle of the
    distribution.
    """
    xs = sorted(float(x) for x in latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one latency")
    if n < 2 * TAIL_BEYOND:
        return median(xs), 50.0, n
    rank = n - max(TAIL_BEYOND, -(-n // TAIL_SHARE))  # 1-based; the rest lie above it
    return xs[rank - 1], 100.0 * rank / n, n


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
