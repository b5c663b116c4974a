"""The one fixed-bucket histogram type.

The service's per-endpoint latency histograms and the runtime's
chunk-size histogram are both :class:`Histogram` values, rendered by
one exposition helper (:func:`repro.service.metrics.render_metrics`).
It lives outside :mod:`repro.service` so :mod:`repro.core.runtime` can
count into it without importing the service.
"""

from __future__ import annotations

from bisect import bisect_left


class Histogram:
    """Observation counts per ``<=`` upper bound, plus the overflow,
    the sum and the count of the observations (Prometheus semantics;
    the exposition makes the bucket counts cumulative).

    Observation is one bisection, two increments and an add.  The sum
    starts as the integer 0, so a histogram of counts keeps an integer
    sum.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple):
        self.bounds = bounds
        #: One count per bound, then the observations above every bound.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.count = 0

    def observe(self, value) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
