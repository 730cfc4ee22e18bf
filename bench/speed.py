"""Machine-speed reference for the timed metrics.

The shared machines this benchmark runs on change speed by tens of percent
within seconds and within minutes (a fixed pure-Python loop was seen to take
1.2 to 1.7 times its fastest time from one half-second to the next).  Every
timing is therefore scaled by a reference measured next to it: a fixed loop
of stdlib ``Fraction`` arithmetic, which does not touch ``hrw``, so no change
to the program moves it.  A time ``t`` measured while the reference loop took
``r`` seconds is reported as ``t * NOMINAL_S / r``: the time the operation
would have taken on a machine where the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The reference loop's typical time on the 2-core machine the reference
# figures in README.md come from; it only sets the scale of the reported times.
NOMINAL_S = 0.0015


def reference_loop() -> float:
    """Seconds taken by one fixed loop of Fraction arithmetic and dict updates."""
    t = perf_counter()
    buckets: dict[int, Fraction] = {}
    for k in range(1, 150):
        q = Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 3) - Fraction(1, k)
        buckets[k % 17] = buckets.get(k % 17, Fraction(0)) + q
    return perf_counter() - t


def reference() -> float:
    """The median of three reference loops, in seconds."""
    a, b, c = reference_loop(), reference_loop(), reference_loop()
    return sorted((a, b, c))[1]


class Scaler:
    """Scales operation times by references taken between segments of about
    ``segment_s`` seconds of operation time (outside the timed regions)."""

    def __init__(self, segment_s: float = 0.05):
        self.segment_s = segment_s
        self.before = reference()
        self.pending: list[float] = []

    def add(self, dt: float) -> list[tuple[float, float]]:
        """Record one raw time; returns (raw, scaled) pairs once a segment closes."""
        self.pending.append(dt)
        return self.flush() if sum(self.pending) >= self.segment_s else []

    def flush(self) -> list[tuple[float, float]]:
        if not self.pending:
            return []
        after = reference()
        k = NOMINAL_S / ((self.before + after) / 2)
        out = [(dt, dt * k) for dt in self.pending]
        self.before, self.pending = after, []
        return out
