"""Machine-speed correction for the untraced timings.

On a shared 2-core machine the same exact work runs up to 1.5 times
slower for seconds to minutes at a time, so raw times from runs taken a
few minutes apart disagree by more than any useful regression bound.
Between checks (at most once per ``INTERVAL_S``) the benchmark times a
fixed loop of small-int arithmetic that allocates nothing and calls
nothing, so its speed cannot depend on what the library left behind in
the process. Every time of the run is then scaled by ``REFERENCE_S``
over the mean sample: the result is in reference seconds, the time the
work would have taken on a machine where the loop takes ``REFERENCE_S``.
Raw times and the mean sample are reported alongside.
"""

from __future__ import annotations

import statistics
import time
from itertools import repeat

ITERATIONS = 100_000
REFERENCE_S = 0.0065  # the loop on the reference machine
INTERVAL_S = 0.2


def calibration_work():
    x = y = 0
    for _ in repeat(None, ITERATIONS):
        x = (x + 3) & 127
        y = (y ^ x) & 127
    return y


class SpeedProbe:
    """Loop timings taken between measured intervals."""

    def __init__(self):
        self.last = None
        self.durations = []

    def sample(self):
        start = time.perf_counter()
        calibration_work()
        self.last = time.perf_counter()
        self.durations.append(self.last - start)

    def sample_if_due(self):
        if self.last is None or time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self):
        """Reference seconds per measured second over the run."""
        return REFERENCE_S / statistics.fmean(self.durations)
