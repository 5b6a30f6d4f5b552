"""Host speed calibration: a fixed pure-Python loop timed between measurements.

On a VM that shares its cores with other tenants the machine's own speed
drifts: the same loop can take 1.5x longer a minute later.  Every timing
metric of the benchmark is therefore scaled to a reference host on which
the loop takes REF_MS:

    reported time = measured time * REF_MS / median loop time around it

and rates the other way round; "around it" is the LOCAL timings of the
loop made last before and the LOCAL made first after the measurement.  The loop is timed once for every EVERY_NS
of measured work, always between measured intervals (after a long
operation, several times in a row), so its median follows the host's
speed over the same stretch as the work it scales.  The loop never
touches the package, so a change to the package moves the reported
figures exactly as it moves the measured ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

LOOPS = 25_000
# About what the loop takes on the 2-vCPU Xeon VM the baseline was measured on.
REF_MS = 3.0
EVERY_NS = 25_000_000
LOCAL = 8


def loop_ns() -> int:
    """One timing of the fixed loop."""
    start = perf_counter_ns()
    acc = 0
    for i in range(LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter_ns() - start


class Calibration:
    """Loop timings spread over a run, one per EVERY_NS of measured work."""

    def __init__(self) -> None:
        self.samples = [loop_ns()]
        self.since = 0
        self.scales: dict[int, float] = {}

    def mark(self) -> int:
        """Position of a measurement about to start among the loop timings."""
        return len(self.samples)

    def after(self, measured_ns: int) -> None:
        """Note measured work just done; time the loop once per EVERY_NS of it."""
        self.since += measured_ns
        while self.since >= EVERY_NS:
            self.samples.append(loop_ns())
            self.since -= EVERY_NS

    def ms(self) -> float:
        """Median loop time of the run."""
        return statistics.median(self.samples) / 1e6

    def scale(self) -> float:
        """Factor that turns a time measured during the run into the reference host's time."""
        return REF_MS / self.ms()

    def scale_at(self, mark: int) -> float:
        """Factor for a time measured at `mark`, from the loop timings around it."""
        if mark not in self.scales:
            around = self.samples[max(0, mark - LOCAL) : mark + LOCAL]
            self.scales[mark] = REF_MS / (statistics.median(around) / 1e6)
        return self.scales[mark]
