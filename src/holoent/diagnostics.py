"""Wall-clock timing of named stages, on time.perf_counter.

    timer = StageTimer()
    with timer.stage("propagate"):
        ...
    timer.summary()  # {"propagate": {"n": 1, "min_s": ..., "median_s": ...}}

A stage's time is recorded when its block exits, by an exception too. Only the
standard library is used, and neither `holoent` nor `holoent.cli` imports this
module, so a command that does not time itself does not load it.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class StageTimer:
    """Seconds per run of each named stage, in the order the stages first ran."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}

    @contextmanager
    def stage(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.samples.setdefault(name, []).append(perf_counter() - start)

    def summary(self) -> dict[str, dict]:
        """Run count, fastest and median seconds of every stage."""
        return {
            name: {"n": len(times), "min_s": min(times), "median_s": statistics.median(times)}
            for name, times in self.samples.items()
        }
