"""Calibration loop: a fixed pure-Python workload timed in slices.

Every CPU-bound timing the benchmark reports is scaled by
``REFERENCE_SLICE_S / slice`` where ``slice`` is the measured time of
the calibration slices taken next to it.  A calibrated figure therefore
reads as "seconds on a host where one slice takes REFERENCE_SLICE_S",
which cancels most of the second-to-second speed swings of a shared
host.

A slice has two parts that imitate the two kinds of work on the task
path.  The ranking part builds ``(-(1 - score), posts, id)`` tuples
from a shuffled walk over a working set far larger than the per-core
CPU caches (as campaign-10k's 10^4-resource state is) and sorts them,
which is what ``MostUnstableFirst.choose`` does per task.  The
allocation part builds row dicts, round-trips them through JSON and
buckets them, as commits, checkpoints and recovery do.  Measured over
six runs of each workload, the two parts together tracked the
program's speed better than either alone or a cache-resident integer
loop (README).
"""

from __future__ import annotations

import gc
import json
import random
import threading
import time

__all__ = ["CalibrationError", "Calibrator", "REFERENCE_SLICE_S"]

#: median slice time on the host the benchmark was written on (a
#: 2-vCPU KVM guest, Python 3.11); calibrated figures are expressed in
#: seconds of that host
REFERENCE_SLICE_S = 0.050

#: entries in the ranking working set (~30 MB)
_ITEMS = 1 << 17
#: entries ranked per sort (about one MU ranking of campaign-10k), and
#: sorts per slice
_CHUNK = 8192
_CHUNKS_PER_SLICE = 2
#: row dicts built and round-tripped per slice
_ROWS = 3000
#: fixed seed: every run, whatever its --seed, times identical work
_SEED = 20140331


class CalibrationError(RuntimeError):
    """A slice could not be taken under the conditions it needs."""


class Calibrator:
    """Owns the working set and the slice timings of one run."""

    def __init__(self) -> None:
        rng = random.Random(_SEED)
        # tuples and a dict of plain numbers: the garbage collector
        # stops tracking them, so the working set does not add to the
        # program's collections
        self._items = [(index, rng.randrange(64)) for index in range(_ITEMS)]
        self._scores = {index: rng.random() for index in range(_ITEMS)}
        order = list(range(_ITEMS))
        rng.shuffle(order)
        self._order = order
        self._position = 0
        #: raw seconds of every slice taken, in order
        self.slices: list[float] = []

    @staticmethod
    def _check_threads() -> None:
        for thread in threading.enumerate():
            if thread is not threading.main_thread():
                raise CalibrationError(
                    f"thread {thread.name!r} is alive during a calibration "
                    "slice; work on a background thread would skew it"
                )

    def take(self) -> float:
        """Time one slice with the garbage collector paused; returns
        its raw seconds."""
        self._check_threads()
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._rank()
            self._allocate()
            elapsed = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.slices.append(elapsed)
        return elapsed

    def _rank(self) -> None:
        items = self._items
        scores = self._scores
        order = self._order
        for _ in range(_CHUNKS_PER_SLICE):
            start = self._position
            stop = start + _CHUNK
            self._position = 0 if stop >= len(order) else stop
            ranked = [
                (-(1.0 - scores[index]), items[index][1], items[index][0])
                for index in order[start:stop]
            ]
            ranked.sort()

    @staticmethod
    def _allocate() -> None:
        rows = [
            {"id": index, "name": f"row-{index}", "n": index * 3, "tags": [index, index + 1]}
            for index in range(_ROWS)
        ]
        buckets: dict[int, list] = {}
        for row in json.loads(json.dumps(rows)):
            buckets.setdefault(row["n"] % 97, []).append(row)
