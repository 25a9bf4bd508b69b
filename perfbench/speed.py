"""Unit timing rescaled by the machine's speed, measured next to the work.

On a shared host the speed a process gets drifts by a third within a
minute, as neighbours come and go; that drift swamps a 10% regression.  So
the benchmark runs a fixed probe (benchmark code only, doing the kinds of
work the program does) after every ~0.2 s of timed work, and
scales each unit's time by ``REFERENCE_PROBE_S / probe``, where probe is
the median of the last few probe times (one slow probe is a preemption, not
a slower machine).  The result reads as seconds on a machine whose
probe takes ``REFERENCE_PROBE_S``; the raw times are kept as well.
Probes run between units, never inside one.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

REFERENCE_PROBE_S = 0.003
PROBE_EVERY_S = 0.2
PROBE_WINDOW = 5


# the probe's data: small enough to stay in cache and built once, so a probe
# does not depend on the program's heap
PROBE_KEYS = tuple(("n", i % 61, str(i)) for i in range(256))
PROBE_TABLE = {k: i for i, k in enumerate(PROBE_KEYS)}


@dataclass(frozen=True)
class _Element:
    name: str
    key: tuple


def _calls(depth: int) -> int:
    return 1 if depth == 0 else _calls(depth - 1) + _calls(depth - 1)


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes right now.

    It mixes what the program spends its time on: dict lookups, tuple sorts,
    string formatting, frozen dataclasses in a set, and function calls.  The
    garbage collector is off meanwhile, so the probe's time does not depend
    on how many objects the program happens to hold.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for _ in range(12):
            for key in PROBE_KEYS:
                total += PROBE_TABLE[key]
            total += len(sorted(PROBE_KEYS, reverse=True))
            total += len("/".join(f"{k[2]}.{k[1]}" for k in PROBE_KEYS[:96]))
            total += len({_Element(k[2], k) for k in PROBE_KEYS[:96]})
            total += _calls(7)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Stopwatch:
    """Collects (scaled, raw) unit times with a label each."""

    def __init__(self):
        self.samples: List[Tuple[float, float, str]] = []
        self.pending: List[Tuple[float, str]] = []
        self.since_probe = 0.0
        self.probes = deque((probe() for _ in range(3)), maxlen=PROBE_WINDOW)

    def record(self, raw_s: float, label: str) -> None:
        self.pending.append((raw_s, label))
        self.since_probe += raw_s
        if self.since_probe >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Scale the units since the last probe by the recent median probe."""
        if not self.pending:
            return
        self.probes.append(probe())
        scale = REFERENCE_PROBE_S / statistics.median(self.probes)
        self.samples.extend((raw * scale, raw, label) for raw, label in self.pending)
        self.pending = []
        self.since_probe = 0.0

    def scaled(self, *labels: str) -> List[float]:
        self.flush()
        return [s for s, _, label in self.samples if not labels or label in labels]

    def raw_total(self) -> float:
        self.flush()
        return sum(raw for _, raw, _ in self.samples)
