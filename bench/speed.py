"""Machine-speed probe for normalizing times on a shared host.

On a shared machine the speed of one core drifts by tens of percent within
seconds, and the two cores drift independently, so run-to-run spreads of
raw wall times exceed any useful regression bound. A fixed slice of
work (the probe) is timed at a steady cadence on the same
thread as the workload, from a timer signal, and every measured time is
rescaled to the speed at which the probe takes NOMINAL_PROBE_S:

    normalized = wall * NOMINAL_PROBE_S * mean(1 / probe_i)

On a machine where the probe takes NOMINAL_PROBE_S the normalized time is
the wall time. The time spent in probes is subtracted from what they
interrupt. The probe is benchmark code, never the program's, so a change
to decoshield cannot move it.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.025
DEFER_S = 0.05
BRACKET_PROBES = 10
SEGMENT_PROBES = 4
# the probe's median time on the host this was built on, in a quiet minute
# (0.44 ms; 0.80 ms in a busy one)
NOMINAL_PROBE_S = 4.5e-4
_PAIR = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
_QUAD = np.arange(16, dtype=complex).reshape(4, 4)


def probe() -> float:
    """Seconds one fixed slice of work takes right now.

    The slice mixes float formatting and dict traffic with small numpy and
    LAPACK calls. Of the slices tried, this one tracked the sweep, Kraus
    and query work best: their times scaled as its time to the power 0.99
    to 1.04 on the shared host. A pure interpreter loop tracked the
    numpy-heavy work worse than no correction at all.
    """
    t0 = time.perf_counter()
    cells = {}
    for i in range(30):
        x = i * 0.37 + 0.1
        cells[str(i)] = format(x * x, ".12g")
    for _ in range(12):
        prod = np.kron(_PAIR, _PAIR) @ _QUAD
        np.linalg.eigvalsh(prod + prod.conj().T)
    json.dumps(cells)
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Multiplier from wall seconds to seconds at nominal speed."""
    return NOMINAL_PROBE_S * statistics.fmean(1.0 / s for s in samples)


def normalize(timings: list[tuple[float, int, int]], samples: list[float]) -> list[float]:
    """Nominal-speed seconds of consecutive operations.

    Each timing is (seconds, first, end): the operation's wall time and the
    slice of `samples` taken while it ran. Operations are grouped in order
    until a group spans SEGMENT_PROBES probes, and each group is scaled by
    its own probes, so a long operation uses the probes inside it and a run
    of short ones shares the probes around them. A short tail borrows the
    last SEGMENT_PROBES probes.
    """
    out: list[float] = []
    group: list[float] = []
    first = 0
    for seconds, lo, hi in timings:
        if not group:
            first = lo
        group.append(seconds)
        if hi - first >= SEGMENT_PROBES:
            scale = factor(samples[first:hi])
            out.extend(t * scale for t in group)
            group = []
    if group:
        tail = samples[max(0, len(samples) - SEGMENT_PROBES):] or [probe()]
        out.extend(t * factor(tail) for t in group)
    return out


def bracket() -> list[float]:
    """A burst of probes, for timing work that runs outside this thread."""
    return [probe() for _ in range(BRACKET_PROBES)]


class Sampler:
    """Probe every PROBE_EVERY_S seconds while installed (`with sampler:`).

    `samples` holds every probe duration and `spent` their sum, so callers
    can take the probe time out of an interval and find the probes in it.
    Callers mark each operation with `begin` and `end`: a probe due in the
    first DEFER_S of an operation waits until the operation ends, so short
    operations are never interrupted (an interrupted call would otherwise
    land in the latency tail) while long ones are still sampled inside.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy_since: float | None = None
        self._pending = False
        self._previous = None

    def _take(self) -> None:
        taken = probe()
        self.samples.append(taken)
        self.spent += taken

    def _on_timer(self, signum, frame) -> None:
        busy = self._busy_since
        if busy is not None and time.perf_counter() - busy < DEFER_S:
            self._pending = True
        else:
            self._take()

    def begin(self) -> None:
        self._busy_since = time.perf_counter()

    def end(self) -> None:
        self._busy_since = None
        if self._pending:
            self._pending = False
            self._take()

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
