"""Machine-speed reference, so that timings from a shared host compare.

On a host shared with other tenants the processor the benchmark gets runs
in slower and faster states that last from seconds to a minute; the same
weakch call takes up to 1.8 times as long in the slow state. A run of a
few seconds can sit wholly in one state, so no median over a run removes
that, and two runs of the same code can differ by far more than any
regression worth catching.

A ``SpeedProbe`` times a fixed reference block, owned by the benchmark and
calling no weakch code, between the operations of a workload. A timed
interval is scaled by ``REF_NOMINAL_S`` over the reference time measured
around it (the median of the nearest few reference samples), which gives
its length at a fixed nominal machine speed. The reference is a mix of the
kinds of work weakch does on the interpreter: a bytecode loop, compiling
source and a JSON round trip. It uses only the standard library, so it can
run before numpy or weakch are imported. Weakch code cannot change it: a
faster or slower weakch changes the scaled times in full.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

# Reference block time at nominal speed. It sets only the scale of the
# scaled times: it is about what the block takes on an Intel Xeon
# (2 vCPUs, Python 3.11) in the host's faster state.
REF_NOMINAL_S = 0.002
# A scaled interval uses the median of this many reference samples nearest to it.
NEIGHBOURS = 5

_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n"
    f"    z = [x * {i} + y for _ in range(3)] if x else {{'k': {i}, 'v': (x, y)}}\n"
    f"    return sorted(z) if isinstance(z, list) else z\n"
    for i in range(25)
)
_DOC = {f"k{i}": [i, i * 0.5, f"s{i}", {"x": [1, 2, 3], "y": None}] for i in range(60)}


def reference_block() -> None:
    """A fixed amount of interpreter work: about 2 ms at nominal speed."""
    s = 0
    for k in range(3000):
        s += k * k % 7
    compile(_SOURCE, "<reference>", "exec")
    json.loads(json.dumps(_DOC))


def reference_seconds(samples: int = 5) -> float:
    """Median time of a few reference blocks run back to back.

    The first block after another process has run is slow (cold caches);
    the median leaves it out.
    """
    clock = time.perf_counter
    took = []
    for _ in range(samples):
        start = clock()
        reference_block()
        took.append(clock() - start)
    return statistics.median(took)


class SpeedProbe:
    """Reference samples taken between operations, and the scaling they give."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.at: list[float] = []
        self.took: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        took = reference_seconds(3)
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.took.append(took)
        self._next = end + self.every_s

    def tick(self) -> None:
        """Take a reference sample if the last one is at least every_s old."""
        if time.perf_counter() >= self._next:
            self.sample()

    def local_reference(self, when: float) -> float:
        """Median of the NEIGHBOURS reference samples nearest to time `when`."""
        k = bisect.bisect_left(self.at, when)
        lo = max(0, min(k - NEIGHBOURS // 2, len(self.at) - NEIGHBOURS))
        return statistics.median(self.took[lo:lo + NEIGHBOURS])

    def scale(self, mids, durations, fixed) -> list[float]:
        """Durations at nominal speed, each scaled by the reference around its middle.

        The ``fixed`` part of each duration is kept as measured and only the
        rest is scaled.
        """
        return [
            f + (d - f) * REF_NOMINAL_S / self.local_reference(m)
            for m, d, f in zip(mids, durations, fixed)
        ]

    def factor(self) -> float:
        """Median reference time over nominal: 1.3 means the machine ran 1.3 times slower."""
        return statistics.median(self.took) / REF_NOMINAL_S
