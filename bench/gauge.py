"""Machine speed, from a fixed reference kernel timed between operations.

On a shared machine the speed of one core can change by up to 2x for tens
of seconds at a time, as other tenants come and go (seen on a 2-vCPU cloud
VM, where process CPU time grew with wall time: the core was slower, not
taken away), so a whole run can land in one state.  The kernel classifies
every hand of a 7x2 deck with bench/reference.py, which never calls
parlorproofs, so its work is the same in every version of the library.
Timing it between stretches of operations tells how fast the machine ran
during each stretch, and every time the benchmark reports is scaled to a
machine on which the kernel takes NOMINAL_S.  A change in the library moves
the scaled times; a change in the machine's speed, which moves the kernel
too, largely does not.
"""

from __future__ import annotations

import statistics
from itertools import combinations
from time import perf_counter

import reference as ref

NOMINAL_S = 0.017    # the kernel's time on the reference machine
EVERY_S = 0.1        # operation time between two samples of the kernel
WINDOW = 6           # samples around a stretch of operations that scale it
_DECK = [(v, s) for v in range(1, 8) for s in range(1, 3)]


def kernel_s() -> float:
    start = perf_counter()
    for _ in range(2):
        for hand in combinations(_DECK, 5):
            ref.classify(hand, 7, True)
    return perf_counter() - start


class Gauge:
    """Kernel samples taken along a run, and the factors they give to the
    stretches of work between them."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self) -> int:
        """Take a sample; its index marks the start of the next stretch."""
        self.samples.append(kernel_s())
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Scale of the stretch that starts at sample `index`: the nominal
        kernel time over the median of the WINDOW samples nearest to it, as
        one sample varies more from one to the next than the machine's
        speed does."""
        lo = max(index + 1 - WINDOW // 2, 0)
        return NOMINAL_S / statistics.median(self.samples[lo:lo + WINDOW])

    def scaled(self, seconds, stretches) -> list:
        """Each time of `seconds` scaled by the factor of its stretch."""
        return [t * self.factor(i) for t, i in zip(seconds, stretches)]
