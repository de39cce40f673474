"""Host-speed drift correction for the benchmark's timings.

On a shared machine the CPU's effective speed drifts by tens of percent
over seconds to minutes (process CPU time tracks wall time, so this is
not preemption).  Raw walls of identical passes then spread far more
than any useful regression bound.  To take the drift out, the benchmark
runs a small fixed pure-Python *reference loop* — an event heap and
LRU sets over plain integers, the kinds of work the simulator does — in
slices interleaved with the measured work, and scales the measured
seconds by the loop's speed at that moment relative to
:data:`NOMINAL_OPS_PER_S`.  The loop never calls into the simulator, so
a change to the simulator moves the corrected time in the same
proportion as the raw one.

Corrected seconds are "seconds at the nominal host speed": on the
machine the benchmark was tuned on they read close to raw seconds.
"""

from __future__ import annotations

import heapq
import time

#: Reference-loop operations per second taken as the nominal host speed
#: (the loop's median speed on the 2-core machine it was tuned on).
NOMINAL_OPS_PER_S = 2.0e6

#: Operations in one slice of the loop (a few milliseconds).
SLICE_OPS = 8000

#: Reference time spent after each job, as a share of the job's wall.
SHARE = 0.1


class SpeedProbe:
    """Accumulates reference-loop samples over one measured interval.

    The loop's state is allocated once per probe and reused, so a slice
    allocates no garbage-collected objects: it cannot move the
    program's collection points, nor with them its peak memory.
    """

    def __init__(self):
        self.ops = 0
        self.seconds = 0.0
        # Heap entries are (time << 4) | process, for 16 processes.
        self._heap = list(range(16))
        self._state = [k + 1 for k in range(16)]
        self._sets = [[] for _ in range(64)]
        self._x = 1

    def _slice(self) -> None:
        """:data:`SLICE_OPS` operations of fixed work."""
        heap, state, sets = self._heap, self._state, self._sets
        for _ in range(SLICE_OPS // 4):
            entry = heapq.heappop(heap)
            k = entry & 15
            x = (state[k] * 1103515245 + 12345) & 0xFFFFFFFF
            state[k] = x
            heapq.heappush(heap, entry + ((1 + (x & 7)) << 4))
        x = self._x
        for _ in range(3 * SLICE_OPS // 4):
            # An 8-way LRU set per index, most recent tag last.
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            tag = (x >> 8) & 0xFFF
            ways = sets[x & 63]
            if tag in ways:
                ways.remove(tag)
            elif len(ways) >= 8:
                del ways[0]
            ways.append(tag)
        self._x = x

    def sample(self, work_s: float) -> None:
        """Run the loop for :data:`SHARE` of ``work_s`` (one slice at
        least), so the samples weight each stretch of time alike."""
        budget = SHARE * work_s
        start = time.perf_counter()
        while True:
            self._slice()
            self.ops += SLICE_OPS
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                break
        self.seconds += elapsed

    def factor(self) -> float:
        """Measured speed over nominal: multiply raw seconds by this."""
        return (self.ops / self.seconds) / NOMINAL_OPS_PER_S
