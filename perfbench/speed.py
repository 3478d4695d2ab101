"""The machine's speed, measured next to the program.

The benchmark runs on shared hosts whose speed changes while it runs: on
a 2-vCPU VM one call of the kernel below took 4.2-4.7 ms or 7.5-10 ms in
turn, each state lasting from a fraction of a second to a minute, while
the program's work repeats exactly.  :class:`ReferenceClock` times that
kernel every :data:`PROBE_INTERVAL_S` while a workload runs and converts
the program's wall times to a machine on which one kernel call takes
exactly :data:`REFERENCE_KERNEL_S`.  The kernel is pure Python of the same
kind as the mapper's work (small objects, dict and tuple operations, a
heap, float arithmetic) and calls nothing in the program, so a change to
the program cannot move it.

The program does not slow down by as much as the kernel does.  A
workload's *sensitivity* ``s`` is the share of its time that stretches
like the kernel's: on a machine whose kernel takes ``k`` seconds, work
that takes ``t`` seconds on the reference machine takes
``t * (1 - s + s * k / REFERENCE_KERNEL_S)``.  Each workload states its
``s``, measured on that VM (see README.md).
"""

from __future__ import annotations

import bisect
import gc
import heapq
import time

#: Kernel time of the reference machine: converted times read as measured
#: on a machine where one :func:`_kernel` call takes this long.
REFERENCE_KERNEL_S = 0.005

#: Least program time between two probes.  Short enough that most probes
#: see the machine in the state the work around them ran in.
PROBE_INTERVAL_S = 0.2

_GRID = 32


class _Node:
    __slots__ = ("name", "weight", "edges")

    def __init__(self, name: tuple[int, int], weight: float) -> None:
        self.name = name
        self.weight = weight
        self.edges: list[tuple[float, tuple[int, int]]] = []


def _kernel() -> float:
    """Build a fixed weighted 32x32 mesh and run Dijkstra from two nodes."""
    nodes = {
        (x, y): _Node((x, y), 1.0 + ((x * 7 + y * 13) % 5) * 0.25)
        for x in range(_GRID)
        for y in range(_GRID)
    }
    for (x, y), node in nodes.items():
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            other = nodes.get((x + dx, y + dy))
            if other is not None:
                node.edges.append((node.weight + other.weight, other.name))
    total = 0.0
    for source in ((0, 0), (_GRID - 1, _GRID // 2)):
        distance = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            cost, name = heapq.heappop(heap)
            if cost > distance[name]:
                continue
            for weight, other in nodes[name].edges:
                candidate = cost + weight
                if candidate < distance.get(other, float("inf")):
                    distance[other] = candidate
                    heapq.heappush(heap, (candidate, other))
        total += sum(sorted(distance.values())[: _GRID * 4])
    return total


def kernel_s() -> float:
    """Wall time of one kernel call.

    The cyclic collector is off meanwhile: the kernel's allocations could
    otherwise set off a collection of the program's heap, whose time
    belongs to neither the kernel nor the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """The program's clock, and its intervals converted to reference speed.

    :meth:`now` is wall time with every probe cut out, so no timing of the
    program includes one.  :meth:`tick`, called between requests, probes
    the kernel once :data:`PROBE_INTERVAL_S` of program time has passed
    since the last probe.  Between two probes the kernel time is taken as
    the mean of theirs; :meth:`reference_s` integrates over those segments.
    """

    def __init__(self, sensitivity: float) -> None:
        self.sensitivity = sensitivity
        self.paused_s = 0.0
        #: Program time and kernel time of each probe.
        self.times: list[float] = []
        self.kernels: list[float] = []
        #: Reference seconds from the first probe to each probe.
        self._reference: list[float] = []
        self.probe()

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    def tick(self) -> None:
        if self.now() - self.times[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def probe(self) -> None:
        """Time one kernel call, outside the program's clock."""
        started = time.perf_counter()
        kernel = kernel_s()
        at = started - self.paused_s
        if self.times:
            rate = self._rate((self.kernels[-1] + kernel) / 2)
            self._reference.append(self._reference[-1] + (at - self.times[-1]) * rate)
        else:
            self._reference.append(0.0)
        self.times.append(at)
        self.kernels.append(kernel)
        self.paused_s += time.perf_counter() - started

    def _rate(self, kernel: float) -> float:
        """Reference seconds per program second while the kernel takes ``kernel``."""
        s = self.sensitivity
        return 1.0 / (1.0 - s + s * kernel / REFERENCE_KERNEL_S)

    def _at(self, at: float) -> float:
        """Reference seconds from the first probe to program time ``at``."""
        index = min(max(bisect.bisect_right(self.times, at) - 1, 0), len(self.times) - 1)
        if index + 1 < len(self.times):
            kernel = (self.kernels[index] + self.kernels[index + 1]) / 2
        else:
            kernel = self.kernels[index]
        return self._reference[index] + (at - self.times[index]) * self._rate(kernel)

    def reference_s(self, start: float, end: float) -> float:
        """The program-time interval ``[start, end]`` in reference seconds."""
        return self._at(end) - self._at(start)
