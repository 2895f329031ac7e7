"""The machine-speed probe: fixed reference work, timed between rounds.

The host this benchmark was built on gives each run a couple of vCPUs of a
shared machine whose speed drifts by 30% and more, in phases of seconds to
minutes, so two runs of the same code a few minutes apart can differ by more
than any change worth measuring. :class:`SpeedProbe` times a fixed piece of
work that uses no program code, in the mix of interpreter and numpy work
that planning and execution do: a numpy filter-and-count over 200k rows, a
Python dictionary loop, a walk over 50k small dictionaries in random order,
a loop of small-array numpy calls, and building, deduplicating and sorting
6000 small objects.

A timed loop is cut into rounds of a few dozen operations. The probe runs
at the start of each round, while no operation is in flight, and the
round's operations are scaled by the probe's *slowdown*, its time over
:data:`REFERENCE_S`:

    reported time = wall time / slowdown of the round

so a slow phase of the machine, which slows the probe as much as the
program, cancels out, while a slower program still shows in full. The
probe runs with the garbage collector off, so the program's heap cannot
change its time, and its own time is not part of any round.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Seconds one probe takes on the reference machine (about the median on
#: the 2-vCPU Sapphire Rapids KVM guest of the first trajectory entry).
REFERENCE_S = 0.04


class _Node:
    __slots__ = ("key", "cost", "children")

    def __init__(self, key, cost, children) -> None:
        self.key = key
        self.cost = cost
        self.children = children


class SpeedProbe:
    """Times the reference work and keeps the rounds of a timed loop."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._quantity = rng.uniform(1.0, 50.0, 200_000)
        self._keys = rng.integers(0, 2500, 200_000)
        self._records = [{"a": i, "b": str(i), "c": (i, i + 1)} for i in range(50_000)]
        self._order = rng.permutation(50_000)[:20_000].tolist()
        self._small = [np.sort(rng.random(64)) for _ in range(50)]
        #: Seconds of every probe taken.
        self.times: list[float] = []
        #: (wall seconds, slowdown) of every closed round.
        self.rounds: list[tuple[float, float]] = []
        #: Slowdown of the latest probe: the running round's.
        self.slowdown = 1.0
        self._round_started: float | None = None

    def _work(self) -> int:
        for _ in range(5):
            np.bincount(self._keys[np.flatnonzero(self._quantity > 25)])
        counts: dict = {}
        for i in range(20_000):
            key = i * 7919 % 1013
            counts[key] = counts.get(key, 0) + len(str(i))
        total = len(sorted(counts.items()))
        for i in self._order:
            record = self._records[i]
            total += record["a"] + record["c"][1]
        sums: dict = {}
        for j in range(400):
            values = self._small[j % 50]
            cut = int(np.searchsorted(values, 0.5))
            sums[j % 37, cut] = sums.get((j % 37, cut), 0.0) + float(values[:cut].sum())
        nodes = [_Node(i * 31 % 977, float(i % 13), [i, i + 1]) for i in range(6000)]
        best: dict = {}
        for node in nodes:
            kept = best.get(node.key)
            if kept is None or node.cost < kept.cost:
                best[node.key] = node
        ranked = sorted(best.values(), key=lambda node: (node.cost, node.key))
        return total + len(sums) + len(ranked)

    def measure(self) -> float:
        """Run the reference work once; returns its slowdown."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._work()
            elapsed = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.times.append(elapsed)
        self.slowdown = elapsed / REFERENCE_S
        return self.slowdown

    def start_round(self) -> float:
        """Close the running round, if any, probe, and open the next one.

        Returns the seconds the probe took, which belong to no round.
        """
        began = time.perf_counter()
        self.end_round()
        self.measure()
        self._round_started = time.perf_counter()
        return self._round_started - began

    def end_round(self) -> None:
        if self._round_started is not None:
            self.rounds.append((time.perf_counter() - self._round_started, self.slowdown))
            self._round_started = None
