"""Execution context threaded through a physical plan."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import NamedTuple

from repro.catalog import Database
from repro.engine.counters import WorkCounters
from repro.engine.scancache import ScanCache
from repro.expressions import Frame


@dataclass
class ExecOptions:
    """Per-execution knobs for the physical operators.

    ``lazy_frames`` turns on the zero-copy selection-vector frame path
    (the default): scans and joins compose row selections instead of
    materializing every column at every operator. ``eager`` mode keeps
    the historical copy-per-operator behaviour for A/B comparison —
    both produce bit-identical query results.

    ``scan_cache`` optionally shares base-scan results across plan
    executions (see :mod:`repro.engine.scancache`).
    """

    lazy_frames: bool = True
    scan_cache: ScanCache | None = None

    @classmethod
    def eager(cls) -> "ExecOptions":
        return cls(lazy_frames=False)


class OperatorRun(NamedTuple):
    """One operator's actuals from a profiled execution.

    ``counters`` and ``wall_ns`` are *inclusive*: they cover the
    operator's whole subtree. An operator's own share is its inclusive
    figure minus its children's (:meth:`own`).
    """

    rows: int
    counters: WorkCounters
    wall_ns: int

    def own(self, children: list["OperatorRun"]) -> tuple[WorkCounters, int]:
        """``(counters, wall_ns)`` spent outside the ``children``' runs."""
        counters = self.counters.copy()
        wall_ns = self.wall_ns
        for child in children:
            counters.subtract(child.counters)
            wall_ns -= child.wall_ns
        return counters, wall_ns


class ExecutionProfile:
    """Per-operator actuals recorded during one plan execution.

    The EXPLAIN-ANALYZE of the simulated engine: :meth:`ExecutionContext.run`
    records each operator's output rows, the counters charged while it
    ran and its wall time, keyed by operator identity. The profile lives
    on the context, never on the operators, because cached plans are
    shared between concurrently executing threads.
    """

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        self._runs: dict = {}

    def record(self, op, rows: int, before: tuple, after: tuple, wall_ns: int) -> None:
        """Store one operator's rows, counter snapshots and wall time."""
        self._runs[op] = (rows, before, after, wall_ns)

    def rows(self, op) -> int:
        """The output rows of ``op`` (``KeyError`` if it never ran)."""
        return self._runs[op][0]

    def get(self, op) -> OperatorRun:
        """The inclusive actuals of ``op`` (``KeyError`` if it never ran)."""
        rows, before, after, wall_ns = self._runs[op]
        return OperatorRun(rows, WorkCounters.between(before, after), wall_ns)

    def preorder(self, plan) -> list[OperatorRun]:
        """The actuals of every operator of ``plan``, in ``plan.walk()`` order.

        Plan-independent once taken: a plan with the same
        :meth:`~repro.engine.PhysicalOperator.signature` walks the same
        shape, so the list can stand in for that plan's own profile.
        """
        return [self.get(op) for op in plan.walk()]


class ExecutionContext:
    """State shared by all operators of one plan execution.

    Holds the database being queried, the work counters the operators
    charge into (the plan total), the execution options (frame laziness,
    shared scan cache) and the per-operator :class:`ExecutionProfile`
    that :meth:`run` fills.
    """

    def __init__(self, database: Database, options: ExecOptions | None = None) -> None:
        self.database = database
        self.counters = WorkCounters()
        self.options = options if options is not None else ExecOptions()
        self.profile = ExecutionProfile()

    def run(self, op) -> Frame:
        """Execute ``op`` and record its actuals in :attr:`profile`.

        Operators run their children through this method and callers
        run the plan root through it, so the one real execution yields
        every operator's rows, work and wall time.
        """
        counters = self.counters
        before = counters.snapshot()
        started = perf_counter_ns()
        frame = op.execute(self)
        wall_ns = perf_counter_ns() - started
        self.profile.record(op, frame.num_rows, before, counters.snapshot(), wall_ns)
        return frame

    @property
    def lazy_frames(self) -> bool:
        return self.options.lazy_frames

    def scan_memo(self, key: tuple, compute):
        """Memoize ``compute()`` under ``key`` in the shared scan cache.

        Falls back to calling ``compute()`` directly when no cache is
        configured or the cache is pinned to a different database.
        """
        cache = self.options.scan_cache
        if cache is None or not cache.valid_for(self.database):
            return compute()
        return cache.get_or_compute(key, compute)


def run_plan(
    plan, database: Database, options: ExecOptions | None = None
) -> tuple[Frame, ExecutionContext]:
    """Execute ``plan`` once in a new context; returns ``(frame, ctx)``.

    ``ctx.counters`` holds the plan total and ``ctx.profile`` every
    operator's actuals.
    """
    ctx = ExecutionContext(database, options)
    return ctx.run(plan), ctx
