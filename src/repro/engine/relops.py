"""Row-at-a-time relational operators: filter and project."""

from __future__ import annotations

from typing import Sequence

from repro.engine.base import PhysicalOperator
from repro.engine.context import ExecutionContext
from repro.expressions import Expr, Frame


class Filter(PhysicalOperator):
    """Apply a predicate to the child's output."""

    def __init__(self, child: PhysicalOperator, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> list[PhysicalOperator]:
        return [self.child]

    def execute(self, ctx: ExecutionContext) -> Frame:
        frame = ctx.run(self.child)
        ctx.counters.cpu_rows += frame.num_rows
        result = frame.mask(self.predicate.evaluate(frame))
        ctx.counters.rows_output += result.num_rows
        return result

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(PhysicalOperator):
    """Keep only the named (qualified) columns of the child's output."""

    def __init__(self, child: PhysicalOperator, columns: Sequence[str]) -> None:
        self.child = child
        self.columns = list(columns)

    def children(self) -> list[PhysicalOperator]:
        return [self.child]

    def execute(self, ctx: ExecutionContext) -> Frame:
        frame = ctx.run(self.child)
        return frame.select(self.columns)

    def label(self) -> str:
        return f"Project({', '.join(self.columns)})"
