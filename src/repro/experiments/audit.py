"""Cardinality auditing: estimated vs. actual rows per plan operator.

The paper's whole premise is that estimates are uncertain; this module
makes the error observable. :func:`audit_plan` executes a planned
query once and reports, per operator, the optimizer's estimate next to
the actual output cardinality its execution profile recorded and their
q-error — an ``EXPLAIN ANALYZE`` for the simulated engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog import Database
from repro.engine import PhysicalOperator, run_plan
from repro.obs.trace import QERROR_FLOOR
from repro.optimizer import PlannedQuery


@dataclass(frozen=True)
class AuditEntry:
    """One operator's estimated-vs-actual comparison."""

    label: str
    depth: int
    estimated_rows: float | None
    actual_rows: int

    @property
    def q_error(self) -> float | None:
        """Symmetric ratio error (≥ 1); ``None`` without an estimate."""
        if self.estimated_rows is None:
            return None
        estimated = max(self.estimated_rows, QERROR_FLOOR)
        actual = max(float(self.actual_rows), QERROR_FLOOR)
        return max(estimated / actual, actual / estimated)


def audit_plan(planned: PlannedQuery, database: Database) -> list[AuditEntry]:
    """Execute ``planned`` once and collect audit entries.

    Actual rows come from the execution's profile, so the plan itself
    is not modified. Entries are returned in pre-order, matching
    ``explain()`` layout.
    """
    _, ctx = run_plan(planned.plan, database)
    entries: list[AuditEntry] = []

    def visit(operator: PhysicalOperator, depth: int) -> None:
        entries.append(
            AuditEntry(
                label=operator.label(),
                depth=depth,
                estimated_rows=operator.est_rows,
                actual_rows=ctx.profile.rows(operator),
            )
        )
        for child in operator.children():
            visit(child, depth + 1)

    visit(planned.plan, 0)
    return entries


def format_audit(entries: list[AuditEntry]) -> str:
    """Render audit entries as an EXPLAIN-ANALYZE-style text tree."""
    lines = [f"{'operator':<64} {'est rows':>10} {'actual':>8} {'q-err':>6}"]
    for entry in entries:
        label = "  " * entry.depth + entry.label
        estimated = (
            f"{entry.estimated_rows:10.1f}" if entry.estimated_rows is not None
            else f"{'-':>10}"
        )
        q = f"{entry.q_error:6.2f}" if entry.q_error is not None else f"{'-':>6}"
        lines.append(f"{label:<64} {estimated} {entry.actual_rows:8d} {q}")
    return "\n".join(lines)


def worst_q_error(entries: list[AuditEntry]) -> float:
    """The largest per-operator q-error in the audit (1.0 if none)."""
    errors = [e.q_error for e in entries if e.q_error is not None]
    return max(errors, default=1.0)
