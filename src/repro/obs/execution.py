"""Execution provenance: per-operator work breakdown and accuracy.

Every plan execution records an :class:`~repro.engine.ExecutionProfile`
on its context as it runs: each operator's output rows, the counters
charged while its subtree ran and its wall time. An operator's *own*
work is its subtree's figure minus its children's, so the spans built
here are an ``EXPLAIN ANALYZE`` with a physical-work breakdown instead
of just row counts — read from the one real execution, never from a
re-execution. Per-operator wall time is the only non-deterministic
field and lives under each span's ``"timing"`` key.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.catalog import Database
from repro.engine import OperatorRun, PhysicalOperator, run_plan
from repro.engine.counters import WorkCounters
from repro.obs.trace import plan_shape, q_error


def _scalar(value) -> float | None:
    """JSON-safe scalar from an operator annotation.

    The vector planning pass may leave numpy scalars (or, on shared
    subtrees, whole threshold-axis arrays) in ``est_rows``/``est_cost``;
    multi-lane arrays have no single scalar meaning, so they serialize
    as ``None``.
    """
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        flat = value.reshape(-1)
        return float(flat[0]) if flat.size == 1 else None
    return float(value)


def operator_tables(op: PhysicalOperator) -> frozenset[str]:
    """Base tables covered by an operator's subtree.

    Scans and seeks carry ``table_name``; a star semi-join contributes
    its fact table and every dimension spec. This is the attribution
    the feedback harvester keys observed cardinalities on.
    """
    tables: set[str] = set()
    for node in op.walk():
        name = getattr(node, "table_name", None)
        if name is not None:
            tables.add(name)
        fact = getattr(node, "fact_table", None)
        if fact is not None:
            tables.add(fact)
            for spec in list(getattr(node, "semi_dims", ())) + list(
                getattr(node, "hash_dims", ())
            ):
                tables.add(spec.dim_table)
    return frozenset(tables)


def profile_spans(
    plan: PhysicalOperator, runs: Sequence[OperatorRun]
) -> list[dict]:
    """Per-operator provenance spans of one profiled execution, pre-order.

    ``runs`` are the plan's :class:`~repro.engine.OperatorRun` entries
    in ``plan.walk()`` order (:meth:`ExecutionProfile.preorder`). Each
    span carries the operator's label, depth, the base tables its
    subtree covers, estimated vs. actual rows with per-operator
    Q-error, and its **own** work — its subtree's counters minus its
    children's, so summing ``counters`` over all spans reproduces the
    plan's total work. Own wall time goes under ``"timing"``.
    """
    spans: list[dict] = []
    pending = iter(runs)

    def visit(op: PhysicalOperator, depth: int) -> OperatorRun:
        run = next(pending)
        estimated = _scalar(op.est_rows)
        span = {
            "operator": op.label(),
            "depth": depth,
            "tables": sorted(operator_tables(op)),
            "estimated_rows": estimated,
            "actual_rows": run.rows,
            "q_error": q_error(estimated, run.rows),
        }
        spans.append(span)
        children = [visit(child, depth + 1) for child in op.children()]
        own, own_ns = run.own(children)
        span["counters"] = own.as_dict()
        span["own_work"] = own.total_work()
        span["timing"] = {"wall_seconds": own_ns / 1e9}
        return run

    visit(plan, 0)
    return spans


def operator_spans(
    plan: PhysicalOperator, database: Database
) -> tuple[list[dict], WorkCounters, int]:
    """Execute ``plan`` once and return its per-operator spans.

    Returns ``(spans, root_counters, root_rows)``; see
    :func:`profile_spans` for the span contents.
    """
    frame, ctx = run_plan(plan, database)
    return profile_spans(plan, ctx.profile.preorder(plan)), ctx.counters, frame.num_rows


def execution_span(
    plan: PhysicalOperator,
    database: Database,
    cost_model,
    *,
    simulated_seconds: float,
    actual_rows: int,
    estimated_rows: float | None = None,
    estimated_cost: float | None = None,
    cache_hit: bool = False,
    wall_seconds: float | None = None,
    runs: Sequence[OperatorRun] | None = None,
) -> dict:
    """The execution span of one query trace.

    Joins the optimizer's estimates against the observed
    ``actual_rows`` for the plan-level accuracy verdict: the Q-error
    ``max(est/actual, actual/est)`` plus explicit under/over flags
    (both ``False`` when the estimate was exact or absent).

    ``runs`` is the pre-order profile of the execution that produced
    ``simulated_seconds`` and ``actual_rows``
    (:meth:`ExecutionProfile.preorder`); without it the plan is
    executed once here to obtain one.
    """
    if runs is None:
        spans, counters, _ = operator_spans(plan, database)
    else:
        spans = profile_spans(plan, runs)
        counters = runs[0].counters
    estimated_rows = _scalar(estimated_rows)
    estimated_cost = _scalar(estimated_cost)
    error = q_error(estimated_rows, actual_rows)
    span = {
        "plan_shape": plan_shape(plan),
        "signature": plan.signature(),
        "simulated_seconds": simulated_seconds,
        "actual_rows": actual_rows,
        "estimated_rows": estimated_rows,
        "estimated_cost": estimated_cost,
        "q_error": error,
        "underestimate": (
            estimated_rows is not None and estimated_rows < actual_rows
        ),
        "overestimate": (
            estimated_rows is not None and estimated_rows > actual_rows
        ),
        "cache_hit": bool(cache_hit),
        "counters": counters.as_dict(),
        "total_work": counters.total_work(),
        "time_breakdown": cost_model.time_breakdown(counters),
        "operators": spans,
    }
    if wall_seconds is not None:
        span["timing"] = {"wall_seconds": wall_seconds}
    return span
