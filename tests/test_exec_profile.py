"""The execution profile against an independent re-execution oracle.

``ExecutionContext.run`` records every operator's rows, inclusive work
counters and wall time during the one real execution; tracing and the
feedback harvester read their per-operator truth from that profile.
The oracle below is the historical way of obtaining the same truth:
execute every subtree again in its own fresh context (no scan cache)
and subtract the children's totals. Own work and rows from the profile
must equal it exactly, for every plan the optimizer picks over the
query battery and the experiment, star and snowflake templates — with
the scan cache cold and warm.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import ExactCardinalityEstimator, RobustCardinalityEstimator
from repro.engine import (
    ExecOptions,
    ExecutionContext,
    ExecutionProfile,
    ScanCache,
    WorkCounters,
)
from repro.feedback import controller as feedback_controller
from repro.feedback.harvest import _NON_RELATIONAL, predicate_for_tables
from repro.expressions import expr_key
from repro.obs import operator_spans
from repro.obs.execution import _scalar, operator_tables
from repro.optimizer import Optimizer
from repro.service import Session
from repro.workloads import (
    QUERY_BATTERY,
    PartCorrelationTemplate,
    PriceMarkupTemplate,
    PromotionBandTemplate,
    ShippingDatesTemplate,
    SnowflakeChainTemplate,
    StarJoinTemplate,
    parse_battery,
)


# ----------------------------------------------------------------------
# Reference implementation: subtree re-execution in fresh contexts.
# ----------------------------------------------------------------------
def reference_profile(plan, database) -> list[tuple[int, dict]]:
    """``(rows, own counters)`` per operator of ``plan``, pre-order."""
    entries: list[list] = []

    def visit(op) -> WorkCounters:
        ctx = ExecutionContext(database)
        rows = op.execute(ctx).num_rows
        entry = [rows, None]
        entries.append(entry)
        own = ctx.counters.copy()
        for child in op.children():
            for name, value in visit(child).as_dict().items():
                setattr(own, name, getattr(own, name) - value)
        entry[1] = own.as_dict()
        return ctx.counters

    visit(plan)
    return [tuple(entry) for entry in entries]


def reference_harvest(store, namespace, query, plan, database, *, profile=None):
    """The feedback harvest by re-execution (ignores ``profile``)."""
    seen: set[frozenset[str]] = set()
    for op in plan.walk():
        tables = operator_tables(op)
        if isinstance(op, _NON_RELATIONAL) or not tables or tables in seen:
            continue
        seen.add(tables)
        store.record(
            namespace,
            tables=tuple(sorted(tables)),
            predicate_key=expr_key(predicate_for_tables(query, tables)),
            observed_rows=float(op.execute(ExecutionContext(database)).num_rows),
            estimated_rows=_scalar(op.est_rows),
        )
# ----------------------------------------------------------------------


def profiled_own(plan, profile: ExecutionProfile) -> list[tuple[int, dict]]:
    """``(rows, own counters)`` per operator read from ``profile``."""
    runs = iter(profile.preorder(plan))
    entries: list[list] = []

    def visit(op):
        run = next(runs)
        entry = [run.rows, None]
        entries.append(entry)
        children = [visit(child) for child in op.children()]
        entry[1] = run.own(children)[0].as_dict()
        return run

    visit(plan)
    return [tuple(entry) for entry in entries]


def _templated(template, database):
    low, high = template.param_range()
    return [template.instantiate(p) for p in (low, (low + high) // 2, high)]


def _plans(database, stats, queries):
    estimators = [ExactCardinalityEstimator(database)] + [
        RobustCardinalityEstimator(stats, policy=t) for t in (0.05, 0.5, 0.95)
    ]
    return [
        (database, Optimizer(database, estimator).optimize(query).plan)
        for estimator in estimators
        for query in queries
    ]


@pytest.fixture(scope="module")
def plans(tpch_db, tpch_stats, star_db, star_stats, star_config,
          snowflake_db, snowflake_stats):
    tpch = list(parse_battery(tpch_db).values())
    for template in (PartCorrelationTemplate(), ShippingDatesTemplate()):
        tpch += _templated(template, tpch_db)
    star = [
        StarJoinTemplate(star_config.num_dim).instantiate(shift)
        for shift in (100, 40, 0)
    ]
    snowflake = []
    for template in (
        SnowflakeChainTemplate(), PriceMarkupTemplate(), PromotionBandTemplate()
    ):
        snowflake += _templated(template, snowflake_db)
    return (
        _plans(tpch_db, tpch_stats, tpch)
        + _plans(star_db, star_stats, star)
        + _plans(snowflake_db, snowflake_stats, snowflake)
    )


def test_plans_cover_every_operator_kind(plans):
    kinds = {type(op).__name__ for _, plan in plans for op in plan.walk()}
    assert {
        "HashJoin", "MergeJoin", "IndexedNLJoin", "NonEquiJoin",
        "StarSemiJoin", "HashAggregate", "Sort", "Limit",
    } <= kinds


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_profile_matches_reexecution_oracle(plans, warm):
    cache = ScanCache()
    for database, plan in plans:
        if warm:
            ExecutionContext(database, ExecOptions(scan_cache=cache)).run(plan)
        ctx = ExecutionContext(database, ExecOptions(scan_cache=cache))
        ctx.run(plan)
        assert profiled_own(plan, ctx.profile) == reference_profile(
            plan, database
        ), plan.explain()
    assert cache.hits > 0


def test_own_counters_sum_exactly_to_plan_total(plans):
    for database, plan in plans:
        ctx = ExecutionContext(database)
        ctx.run(plan)
        total = WorkCounters()
        for _, own in profiled_own(plan, ctx.profile):
            total.add(WorkCounters(**own))
        assert total == ctx.counters
        assert ctx.profile.get(plan).counters == ctx.counters


def test_operator_spans_read_the_profile(plans):
    for database, plan in plans[::7]:
        spans, counters, rows = operator_spans(plan, database)
        reference = reference_profile(plan, database)
        assert [(s["actual_rows"], s["counters"]) for s in spans] == reference
        assert rows == reference[0][0]
        assert all(s["timing"]["wall_seconds"] >= 0 for s in spans)


def test_concurrent_runs_of_one_plan_keep_separate_profiles(plans):
    database, plan = max(plans, key=lambda item: len(list(item[1].walk())))
    expected = reference_profile(plan, database)
    results: list = [None] * 4

    def worker(slot):
        ctx = ExecutionContext(database)
        ctx.run(plan)
        results[slot] = profiled_own(plan, ctx.profile)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4


def test_feedback_store_matches_reexecution_harvest(
    tpch_db, tpch_stats, monkeypatch
):
    def run_rounds() -> bytes:
        # Shared statistics: both runs harvest into the same epoch.
        with Session(tpch_db, statistics=tpch_stats) as session:
            feedback = session.enable_feedback()
            for _ in range(3):
                for sql in QUERY_BATTERY.values():
                    session.execute(sql)
            return feedback.store.to_bytes()

    profiled = run_rounds()
    monkeypatch.setattr(feedback_controller, "harvest_plan", reference_harvest)
    assert run_rounds() == profiled
    assert b'"observations":3' in profiled
