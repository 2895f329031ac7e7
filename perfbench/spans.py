"""Layer spans recorded from outside the program, and the metrics they give.

:class:`Tracer` wraps the public entry point of each layer in this
process (no source file of the program is edited) and records one span
per call: name, start, end, parent span and operation id. Spans nest
per thread, so a span's *self time* is its duration minus the time of
its child spans, which never overlap one another on one thread.

Layer boundaries wrapped:

========================  ==================================================
span                      entry point
========================  ==================================================
``sql.parse``             ``parse_query`` as the session calls it
``core.estimate``         ``estimate`` / ``estimate_many`` /
                          ``condition_selectivity`` of every estimator a
                          session builds, via ``Session.estimator_decorator``
``optimizer.optimize``    ``Optimizer.optimize`` (threshold, histogram, bayes)
``optimizer.penalty``     ``Optimizer.optimize_penalty`` (cvar arm)
``service.prepare``       ``Session.prepare``
``engine.execute``        ``PreparedQuery.execute``
``feedback.observe``      ``SessionFeedback.observe``
``serving.run``           the ``QueryServer`` worker step (queue wait is its
                          start minus the operation's submit time)
========================  ==================================================

``engine.execute`` self time excludes its children (feedback harvest and
transparent re-plans), so it is the plan execution itself. The rows an
execution emits come from its :class:`~repro.engine.ExecutionContext`
work counters, which the tracer reads by handing the session a
recording subclass.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

from repro.engine import ExecutionContext
from repro.feedback import SessionFeedback
from repro.optimizer import Optimizer
from repro.serving import QueryServer
from repro.service import PreparedQuery, Session
import repro.service.session as session_module


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "attrs")

    def __init__(self, name, start, parent, op) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ops = itertools.count(1)
        self._undo: list = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_operation(self) -> int:
        """Start a new operation id on this thread."""
        self._local.op = next(self._ops)
        return self._local.op

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            stack[-1] if stack else None,
            getattr(self._local, "op", 0),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def wrap(self, function, name, on_call=None, on_result=None):
        """``function`` with a span around every call."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                if on_call is not None:
                    on_call(span, args)
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                tracer.close(span)

        traced.__wrapped__ = function
        return traced

    # -- installing ----------------------------------------------------
    def _patch(self, owner, attribute, name, **hooks) -> None:
        original = vars(owner)[attribute]
        setattr(owner, attribute, self.wrap(original, name, **hooks))
        self._undo.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap the process-wide layer entry points (undo with uninstall)."""
        tracer = self

        def queue_wait(span, args):
            tracer.new_operation()
            span.op = tracer._local.op
            span.attrs["queue_wait_s"] = span.start - args[1].submitted_at

        def plan_cache_outcome(span, prepared):
            span.attrs["hit"] = prepared.from_cache

        class RecordingContext(ExecutionContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                span = tracer.current()
                if span is not None:
                    span.attrs["context"] = self

        self._patch(session_module, "parse_query", "sql.parse")
        self._undo.append(
            (session_module, "ExecutionContext", session_module.ExecutionContext)
        )
        session_module.ExecutionContext = RecordingContext
        self._patch(Optimizer, "optimize", "optimizer.optimize")
        self._patch(Optimizer, "optimize_penalty", "optimizer.penalty")
        self._patch(Session, "prepare", "service.prepare",
                    on_result=plan_cache_outcome)
        self._patch(PreparedQuery, "execute", "engine.execute")
        self._patch(SessionFeedback, "observe", "feedback.observe")
        self._patch(QueryServer, "_run", "serving.run", on_call=queue_wait)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def attach_session(self, session) -> None:
        """Trace the estimators ``session`` builds (the ``core`` layer)."""

        def decorate(estimator):
            # Patch the instance rather than proxy it, so isinstance
            # checks in the optimizer see the real estimator class.
            for method in ("estimate", "estimate_many", "condition_selectivity"):
                original = getattr(estimator, method)
                setattr(estimator, method, self.wrap(original, "core.estimate"))
            return estimator

        session.estimator_decorator = decorate

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans as JSON lines (parents by index)."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": index.get(id(span.parent)),
                    "op": span.op,
                }) + "\n")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced run's spans, in metric units."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    estimates = spans("core.estimate")
    plans = len(spans("optimizer.optimize")) + len(spans("optimizer.penalty"))
    outermost = [s for s in estimates
                 if s.parent is None or s.parent.name != "core.estimate"]
    executes = spans("engine.execute")
    hits = [s for s in spans("service.prepare") if s.attrs.get("hit")]
    observe_s = sum(s.duration for s in spans("feedback.observe"))
    execute_s = sum(s.duration for s in executes)
    rows = [
        s.attrs["context"].counters.rows_output
        for s in executes if "context" in s.attrs
    ]
    return {
        "sql.parse_ms": 1e3 * _mean(s.duration for s in spans("sql.parse")),
        "core.estimate_calls": len(outermost) / plans if plans else 0.0,
        "core.estimate_self_ms": (
            1e3 * sum(s.self_time for s in estimates) / plans if plans else 0.0
        ),
        "optimizer.optimize_self_ms": 1e3 * _mean(
            s.self_time for s in spans("optimizer.optimize")
        ),
        "optimizer.penalty_self_ms": 1e3 * _mean(
            s.self_time for s in spans("optimizer.penalty")
        ),
        "engine.execute_ms": 1e3 * _mean(s.self_time for s in executes),
        "engine.rows_out": _mean(rows),
        "service.prepare_hit_us": 1e6 * _mean(s.duration for s in hits),
        "feedback.observe_ms": 1e3 * _mean(
            s.duration for s in spans("feedback.observe")
        ),
        "feedback.observe_share": observe_s / execute_s if execute_s else 0.0,
        "serving.queue_wait_ms": 1e3 * _mean(
            s.attrs["queue_wait_s"] for s in spans("serving.run")
        ),
    }
