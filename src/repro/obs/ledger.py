"""Accuracy ledger: per-class q-error time series and drift detection.

The tracing layer records how wrong every estimate was; this module
keeps that evidence *alive*. An :class:`AccuracyLedger` ingests one
q-error observation per executed query, groups them by query class
(for the session layer: the sorted table set of the query — one class
per join template), and maintains:

* a bounded recent window plus per-``expr_key`` aggregates — the
  "q-error time series" behind the feedback report;
* severity classification against :data:`SEVERITY_BANDS`, the
  decision matrix the adaptive threshold router consumes (accurate
  classes can afford aggressive thresholds; catastrophic ones cannot);
* a drift score — the log10 shift of the recent window's geometric
  mean q-error against the class's own baseline — exported as
  ``repro_feedback_drift_score{class=...}``;
* a :class:`~repro.obs.health.DegradationEvent` (reason
  ``"estimation-drift"``) whenever a class's observed severity crosses
  into a *worse* band, which is statistics-staleness detection for
  free: stale statistics show up as accurate classes drifting toward
  catastrophic.

Quantile gauges export as ``repro_feedback_qerror{class,quantile}``
with quantile labels ``p50`` / ``p90`` / ``max`` over the recent
window.
"""

from __future__ import annotations

import math
import threading
from collections import deque

from repro.obs.health import DegradationEvent
from repro.obs.trace import QERROR_FLOOR

#: Severity decision matrix: ``(band name, exclusive upper q-error
#: bound)`` in increasing severity. A q-error below 2 means the
#: estimate was within 2x of the truth; beyond 1000x it is
#: catastrophic and only a conservative plan is safe.
SEVERITY_BANDS = (
    ("accurate", 2.0),
    ("moderate", 10.0),
    ("major", 1000.0),
    ("catastrophic", float("inf")),
)

#: Band name → rank (higher is worse).
SEVERITY_ORDER = {name: rank for rank, (name, _) in enumerate(SEVERITY_BANDS)}

#: Quantiles exported per class through the metrics registry.
QERROR_QUANTILES = ("p50", "p90", "max")


def classify_q_error(value: float) -> str:
    """Map one q-error value onto its severity band name."""
    q = max(float(value), 1.0)
    for name, bound in SEVERITY_BANDS:
        if q < bound:
            return name
    return SEVERITY_BANDS[-1][0]


def _window_quantile(values: list[float], fraction: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
    return ordered[max(rank, 0)]


class _ClassSeries:
    """Mutable per-class state: recent window, baseline, per-expr sums."""

    __slots__ = (
        "window",
        "baseline",
        "count",
        "log_sum",
        "max_q",
        "severity",
        "per_expr",
    )

    def __init__(self, window_size: int) -> None:
        self.window: deque[float] = deque(maxlen=window_size)
        self.baseline: list[float] = []
        self.count = 0
        self.log_sum = 0.0
        self.max_q = 1.0
        self.severity: str | None = None
        self.per_expr: dict[str, dict] = {}


class AccuracyLedger:
    """Per-query-class q-error bookkeeping with drift detection.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        given, quantile and drift gauges are kept current on every
        ingest.
    window:
        Recent-window length per class (severity and quantiles are
        computed over this window, so the ledger adapts when the
        workload shifts).
    baseline:
        Number of initial observations frozen as the class's baseline
        for the drift score.
    on_degradation:
        Callback invoked with each :class:`DegradationEvent` the
        ledger raises (the session wires its degradation log here).
    """

    def __init__(
        self,
        *,
        registry=None,
        window: int = 64,
        baseline: int = 16,
        on_degradation=None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if baseline < 1:
            raise ValueError("baseline must be at least 1")
        self._lock = threading.Lock()
        self._window_size = int(window)
        self._baseline_size = int(baseline)
        self._classes: dict[str, _ClassSeries] = {}
        #: Drift-event callback; assignable (``None`` detaches it).
        self.on_degradation = on_degradation
        self.events: list[DegradationEvent] = []
        self._qerror_gauge = None
        self._drift_gauge = None
        if registry is not None:
            self._qerror_gauge = registry.gauge(
                "repro_feedback_qerror",
                "Observed q-error quantiles per query class "
                "(recent window)",
            )
            self._drift_gauge = registry.gauge(
                "repro_feedback_drift_score",
                "log10 shift of recent geometric-mean q-error vs the "
                "class baseline",
            )

    # ------------------------------------------------------------------
    def ingest(
        self,
        query_class: str,
        q_error: float,
        *,
        expr_key: str | None = None,
        statistics_version: int = 0,
    ) -> DegradationEvent | None:
        """Record one observed q-error for ``query_class``.

        Returns the :class:`DegradationEvent` raised if this
        observation pushed the class's severity into a worse band,
        else ``None``.
        """
        q = max(float(q_error), 1.0)
        with self._lock:
            series = self._classes.get(query_class)
            if series is None:
                series = _ClassSeries(self._window_size)
                self._classes[query_class] = series
            series.window.append(q)
            if len(series.baseline) < self._baseline_size:
                series.baseline.append(q)
            series.count += 1
            series.log_sum += math.log10(q)
            series.max_q = max(series.max_q, q)
            if expr_key is not None:
                slot = series.per_expr.setdefault(
                    expr_key, {"count": 0, "log_sum": 0.0, "max": 1.0}
                )
                slot["count"] += 1
                slot["log_sum"] += math.log10(q)
                slot["max"] = max(slot["max"], q)

            severity = self._severity_locked(series)
            previous = series.severity
            series.severity = severity
            event = None
            if (
                previous is not None
                and SEVERITY_ORDER[severity] > SEVERITY_ORDER[previous]
            ):
                event = DegradationEvent(
                    reason="estimation-drift",
                    detail=(
                        f"query class {query_class!r} drifted "
                        f"{previous} -> {severity} "
                        f"(window p90 q-error "
                        f"{_window_quantile(list(series.window), 0.9):.1f})"
                    ),
                    component="estimator",
                    statistics_version=statistics_version,
                )
                self.events.append(event)
            self._publish_locked(query_class, series)
        callback = self.on_degradation
        if event is not None and callback is not None:
            callback(event)
        return event

    # ------------------------------------------------------------------
    def _severity_locked(self, series: _ClassSeries) -> str:
        return classify_q_error(_window_quantile(list(series.window), 0.9))

    def _drift_locked(self, series: _ClassSeries) -> float:
        if not series.baseline or not series.window:
            return 0.0
        recent = sum(math.log10(q) for q in series.window) / len(series.window)
        base = sum(math.log10(q) for q in series.baseline) / len(
            series.baseline
        )
        return recent - base

    def _publish_locked(self, query_class: str, series: _ClassSeries) -> None:
        if self._qerror_gauge is None:
            return
        window = list(series.window)
        self._qerror_gauge.set(
            _window_quantile(window, 0.5), **{
                "class": query_class, "quantile": "p50",
            }
        )
        self._qerror_gauge.set(
            _window_quantile(window, 0.9), **{
                "class": query_class, "quantile": "p90",
            }
        )
        self._qerror_gauge.set(
            max(window), **{"class": query_class, "quantile": "max"}
        )
        self._drift_gauge.set(
            self._drift_locked(series), **{"class": query_class}
        )

    # ------------------------------------------------------------------
    def severity(self, query_class: str) -> str | None:
        """Current severity band for a class (``None`` before data)."""
        with self._lock:
            series = self._classes.get(query_class)
            if series is None or not series.window:
                return None
            return self._severity_locked(series)

    def drift_score(self, query_class: str) -> float:
        """log10 recent-vs-baseline geometric-mean q-error shift."""
        with self._lock:
            series = self._classes.get(query_class)
            if series is None:
                return 0.0
            return self._drift_locked(series)

    def quantile(self, query_class: str, fraction: float) -> float | None:
        """Nearest-rank q-error quantile over the class's window."""
        with self._lock:
            series = self._classes.get(query_class)
            if series is None or not series.window:
                return None
            return _window_quantile(list(series.window), fraction)

    def classes(self) -> list[str]:
        with self._lock:
            return sorted(self._classes)

    def report(self) -> dict:
        """JSON-ready summary: per-class stats and per-expr series."""
        with self._lock:
            out: dict = {}
            for name in sorted(self._classes):
                series = self._classes[name]
                window = list(series.window)
                out[name] = {
                    "count": series.count,
                    "severity": (
                        self._severity_locked(series) if window else None
                    ),
                    "drift_score": self._drift_locked(series),
                    "geomean_q": 10 ** (series.log_sum / series.count)
                    if series.count
                    else 1.0,
                    "max_q": series.max_q,
                    "window_p50": (
                        _window_quantile(window, 0.5) if window else None
                    ),
                    "window_p90": (
                        _window_quantile(window, 0.9) if window else None
                    ),
                    "expressions": {
                        key: {
                            "count": slot["count"],
                            "geomean_q": 10
                            ** (slot["log_sum"] / slot["count"]),
                            "max_q": slot["max"],
                        }
                        for key, slot in sorted(series.per_expr.items())
                    },
                }
            return out

    def reset(self, query_class: str | None = None) -> None:
        """Forget one class's series (or all of them)."""
        with self._lock:
            if query_class is None:
                self._classes.clear()
            else:
                self._classes.pop(query_class, None)


# Re-exported here so ledger consumers see the same floor the q-error
# arithmetic uses.
__all__ = [
    "AccuracyLedger",
    "QERROR_FLOOR",
    "QERROR_QUANTILES",
    "SEVERITY_BANDS",
    "SEVERITY_ORDER",
    "classify_q_error",
]
