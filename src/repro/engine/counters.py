"""Work counters recorded during plan execution.

Counters are the engine's unit of account: every operator charges the
physical work it performs, and the cost model maps the totals to a
simulated execution time. Keeping counters separate from timing makes
execution deterministic and lets tests assert on the work itself.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter


@dataclass
class WorkCounters:
    """Accumulated physical work for one plan execution."""

    #: Pages read sequentially (table scans, clustered range scans).
    seq_pages: int = 0
    #: Random row fetches (RID lookups through nonclustered indexes).
    random_ios: int = 0
    #: Index leaf entries scanned (B-tree range/equality lookups).
    index_entries: int = 0
    #: Index probe operations (one per lookup call, e.g. per outer row).
    index_lookups: int = 0
    #: Rows passed through CPU-bound predicate/projection work.
    cpu_rows: int = 0
    #: Rows inserted into hash tables (join build sides, aggregation).
    hash_build_rows: int = 0
    #: Rows probed against hash tables.
    hash_probe_rows: int = 0
    #: Rows advanced through merge-join cursors.
    merge_rows: int = 0
    #: Sort comparisons (``n·log₂(n)`` per sort; may be fractional).
    sort_comparisons: float = 0.0
    #: Rows emitted by the plan root and intermediate operators.
    rows_output: int = 0
    #: Candidate row pairs expanded by interval (non-equi) joins.
    #: Declared last so existing counter sums keep their historical
    #: float accumulation order.
    interval_pairs: int = 0

    def add(self, other: "WorkCounters") -> None:
        """Accumulate ``other`` into this counter set, in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for reports and tests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def total_work(self) -> float:
        """Sum of all counters — raw work units, not seconds.

        Unitless by design (a page read and a hash probe each count
        1), so it orders operators by activity; the cost model's
        coefficients turn the same fields into simulated time.
        """
        return float(sum(getattr(self, f.name) for f in fields(self)))

    def copy(self) -> "WorkCounters":
        """An independent copy of the current totals."""
        return WorkCounters(**self.as_dict())

    def snapshot(self) -> tuple:
        """The current totals as a tuple in :data:`COUNTER_FIELDS` order.

        The cheap form the execution profile records twice per operator.
        """
        return _snapshot(self)

    @classmethod
    def between(cls, before: tuple, after: tuple) -> "WorkCounters":
        """The work charged between two :meth:`snapshot` tuples."""
        return cls(*(end - start for start, end in zip(before, after)))

    def subtract(self, other: "WorkCounters") -> None:
        """Remove ``other`` from this counter set, in place."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) - getattr(other, name))


#: Counter names in declaration order (the order of every snapshot).
COUNTER_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(WorkCounters))
_snapshot = attrgetter(*COUNTER_FIELDS)
