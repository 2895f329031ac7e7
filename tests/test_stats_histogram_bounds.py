"""Open-interval semantics at bucket boundaries (histogram + IndexSeek).

Regression suite: strict bounds (``<``/``>``) at a bucket-boundary
value historically estimated and fetched the same rows as their
inclusive twins, because the boundary point mass was counted (and the
index range included the edge) regardless of inclusivity. Both layers
must now distinguish ``x < boundary`` from ``x <= boundary``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionContext, IndexSeek, SeqScan
from repro.engine.scans import IndexCondition
from repro.expressions import col
from repro.stats.histogram import EquiDepthHistogram

from tests.conftest import make_two_table_db


class TestHistogramBoundaryInclusivity:
    """Two heavy values, one per bucket: every estimate is exact."""

    @pytest.fixture(scope="class")
    def hist(self):
        values = np.array([1.0] * 50 + [2.0] * 50)
        return EquiDepthHistogram(values, num_buckets=2)

    def test_strict_upper_excludes_boundary_mass(self, hist):
        assert hist.selectivity_range(None, 2, high_inclusive=False) == 0.5
        assert hist.selectivity_range(None, 2, high_inclusive=True) == 1.0

    def test_strict_lower_excludes_boundary_mass(self, hist):
        assert hist.selectivity_range(1, None, low_inclusive=False) == 0.5
        assert hist.selectivity_range(1, None, low_inclusive=True) == 1.0

    def test_empty_open_interval(self, hist):
        assert hist.selectivity_range(1, 2, False, False) == 0.0

    def test_degenerate_range_needs_both_bounds_inclusive(self, hist):
        assert hist.selectivity_range(2, 2, True, True) == 0.5
        assert hist.selectivity_range(2, 2, True, False) == 0.0
        assert hist.selectivity_range(2, 2, False, True) == 0.0

    def test_uniform_data_tracks_truth_at_boundaries(self):
        values = np.arange(100, dtype=float)
        hist = EquiDepthHistogram(values, num_buckets=4)
        boundary = float(hist.uppers[1])  # an interior bucket edge
        strict = hist.selectivity_range(None, boundary, high_inclusive=False)
        inclusive = hist.selectivity_range(None, boundary, high_inclusive=True)
        assert inclusive == pytest.approx(strict + 1 / 100)
        truth = float((values < boundary).mean())
        assert strict == pytest.approx(truth, abs=0.02)


def full_bucket_selectivity_range(
    hist, low, high, low_inclusive=True, high_inclusive=True
):
    """Oracle: the estimate summed over *every* bucket.

    A verbatim copy of the loop ``selectivity_range`` ran before it
    learned to walk only the buckets a range overlaps; the two must
    agree bit for bit.
    """
    if low is None:
        lo, low_inclusive = hist.minimum, True
    else:
        lo = float(low)
    if high is None:
        hi, high_inclusive = float(hist.uppers[-1]), True
    else:
        hi = float(high)
    if hi < lo or (hi == lo and not (low_inclusive and high_inclusive)):
        return 0.0
    lowers = hist._bucket_lowers()
    total = 0.0
    for i in range(hist.num_buckets):
        b_lo = lowers[i] if i > 0 else hist.minimum
        b_hi = hist.uppers[i]
        boundary = float(hist.boundary_counts[i])
        interior = float(hist.counts[i]) - boundary
        # point mass at the bucket's upper-boundary value, counted
        # only when that value satisfies both (strict?) bounds
        above_lo = b_hi > lo or (b_hi == lo and low_inclusive)
        below_hi = b_hi < hi or (b_hi == hi and high_inclusive)
        if above_lo and below_hi:
            total += boundary
        # interior mass, uniform over (b_lo, b_hi)
        if interior > 0 and b_hi > b_lo:
            overlap_lo = max(lo, b_lo)
            overlap_hi = min(hi, b_hi)
            if overlap_hi > overlap_lo:
                total += interior * (overlap_hi - overlap_lo) / (b_hi - b_lo)
    return min(1.0, total / hist.total_rows)


_integer_columns = st.lists(
    st.integers(-1000, 1000), min_size=1, max_size=300
).map(lambda v: np.asarray(v, dtype=np.int64))
_float_columns = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300
).map(lambda v: np.asarray(v, dtype=np.float64))
_duplicate_heavy_columns = st.lists(
    st.sampled_from([-3, 0, 1, 2, 7, 40]), min_size=1, max_size=300
).map(lambda v: np.asarray(v, dtype=np.int64))
_single_value_columns = st.builds(
    lambda value, size: np.full(size, value, dtype=np.float64),
    st.floats(-100, 100, allow_nan=False),
    st.integers(1, 50),
)


@st.composite
def _histogram_and_range(draw):
    values = draw(st.one_of(
        _integer_columns, _float_columns,
        _duplicate_heavy_columns, _single_value_columns,
    ))
    hist = EquiDepthHistogram(values, num_buckets=draw(st.integers(1, 40)))
    edges = [hist.minimum, *hist.uppers.tolist()]
    span = max(1.0, float(hist.uppers[-1] - hist.minimum))
    bound = st.one_of(
        st.none(),
        st.sampled_from(edges),  # exactly on a bucket boundary
        st.sampled_from(values.tolist()),
        st.floats(
            hist.minimum - span, float(hist.uppers[-1]) + span,
            allow_nan=False,
        ),  # inside, between, and outside the column's range
    )
    return (
        hist, draw(bound), draw(bound), draw(st.booleans()), draw(st.booleans())
    )


class TestOverlapWalkMatchesFullLoop:
    """``selectivity_range`` walks only overlapping buckets; the
    skipped ones contribute nothing, so the result is unchanged."""

    @settings(deadline=None, max_examples=400)
    @given(_histogram_and_range())
    def test_exactly_equal_to_full_bucket_loop(self, case):
        hist, low, high, low_inclusive, high_inclusive = case
        got = hist.selectivity_range(low, high, low_inclusive, high_inclusive)
        want = full_bucket_selectivity_range(
            hist, low, high, low_inclusive, high_inclusive
        )
        assert got == want

    def test_upper_bound_at_a_single_value_first_bucket(self):
        """``x <= min`` where the first bucket holds only the minimum:
        the bucket whose lower edge equals ``hi`` still contributes."""
        hist = EquiDepthHistogram(np.array([5.0] * 30 + [6.0] * 10), 2)
        assert hist.uppers[0] == hist.minimum == 5.0
        assert hist.selectivity_range(None, 5.0) == 0.75
        single = EquiDepthHistogram(np.full(8, 3.0), num_buckets=4)
        assert single.selectivity_range(3.0, 3.0) == 1.0
        assert single.selectivity_range(None, None) == 1.0


class TestIndexSeekOpenIntervals:
    """IndexSeek must fetch exactly the rows of the (half-)open range."""

    @pytest.fixture(scope="class")
    def database(self):
        return make_two_table_db()

    @pytest.fixture(scope="class")
    def shipdates(self, database):
        return database.table("lineitem").column("l_shipdate")

    @pytest.fixture(scope="class")
    def edge(self, shipdates):
        # a value that actually occurs, so inclusivity matters
        return int(np.sort(shipdates)[len(shipdates) // 2])

    def _seek_rows(self, database, condition):
        seek = IndexSeek("lineitem", condition)
        return seek.execute(ExecutionContext(database)).num_rows

    def test_strict_vs_inclusive_upper(self, database, shipdates, edge):
        strict = self._seek_rows(
            database, IndexCondition("l_shipdate", None, edge, True, False)
        )
        inclusive = self._seek_rows(
            database, IndexCondition("l_shipdate", None, edge, True, True)
        )
        assert strict == int((shipdates < edge).sum())
        assert inclusive == int((shipdates <= edge).sum())
        assert strict < inclusive

    def test_strict_vs_inclusive_lower(self, database, shipdates, edge):
        strict = self._seek_rows(
            database, IndexCondition("l_shipdate", edge, None, False, True)
        )
        inclusive = self._seek_rows(
            database, IndexCondition("l_shipdate", edge, None, True, True)
        )
        assert strict == int((shipdates > edge).sum())
        assert inclusive == int((shipdates >= edge).sum())
        assert strict < inclusive

    def test_half_open_band(self, database, shipdates, edge):
        high = edge + 30
        rows = self._seek_rows(
            database, IndexCondition("l_shipdate", edge, high, True, False)
        )
        assert rows == int(((shipdates >= edge) & (shipdates < high)).sum())

    def test_seek_matches_seq_scan(self, database, edge):
        """The same strict predicate through either access path."""
        predicate = col("lineitem.l_shipdate") < edge
        scan = SeqScan("lineitem", predicate)
        scanned = scan.execute(ExecutionContext(database)).num_rows
        sought = self._seek_rows(
            database, IndexCondition("l_shipdate", None, edge, True, False)
        )
        assert sought == scanned
