"""The robust cardinality estimator — the paper's Section 3.4 procedure.

Given an SPJ expression:

1. find the precomputed join synopsis whose root matches the
   expression's root relation;
2. count the synopsis tuples satisfying the predicate (``k`` of ``n``)
   and form the Beta posterior ``Beta(k + a, n − k + b)``;
3. invert the posterior cdf at the confidence threshold ``T`` and
   return ``cdf⁻¹(T) × |root|`` as the cardinality.

When the needed synopsis is missing, the estimator degrades gracefully
(Section 3.5): single-table samples combined under the AVI and
containment assumptions, then magic distributions as the last resort.
Estimation error from fallback assumptions is confined to the
subexpressions that actually lack statistics.

The sample counts ``(k, n)`` are threshold-independent — only the
final ``cdf⁻¹(T)`` inversion changes with ``T`` — so
:meth:`RobustCardinalityEstimator.estimate_many` prices a whole
threshold grid from one synopsis pass, reading the inversions out of a
memoized :class:`~repro.core.posterior.BetaQuantileTable` row.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Sequence

import numpy as np

from repro.core.confidence import ConfidencePolicy, MODERATE, resolve_threshold
from repro.core.estimate import CardinalityEstimate
from repro.core.estimator import CardinalityEstimator
from repro.core.magic import MagicDistribution, MagicNumbers
from repro.core.memo import EstimateCacheMixin
from repro.core.posterior import SelectivityPosterior, quantile_table
from repro.core.prior import JEFFREYS, Prior
from repro.errors import EstimationError
from repro.obs.trace import EstimationSpan
from repro.expressions import (
    Expr,
    expr_key,
    predicates_by_table,
    split_conjuncts,
)
from repro.stats import StatisticsManager


class RobustCardinalityEstimator(EstimateCacheMixin, CardinalityEstimator):
    """Sample-based Bayesian estimation with a confidence threshold.

    Parameters
    ----------
    statistics:
        The statistics manager holding samples and join synopses.
    prior:
        Beta prior over selectivity; the Jeffreys prior by default.
    policy:
        System-wide confidence threshold, overridable per call via the
        ``hint`` argument of :meth:`estimate`.
    magic:
        Fallback magic-number table for statistics-free predicates.
    magic_concentration:
        Pseudo-count of the magic *distributions* built from the magic
        numbers (higher = the fallback reacts less to the threshold).
    """

    def __init__(
        self,
        statistics: StatisticsManager,
        prior: Prior = JEFFREYS,
        policy: ConfidencePolicy | float | str = MODERATE,
        magic: MagicNumbers | None = None,
        magic_concentration: float = 4.0,
        cache_conjunct_masks: bool = True,
        memoize_estimates: bool = True,
    ) -> None:
        self.statistics = statistics
        self.prior = prior
        self.policy = (
            policy if isinstance(policy, ConfidencePolicy) else ConfidencePolicy(policy)
        )
        self.magic = magic or MagicNumbers()
        self.magic_concentration = magic_concentration
        # §6.1 notes the prototype "lacks even basic optimizations such
        # as memoizing". This is that optimization: during one
        # optimizer run the same conjuncts recur across many subsets,
        # so per-synopsis boolean masks are cached per conjunct and
        # ANDed, instead of re-evaluating whole predicates. Keyed
        # weakly on the synopsis object so rebuilding statistics can
        # never serve stale masks.
        self.cache_conjunct_masks = cache_conjunct_masks
        self._mask_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Whole-estimate memoization on top of the mask cache: the
        # System-R DP re-prices the same (tables, predicate, threshold)
        # triple across queries of a grid, and each hit skips a
        # ``betaincinv`` inversion. Keyed on the statistics version so
        # ``update_statistics``/``drop_*`` invalidate the cache.
        self._init_estimate_cache(memoize_estimates)
        #: Posterior inversions served from a quantile-table row
        #: instead of per-threshold ``betaincinv`` calls.
        self.lut_hits = 0
        #: §3.5 fallback attribution: estimation passes that could not
        #: use a covering synopsis, counted by fallback source
        #: ("sample-avi" / "magic" / "mixed"). Memoized repeats of the
        #: same estimate are not re-counted — these are unique passes.
        self.fallback_counts: dict[str, int] = {}
        #: Optional hook called as ``listener(tables, source)`` on
        #: every fallback pass; the session wires this into its
        #: metrics registry so degradations are attributed live.
        self.fallback_listener = None
        #: Optional :class:`~repro.feedback.store.FeedbackProvider`.
        #: When set, stored observed cardinalities matching a lookup's
        #: ``(tables, expr_key)`` fold into the Beta posterior as
        #: extra pseudo-counts; such estimates carry
        #: ``source="feedback"`` and their spans record the
        #: unadjusted prior quantile beside the corrected one.
        self.feedback = None

    def _estimate_cache_token(self):
        # getattr: the mixin initializes (and probes) the token during
        # __init__, before the feedback attribute exists.
        version = getattr(self.statistics, "version", 0)
        feedback = getattr(self, "feedback", None)
        if feedback is None:
            return version
        return (version, feedback.generation)

    # ------------------------------------------------------------------
    def estimate(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        hint: float | str | None = None,
    ) -> CardinalityEstimate:
        names = set(tables)
        if not names:
            raise EstimationError("estimate requires at least one table")
        threshold = self.policy.threshold(hint)
        if not self.memoize_estimates:
            return self._estimate_impl(names, predicate, threshold)

        key = (frozenset(names), expr_key(predicate), threshold)
        cached = self._estimate_cache_get(key)
        if cached is not None:
            return cached
        return self._estimate_cache_put(
            key, self._estimate_impl(names, predicate, threshold)
        )

    def estimate_many(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        thresholds: Sequence[float],
    ) -> tuple[CardinalityEstimate, ...]:
        """One estimate per threshold from a single evidence pass.

        The synopsis mask and the ``(k, n)`` counts are computed once;
        every posterior inversion is a quantile-table row lookup. The
        returned estimates match :meth:`estimate` at each threshold
        bit for bit (``betaincinv`` is evaluated elementwise in both
        paths).
        """
        names = set(tables)
        if not names:
            raise EstimationError("estimate requires at least one table")
        if not thresholds:
            raise EstimationError("estimate_many requires at least one threshold")
        grid = tuple(resolve_threshold(t) for t in thresholds)
        if not self.memoize_estimates:
            return self._estimate_many_impl(names, predicate, grid)

        key = (frozenset(names), expr_key(predicate), grid)
        cached = self._estimate_cache_get(key)
        if cached is not None:
            return cached
        return self._estimate_cache_put(
            key, self._estimate_many_impl(names, predicate, grid)
        )

    # ------------------------------------------------------------------
    def _feedback_fold(self, names: set[str], predicate: Expr | None, total):
        """``(adjusted prior, attribution)`` for a lookup, or ``None``.

        Consults the bound :class:`FeedbackProvider` for stored
        observations of exactly this ``(tables, expr_key)`` pair and
        folds them into the prior as pseudo-counts — the posterior
        math downstream (scalar ``ppf`` and the vectorized quantile
        table alike) is unchanged.
        """
        if self.feedback is None:
            return None
        folded = self.feedback.pseudo_counts(
            names, expr_key(predicate), total
        )
        if folded is None:
            return None
        extra_alpha, extra_beta, attribution = folded
        return (
            self.feedback.adjusted_prior(
                self.prior, (extra_alpha, extra_beta)
            ),
            attribution,
        )

    def _feedback_attribution(
        self, attribution: dict, prior_quantile: float, total
    ) -> dict:
        """The span's feedback dict: provenance + the uncorrected path."""
        out = dict(attribution)
        out["prior_quantile"] = float(prior_quantile)
        out["prior_point_estimate"] = float(prior_quantile) * total
        return out

    def _estimate_impl(
        self, names: set[str], predicate: Expr | None, threshold: float
    ) -> CardinalityEstimate:
        root = self.statistics.database.root_relation(names)
        total = self.statistics.table_rows(root)

        synopsis = self.statistics.synopsis_covering(names)
        if synopsis is not None:
            k = self._count_satisfying(synopsis, predicate)
            fold = self._feedback_fold(names, predicate, total)
            prior = self.prior if fold is None else fold[0]
            posterior = SelectivityPosterior(k, synopsis.size, prior)
            selectivity = posterior.ppf(threshold)
            source = "synopsis" if fold is None else "feedback"
            if self.tracer is not None:
                feedback_info = None
                if fold is not None:
                    base = SelectivityPosterior(k, synopsis.size, self.prior)
                    feedback_info = self._feedback_attribution(
                        fold[1], base.ppf(threshold), total
                    )
                self._trace_lookup(
                    names, source, k, synopsis.size, threshold,
                    selectivity, selectivity * total, False, predicate,
                    prior_name=prior.name, feedback=feedback_info,
                )
            return CardinalityEstimate(
                tables=frozenset(names),
                selectivity=selectivity,
                cardinality=selectivity * total,
                root_table=root,
                source=source,
                posterior=posterior,
                threshold=threshold,
            )

        return self._estimate_fallback(names, predicate, threshold, root, total)

    def _estimate_many_impl(
        self, names: set[str], predicate: Expr | None, grid: tuple[float, ...]
    ) -> tuple[CardinalityEstimate, ...]:
        root = self.statistics.database.root_relation(names)
        total = self.statistics.table_rows(root)

        synopsis = self.statistics.synopsis_covering(names)
        if synopsis is not None:
            k = self._count_satisfying(synopsis, predicate)
            fold = self._feedback_fold(names, predicate, total)
            prior = self.prior if fold is None else fold[0]
            posterior = SelectivityPosterior(k, synopsis.size, prior)
            selectivities = quantile_table(
                synopsis.size, prior, grid
            ).row(k)
            self.lut_hits += 1
            source = "synopsis" if fold is None else "feedback"
            if self.tracer is not None:
                feedback_info = None
                if fold is not None:
                    base = quantile_table(
                        synopsis.size, self.prior, grid
                    ).row(k)
                    feedback_info = dict(fold[1])
                    feedback_info["prior_quantile"] = [
                        float(q) for q in base
                    ]
                    feedback_info["prior_point_estimate"] = [
                        float(q) * total for q in base
                    ]
                self._trace_lookup(
                    names, source, k, synopsis.size, grid,
                    tuple(float(s) for s in selectivities),
                    tuple(float(s) * total for s in selectivities),
                    True, predicate,
                    prior_name=prior.name, feedback=feedback_info,
                )
            return tuple(
                CardinalityEstimate(
                    tables=frozenset(names),
                    selectivity=float(s),
                    cardinality=float(s) * total,
                    root_table=root,
                    source=source,
                    posterior=posterior,
                    threshold=t,
                )
                for s, t in zip(selectivities, grid)
            )

        return self._estimate_fallback_many(names, predicate, grid, root, total)

    # ------------------------------------------------------------------
    def _trace_lookup(
        self,
        tables,
        source: str,
        k: int | None,
        n: int | None,
        threshold,
        quantile,
        point_estimate,
        lut_hit: bool,
        predicate: Expr | None,
        *,
        prior_name: str | None = None,
        feedback: dict | None = None,
    ) -> None:
        """Record one estimation-evidence span (tracing path only)."""
        if prior_name is None and source in ("synopsis", "sample"):
            prior_name = self.prior.name
        self.tracer.record_estimation(
            EstimationSpan(
                tables=tuple(sorted(tables)),
                source=source,
                k=None if k is None else int(k),
                n=None if n is None else int(n),
                prior=prior_name,
                threshold=threshold,
                quantile=quantile,
                point_estimate=point_estimate,
                lut_hit=lut_hit,
                predicate=None if predicate is None else str(predicate),
                feedback=feedback,
            )
        )

    # ------------------------------------------------------------------
    def _count_satisfying(self, synopsis, predicate: Expr | None) -> int:
        """Count synopsis tuples satisfying ``predicate``.

        With conjunct-mask caching, each top-level conjunct is
        evaluated once per synopsis and its boolean mask reused across
        the many overlapping subexpressions an optimizer run probes;
        the conjunction of cached masks equals evaluating the whole
        predicate directly.
        """
        if predicate is None:
            return synopsis.size
        if not self.cache_conjunct_masks:
            return synopsis.count_satisfying(predicate)
        per_synopsis = self._mask_cache.get(synopsis)
        if per_synopsis is None:
            per_synopsis = {}
            self._mask_cache[synopsis] = per_synopsis
        mask = np.ones(synopsis.size, dtype=bool)
        for conjunct in split_conjuncts(predicate):
            key = conjunct.cache_key()
            cached = per_synopsis.get(key)
            if cached is None:
                cached = np.asarray(
                    conjunct.evaluate(synopsis.frame), dtype=bool
                )
                per_synopsis[key] = cached
            mask &= cached
        return int(mask.sum())

    # ------------------------------------------------------------------
    # Section 3.5 fallbacks
    # ------------------------------------------------------------------
    def _estimate_fallback(
        self,
        names: set[str],
        predicate: Expr | None,
        threshold: float,
        root: str,
        total: int,
    ) -> CardinalityEstimate:
        """AVI-combine per-table estimates; magic where samples lack.

        For foreign-key joins under referential integrity, the
        containment assumption makes each join factor ``1 / |parent|``,
        so the combined cardinality is ``|root| × ∏ per-table
        selectivities`` — the error is confined to tables without
        samples and to the AVI combination itself.

        Stored feedback for exactly this ``(tables, expr_key)`` pair
        replaces the AVI combination outright: the observed joint
        cardinality is strictly better evidence than independence
        across marginals, so the posterior is built from the feedback
        pseudo-counts alone (``Beta(a + m·s, b + m·(1−s))``).
        """
        fold = self._feedback_fold(names, predicate, total)
        if fold is not None:
            # n=1/k=0 is the smallest posterior the math accepts; the
            # single pseudo-failure is negligible against the feedback
            # mass folded into the prior.
            prior, attribution = fold
            posterior = SelectivityPosterior(0, 1, prior)
            selectivity = posterior.ppf(threshold)
            if self.tracer is not None:
                base = SelectivityPosterior(0, 1, self.prior)
                self._trace_lookup(
                    names, "feedback", None, None, threshold,
                    selectivity, selectivity * total, False, predicate,
                    prior_name=prior.name,
                    feedback=self._feedback_attribution(
                        attribution, base.ppf(threshold), total
                    ),
                )
            return CardinalityEstimate(
                tables=frozenset(names),
                selectivity=selectivity,
                cardinality=selectivity * total,
                root_table=root,
                source="feedback",
                posterior=posterior,
                threshold=threshold,
            )

        per_table = predicates_by_table(predicate)
        unrouted = per_table.pop("", None)

        selectivity = 1.0
        used_sample = False
        used_magic = False
        for name in sorted(names):
            table_predicate = per_table.get(name)
            if table_predicate is None:
                continue
            sample = self.statistics.sample_for(name)
            if sample is not None:
                k = sample.count_satisfying(table_predicate)
                posterior = SelectivityPosterior(k, sample.size, self.prior)
                quantile = posterior.ppf(threshold)
                selectivity *= quantile
                used_sample = True
                if self.tracer is not None:
                    self._trace_lookup(
                        {name}, "sample", k, sample.size, threshold,
                        quantile, None, False, table_predicate,
                    )
            else:
                magic = self._magic_selectivity(table_predicate, threshold)
                selectivity *= magic
                used_magic = True
                if self.tracer is not None:
                    self._trace_lookup(
                        {name}, "magic", None, None, threshold,
                        magic, None, False, table_predicate,
                    )
        if unrouted is not None:
            # Cross-table or table-free conjuncts cannot be routed to a
            # single-table sample; charge them at magic selectivity.
            magic = self._magic_selectivity(unrouted, threshold)
            selectivity *= magic
            used_magic = True
            if self.tracer is not None:
                self._trace_lookup(
                    names, "magic", None, None, threshold,
                    magic, None, False, unrouted,
                )

        source = self._fallback_source(used_sample, used_magic)
        self._note_fallback(names, source)
        return CardinalityEstimate(
            tables=frozenset(names),
            selectivity=selectivity,
            cardinality=selectivity * total,
            root_table=root,
            source=source,
            threshold=threshold,
        )

    def _estimate_fallback_many(
        self,
        names: set[str],
        predicate: Expr | None,
        grid: tuple[float, ...],
        root: str,
        total: int,
    ) -> tuple[CardinalityEstimate, ...]:
        """The Section 3.5 fallback over a whole threshold grid.

        Each per-table sample is counted once; its ``n + 1``-row
        quantile table supplies the selectivity at every threshold.
        The multiplication order matches :meth:`_estimate_fallback`
        exactly, so each vector lane reproduces the scalar result —
        including the feedback short-circuit, evaluated lane-wise
        through the quantile table of the folded prior.
        """
        fold = self._feedback_fold(names, predicate, total)
        if fold is not None:
            prior, attribution = fold
            posterior = SelectivityPosterior(0, 1, prior)
            selectivities = quantile_table(1, prior, grid).row(0)
            self.lut_hits += 1
            if self.tracer is not None:
                base = quantile_table(1, self.prior, grid).row(0)
                feedback_info = dict(attribution)
                feedback_info["prior_quantile"] = [float(q) for q in base]
                feedback_info["prior_point_estimate"] = [
                    float(q) * total for q in base
                ]
                self._trace_lookup(
                    names, "feedback", None, None, grid,
                    tuple(float(s) for s in selectivities),
                    tuple(float(s) * total for s in selectivities),
                    True, predicate,
                    prior_name=prior.name, feedback=feedback_info,
                )
            return tuple(
                CardinalityEstimate(
                    tables=frozenset(names),
                    selectivity=float(s),
                    cardinality=float(s) * total,
                    root_table=root,
                    source="feedback",
                    posterior=posterior,
                    threshold=t,
                )
                for s, t in zip(selectivities, grid)
            )

        per_table = predicates_by_table(predicate)
        unrouted = per_table.pop("", None)

        selectivity = np.ones(len(grid))
        used_sample = False
        used_magic = False
        for name in sorted(names):
            table_predicate = per_table.get(name)
            if table_predicate is None:
                continue
            sample = self.statistics.sample_for(name)
            if sample is not None:
                k = sample.count_satisfying(table_predicate)
                quantiles = quantile_table(sample.size, self.prior, grid).row(k)
                selectivity = selectivity * quantiles
                self.lut_hits += 1
                used_sample = True
                if self.tracer is not None:
                    self._trace_lookup(
                        {name}, "sample", k, sample.size, grid,
                        tuple(float(q) for q in quantiles),
                        None, True, table_predicate,
                    )
            else:
                magic = self._magic_selectivity_many(table_predicate, grid)
                selectivity = selectivity * magic
                used_magic = True
                if self.tracer is not None:
                    self._trace_lookup(
                        {name}, "magic", None, None, grid,
                        tuple(float(q) for q in magic),
                        None, False, table_predicate,
                    )
        if unrouted is not None:
            magic = self._magic_selectivity_many(unrouted, grid)
            selectivity = selectivity * magic
            used_magic = True
            if self.tracer is not None:
                self._trace_lookup(
                    names, "magic", None, None, grid,
                    tuple(float(q) for q in magic),
                    None, False, unrouted,
                )

        source = self._fallback_source(used_sample, used_magic)
        self._note_fallback(names, source)
        return tuple(
            CardinalityEstimate(
                tables=frozenset(names),
                selectivity=float(s),
                cardinality=float(s) * total,
                root_table=root,
                source=source,
                threshold=t,
            )
            for s, t in zip(selectivity, grid)
        )

    def _note_fallback(self, names: set[str], source: str) -> None:
        """Attribute one §3.5 fallback pass (counter + optional hook)."""
        self.fallback_counts[source] = self.fallback_counts.get(source, 0) + 1
        if self.fallback_listener is not None:
            self.fallback_listener(frozenset(names), source)

    @staticmethod
    def _fallback_source(used_sample: bool, used_magic: bool) -> str:
        if used_magic and used_sample:
            return "mixed"
        if used_magic:
            return "magic"
        return "sample-avi"

    def _magic_selectivity(self, predicate: Expr, threshold: float) -> float:
        """Magic-distribution selectivity for an un-sampled predicate."""
        selectivity = 1.0
        for conjunct in split_conjuncts(predicate):
            mean = self.magic.for_predicate(conjunct)
            distribution = MagicDistribution(mean, self.magic_concentration)
            selectivity *= distribution.selectivity(threshold)
        return selectivity

    def _magic_selectivity_many(
        self, predicate: Expr, grid: tuple[float, ...]
    ) -> np.ndarray:
        """Magic-distribution selectivities over the threshold grid."""
        selectivity = np.ones(len(grid))
        for conjunct in split_conjuncts(predicate):
            mean = self.magic.for_predicate(conjunct)
            distribution = MagicDistribution(mean, self.magic_concentration)
            selectivity = selectivity * distribution.selectivity_many(grid)
        return selectivity

    def describe(self) -> str:
        return f"robust(T={self.policy.default:.0%}, prior={self.prior.name})"
