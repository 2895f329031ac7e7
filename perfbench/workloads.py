"""The three benchmark workloads: inputs, set-up and the timed loop.

Each workload is a class with three steps, so the harness can time
set-up on its own and start a fresh runtime for each segment of a
traced run:

- ``build()`` generates the databases, builds their statistics and
  makes the seeded operation stream (``Inputs``);
- ``start(inputs, tracer)`` makes the sessions or the server over those
  inputs and warms them up (``Runtime``);
- ``run(inputs, runtime, seconds, probe, tracer)`` is the timed closed
  loop; it returns one ``Sample`` per operation. It starts a round of the
  speed ``probe`` (see ``probe.py``) every few dozen operations, with
  none in flight; the probe keeps each round's wall seconds, and its own
  time is added to the loop's deadline.

Every operation of the first ``window`` operations of the stream (per
client) is always run, even past the deadline, so that ``simulated_s``
covers the same plans on every run of a seed.
"""

from __future__ import annotations

import datetime
import gc
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Session
from repro.serving import QueryServer, ServerOverloaded, TenantSpec
from repro.service import SessionConfig
from repro.stats import StatisticsManager
from repro.workloads import (
    QUERY_BATTERY,
    SnowflakeConfig,
    StarConfig,
    TpchConfig,
    build_snowflake_database,
    build_star_database,
    build_tpch_database,
)

#: Operations every loop runs at least, so that each run has at least 10
#: latency samples beyond its 95th percentile.
MIN_SAMPLES = 200

#: Statistics settings every workload plans with (the Session defaults).
SAMPLE_SIZE = 500
HISTOGRAM_BUCKETS = 250


@dataclass(frozen=True)
class Op:
    """One operation: a SQL text against one database, under one arm."""

    db: str
    sql: str
    #: Session key (plan-adhoc: the estimator family) or tenant name.
    target: str
    #: Per-call selection policy spec (``None``: the session default).
    policy: str | None = None
    execute: bool = True


@dataclass
class Sample:
    """What one operation did, as the client saw it."""

    op: Op
    latency_s: float
    #: CostModel-simulated seconds of the executed plan (0 when the
    #: operation only prepared or failed).
    simulated_s: float = 0.0
    #: The engine's answer frame (executes only; serve-feedback answers
    #: are captured on the server side, see ``Runtime.captured``).
    frame: object = None
    error: str | None = None
    #: True for the seeded operations every run executes (the
    #: simulation window); ``simulated_s`` sums these only.
    in_window: bool = False
    #: The speed probe's slowdown for the operation's round.
    slowdown: float = 1.0


@dataclass
class Inputs:
    """Everything generated from the seed, before any session exists."""

    databases: dict
    statistics: dict
    #: One operation list per client.
    streams: list
    #: Operations per client that every run executes.
    window: int
    stats_build_s: float
    extra: dict = field(default_factory=dict)


@dataclass
class Runtime:
    """Sessions (or a server) ready to take timed operations."""

    sessions: list
    server: QueryServer | None = None
    #: Cache counters of sessions already closed (see cache_counts).
    retired: list = field(default_factory=list)
    #: serve-feedback: (tenant, sql, frame) of every executed operation,
    #: appended by the worker threads.
    captured: list = field(default_factory=list)
    #: Wall seconds of each statistics hot-swap, in order.
    swap_s: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _statistics(database, seed) -> tuple[StatisticsManager, float]:
    manager = StatisticsManager(database)
    started = time.perf_counter()
    manager.update_statistics(
        sample_size=SAMPLE_SIZE, histogram_buckets=HISTOGRAM_BUCKETS, seed=seed
    )
    return manager, time.perf_counter() - started


def _session_config(seed, estimator="robust") -> SessionConfig:
    return SessionConfig(
        estimator=estimator,
        threshold=0.8,
        sample_size=SAMPLE_SIZE,
        histogram_buckets=HISTOGRAM_BUCKETS,
        statistics_seed=seed,
    )


def _date(ordinal: int) -> str:
    return datetime.date.fromordinal(int(ordinal)).isoformat()


def _ordinal(iso: str) -> int:
    return datetime.date.fromisoformat(iso).toordinal()


def _decimal(value: float, places: int = 5) -> str:
    return f"{value:.{places}f}"


# ----------------------------------------------------------------------
# SQL shapes. Each returns one SQL text; the shapes follow the
# repository's templates and query battery, with every constant drawn
# from the seed so that texts rarely repeat. ``u``, ``v`` and ``w`` in
# [0, 1) set the constants that move a query's cost most, so that a
# caller can stratify them; the generator ``rng`` draws the rest.
# ----------------------------------------------------------------------
def exp1_sql(rng, u, v, w):
    """Experiment 1 (ShippingDatesTemplate): correlated ship/receipt dates."""
    low = _ordinal("1992-03-01") + int(v * 2100)
    shift = 60 + int(u * 221)
    return (
        "SELECT SUM(lineitem.l_extendedprice) AS revenue FROM lineitem "
        f"WHERE lineitem.l_shipdate BETWEEN '{_date(low)}' AND '{_date(low + 91)}' "
        f"AND lineitem.l_receiptdate BETWEEN '{_date(low + shift)}' "
        f"AND '{_date(low + 91 + shift)}'"
    )


def exp2_sql(rng, u, v, w):
    """Experiment 2 (PartCorrelationTemplate): correlated part windows."""
    low = int(v * 9600)
    shift = int(u * 1250)
    return (
        "SELECT SUM(lineitem.l_extendedprice) AS revenue "
        "FROM lineitem, orders, part "
        f"WHERE part.p_c1 BETWEEN {low} AND {low + 399} "
        f"AND part.p_c2 BETWEEN {low + shift} AND {low + shift + 399}"
    )


def exp3_sql(rng, u, v, w):
    """Experiment 3 (StarJoinTemplate): three 10 % dimension windows."""
    first, second, third = int(v * 901), int(u * 901), int(w * 901)
    return (
        "SELECT SUM(fact.f_measure1) AS total1, SUM(fact.f_measure2) AS total2 "
        "FROM fact, dim1, dim2, dim3 "
        f"WHERE dim1.d_attr BETWEEN {first} AND {first + 99} "
        f"AND dim2.d_attr BETWEEN {second} AND {second + 99} "
        f"AND dim3.d_attr BETWEEN {third} AND {third + 99}"
    )


def chain_sql(rng, u, v, w):
    """SnowflakeChainTemplate: item and category windows two hops apart."""
    low = int(v * 901)
    category = int(u * 19)
    return (
        "SELECT SUM(sales.s_price) AS revenue FROM sales, item, brand, category "
        f"WHERE item.i_attr BETWEEN {low} AND {low + 99} "
        f"AND category.c_attr BETWEEN {category} AND {category + 1}"
    )


def markup_sql(rng, u, v, w):
    """PriceMarkupTemplate: an inequality between FK-joined tables."""
    discount = 0.01 + 0.09 * u
    return (
        "SELECT SUM(sales.s_price) AS revenue FROM sales, item "
        f"WHERE sales.s_discount <= {_decimal(discount)} "
        "AND sales.s_price < item.i_price"
    )


def band_sql(rng, u, v, w):
    """PromotionBandTemplate: a band join, narrowed by a discount cap."""
    kind = int(v * 5)
    discount = 0.02 + 0.08 * u
    return (
        "SELECT SUM(sales.s_price) AS revenue FROM sales, promotion "
        f"WHERE promotion.p_kind = {kind} "
        "AND promotion.p_lo <= sales.s_price "
        "AND sales.s_price < promotion.p_hi "
        f"AND sales.s_discount <= {_decimal(discount)}"
    )


def pricing_summary_sql(rng, u, v, w):
    cutoff = _ordinal("1995-01-01") + int(u * 1300)
    return (
        "SELECT SUM(lineitem.l_quantity) AS sum_qty, "
        "SUM(lineitem.l_extendedprice) AS sum_price, "
        "AVG(lineitem.l_discount) AS avg_disc, COUNT(*) AS count_order "
        f"FROM lineitem WHERE lineitem.l_shipdate <= '{_date(cutoff)}'"
    )


def forecast_revenue_sql(rng, u, v, w):
    year = 1993 + int(v * 5)
    discount = 0.02 + 0.01 * int(w * 7)
    quantity = 10 + int(u * 31)
    return (
        "SELECT SUM(lineitem.l_extendedprice) AS revenue FROM lineitem "
        f"WHERE lineitem.l_shipdate BETWEEN '{year}-01-01' AND '{year}-12-31' "
        f"AND lineitem.l_discount BETWEEN {_decimal(discount - 0.01, 2)} "
        f"AND {_decimal(discount + 0.01, 2)} "
        f"AND lineitem.l_quantity < {quantity}"
    )


def shipping_priority_sql(rng, u, v, w):
    cutoff = _ordinal("1993-01-01") + int(u * 1400)
    balance = -500 + int(v * 5500)
    return (
        "SELECT COUNT(*) AS n, SUM(lineitem.l_extendedprice) AS revenue "
        "FROM lineitem, orders, customer "
        f"WHERE orders.o_orderdate < '{_date(cutoff)}' "
        f"AND customer.c_acctbal > {balance}"
    )


_CONTAINERS = ("SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG DRUM")


def promo_parts_sql(rng, u, v, w):
    size = 1 + int(v * 46)
    first, second = rng.choice(len(_CONTAINERS), 2, replace=False)
    since = _ordinal("1992-06-01") + int(u * 2000)
    return (
        "SELECT COUNT(*) AS n FROM lineitem, part "
        f"WHERE part.p_size BETWEEN {size} AND {size + 4} "
        f"AND part.p_container IN ('{_CONTAINERS[first]}', "
        f"'{_CONTAINERS[second]}') "
        f"AND lineitem.l_shipdate >= '{_date(since)}'"
    )


def top_customers_sql(rng, u, v, w):
    since = _ordinal("1992-01-01") + int(u * 2000)
    limit = 5 + int(v * 20)
    return (
        "SELECT orders.o_custkey, SUM(orders.o_totalprice) AS spend "
        f"FROM orders WHERE orders.o_orderdate >= '{_date(since)}' "
        "GROUP BY orders.o_custkey "
        f"ORDER BY orders.o_custkey LIMIT {limit}"
    )


def brand_audit_sql(rng, u, v, w):
    brand = 1 + int(v * 5)
    price = 900 + int(u * 1000)
    return (
        "SELECT COUNT(*) AS n FROM part "
        f"WHERE part.p_brand LIKE 'Brand#{brand}%' "
        f"AND part.p_retailprice > {price} "
        "OPTION (CONFIDENCE conservative)"
    )


def correlated_dates_sql(rng, u, v, w):
    low = _ordinal("1992-03-01") + int(v * 2100)
    lag = int(u * 120)
    return (
        "SELECT SUM(lineitem.l_extendedprice) AS revenue FROM lineitem "
        f"WHERE lineitem.l_shipdate BETWEEN '{_date(low)}' AND '{_date(low + 91)}' "
        f"AND lineitem.l_receiptdate BETWEEN '{_date(low + lag)}' "
        f"AND '{_date(low + lag + 92)}' "
        "OPTION (CONFIDENCE 80)"
    )


def _distinct(make, rng, draws, seen, attempts=1000):
    """``make(rng, *draws)``, redrawn at random until the text is new."""
    for _ in range(attempts):
        sql = make(rng, *draws)
        if sql not in seen:
            seen.add(sql)
            return sql
        draws = rng.random(3)
    raise RuntimeError(f"{make.__name__} ran out of distinct texts")


def _latin(rng, n):
    """``n`` rows of three Latin-hypercube draws in [0, 1): each column
    holds one draw from every ``1/n`` stratum, in random order."""
    return np.column_stack([(rng.permutation(n) + rng.random(n)) / n
                            for _ in range(3)])


def _closed_loop(ops, session_for, deadline_s, window, round_ops, tracer, probe):
    """One client's closed loop: prepare + execute, one op at a time.

    Runs until the deadline has passed *and* the simulation window and
    ``MIN_SAMPLES`` operations are done, or the stream ends. A probe
    round starts every ``round_ops`` operations.
    """
    samples = []
    deadline = time.perf_counter() + deadline_s
    at_least = max(window, MIN_SAMPLES)
    for index, op in enumerate(ops):
        if index >= at_least and time.perf_counter() >= deadline:
            break
        if index % round_ops == 0:
            deadline += probe.start_round()
        samples.append(_run_op(session_for, index, op, index < window, tracer,
                               probe.slowdown))
    probe.end_round()
    return samples


def _run_op(session_for, index, op, in_window, tracer, slowdown) -> Sample:
    """Prepare and execute one operation on ``session_for(index)``.

    A function of its own, so that no loop variable keeps the previous
    session alive while ``session_for`` retires it.
    """
    session = session_for(index)
    if tracer is not None:
        tracer.new_operation()
    sample = Sample(op, 0.0, in_window=in_window, slowdown=slowdown)
    begun = time.perf_counter()
    try:
        result = session.prepare(op.sql, policy=op.policy).execute()
    except Exception as exc:  # counted as a failed operation
        sample.error = f"{type(exc).__name__}: {exc}"
    else:
        sample.simulated_s = result.simulated_seconds
        sample.frame = result.frame
    sample.latency_s = time.perf_counter() - begun
    return sample


def _retire(sessions, retired=None) -> None:
    """Close and drop every session of the list ``sessions``, keeping
    their cache counters in ``retired``."""
    while sessions:
        _close(sessions.pop(), retired)
    # A closed session still holds its scan cache, and it sits in a
    # reference cycle; collect now rather than whenever the collector
    # runs next, so that peak RSS does not depend on collector timing.
    gc.collect()


def _close(session, retired) -> None:
    if retired is not None:
        retired.append(cache_counts(session))
    session.close()


def close_runtime(runtime) -> None:
    """Stop the server, or close the sessions, of one runtime."""
    if runtime.server is not None:
        runtime.server.close()
    else:
        _retire(runtime.sessions)


class _SessionWorkload:
    """A single closed-loop client over sessions renewed every ``cycle``.

    Unbounded per-session caches (scan cache, estimate memos) would
    otherwise grow with the number of operations run, making memory and
    speed depend on how fast the previous operations went. Renewed
    sessions share the statistics, so renewal costs no rebuild.
    """

    cycle: int
    #: Plans are a pure function of the seed, so ``simulated_s`` repeats
    #: exactly, traced or not.
    deterministic = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start(self, inputs: Inputs, tracer=None) -> Runtime:
        """Warm the process up on throwaway sessions, then make fresh ones."""
        warm = self._sessions(inputs, tracer)
        for op in inputs.extra["warmup"]:
            warm[op.db, op.target].prepare(op.sql, policy=op.policy).execute()
        _retire(list(warm.values()))
        sessions = self._sessions(inputs, tracer)
        return Runtime(list(sessions.values()), extra={"by_key": sessions})

    def run(self, inputs, runtime, seconds, probe, tracer=None):
        ops = inputs.streams[0]

        def session_for(index):
            if index and index % self.cycle == 0:
                retiring = runtime.sessions
                runtime.extra["by_key"] = self._sessions(inputs, tracer)
                runtime.sessions = list(runtime.extra["by_key"].values())
                _retire(retiring, runtime.retired)
            op = ops[index]
            return runtime.extra["by_key"][op.db, op.target]

        # Probe rounds of a quarter cycle.
        return _closed_loop(ops, session_for, seconds, inputs.window,
                            self.cycle // 4, tracer, probe)


# ----------------------------------------------------------------------
# plan-adhoc
# ----------------------------------------------------------------------
class PlanAdhoc(_SessionWorkload):
    """Small databases, one client, every text new, four planning arms."""

    name = "plan-adhoc"
    rows = 20_000
    #: (shape, database) in rotation; the arm advances every full turn.
    shapes = (
        (exp1_sql, "tpch"),
        (exp2_sql, "tpch"),
        (exp3_sql, "star"),
        (chain_sql, "snowflake"),
        (markup_sql, "snowflake"),
        (band_sql, "snowflake"),
    )
    #: (estimator, per-call policy): robust T = 80 %, then the other arms.
    arms = (
        ("robust", None),
        ("histogram", None),
        ("bayes", None),
        ("robust", "cvar:0.9:32"),
    )
    #: Operations per session generation.
    cycle = 240
    #: Operations in the simulation window: three cycles.
    window = 720
    stream_length = 8_000
    warmup = 24

    def _stream(self, rng, length, seen):
        """Ops in (shape, arm) rotation; within each cycle, every pair's
        constants are a Latin-hypercube sample, so cycles cost alike."""
        pairs = [(shape, arm) for arm in self.arms for shape in self.shapes]
        per_pair = self.cycle // len(pairs)
        ops = []
        for offset in range(length):
            turn, pair = divmod(offset % self.cycle, len(pairs))
            if offset % self.cycle == 0:
                draws = [_latin(rng, per_pair) for _ in pairs]
            (make, db), (estimator, policy) = pairs[pair]
            sql = _distinct(make, rng, draws[pair][turn], seen)
            ops.append(Op(db, sql, estimator, policy))
        return ops

    def build(self) -> Inputs:
        seed = self.seed
        databases = {
            "tpch": build_tpch_database(TpchConfig(num_lineitem=self.rows, seed=seed)),
            "star": build_star_database(StarConfig(num_fact=self.rows, seed=seed)),
            "snowflake": build_snowflake_database(
                SnowflakeConfig(num_sales=self.rows, seed=seed)
            ),
        }
        statistics, build_s = {}, 0.0
        for key, database in databases.items():
            statistics[key], seconds = _statistics(database, seed)
            build_s += seconds
        seen: set[str] = set()
        warm = self._stream(np.random.default_rng([seed, 2]), self.warmup, seen)
        ops = self._stream(np.random.default_rng([seed, 1]), self.stream_length, seen)
        return Inputs(databases, statistics, [ops], self.window, build_s,
                      extra={"warmup": warm})

    def _sessions(self, inputs, tracer=None) -> dict:
        sessions = {}
        for db, database in inputs.databases.items():
            for estimator in ("robust", "histogram", "bayes"):
                session = Session(
                    database,
                    statistics=inputs.statistics[db],
                    config=_session_config(self.seed, estimator),
                )
                if tracer is not None:
                    tracer.attach_session(session)
                sessions[db, estimator] = session
        return sessions


# ----------------------------------------------------------------------
# exec-scale
# ----------------------------------------------------------------------
class ExecScale(_SessionWorkload):
    """TPC-H at scale 10, robust arm, execution-bound operations.

    The stream cycles over a seeded pool of distinct texts (templates
    and battery shapes at Latin-hypercube constants), with a fresh
    session every half pass: plan, parse and scan caches start cold
    every cycle, exactly as for unseen texts, while the reference
    answers stay cheap to compute. A few constants of a shape can cost
    several times the rest (a join order that goes wrong), so the pool
    holds 24 strata per shape, for a run's cost to vary little by seed.
    """

    name = "exec-scale"
    scale = 10
    shapes = (
        exp1_sql,
        exp2_sql,
        pricing_summary_sql,
        forecast_revenue_sql,
        shipping_priority_sql,
        promo_parts_sql,
        top_customers_sql,
        brand_audit_sql,
        correlated_dates_sql,
    )
    strata = 24
    #: Operations per session generation: half a pass over the pool
    #: (the pool is the simulation window).
    cycle = strata // 2 * len(shapes)
    stream_length = 20_000

    def build(self) -> Inputs:
        seed = self.seed
        database = build_tpch_database(TpchConfig(seed=seed, scale=self.scale))
        manager, build_s = _statistics(database, seed)
        rng = np.random.default_rng([seed, 1])
        seen: set[str] = set()
        # Each shape sees every stratum of u, v and w once per pool, so
        # pools of different seeds cost alike.
        draws = [_latin(rng, self.strata) for _ in self.shapes]
        pool = [
            Op("tpch", _distinct(make, rng, rows[k], seen), "robust")
            for k in range(self.strata)
            for make, rows in zip(self.shapes, draws)
        ]
        warm_rng = np.random.default_rng([seed, 2])
        warm = [
            Op("tpch", _distinct(make, warm_rng, warm_rng.random(3), seen),
               "robust")
            for make in self.shapes
        ]
        ops = [pool[index % len(pool)] for index in range(self.stream_length)]
        return Inputs({"tpch": database}, {"tpch": manager}, [ops], len(pool),
                      build_s, extra={"warmup": warm})

    def _sessions(self, inputs, tracer=None) -> dict:
        session = Session(
            inputs.databases["tpch"],
            statistics=inputs.statistics["tpch"],
            config=_session_config(self.seed),
        )
        if tracer is not None:
            tracer.attach_session(session)
        return {("tpch", "robust"): session}


def cache_counts(session) -> dict:
    """Plan-cache and scan-cache hit/miss counters of one session."""
    plans = session.cache_stats()
    # The session keeps its ScanCache private; its counters are public.
    scans = session._scan_cache.stats()
    return {
        "sessions": 1,
        "plan_hits": plans["hits"],
        "plan_misses": plans["misses"],
        "scan_hits": scans["hits"],
        "scan_misses": scans["misses"],
        "scan_entries": scans["entries"],
    }


# ----------------------------------------------------------------------
# serve-feedback
# ----------------------------------------------------------------------
class ServeFeedback:
    """A two-tenant QueryServer with feedback on, two closed-loop clients."""

    name = "serve-feedback"
    #: Two clients interleave feedback observations, and observations
    #: change plans, so ``simulated_s`` may differ from run to run.
    deterministic = False
    rows = 60_000
    tenants = ("tenant-0", "tenant-1")
    clients = 2
    worker_threads = 2
    skew = 1.1
    #: Operations per stratified block of the mix (see ``_stream``).
    block = 200
    #: Operations per client in one probe round: half a block.
    round_ops = block // 2
    #: Hot-swaps per run, issued by client 0 at evenly spaced times.
    swaps = 3
    stream_length = 20_000
    #: Operations per client in the simulation window.
    window = 1000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> Inputs:
        seed = self.seed
        databases, statistics, spares, build_s = {}, {}, {}, 0.0
        for index, tenant in enumerate(self.tenants):
            database = build_tpch_database(
                TpchConfig(num_lineitem=self.rows, seed=seed * 10 + index)
            )
            databases[tenant] = database
            statistics[tenant], seconds = _statistics(database, seed)
            build_s += seconds
            # Fresh managers to hot-swap in: the swaps alternate tenants.
            spares[tenant] = []
            for swap in range(index, self.swaps, len(self.tenants)):
                manager, seconds = _statistics(database, seed + 1 + swap)
                spares[tenant].append(manager)
                build_s += seconds
        streams = [
            self._stream(np.random.default_rng([seed, 1, client]))
            for client in range(self.clients)
        ]
        return Inputs(databases, statistics, streams, self.window, build_s,
                      extra={"spares": spares})

    def _stream(self, rng) -> list:
        """Stratified blocks of the Zipf mix, each shuffled.

        Every block holds each text in proportion to its Zipf weight,
        and each text's operations alternate execute / prepare-only and
        tenant, so every window has the same mix on every seed.
        """
        texts = list(QUERY_BATTERY.values())
        weights = 1.0 / np.arange(1, len(texts) + 1) ** self.skew
        exact = weights / weights.sum() * self.block
        counts = np.floor(exact).astype(int)
        # Largest remainders take the operations rounding left over.
        counts[np.argsort(counts - exact)[: self.block - counts.sum()]] += 1
        block = [
            (text, k % 2 == 0, self.tenants[k // 2 % len(self.tenants)])
            for text, count in zip(texts, counts)
            for k in range(count)
        ]
        ops = []
        while len(ops) < self.stream_length:
            ops += [Op(tenant, text, tenant, None, execute)
                    for text, execute, tenant in
                    (block[i] for i in rng.permutation(len(block)))]
        return ops

    def start(self, inputs: Inputs, tracer=None) -> Runtime:
        config = _session_config(self.seed)
        server = QueryServer(
            [
                TenantSpec(
                    name=tenant,
                    database=inputs.databases[tenant],
                    config=config,
                    statistics=inputs.statistics[tenant],
                    feedback=True,
                )
                for tenant in self.tenants
            ],
            worker_threads=self.worker_threads,
        )
        runtime = Runtime(
            [server.session(tenant) for tenant in self.tenants], server=server
        )
        for tenant in self.tenants:
            session = server.session(tenant)
            if tracer is not None:
                tracer.attach_session(session)
            _capture_answers(session, tenant, runtime.captured)
        for tenant in self.tenants:
            for sql in QUERY_BATTERY.values():
                server.serve(tenant, sql)
        runtime.captured.clear()
        return runtime

    def run(self, inputs, runtime, seconds, probe, tracer=None):
        """Both clients run rounds of ``round_ops`` operations each; they
        meet at a barrier between rounds, where the probe round starts and
        the stop is decided, so every run ends on whole rounds."""
        server = runtime.server
        spares = {tenant: list(managers)
                  for tenant, managers in inputs.extra["spares"].items()}
        started = time.perf_counter()
        clock = {"deadline": started + seconds, "rounds": 0, "stop": False}
        at_least = max(inputs.window, MIN_SAMPLES // self.clients)
        swap_at = [started + seconds * (k + 1) / (self.swaps + 1)
                   for k in range(self.swaps)]
        results: list[list[Sample]] = [[] for _ in range(self.clients)]
        crashed: list[BaseException] = []

        def between_rounds():  # runs once per round, with both clients waiting
            done = clock["rounds"] * self.round_ops
            clock["rounds"] += 1
            if done >= at_least and time.perf_counter() >= clock["deadline"]:
                clock["stop"] = True
                probe.end_round()
            else:
                clock["deadline"] += probe.start_round()

        barrier = threading.Barrier(self.clients, action=between_rounds)

        def client(number):
            samples = results[number]
            for index, op in enumerate(inputs.streams[number]):
                if index % self.round_ops == 0:
                    barrier.wait()
                    if clock["stop"]:
                        break
                now = time.perf_counter()
                if number == 0 and swap_at and now >= swap_at[0]:
                    swap_at.pop(0)
                    tenant = self.tenants[len(runtime.swap_s) % len(self.tenants)]
                    begun = time.perf_counter()
                    server.swap_statistics(tenant, spares[tenant].pop(0))
                    runtime.swap_s.append(time.perf_counter() - begun)
                sample = Sample(op, 0.0, in_window=index < inputs.window,
                                slowdown=probe.slowdown)
                begun = time.perf_counter()
                try:
                    served = server.serve(op.target, op.sql, execute=op.execute)
                except ServerOverloaded as exc:
                    sample.error = f"shed after retries: {exc}"
                except Exception as exc:  # counted as a failed operation
                    sample.error = f"{type(exc).__name__}: {exc}"
                else:
                    sample.simulated_s = served.simulated_seconds
                sample.latency_s = time.perf_counter() - begun
                samples.append(sample)

        def guarded(number):
            try:
                client(number)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                crashed.append(exc)
                barrier.abort()  # the other client must not wait forever

        threads = [
            threading.Thread(target=guarded, args=(number,), name=f"bench-client-{number}")
            for number in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        probe.end_round()
        if crashed:
            raise crashed[0]
        return [s for samples in results for s in samples]


def _capture_answers(session, tenant, captured) -> None:
    """Record every frame the tenant's session executes.

    The server hands clients only row counts, so the answers are taken
    here, on the session instance the server drives: ``prepare`` is
    wrapped to wrap each returned handle's ``execute``.
    """
    prepare = session.prepare

    def capturing_prepare(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        execute = prepared.execute

        def capturing_execute():
            result = execute()
            captured.append((tenant, args[0], result.frame))
            return result

        prepared.execute = capturing_execute
        return prepared

    session.prepare = capturing_prepare


WORKLOADS = {cls.name: cls for cls in (PlanAdhoc, ExecScale, ServeFeedback)}
