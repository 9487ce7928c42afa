"""The benchmark's workloads.

Each workload is a set-up function, which makes the inputs from the seed
and builds everything the timed part only uses, and a measure function,
which repeats the workload's operation until its time is up, checks
every output, and returns an :class:`Outcome`.  Sizes live in the config
dataclasses so the tests can run every workload at a tiny size.

Four workloads stress different layers:

* ``factor-lowrank`` — ε and tile size at which auto-tuning keeps the
  dense band narrow, so off-band compression and recompression dominate;
  sequential batched factorization (the batched low-rank stacks run).
* ``factor-band`` — a tight ε that makes auto-tuning pick a wide dense
  band, so dense band kernels dominate; factorized on the thread executor.
* ``mle-sweep`` — likelihood evaluations at a fixed list of θ on one
  geometry (SVD backend, unbatched, sequential); the geometry repeats
  while θ changes, which is what warm-started refactorization exploits.
* ``serve-open`` — an open-loop request stream against a solver service
  holding the ``factor-band`` factor, at a light and a heavy fixed rate,
  then a capacity phase; bypasses compression and factorization.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import checks
from .stats import mean, median, percentile, trimmed_mean
from .tracing import clock, matrix_footprint


#: ``mle-sweep`` draws each θ within ×exp(±THETA_SPREAD) of (1.0, 0.1).
THETA_SPREAD = 0.1
#: Shares of a ``serve-open`` run spent in the light / heavy / capacity
#: phases; the three phases repeat SERVE_ROUNDS times.
SERVE_SHARES = (0.35, 0.25, 0.4)
SERVE_ROUNDS = 3


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one measurement pass produced."""

    attempted: int = 0
    failed: int = 0
    #: Gated end-to-end metrics (``op_ms``, ``ops_per_s``).
    e2e: dict[str, Metric] = field(default_factory=dict)
    #: The workload's own named metrics (``build_s``, ``heavy.p99_ms``, …).
    named: dict[str, Metric] = field(default_factory=dict)
    #: Per-layer metrics the workload measures itself (matrix, service).
    layer: dict[str, float] = field(default_factory=dict)
    #: Model flops / invocation counts per Table-I class, summed over ops.
    flops: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    n_ops: int = 0
    #: Every operation's time in seconds, in the order measured
    #: (``serve-open``: the light-rate latencies).
    op_times: list[float] = field(default_factory=list)


def _forget_warmup(tracer) -> None:
    """Drop the warm-up operation's spans; per-operation metrics count
    only measured operations."""
    if tracer is not None:
        tracer.spans.clear()


def _rates(out: Outcome, ops: list[float]) -> None:
    """``op_ms`` and ``ops_per_s`` of a run of repeated operations: the
    mean operation and its reciprocal.  Across runs the mean spread less
    than the median or the fastest operation."""
    out.n_ops, out.op_times = len(ops), ops
    out.e2e["op_ms"] = Metric(mean(ops) * 1e3, "ms", len(ops))
    out.e2e["ops_per_s"] = Metric(len(ops) / sum(ops), "1/s", len(ops))


def _add_counter(out: Outcome, counter) -> None:
    for kind, value in counter.per_class.items():
        out.flops[kind.value] = out.flops.get(kind.value, 0.0) + value
    for kind, value in counter.per_class_count.items():
        out.counts[kind.value] = out.counts.get(kind.value, 0) + value


# ----------------------------------------------------------------------
# factor-lowrank / factor-band
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FactorConfig:
    n: int
    tile_size: int
    accuracy: float
    n_workers: int | None      # None → sequential factorization


FACTOR_LOWRANK = FactorConfig(n=4000, tile_size=200, accuracy=1e-4, n_workers=None)
FACTOR_BAND = FactorConfig(n=4000, tile_size=250, accuracy=1e-6, n_workers=2)


@dataclass
class FactorState:
    config: FactorConfig
    problem: object
    checker: checks.FactorChecker


def setup_factor(seed: int, config: FactorConfig) -> FactorState:
    from repro import st_3d_exp_problem

    problem = st_3d_exp_problem(n=config.n, tile_size=config.tile_size, seed=seed)
    checker = checks.FactorChecker(checks.Reference.of(problem), config.accuracy,
                                   np.random.default_rng([seed, 3]))
    return FactorState(config, problem, checker)


def build_factor(problem, config: FactorConfig, tracer=None):
    """``TLRSolver.from_problem`` then ``factorize``, each timed."""
    from repro import TLRSolver

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = clock()
    with span("bench.build"):
        solver = TLRSolver.from_problem(problem, accuracy=config.accuracy,
                                        band_size="auto", compression="auto")
    t1 = clock()
    with span("bench.factorize"):
        solver.factorize(n_workers=config.n_workers, batch=True)
    t2 = clock()
    return solver, t1 - t0, t2 - t1


def measure_factor(state: FactorState, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    builds, factors, residuals = [], [], []
    build_factor(state.problem, state.config)       # warm-up: lazy init, caches
    _forget_warmup(tracer)
    deadline = clock() + seconds
    while not builds or clock() < deadline:
        if tracer is not None:
            tracer.op = f"factorization-{len(builds)}"
        solver, build_s, factor_s = build_factor(state.problem, state.config, tracer)
        builds.append(build_s)
        factors.append(factor_s)
        _add_counter(out, solver.report.counter)
        out.attempted += 1
        residual = state.checker.residual(solver.matrix)
        residuals.append(residual)
        if not residual <= state.checker.tolerance:
            out.failed += 1
        out.layer = matrix_footprint(solver.matrix)
        out.layer["autotune.band_size"] = solver.band_size
        del solver                  # not alive while the next one is built
    ops = [b + f for b, f in zip(builds, factors)]
    _rates(out, ops)
    k = len(ops)
    out.named["median_op_ms"] = Metric(median(ops) * 1e3, "ms", k)
    out.named["build_s"] = Metric(median(builds), "s", k)
    out.named["factorize_s"] = Metric(median(factors), "s", k)
    out.named["max_residual"] = Metric(max(residuals), "ratio", k)
    out.named["residual_tolerance"] = Metric(state.checker.tolerance, "ratio", 1)
    return out


# ----------------------------------------------------------------------
# mle-sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MLEConfig:
    n: int = 3000
    tile_size: int = 200
    accuracy: float = 1e-4
    band_size: int = 4
    n_theta: int = 4


MLE_SWEEP = MLEConfig()


@dataclass
class MLEState:
    config: MLEConfig
    points: np.ndarray
    z: np.ndarray
    thetas: list[tuple[float, float]]
    reference: list[float]
    tolerance: float


def setup_mle(seed: int, config: MLEConfig) -> MLEState:
    from repro import st_3d_exp_problem

    problem = st_3d_exp_problem(n=config.n, tile_size=config.tile_size, seed=seed)
    z = problem.sample_measurements(seed)
    rng = np.random.default_rng([seed, 1])
    factors = np.exp(rng.uniform(-THETA_SPREAD, THETA_SPREAD, (config.n_theta, 2)))
    thetas = [(float(a), float(0.1 * b)) for a, b in factors]
    reference = [checks.dense_loglik(checks.Reference.of(problem, *theta).dense(), z)
                 for theta in thetas]
    tolerance = checks.loglik_tolerance(config.accuracy, config.n)
    return MLEState(config, problem.points, z, thetas, reference, tolerance)


def measure_mle(state: MLEState, seconds: float, tracer=None) -> Outcome:
    from repro.core.mle import LikelihoodEvaluator
    from repro.linalg.compression import TruncationRule

    cfg = state.config
    evaluator = LikelihoodEvaluator(
        points=state.points, z=state.z, tile_size=cfg.tile_size,
        rule=TruncationRule(eps=cfg.accuracy), band_size=cfg.band_size)
    out = Outcome()
    times, errors = [], []
    evaluator(*state.thetas[-1])                     # warm-up: lazy init, caches
    _forget_warmup(tracer)
    deadline = clock() + seconds
    while not times or clock() < deadline:
        i = len(times) % len(state.thetas)
        if tracer is not None:
            tracer.op = f"evaluation-{len(times)}"
        t0 = clock()
        loglik = evaluator(*state.thetas[i])
        times.append(clock() - t0)
        out.attempted += 1
        error = abs(loglik - state.reference[i])
        errors.append(error / state.tolerance)
        if not error <= state.tolerance:
            out.failed += 1
    _rates(out, times)
    k = len(times)
    out.named["mle_eval_s"] = Metric(median(times), "s", k)
    out.named["max_error_over_tolerance"] = Metric(max(errors), "ratio", k)
    return out


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeConfig:
    factor: FactorConfig = FACTOR_BAND
    light_rps: float = 20.0        # a solo solve keeps the worker ~35% busy
    heavy_rps: float = 200.0
    outstanding: int = 32          # capacity phase; ≤ ServiceConfig queue depth
    rhs_pool: int = 256


SERVE_OPEN = ServeConfig()


@dataclass
class ServeState:
    config: ServeConfig
    service: object
    session: object
    solver: object
    rhs: np.ndarray               # (n, rhs_pool) columns, drawn from the seed
    checker: checks.SolutionChecker


def setup_serve(seed: int, config: ServeConfig) -> ServeState:
    from repro import st_3d_exp_problem
    from repro.service.server import ServiceConfig, SolverService

    fc = config.factor
    problem = st_3d_exp_problem(n=fc.n, tile_size=fc.tile_size, seed=seed)
    solver, _, _ = build_factor(problem, fc)
    rng = np.random.default_rng([seed, 2])
    rhs = rng.standard_normal((problem.n, config.rhs_pool))
    budget = checks.truncation_budget(fc.accuracy, problem.ntiles)
    checker = checks.SolutionChecker(checks.Reference.of(problem), rhs,
                                     solver.solve(rhs), budget)
    service = SolverService(ServiceConfig()).start()
    session = service.register_solver(solver)
    return ServeState(config, service, session, solver, rhs, checker)


def teardown_serve(state: ServeState) -> None:
    state.service.stop()


@dataclass
class _Request:
    """One request as the generator saw it; ticket stamps are copied out
    when it completes so the solution can be dropped after its check."""

    index: int                    # column of the RHS pool
    due: float
    sent: float
    ticket: object = None
    x: np.ndarray | None = None
    ok: bool = False
    error: str | None = None
    id: int = 0
    submitted: float = 0.0
    started: float = 0.0
    completed: float = 0.0
    width: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.completed - self.due) * 1e3


def _submit(state: ServeState, req: _Request) -> None:
    from repro.utils.exceptions import QueueFullError

    try:
        req.ticket = state.session.submit(state.rhs[:, req.index])
    except QueueFullError:
        req.error = "QueueFullError"


def _wait(req: _Request) -> None:
    t = req.ticket
    if t is None:
        return
    try:
        req.x = t.result(timeout=60.0)
    except Exception as err:  # noqa: BLE001 - a failed request is counted
        req.error = type(err).__name__
    else:
        req.id, req.submitted, req.started = t.id, t.submitted_s, t.started_s
        req.completed, req.width = t.completed_s, t.batch_width
    req.ticket = None


def _check(state: ServeState, reqs: list[_Request]) -> None:
    """Check every returned solution, then drop it."""
    for req in reqs:
        if req.x is None:
            continue
        ratio = state.checker.ratio(req.index, req.x)
        req.ok = ratio <= 1.0
        if not req.ok:
            req.error = f"residual {ratio:.3g}x the bound"
        req.x = None


def _open_loop(state: ServeState, rate: float, seconds: float, start: int):
    """Submit at a fixed rate from one thread, never waiting for replies,
    then collect and check the replies."""
    count = max(1, int(rate * seconds))
    reqs = []
    t0 = clock() + 0.01
    for i in range(count):
        due = t0 + i / rate
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        req = _Request((start + i) % state.config.rhs_pool, due, clock())
        _submit(state, req)
        reqs.append(req)
    for req in reqs:
        _wait(req)
    _check(state, reqs)
    return reqs


def _closed_window(state: ServeState, seconds: float, start: int):
    """Keep ``outstanding`` requests in flight for ``seconds``."""
    reqs, inflight = [], []
    t0 = clock()
    while clock() < t0 + seconds:
        while len(inflight) < state.config.outstanding:
            now = clock()
            req = _Request((start + len(reqs)) % state.config.rhs_pool, now, now)
            _submit(state, req)
            reqs.append(req)
            if req.ticket is None:
                break
            inflight.append(req)
        if inflight:
            head = inflight.pop(0)
            _wait(head)
            _check(state, [head])
    for req in inflight:
        _wait(req)
    _check(state, inflight)
    return reqs, t0


def _steady_window(done: list[float], start: float, skip: int) -> tuple[int, float]:
    """Completions and seconds once the first ``skip`` have filled the
    batching pipeline (the window's start-up transient)."""
    if len(done) > skip + 1:
        return len(done) - skip - 1, done[-1] - done[skip]
    return len(done), (done[-1] - start) if done else 0.0


def measure_serve(state: ServeState, seconds: float, tracer=None) -> Outcome:
    cfg = state.config
    light_s, heavy_s, capacity_s = (seconds * share / SERVE_ROUNDS for share in SERVE_SHARES)
    warm = [state.session.submit(state.rhs[:, k]) for k in range(cfg.outstanding)]
    for ticket in warm:                                 # warm-up: lazy init, caches
        ticket.result(timeout=60.0)
    _forget_warmup(tracer)
    cache0 = state.service.cache.stats()
    t_begin = clock()
    light, heavy, capacity = [], [], []
    windows = []
    for _ in range(SERVE_ROUNDS):
        start = len(light) + len(heavy) + len(capacity)
        lo = _open_loop(state, cfg.light_rps, light_s, start)
        hi = _open_loop(state, cfg.heavy_rps, heavy_s, start + len(lo))
        cap, t_cap = _closed_window(state, capacity_s, start + len(lo) + len(hi))
        windows.append(_steady_window(sorted(r.completed for r in cap if r.ok),
                                      t_cap, cfg.outstanding))
        light += lo
        heavy += hi
        capacity += cap
    t_end = clock()
    cache1 = state.service.cache.stats()

    reqs = light + heavy + capacity
    solved = [r for r in reqs if r.ok]
    out = Outcome(attempted=len(reqs), failed=len(reqs) - len(solved), n_ops=len(reqs))
    light_ms = [r.latency_ms for r in light if r.ok]
    out.op_times = [ms / 1e3 for ms in light_ms]
    heavy_ms = [r.latency_ms for r in heavy if r.ok]
    late_ms = [(r.sent - r.due) * 1e3 for r in light + heavy]
    # A trimmed mean: single solves switch between speed modes on a shared
    # host, and a median jumps between the modes where a mean follows their
    # mix; the trim drops the few requests a host stall delays.
    out.e2e["op_ms"] = Metric(trimmed_mean(light_ms), "ms", len(light_ms))
    steady_s = sum(seconds for _, seconds in windows)
    capacity_rps = sum(n for n, _ in windows) / steady_s if steady_s > 0 else 0.0
    out.e2e["ops_per_s"] = Metric(capacity_rps, "1/s", sum(r.ok for r in capacity))
    for phase, lat in (("light", light_ms), ("heavy", heavy_ms)):
        out.named[f"{phase}.p50_ms"] = Metric(median(lat), "ms", len(lat))
        out.named[f"{phase}.p99_ms"] = Metric(percentile(lat, 99), "ms", len(lat))
    out.named["capacity_rps"] = Metric(capacity_rps, "1/s", len(windows))
    out.named["loadgen.late_p99_ms"] = Metric(percentile(late_ms, 99), "ms", len(late_ms))
    out.named["loadgen.late_max_ms"] = Metric(max(late_ms, default=0.0), "ms", len(late_ms))
    # Where the heavy phase's tail goes: requests at or above its p99.
    cut = percentile(heavy_ms, 99)
    tail = [r for r in heavy if r.ok and r.latency_ms >= cut]
    for part, lo, hi in (("late", "due", "submitted"), ("queue", "submitted", "started"),
                         ("exec", "started", "completed")):
        vals = [(getattr(r, hi) - getattr(r, lo)) * 1e3 for r in tail]
        out.named[f"heavy.tail_{part}_ms"] = Metric(mean(vals), "ms", len(vals))

    waits = [(r.started - r.submitted) * 1e3 for r in solved]
    execs = [(r.completed - r.started) * 1e3 for r in solved]
    out.layer.update({
        "service.queue_wait_p50_ms": percentile(waits, 50),
        "service.queue_wait_p99_ms": percentile(waits, 99),
        "service.exec_ms": median(execs),
        "service.batch_width": mean(r.width for r in solved),
        "service.rejected": sum(r.error == "QueueFullError" for r in reqs),
        "cache.hits": cache1.hits - cache0.hits,
        "cache.misses": cache1.misses - cache0.misses,
        "loadgen.late_ms": percentile(late_ms, 99),
    })
    out.layer.update(matrix_footprint(state.solver.matrix))
    if tracer is not None:
        n_workers = state.service.config.n_workers
        busy = sum(s.duration for s in tracer.spans if s.name == "solve")
        out.layer["service.worker_busy_frac"] = busy / ((t_end - t_begin) * n_workers)
        for r in solved:
            tracer.record("service.request", r.due, r.completed, op=f"request-{r.id}",
                          info={"queue_s": r.started - r.submitted,
                                "exec_s": r.completed - r.started, "width": r.width})
    return out
