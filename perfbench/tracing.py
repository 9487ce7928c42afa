"""In-memory span tracing around the public functions of each layer.

A :class:`Tracer` replaces a layer's entry points with wrappers that
record one :class:`Span` per call: name, start, end, the span that caused
it (per thread), the thread, the benchmark operation (factorization,
evaluation or request) it belongs to, and a few result facts such as the
rank a compression produced.  Spans stay in memory until the run ends,
then :meth:`Tracer.write` stores them as JSON.  :func:`install_layers`
wraps every layer the benchmark attributes time to and
:meth:`Tracer.uninstall` restores the originals, so untraced runs execute
the library untouched.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from .stats import mean, median

clock = time.monotonic

#: hcore kernel function → its Table-I class label, written without the
#: parentheses of the paper's "(1)-GEMM" so the label is a valid metric name.
HCORE_CLASSES = {
    "potrf_dense": "1-POTRF",
    "trsm_dense": "1-TRSM",
    "trsm_lr": "4-TRSM",
    "syrk_dense": "1-SYRK",
    "syrk_lr": "3-SYRK",
    "gemm_dense": "1-GEMM",
    "gemm_dense_lrd": "2-GEMM",
    "gemm_dense_lrlr": "3-GEMM",
    "gemm_lr_dense": "5-GEMM",
    "gemm_lr": "6-GEMM",
}
#: Per-layer metric → unit, in the order ``--trace 1`` prints them.
PER_LAYER = {
    "statistics.tiles": "count", "statistics.busy_s": "s",
    "compress.calls": "count", "compress.busy_s": "s", "compress.mean_rank": "rank",
    "recompress.calls": "count", "recompress.busy_s": "s",
    "recompress.rank_growth": "rank",
    **{f"hcore.{c}.{m}": u for c in HCORE_CLASSES.values()
       for m, u in (("calls", "count"), ("busy_s", "s"), ("gflops", "GFLOP/s"))},
    "batched.calls": "count", "batched.mean_width": "count",
    "autotune.busy_s": "s", "autotune.band_size": "tiles",
    "matrix.factor_mb": "MB", "matrix.dense_tiles": "count",
    "matrix.lowrank_tiles": "count",
    "parallel.occupancy": "ratio", "parallel.idle_s": "s",
    "solve.calls": "count", "solve.rhs_per_call": "count", "solve.busy_s": "s",
    "mle.build_s": "s", "mle.factorize_s": "s", "mle.loglik_s": "s",
    "service.queue_wait_p50_ms": "ms", "service.queue_wait_p99_ms": "ms",
    "service.exec_ms": "ms", "service.batch_width": "count",
    "service.rejected": "count", "service.worker_busy_frac": "ratio",
    "cache.hits": "count", "cache.misses": "count",
    "loadgen.late_ms": "ms",
    "tracing.overhead.op_ms": "ms", "tracing.overhead.ops_per_s": "1/s",
}
#: Classes whose kernels write dense band tiles (Table I region 1-3
#: destinations); the rest update low-rank off-band tiles.
DENSE_CLASSES = ("1-POTRF", "1-TRSM", "1-SYRK", "1-GEMM", "2-GEMM", "3-SYRK", "3-GEMM")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: object
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Identifier of the benchmark operation in progress; spans
        #: recorded on any thread while it is set carry it.
        self.op: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        """Record the enclosed block as a span (benchmark-level phases)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), self.op, info))

    def record(self, name: str, start: float, end: float, *, op=None,
               info: dict | None = None) -> None:
        """Add a span measured elsewhere (e.g. from a ticket's timestamps)."""
        self.spans.append(Span(next(self._ids), name, start, end, None,
                               threading.get_ident(), op, info))

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording a span per call; ``info(args, kwargs, result)``
        adds result facts.  A call nested directly in a span of the same
        name (a delegating backend) is not recorded again."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            facts = info(args, kwargs, out) if info is not None else None
            tracer.spans.append(Span(sid, name, start, end, parent,
                                     threading.get_ident(), tracer.op, facts))
            return out

        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` (a module function, method or
        classmethod defined on ``owner`` itself) with a traced wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, info))
        else:
            new = self.wrap(name, raw, info)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [dict(asdict(s), op=None if s.op is None else str(s.op))
                 for s in self.spans]
        path.write_text(json.dumps({"clock": "monotonic", "spans": spans}))


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _batch_class(group) -> str:
    """Table-I class of a same-shape batch (all items share it)."""
    from repro.linalg.tiles import DenseTile

    item = group[0]
    dense = [isinstance(t, DenseTile) for t in item.tiles]
    if item.op == "potrf":
        return "1-POTRF"
    if item.op == "trsm":
        return "1-TRSM" if dense[1] else "4-TRSM"
    if item.op == "syrk":
        return "1-SYRK" if dense[0] else "3-SYRK"
    a, b, c = dense
    if not c:
        return "6-GEMM" if not (a or b) else "5-GEMM"
    if a and b:
        return "1-GEMM"
    return "3-GEMM" if not (a or b) else "2-GEMM"


def matrix_footprint(matrix) -> dict[str, float]:
    """Factor storage computed from tile shapes and storage dtypes."""
    from repro.linalg.tiles import DenseTile

    nbytes, dense, lowrank = 0, 0, 0
    for i in range(matrix.ntiles):
        for j in range(i + 1):
            tile = matrix.tile(i, j)
            if isinstance(tile, DenseTile):
                dense += 1
                nbytes += tile.data.size * tile.data.itemsize
            else:
                lowrank += 1
                nbytes += tile.u.size * tile.u.itemsize + tile.v.size * tile.v.itemsize
    return {"matrix.factor_mb": nbytes / 2**20, "matrix.dense_tiles": dense,
            "matrix.lowrank_tiles": lowrank}


def _factorization_facts(matrix, report) -> dict:
    counter = report.counter
    return {
        "flops": {k.value: v for k, v in counter.per_class.items()},
        "counts": {k.value: v for k, v in counter.per_class_count.items()},
        "footprint": matrix_footprint(matrix),
    }


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.core.api as api
    import repro.core.mle as mle
    import repro.linalg.backends as backends
    import repro.linalg.batched as batched
    import repro.linalg.hcore as hcore
    import repro.matrix.tlr_matrix as tlr_matrix
    import repro.runtime.executor as executor
    import repro.runtime.parallel as parallel
    import repro.service.server as server
    import repro.statistics.problem as problem

    tracer.patch(problem.CovarianceProblem, "tile", "statistics.tile")
    for cls in (backends.SVDBackend, backends.RandomizedSVDBackend,
                backends.AutoBackend):
        tracer.patch(cls, "compress", "compress",
                     lambda a, k, out: {"rank": out.rank})
    tracer.patch(backends.CompressionBackend, "recompress_update", "recompress",
                 lambda a, k, out: {"growth": out.rank_after - a[1].rank})
    for fn, label in HCORE_CLASSES.items():
        tracer.patch(hcore, fn, f"hcore.{label}")
    for module in (batched, parallel, executor):
        tracer.patch(module, "run_batch", "batched.run_batch",
                     lambda a, k, out: {"width": len(a[0]),
                                        "class": _batch_class(a[0])})
    tracer.patch(api, "autotune_matrix", "autotune",
                 lambda a, k, out: {"band": out[0].band_size})
    tracer.patch(parallel, "execute_graph_parallel", "parallel.execute")
    tracer.patch(server, "solve_spd", "solve", lambda a, k, out: {"rhs": 1})
    tracer.patch(server, "solve_many", "solve",
                 lambda a, k, out: {"rhs": len(a[1])})
    tracer.patch(mle.LikelihoodEvaluator, "__call__", "mle.eval")
    tracer.patch(tlr_matrix.BandTLRMatrix, "from_problem", "matrix.from_problem")
    tracer.patch(mle, "tlr_cholesky", "mle.factorize",
                 lambda a, k, out: _factorization_facts(a[0], out))
    tracer.patch(mle, "log_likelihood", "mle.loglik")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(tracer: Tracer, *, n_ops: int, n_workers: int,
                  flops: dict[str, float], counts: dict[str, int]) -> dict:
    """Per-layer metrics from the recorded spans, per benchmark operation.

    ``flops``/``counts`` are the model flops and invocation counts per
    Table-I class (``FactorizationReport.counter``) summed over the traced
    operations, to which the reports of traced MLE factorizations are
    added; kernel GFLOP/s divides them by the spans' inclusive time.  The
    MLE factor's footprint comes from the last traced evaluation.
    """
    spans = tracer.spans
    own = self_times(spans)
    per = 1.0 / max(n_ops, 1)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    flops, counts = dict(flops), dict(counts)
    m: dict[str, float] = {}
    for s in by_name.get("mle.factorize", []):
        for k, v in s.info["flops"].items():
            flops[k] = flops.get(k, 0.0) + v
        for k, v in s.info["counts"].items():
            counts[k] = counts.get(k, 0) + v
        m.update(s.info["footprint"])

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    tiles = by_name.get("statistics.tile", [])
    m["statistics.tiles"] = len(tiles) * per
    m["statistics.busy_s"] = busy("statistics.tile") * per
    comp = by_name.get("compress", [])
    m["compress.calls"] = len(comp) * per
    m["compress.busy_s"] = busy("compress") * per
    m["compress.mean_rank"] = mean(s.info["rank"] for s in comp)
    rec = by_name.get("recompress", [])
    m["recompress.calls"] = len(rec) * per
    m["recompress.busy_s"] = busy("recompress") * per
    m["recompress.rank_growth"] = mean(s.info["growth"] for s in rec)

    batches = by_name.get("batched.run_batch", [])
    for label in HCORE_CLASSES.values():
        kernel = by_name.get(f"hcore.{label}", [])
        grouped = [s for s in batches if s.info["class"] == label]
        self_s = sum(own[s.id] for s in kernel) + sum(own[s.id] for s in grouped)
        inclusive = busy(f"hcore.{label}") + sum(own[s.id] for s in grouped)
        table = f"({label[0]}){label[1:]}"      # "1-GEMM" -> "(1)-GEMM"
        m[f"hcore.{label}.calls"] = counts.get(table, 0) * per
        m[f"hcore.{label}.busy_s"] = self_s * per
        m[f"hcore.{label}.gflops"] = (
            flops.get(table, 0.0) / inclusive / 1e9 if inclusive > 0 else 0.0)
    wide = [s for s in batches if s.info["width"] > 1]
    m["batched.calls"] = len(wide) * per
    m["batched.mean_width"] = mean(s.info["width"] for s in wide)

    tune = by_name.get("autotune", [])
    m["autotune.busy_s"] = busy("autotune") * per
    m["autotune.band_size"] = mean(s.info["band"] for s in tune)

    occupancy, idle = [], 0.0
    kernels = [s for s in spans if s.parent is None
               and (s.name.startswith("hcore.") or s.name == "batched.run_batch")]
    for run in by_name.get("parallel.execute", []):
        inside = sum(min(s.end, run.end) - max(s.start, run.start)
                     for s in kernels
                     if s.thread != run.thread and s.end > run.start
                     and s.start < run.end)
        capacity = run.duration * n_workers
        occupancy.append(inside / capacity if capacity > 0 else 0.0)
        idle += capacity - inside
    m["parallel.occupancy"] = mean(occupancy)
    m["parallel.idle_s"] = idle * per

    solves = by_name.get("solve", [])
    m["solve.calls"] = len(solves) * per
    m["solve.rhs_per_call"] = mean(s.info["rhs"] for s in solves)
    m["solve.busy_s"] = busy("solve") * per

    evals = {s.id for s in by_name.get("mle.eval", [])}
    m["mle.build_s"] = median(s.duration for s in by_name.get("matrix.from_problem", [])
                               if s.parent in evals)
    m["mle.factorize_s"] = median(s.duration for s in by_name.get("mle.factorize", []))
    m["mle.loglik_s"] = median(s.duration for s in by_name.get("mle.loglik", []))
    return m
