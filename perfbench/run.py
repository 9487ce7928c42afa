"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload factor-band --seed 1 --seconds 15 --trace 0

The workload is set up several times (``setup_s`` is the median), then
its operation repeats for ``--seconds`` with every output checked.  The
report lists each metric with its unit and sample count, the run
environment and the seed; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace
0`` the metrics are the end-to-end ones, measured untraced.  With
``--trace 1`` half the time runs untraced and half with span wrappers
installed around each layer; the metrics are the per-layer ones plus the
tracing overhead (traced minus untraced), and the spans are written to
``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms": "ms", "ops_per_s": "1/s"}


@dataclass(frozen=True)
class Workload:
    setup: object
    measure: object
    teardown: object = None
    n_workers: int = 1


def workloads() -> dict[str, Workload]:
    from perfbench import workloads as w

    return {
        "factor-lowrank": Workload(lambda seed: w.setup_factor(seed, w.FACTOR_LOWRANK),
                                   w.measure_factor),
        "factor-band": Workload(lambda seed: w.setup_factor(seed, w.FACTOR_BAND),
                                w.measure_factor, n_workers=w.FACTOR_BAND.n_workers),
        "mle-sweep": Workload(lambda seed: w.setup_mle(seed, w.MLE_SWEEP), w.measure_mle),
        "serve-open": Workload(lambda seed: w.setup_serve(seed, w.SERVE_OPEN),
                               w.measure_serve, w.teardown_serve),
    }


def import_repro(root: Path):
    """Import ``repro`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")
    return repro


def reset_peak_rss() -> bool:
    """Return memory the set-ups freed to the kernel, then restart its
    resident-set high-water mark (``VmHWM``) at the current resident set;
    False where Linux does not allow it.

    Without the trim, freed set-up memory that the C allocator kept
    (notably in the arenas of the stopped service threads) stayed
    resident, by 223-261 MB after ``serve-open`` set-ups of different
    seeds."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass                        # not glibc: nothing to trim
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def status_mb(field: str) -> float:
    """A memory field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``) in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise KeyError(field)


def peak_rss_mb(scoped: bool) -> float:
    """Peak resident set since :func:`reset_peak_rss` when ``scoped``,
    else since the process started."""
    if scoped:
        return status_mb("VmHWM")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name: str, seed: int, seconds: float, trace: bool, root: Path = ROOT,
        registry: dict[str, Workload] | None = None) -> dict:
    """Set up and measure one workload; returns the full result record."""
    from perfbench import envinfo
    from perfbench.tracing import (PER_LAYER, Tracer, clock, install_layers,
                                   layer_metrics)
    from perfbench.stats import median

    from repro import obs

    if obs.enabled():      # the library's own telemetry must not run in timed code
        raise RuntimeError("repro.obs is recording; the benchmark needs it off")
    spec = (registry or workloads())[name]
    env = envinfo.collect(root)
    setup_times, state = [], None
    for _ in range(SETUPS):
        if state is not None and spec.teardown is not None:
            spec.teardown(state)
        state = None
        t0 = clock()
        state = spec.setup(seed)
        setup_times.append(clock() - t0)
    # peak_rss_mb covers measurement only: what the program holds after
    # set-up plus what its operations allocate, not the set-up's dense
    # references, which are gone by now.
    scoped = reset_peak_rss()
    setup_mb = status_mb("VmRSS") if scoped else 0.0
    try:
        if not trace:
            outcomes = [spec.measure(state, seconds)]
        else:
            plain = spec.measure(state, seconds / 2)
            tracer = Tracer()
            install_layers(tracer)
            try:
                traced = spec.measure(state, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            outcomes = [plain, traced]
        peak_mb = peak_rss_mb(scoped)
    finally:
        if spec.teardown is not None:
            spec.teardown(state)
    last = outcomes[-1]
    named = {"setup_s": (median(setup_times), "s", len(setup_times)),
             "peak_rss_mb": (peak_mb, "MB", 1), "rss_after_setup_mb": (setup_mb, "MB", 1)}
    named.update({k: (m.value, m.unit, m.samples) for k, m in last.e2e.items()})
    named.update({k: (m.value, m.unit, m.samples) for k, m in last.named.items()})
    if trace:
        values = layer_metrics(tracer, n_ops=traced.n_ops, n_workers=spec.n_workers,
                               flops=traced.flops, counts=traced.counts)
        values.update(traced.layer)
        for key in ("op_ms", "ops_per_s"):
            values[f"tracing.overhead.{key}"] = (
                traced.e2e[key].value - plain.e2e[key].value)
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from the catalog: {unknown}")
        metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
        tracer.write(root / ".perfbench" / f"trace-{name}-seed{seed}.json")
    else:
        metrics = {k: {"value": float(named[k][0]), "unit": u}
                   for k, u in END_TO_END.items()}
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "peak_rss_scope": "measurement" if scoped else "process",
        "named": named, "op_times": last.op_times,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def report(record: dict) -> str:
    """Human-readable lines printed before the result JSON."""
    env = record["env"]
    blas = env["blas"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']:g}  trace {int(record['trace'])}",
        f"env  nproc {env['nproc']}  blas {blas['name']} {blas['version']} "
        f"threads {blas['threads']}  python {env['python']}  numpy {env['numpy']}  "
        f"scipy {env['scipy']}  commit {env['commit']}",
        f"{'metric':34s} {'value':>14s}  {'unit':8s} samples",
    ]
    if record["peak_rss_scope"] != "measurement":
        lines.insert(2, "WARNING: the peak resident set could not be reset after "
                        "set-up; peak_rss_mb includes set-up")
    if blas["threads"] != 1:
        lines.insert(2, f"WARNING: BLAS runs {blas['threads']} threads, not 1; "
                        "these timings are not comparable with pinned runs")
    for key, (value, unit, samples) in record["named"].items():
        lines.append(f"{key:34s} {value:14.6g}  {unit:8s} {samples}")
    res = record["result"]
    ratio = res["failed"] / res["attempted"]
    lines.append(f"operations attempted {res['attempted']}  failed {res['failed']}  "
                 f"failed_ratio {ratio:.4g}  checks {'passed' if res['correct'] else 'FAILED'}")
    if record["trace"]:
        for key, m in res["metrics"].items():
            lines.append(f"  {key:34s} {m['value']:14.6g}  {m['unit']}")
        lines.extend(splits(record))
    return "\n".join(lines)


def splits(record: dict) -> list[str]:
    """Where the traced time went, against the predicted largest parts."""
    from perfbench.tracing import DENSE_CLASSES, HCORE_CLASSES

    m = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    named = {k: v[0] for k, v in record["named"].items()}
    parts = []
    if "build_s" in named:
        parts.append(("compress.busy_s of build_s", m["compress.busy_s"], named["build_s"]))
        parts.append(("recompress.busy_s of factorize_s", m["recompress.busy_s"],
                      named["factorize_s"]))
        busy = {c: m[f"hcore.{c}.busy_s"] for c in HCORE_CLASSES.values()}
        parts.append(("dense hcore classes of hcore busy",
                      sum(busy[c] for c in DENSE_CLASSES), sum(busy.values())))
    if "heavy.tail_queue_ms" in named:
        tail = sum(named[f"heavy.tail_{p}_ms"] for p in ("late", "queue", "exec"))
        parts.append(("queue wait of the heavy p99 tail", named["heavy.tail_queue_ms"], tail))
    return [f"split  {label}: {part:.4g} of {whole:.4g} ({part / whole:.0%})"
            for label, part, whole in parts if whole > 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_repro(ROOT)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(record))
    keys = ("workload", "seed", "env", "peak_rss_scope", "named", "op_times")
    print(json.dumps({k: record[k] for k in keys}))
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    # One BLAS thread per kernel, as in PaRSEC and other task runtimes: the
    # parallelism comes from the executor's workers.  Two OpenBLAS threads
    # per call on small tiles made every operation 3-6x slower here and
    # spread repeated timings by ±20%.  Set before NumPy loads OpenBLAS.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
