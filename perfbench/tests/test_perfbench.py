"""Tests of the benchmark itself: tiny runs, checks that fire, metric names.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import checks, run, workloads as w  # noqa: E402
from perfbench.stats import trimmed_mean  # noqa: E402
from perfbench.tracing import PER_LAYER, Span, Tracer, self_times  # noqa: E402

TINY_FACTOR = w.FactorConfig(n=400, tile_size=50, accuracy=1e-4, n_workers=None)
TINY_BAND = w.FactorConfig(n=400, tile_size=50, accuracy=1e-6, n_workers=2)
TINY_MLE = w.MLEConfig(n=300, tile_size=50, accuracy=1e-4, band_size=2, n_theta=2)
TINY_SERVE = w.ServeConfig(factor=TINY_BAND, light_rps=100.0, heavy_rps=300.0,
                           outstanding=8, rhs_pool=16)

TINY = {
    "factor-lowrank": run.Workload(lambda s: w.setup_factor(s, TINY_FACTOR),
                                   w.measure_factor),
    "factor-band": run.Workload(lambda s: w.setup_factor(s, TINY_BAND),
                                w.measure_factor, n_workers=2),
    "mle-sweep": run.Workload(lambda s: w.setup_mle(s, TINY_MLE), w.measure_mle),
    "serve-open": run.Workload(lambda s: w.setup_serve(s, TINY_SERVE),
                               w.measure_serve, w.teardown_serve),
}


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Every workload at a tiny size, untraced and traced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_tiny(name, trace, tmp_path):
    record = run.run(name, seed=3, seconds=0.4, trace=trace, root=tmp_path,
                     registry=TINY)
    result = record["result"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark_json()[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / ".perfbench" / f"trace-{name}-seed3.json").is_file()
    assert record["seed"] == 3
    assert record["env"]["nproc"] >= 1 and record["env"]["numpy"]


def test_same_seed_same_inputs():
    a, b = w.setup_mle(5, TINY_MLE), w.setup_mle(5, TINY_MLE)
    c = w.setup_mle(6, TINY_MLE)
    assert a.thetas == b.thetas and np.array_equal(a.z, b.z)
    assert a.thetas != c.thetas


# ----------------------------------------------------------------------
# Each check fires on a deliberately wrong output
# ----------------------------------------------------------------------
def _perturb(matrix, i, j, scale=1.01):
    tile = matrix.tile(i, j)
    if hasattr(tile, "data"):
        tile.data *= scale
    else:
        tile.u *= scale


def test_reference_matches_library_dense_matrix():
    problem = w.setup_factor(1, TINY_FACTOR).problem
    ref = checks.Reference.of(problem)
    dense = problem.dense()
    np.testing.assert_allclose(ref.dense(), dense, rtol=1e-12, atol=1e-12)
    x = np.random.default_rng(0).standard_normal((problem.n, 3))
    product, inf, fro = ref.matmul(x)
    np.testing.assert_allclose(product, dense @ x, rtol=1e-10)
    assert inf == pytest.approx(np.abs(dense).sum(axis=1).max())
    assert fro == pytest.approx(np.linalg.norm(dense))


def test_factor_estimate_matches_exact_residual():
    state = w.setup_factor(1, TINY_FACTOR)
    solver, _, _ = w.build_factor(state.problem, TINY_FACTOR)
    _perturb(solver.matrix, 3, 3)
    lower = solver.matrix.to_dense(lower_only=True)
    dense = state.problem.dense()
    exact = np.linalg.norm(dense - lower @ lower.T) / np.linalg.norm(dense)
    assert state.checker.residual(solver.matrix) == pytest.approx(exact, rel=0.5)


def test_factor_check_fires_on_perturbed_factor():
    state = w.setup_factor(1, TINY_FACTOR)
    solver, _, _ = w.build_factor(state.problem, TINY_FACTOR)
    assert state.checker.residual(solver.matrix) <= state.checker.tolerance
    _perturb(solver.matrix, 3, 3)
    assert state.checker.residual(solver.matrix) > state.checker.tolerance


def test_factor_workload_counts_wrong_covariance_tiles_as_failed(monkeypatch):
    from repro.statistics.problem import CovarianceProblem

    tile = CovarianceProblem.tile
    monkeypatch.setattr(CovarianceProblem, "tile",
                        lambda self, i, j: tile(self, i, j) * (1.0 if i == j else 1.01))
    out = w.measure_factor(w.setup_factor(1, TINY_FACTOR), 0.1)
    assert out.attempted >= 1 and out.failed == out.attempted


def test_factor_workload_counts_wrong_factor_as_failed(monkeypatch):
    from repro import TLRSolver

    factorize = TLRSolver.factorize

    def wrong(self, **kwargs):
        report = factorize(self, **kwargs)
        _perturb(self.matrix, self.matrix.ntiles - 1, 0, scale=1.5)
        return report

    monkeypatch.setattr(TLRSolver, "factorize", wrong)
    out = w.measure_factor(w.setup_factor(1, TINY_FACTOR), 0.1)
    assert out.attempted >= 1 and out.failed == out.attempted


def test_mle_tolerance_separates_neighbouring_theta():
    state = w.setup_mle(2, TINY_MLE)
    assert abs(state.reference[0] - state.reference[1]) > state.tolerance


def test_mle_workload_counts_wrong_loglik_as_failed(monkeypatch):
    from repro.core.mle import LikelihoodEvaluator

    call = LikelihoodEvaluator.__call__
    monkeypatch.setattr(LikelihoodEvaluator, "__call__",
                        lambda self, a, b: call(self, a, b) + 1.0)
    state = w.setup_mle(2, TINY_MLE)
    assert state.tolerance < 1.0
    out = w.measure_mle(state, 0.1)
    assert out.attempted >= 1 and out.failed == out.attempted


def test_solve_check_fires_on_wrong_solution():
    state = w.setup_factor(4, TINY_BAND)
    solver, _, _ = w.build_factor(state.problem, TINY_BAND)
    budget = checks.truncation_budget(TINY_BAND.accuracy, state.problem.ntiles)
    b = np.random.default_rng(0).standard_normal((state.problem.n, 2))
    x = solver.solve(b)
    refs = x.copy()
    refs[:, 1] = _spoil(refs[:, 1])             # a wrong solution from set-up
    checker = checks.SolutionChecker(checks.Reference.of(state.problem), b, refs, budget)
    assert checker.ratio(0, solver.solve(b[:, 0])) <= 1.0
    assert checker.ratio(0, _spoil(x[:, 0])) > 1.0
    assert checker.ratio(1, x[:, 1]) > 1.0      # its reference is wrong


def _spoil(x):
    """A wrong solution: one entry off by 1% of the solution's norm."""
    x = np.array(x, copy=True)
    x[0] += 1e-2 * np.linalg.norm(x)
    return x


def test_serve_workload_counts_wrong_solutions_as_failed(monkeypatch):
    import repro.service.server as server

    solve_spd, solve_many = server.solve_spd, server.solve_many
    monkeypatch.setattr(server, "solve_spd", lambda f, b: _spoil(solve_spd(f, b)))
    monkeypatch.setattr(server, "solve_many",
                        lambda f, bs: [_spoil(x) for x in solve_many(f, bs)])
    state = w.setup_serve(5, TINY_SERVE)
    try:
        out = w.measure_serve(state, 0.3)
    finally:
        w.teardown_serve(state)
    assert out.attempted >= 1 and out.failed == out.attempted


# ----------------------------------------------------------------------
# Metric names, tracing, and the no-sources exit
# ----------------------------------------------------------------------
def test_catalogs_match_benchmark_json():
    doc = benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert sorted(x["name"] for x in doc["workloads"]) == sorted(run.workloads())
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        x["bound"] for x in doc["end_to_end"]) for m in doc["end_to_end"])


def test_trimmed_mean_drops_both_tails():
    assert trimmed_mean([1000.0, 2.0, 2.0, 4.0, 4.0, 2.0, 4.0, 2.0, 4.0, -1000.0]) == 3.0
    assert trimmed_mean([5.0]) == 5.0
    assert trimmed_mean([]) == 0.0


def test_self_time_subtracts_children():
    spans = [Span(1, "a", 0.0, 10.0, None, 0, None, None),
             Span(2, "b", 1.0, 4.0, 1, 0, None, None),
             Span(3, "c", 3.0, 6.0, 1, 0, None, None)]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(3.0)


def test_tracer_restores_originals():
    import repro.linalg.hcore as hcore

    before = hcore.gemm_dense
    tracer = Tracer()
    from perfbench.tracing import install_layers

    install_layers(tracer)
    assert hcore.gemm_dense is not before
    tracer.uninstall()
    assert hcore.gemm_dense is before


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor-band",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
