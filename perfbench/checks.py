"""Untimed correctness checks, each against a reference the benchmark
computes itself.

The reference covariance is :class:`Reference`: the exponential kernel
evaluated with SciPy's ``cdist`` on the problem's points, block by block.
It shares no code with ``repro.statistics``, so a defect in the
library's tile generation reaches the factor but not the reference, and
it is never held as one dense ``n × n`` array during measurement.

Every tolerance is derived from the compression threshold ε with the same
error model: an off-band tile is truncated once when compressed and at
most once per panel update, each truncation removing singular values
below ε.  The singular values of covariance tiles decay geometrically,
so the discarded tail has a Frobenius norm of a few ε; a safety factor
of ten covers that constant.  Truncation errors of different tiles and
updates are independent, so they add in quadrature rather than linearly.
A factor that is wrong in any tile by more than roughly that amount
fails.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.spatial.distance import cdist

SAFETY = 10.0
#: Gaussian probe columns of the factor-residual estimate.
PROBE_COLUMNS = 32


class Reference:
    """``Σ = σ² exp(−r/β) + nugget·I`` over ``points``, split into the
    row blocks of ``tiles`` (a list of slices)."""

    def __init__(self, points: np.ndarray, variance: float, length: float,
                 nugget: float, tiles: list[slice]) -> None:
        self.points, self.tiles = np.asarray(points, dtype=np.float64), tiles
        self.variance, self.length, self.nugget = variance, length, nugget

    @classmethod
    def of(cls, problem, variance: float | None = None,
           length: float | None = None) -> "Reference":
        """The reference of an exponential-kernel problem, optionally at
        another θ = (σ², β) on the same points."""
        params = problem.params
        if not math.isclose(params.smoothness, 0.5):
            raise ValueError(f"the reference is the exponential kernel (ν = 0.5), "
                             f"not ν = {params.smoothness}")
        tiles = [problem.tile_rows(i) for i in range(problem.ntiles)]
        return cls(problem.points,
                   params.variance if variance is None else variance,
                   params.correlation_length if length is None else length,
                   problem.nugget, tiles)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """Rows ``rows`` and columns ``cols`` (slices with explicit bounds)."""
        out = self.variance * np.exp(-cdist(self.points[rows], self.points[cols])
                                     / self.length)
        diag = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
        out[diag - rows.start, diag - cols.start] += self.nugget
        return out

    def dense(self) -> np.ndarray:
        return self.block(slice(0, self.n), slice(0, self.n))

    def matmul(self, x: np.ndarray) -> tuple[np.ndarray, float, float]:
        """``Σx``, ``‖Σ‖_∞`` and ``‖Σ‖_F``, one row block at a time."""
        out = np.empty_like(x, dtype=np.float64)
        inf = fro = 0.0
        for ri in self.tiles:
            rows = self.block(ri, slice(0, self.n))
            out[ri] = rows @ x
            inf = max(inf, float(np.abs(rows).sum(axis=1).max()))
            fro += float(np.vdot(rows, rows))
        return out, inf, math.sqrt(fro)


def truncation_budget(eps: float, ntiles: int) -> float:
    """Frobenius-norm error the compressed factorization may carry."""
    offband = ntiles * (ntiles - 1)          # both triangles of Σ
    truncations = offband * (ntiles + 1)     # compression + panel updates
    return SAFETY * eps * math.sqrt(truncations)


class FactorChecker:
    """Estimates ``‖Σ − LLᵀ‖_F / ‖Σ‖_F`` of a factor ``L`` with
    ``k = PROBE_COLUMNS`` Gaussian columns Ω: ``E‖EΩ‖_F² = k‖E‖_F²`` for any ``E``.

    ``ΣΩ`` and ``‖Σ‖_F`` come from the reference once, in set-up; each
    factor then costs two triangular tile sweeps of ``k`` columns instead
    of an ``O(n³)`` product.  The estimate's relative spread is about
    ``√(2/k)``, far inside the safety factor of the tolerance.
    """

    def __init__(self, ref: Reference, eps: float, rng: np.random.Generator) -> None:
        self.tiles = ref.tiles
        self.omega = rng.standard_normal((ref.n, PROBE_COLUMNS))
        self.sigma_omega, _, self.norm = ref.matmul(self.omega)
        self.tolerance = truncation_budget(eps, len(ref.tiles)) / self.norm

    def residual(self, factor) -> float:
        t = self.tiles
        y = np.zeros_like(self.omega)                  # Lᵀ Ω
        for i, ri in enumerate(t):
            for k in range(i + 1):
                y[t[k]] += factor.tile(i, k).to_dense().T @ self.omega[ri]
        z = np.zeros_like(self.omega)                  # L (Lᵀ Ω)
        for i, ri in enumerate(t):
            for k in range(i + 1):
                z[ri] += factor.tile(i, k).to_dense() @ y[t[k]]
        k = self.omega.shape[1]
        return float(np.linalg.norm(self.sigma_omega - z)) / (math.sqrt(k) * self.norm)


def dense_loglik(sigma: np.ndarray, z: np.ndarray) -> float:
    """Gaussian log-likelihood (Eq. 1) by a dense Cholesky."""
    chol = sla.cholesky(sigma, lower=True)
    y = sla.solve_triangular(chol, z, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (z.size * math.log(2.0 * math.pi) + logdet + float(y @ y))


def loglik_tolerance(eps: float, n: int) -> float:
    """|ℓ_TLR − ℓ_dense| allowed: ε per observation.  (A worst-case bound
    through ‖Σ⁻¹‖₂ is too loose to tell neighbouring θ apart.)"""
    return eps * n


class SolutionChecker:
    """Checks ``‖Σx − b‖ ≤ budget·‖x‖`` for solves of a fixed pool of
    right-hand sides, in O(n) per solution.

    The solve uses the compressed factor ``LLᵀ = Σ + ΔΣ``, so a correct
    solution has ``Σx − b = −ΔΣx`` and ``‖Σx − b‖ ≤ ‖ΔΣ‖₂‖x‖ ≤ budget·‖x‖``.
    Set-up gives a solution ``x_c`` of every column (``refs``); its full
    residual ``r_c`` is computed once against the reference.  A later
    solution ``x`` of column ``c`` is checked through
    ``‖Σx − b‖ ≤ ‖Σ‖₂‖x − x_c‖ + r_c`` with ``‖Σ‖₂ ≤ ‖Σ‖_∞``, so the
    reference is not needed during measurement.  A column whose ``x_c``
    is wrong has a large ``r_c`` and fails every later solution.
    """

    def __init__(self, ref: Reference, rhs: np.ndarray, refs: np.ndarray,
                 budget: float) -> None:
        product, self.norm, _ = ref.matmul(refs)
        self.residuals = np.linalg.norm(product - rhs, axis=0)
        self.refs, self.budget = refs, budget

    def ratio(self, col: int, x: np.ndarray) -> float:
        """Residual bound of ``x`` over the allowed residual; ≤ 1 passes."""
        bound = (self.norm * float(np.linalg.norm(x - self.refs[:, col]))
                 + float(self.residuals[col]))
        return bound / (self.budget * float(np.linalg.norm(x)))
