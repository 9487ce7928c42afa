"""Summary statistics of measured samples; 0.0 for no samples."""

from __future__ import annotations

import numpy as np


def mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    values = list(values)
    return float(np.percentile(values, q, method="inverted_cdf")) if values else 0.0


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of the values left once ``cut`` of them are dropped at each end."""
    values = np.sort(list(values))
    k = int(cut * len(values))
    return float(np.mean(values[k:len(values) - k])) if len(values) else 0.0
