"""Inequality measures over non-negative score arrays: the Gini coefficient and
top-x% shares.

The Gini here is the population version, G = sum_ij |x_i - x_j| / (2 n^2 mu),
with no small-sample correction; zeros are genuine observations and are never
filtered here.
"""

from __future__ import annotations

import numpy as np


def _checked(values) -> np.ndarray:
    """``values`` as a float64 array: one-dimensional, non-negative, non-empty, with a positive total."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("distribution values must be one-dimensional")
    if len(x) == 0:
        raise ValueError("empty distribution")
    if x.min() < 0:
        raise ValueError("distribution values must be non-negative")
    if x.sum() <= 0:
        raise ValueError("undefined Gini (zero mean)")
    return x


def gini(values) -> float:
    """Population Gini coefficient in [0, 1), via the sorted O(n log n) formulation."""
    x = np.sort(_checked(values))
    n = len(x)
    ranks = 2.0 * np.arange(1, n + 1) - n - 1
    # cancellation can leave a tiny negative value on constant inputs
    return max(0.0, float((ranks * x).sum() / (n * x.sum())))


def top_share(values, pct: float) -> float:
    """Share of the total held by the ceil(pct * n) largest values."""
    x = _checked(values)
    if not 0 < pct <= 1:
        raise ValueError("pct must lie in (0, 1]")
    x = np.sort(x)[::-1]
    k = int(np.ceil(pct * len(x)))
    return float(x[:k].sum() / x.sum())
