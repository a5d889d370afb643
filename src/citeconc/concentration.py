"""Inequality measures over non-negative score distributions: Gini coefficient,
Lorenz curves, and top-x% shares.

The Gini here is the population version, G = sum_ij |x_i - x_j| / (2 n^2 mu),
with no small-sample correction; zeros are genuine observations and are never
filtered here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Distribution:
    """Multiset of non-negative scores."""

    def __init__(self, values):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("distribution values must be one-dimensional")
        if len(v) and v.min() < 0:
            raise ValueError("distribution values must be non-negative")
        self.values = v

    def __len__(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class LorenzCurve:
    points: tuple[tuple[float, float], ...]  # (population share, value share), ascending


def _check(d: Distribution) -> None:
    if len(d) == 0:
        raise ValueError("empty distribution")
    if d.total <= 0:
        raise ValueError("undefined Gini (zero mean)")


def gini(d: Distribution) -> float:
    """Population Gini coefficient in [0, 1), via the sorted O(n log n) formulation."""
    _check(d)
    x = np.sort(d.values)
    n = len(x)
    ranks = 2.0 * np.arange(1, n + 1) - n - 1
    # cancellation can leave a tiny negative value on constant inputs
    return max(0.0, float((ranks * x).sum() / (n * x.sum())))


def lorenz(d: Distribution, points: int = 100) -> LorenzCurve:
    """Lorenz curve sampled at `points` evenly spaced population shares plus endpoints."""
    _check(d)
    if points < 1:
        raise ValueError("points must be >= 1")
    x = np.sort(d.values)
    n = len(x)
    cum = np.concatenate([[0.0], np.cumsum(x)]) / x.sum()
    pop = np.arange(n + 1) / n
    ps = np.unique(np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, points)]))
    ls = np.interp(ps, pop, cum)
    return LorenzCurve(points=tuple((float(p), float(l)) for p, l in zip(ps, ls)))


def top_share(d: Distribution, pct: float) -> float:
    """Share of the total held by the ceil(pct * n) largest values."""
    _check(d)
    if not 0 < pct <= 1:
        raise ValueError("pct must lie in (0, 1]")
    x = np.sort(d.values)[::-1]
    k = int(np.ceil(pct * len(x)))
    return float(x[:k].sum() / x.sum())
