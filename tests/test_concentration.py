import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citeconc.concentration import Distribution, gini, lorenz, top_share


def gini_pairwise(values):
    """O(n^2) definition: mean absolute pairwise difference over twice the mean."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))


positive_vectors = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=60,
).filter(lambda v: sum(v) > 0)


def test_gini_perfect_equality():
    assert gini(Distribution([1, 1, 1, 1])) == 0.0


def test_gini_single_nonzero():
    assert gini(Distribution([0, 0, 0, 1])) == 0.75


def test_gini_errors():
    with pytest.raises(ValueError, match="empty"):
        gini(Distribution([]))
    with pytest.raises(ValueError, match="zero mean"):
        gini(Distribution([0.0, 0.0]))
    with pytest.raises(ValueError):
        Distribution([-1.0, 2.0])


def test_gini_matches_pairwise_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 201))
        x = rng.exponential(scale=10.0, size=n)
        x[rng.random(n) < 0.3] = 0.0
        if x.sum() == 0:
            x[0] = 1.0
        assert gini(Distribution(x)) == pytest.approx(gini_pairwise(x), abs=1e-12)


@given(positive_vectors, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
@example(values=[0.0, 5e-324], c=0.5)  # the subnormal underflows to 0
def test_gini_scale_invariance(values, c):
    x = np.asarray(values)
    if (c * x).sum() <= 0:  # scaling can underflow subnormal inputs to an all-zero vector
        with pytest.raises(ValueError, match="zero mean"):
            gini(Distribution(c * x))
        return
    assert gini(Distribution(c * x)) == pytest.approx(gini(Distribution(x)), abs=1e-9)


@given(positive_vectors)
@settings(max_examples=200, deadline=None)
def test_gini_bounds(values):
    g = gini(Distribution(values))
    assert 0 <= g < 1


@given(positive_vectors)
@settings(max_examples=200, deadline=None)
def test_zero_padding_strictly_increases_gini(values):
    g0 = gini(Distribution(values))
    g1 = gini(Distribution(values + [0.0]))
    assert g1 > g0


@given(positive_vectors, st.data())
@settings(max_examples=200, deadline=None)
def test_pigou_dalton_transfer(values, data):
    x = sorted(values)
    i = data.draw(st.integers(0, len(x) - 2))
    j = data.draw(st.integers(i + 1, len(x) - 1))
    if x[j] <= x[i]:
        return
    # transfer keeps the ordering: at most half the gap
    eps = data.draw(st.floats(min_value=0, max_value=(x[j] - x[i]) / 2))
    y = list(x)
    y[i] += eps
    y[j] -= eps
    assert gini(Distribution(y)) <= gini(Distribution(x)) + 1e-12


def test_lorenz_equal_values_diagonal():
    curve = lorenz(Distribution([3.0] * 10), points=11)
    for p, l in curve.points:
        assert l == pytest.approx(p, abs=1e-12)


def test_lorenz_single_nonzero():
    curve = lorenz(Distribution([0, 0, 0, 1]), points=5)
    for p, l in curve.points:
        if p <= 0.75:
            assert l == pytest.approx(0.0, abs=1e-12)
    assert curve.points[-1] == (1.0, pytest.approx(1.0))


def test_lorenz_matches_cumulative_sum_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.exponential(size=int(rng.integers(2, 80)))
        curve = lorenz(Distribution(x), points=40)
        pts = curve.points
        assert pts[0] == (0.0, 0.0)
        assert pts[-1][0] == 1.0
        assert pts[-1][1] == pytest.approx(1.0, abs=1e-12)
        xs = np.sort(x)
        cum = np.cumsum(xs) / xs.sum()
        for p, l in pts:
            k = int(np.floor(p * len(xs) + 1e-12))
            low = cum[k - 1] if k >= 1 else 0.0
            high = cum[k] if k < len(xs) else 1.0
            assert low - 1e-9 <= l <= high + 1e-9
        # monotone and below the diagonal
        ls = [l for _, l in pts]
        assert all(b >= a - 1e-12 for a, b in zip(ls, ls[1:]))
        assert all(l <= p + 1e-12 for p, l in pts)


def test_top_share_equal_values():
    assert top_share(Distribution([5.0] * 10), 0.10) == pytest.approx(0.10)


def test_top_share_single_nonzero():
    x = np.zeros(100)
    x[17] = 4.0
    assert top_share(Distribution(x), 0.01) == 1.0


def test_top_share_full_population_exact():
    rng = np.random.default_rng(9)
    x = rng.exponential(size=37)
    assert top_share(Distribution(x), 1.0) == 1.0


def test_top_share_matches_sort_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 150))
        x = rng.exponential(size=n)
        pct = float(rng.uniform(0.005, 1.0))
        k = int(np.ceil(pct * n))
        expected = float(np.sort(x)[::-1][:k].sum() / x.sum())
        assert top_share(Distribution(x), pct) == pytest.approx(expected, abs=1e-12)


@given(positive_vectors, st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_top_share_monotone_in_pct(values, p1, p2):
    lo, hi = sorted((p1, p2))
    d = Distribution(values)
    assert top_share(d, lo) <= top_share(d, hi) + 1e-12


@given(positive_vectors, st.floats(min_value=1e-3, max_value=1e3), st.floats(0.05, 1.0))
@settings(max_examples=100, deadline=None)
@example(values=[0.0, 5e-324], c=0.5, pct=0.5)  # the subnormal underflows to 0
def test_top_share_scale_invariance(values, c, pct):
    x = np.asarray(values)
    if (c * x).sum() <= 0:  # scaling can underflow subnormal inputs to an all-zero vector
        with pytest.raises(ValueError, match="zero mean"):
            top_share(Distribution(c * x), pct)
        return
    assert top_share(Distribution(c * x), pct) == pytest.approx(top_share(Distribution(x), pct), abs=1e-9)
