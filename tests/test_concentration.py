import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citeconc.concentration import gini, top_share


def gini_pairwise(values):
    """O(n^2) definition: mean absolute pairwise difference over twice the mean."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))


positive_vectors = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=60,
).filter(lambda v: sum(v) > 0)


def test_gini_perfect_equality():
    assert gini([1, 1, 1, 1]) == 0.0


def test_gini_single_nonzero():
    assert gini([0, 0, 0, 1]) == 0.75


def test_gini_errors():
    with pytest.raises(ValueError, match="empty"):
        gini([])
    with pytest.raises(ValueError, match="zero mean"):
        gini([0.0, 0.0])
    with pytest.raises(ValueError, match="non-negative"):
        gini([-1.0, 2.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        gini(np.ones((2, 2)))


def test_gini_matches_pairwise_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 201))
        x = rng.exponential(scale=10.0, size=n)
        x[rng.random(n) < 0.3] = 0.0
        if x.sum() == 0:
            x[0] = 1.0
        assert gini(x) == pytest.approx(gini_pairwise(x), abs=1e-12)


@given(positive_vectors, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
@example(values=[0.0, 5e-324], c=0.5)  # the subnormal underflows to 0
def test_gini_scale_invariance(values, c):
    x = np.asarray(values)
    if (c * x).sum() <= 0:  # scaling can underflow subnormal inputs to an all-zero vector
        with pytest.raises(ValueError, match="zero mean"):
            gini(c * x)
        return
    assert gini(c * x) == pytest.approx(gini(x), abs=1e-9)


@given(positive_vectors)
@settings(max_examples=200, deadline=None)
def test_gini_bounds(values):
    g = gini(values)
    assert 0 <= g < 1


@given(positive_vectors)
@settings(max_examples=200, deadline=None)
def test_zero_padding_strictly_increases_gini(values):
    g0 = gini(values)
    g1 = gini(values + [0.0])
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
    assert gini(y) <= gini(x) + 1e-12


def test_top_share_equal_values():
    assert top_share([5.0] * 10, 0.10) == pytest.approx(0.10)


def test_top_share_single_nonzero():
    x = np.zeros(100)
    x[17] = 4.0
    assert top_share(x, 0.01) == 1.0


def test_top_share_full_population_exact():
    rng = np.random.default_rng(9)
    x = rng.exponential(size=37)
    assert top_share(x, 1.0) == 1.0


def test_top_share_errors():
    with pytest.raises(ValueError, match="pct"):
        top_share([1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="pct"):
        top_share([1.0, 2.0], 1.5)
    with pytest.raises(ValueError, match="non-negative"):
        top_share([-1.0, 2.0], 0.5)


def test_top_share_matches_sort_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 150))
        x = rng.exponential(size=n)
        pct = float(rng.uniform(0.005, 1.0))
        k = int(np.ceil(pct * n))
        expected = float(np.sort(x)[::-1][:k].sum() / x.sum())
        assert top_share(x, pct) == pytest.approx(expected, abs=1e-12)


@given(positive_vectors, st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_top_share_monotone_in_pct(values, p1, p2):
    lo, hi = sorted((p1, p2))
    assert top_share(values, lo) <= top_share(values, hi) + 1e-12


@given(positive_vectors, st.floats(min_value=1e-3, max_value=1e3), st.floats(0.05, 1.0))
@settings(max_examples=100, deadline=None)
@example(values=[0.0, 5e-324], c=0.5, pct=0.5)  # the subnormal underflows to 0
def test_top_share_scale_invariance(values, c, pct):
    x = np.asarray(values)
    if (c * x).sum() <= 0:  # scaling can underflow subnormal inputs to an all-zero vector
        with pytest.raises(ValueError, match="zero mean"):
            top_share(c * x, pct)
        return
    assert top_share(c * x, pct) == pytest.approx(top_share(x, pct), abs=1e-9)
