import numpy as np
import pytest

from rsr.model import ComponentDistribution, SystemModel
from hypothesis import given, settings
from hypothesis import strategies as st

from rsr.oracle import (
    crude_monte_carlo,
    dominates,
    exact_probabilities,
    one_hot,
    one_hot_violations,
)
from rsr.sysfn import k_out_of_n


def test_series_exact(series3):
    model, dist = series3
    res = exact_probabilities(model, dist)
    # series system: P(all up) = 0.9**3
    assert res.cumulative[0] == pytest.approx(1.0 - 0.729, abs=1e-15)
    assert res.cumulative[-1] == pytest.approx(1.0, abs=1e-15)
    assert res.state_count.sum() == 2**3
    assert list(res.state_count) == [7, 1]


def test_parallel_exact(parallel3):
    model, dist = parallel3
    res = exact_probabilities(model, dist)
    assert res.cumulative[0] == pytest.approx(0.1**3, abs=1e-18)


def test_exact_multistate_counts():
    model = SystemModel(2, 3, 3, k_out_of_n(2, 2))
    dist = ComponentDistribution.iid(2, [1 / 3, 1 / 3, 1 / 3])
    res = exact_probabilities(model, dist)
    # min(x0, x1) over a 3x3 grid: 5 vectors at 0, 3 at 1, 1 at 2
    assert list(res.state_count) == [5, 3, 1]
    assert res.cumulative[0] == pytest.approx(5 / 9)


def test_enumeration_guard():
    model = SystemModel(30, 4, 2, k_out_of_n(1, 30))
    dist = ComponentDistribution.iid(30, [0.25] * 4)
    with pytest.raises(ValueError):
        exact_probabilities(model, dist)


def test_dominates_scalar():
    assert dominates((1, 2), (1, 2))
    assert dominates((0, 2), (1, 2))
    assert not dominates((2, 0), (1, 2))
    with pytest.raises(ValueError):
        dominates((1,), (1, 2))


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_one_hot_row_sums(n, m, seed):
    # a sample row holds one 1; a lower reference row x_n + 1 (states 0..x_n)
    # and an upper one M - x_n (states x_n..M-1)
    x = np.random.default_rng(seed).integers(0, m, size=n).tolist()
    assert [sum(row) for row in one_hot(x, m, "sample")] == [1] * n
    assert [sum(row) for row in one_hot(x, m, "lower")] == [v + 1 for v in x]
    assert [sum(row) for row in one_hot(x, m, "upper")] == [m - v for v in x]


def test_one_hot_edge_cases_and_bad_input():
    assert one_hot((0, 0, 0), 1, "sample") == [[1], [1], [1]]
    assert one_hot((4, 4), 5, "lower") == one_hot((0, 0), 5, "upper") == [[1] * 5] * 2
    assert one_hot((0, 0), 5, "lower") == [[1, 0, 0, 0, 0]] * 2
    # each row holds one 1, so violations and agreements add up to N
    sample, region = one_hot((3, 0, 2), 4, "sample"), one_hot((1, 2, 2), 4, "lower")
    agreements = sum(h * r for hs, rs in zip(sample, region) for h, r in zip(hs, rs))
    assert one_hot_violations(sample, region) == 3 - agreements == 1
    with pytest.raises(ValueError):
        one_hot((5,), 5, "sample")
    with pytest.raises(ValueError):
        one_hot((-1,), 5, "lower")
    with pytest.raises(ValueError):
        one_hot((1,), 5, "lower_ref")
    with pytest.raises(ValueError):
        one_hot_violations(one_hot((1,), 3, "sample"), one_hot((1, 1), 3, "lower"))


def test_crude_mc_converges(series3):
    model, dist = series3
    p_hat, c = crude_monte_carlo(model, dist, 20_000, seed=3, threshold=0)
    exact = 1.0 - 0.729
    assert abs(p_hat - exact) < 4 * c * p_hat
    assert c == pytest.approx(np.sqrt((1 - p_hat) / (20_000 * p_hat)))


def test_crude_mc_zero_hits():
    model = SystemModel(2, 2, 2, k_out_of_n(2, 2))
    dist = ComponentDistribution.iid(2, [0.0, 1.0])
    p_hat, c = crude_monte_carlo(model, dist, 100, seed=1, threshold=0)
    assert p_hat == 0.0
    assert c is None


@pytest.mark.parametrize("threshold", [5, -1])
def test_crude_mc_rejects_threshold_out_of_range(series3, threshold):
    model, dist = series3
    with pytest.raises(ValueError, match="threshold must lie in"):
        crude_monte_carlo(model, dist, 100, seed=1, threshold=threshold)


def test_evaluate_and_crude_mc_never_call_a_batch_form():
    # the per-row path is the independent check of every batch form
    inner = k_out_of_n(2, 3)

    def phi(x):
        return inner(x)

    def rows(x):
        raise AssertionError("the batch form was called")

    phi.rows = rows
    model = SystemModel(3, 2, 2, phi)
    assert model.evaluate((1, 1, 0)) == 1
    dist = ComponentDistribution.iid(3, [0.3, 0.7])
    p_hat, _ = crude_monte_carlo(model, dist, 500, 1, 0)
    assert p_hat == crude_monte_carlo(SystemModel(3, 2, 2, inner), dist, 500, 1, 0)[0]
    assert model.evaluation_count == 501
