import numpy as np
import pytest

from rsr.model import ComponentDistribution, SystemModel, check_coherency, check_states
from rsr.sysfn import Graph, global_connectivity, k_out_of_n


def test_k_out_of_n_evaluate_examples():
    model = SystemModel(3, 2, 2, k_out_of_n(2, 3))
    assert model.evaluate((1, 1, 0)) == 1
    assert model.evaluate((1, 0, 0)) == 0


def test_all_max_vector_gives_max_state():
    model = SystemModel(3, 3, 3, k_out_of_n(2, 3))
    assert model.evaluate((2, 2, 2)) == 2


def test_evaluate_rejects_bad_vectors():
    model = SystemModel(3, 2, 2, k_out_of_n(2, 3))
    with pytest.raises(ValueError):
        model.evaluate((1, 1))
    with pytest.raises(ValueError):
        model.evaluate((1, 1, 2))
    with pytest.raises(ValueError):
        model.evaluate((1, 1, -1))


def test_evaluation_counter():
    model = SystemModel(3, 2, 2, k_out_of_n(2, 3))
    assert model.evaluation_count == 0
    model.evaluate((1, 1, 1))
    model.evaluate((0, 0, 0))
    assert model.evaluation_count == 2
    model.reset_evaluation_count()
    assert model.evaluation_count == 0


def test_performance_range_checked():
    model = SystemModel(2, 2, 2, lambda x: 5)
    with pytest.raises(ValueError):
        model.evaluate((0, 0))


def test_phi_rows_counts_and_range_checks_like_phi():
    rows = np.array([[0, 1], [1, 1], [1, 0]])
    model = SystemModel(2, 2, 2, lambda x: 5 if x.all() else int(x[0]))
    assert model._phi_rows(rows[[0, 2]]).tolist() == [0, 1]
    assert model._phi_rows(rows[:0]).tolist() == []
    assert model.evaluation_count == 2
    with pytest.raises(ValueError) as one:
        model._phi(rows[1])
    with pytest.raises(ValueError) as batch:
        model._phi_rows(rows)
    assert str(batch.value) == str(one.value) == "performance returned 5, outside [0, 1]"

    # a batch form is range-checked the same way, naming the first bad state
    def phi(x):
        return 2 * int(x.sum()) - 1

    phi.rows = lambda x: 2 * x.sum(axis=1) - 1
    model = SystemModel(2, 2, 2, phi)
    with pytest.raises(ValueError) as one:
        model._phi(np.array([1, 1]))
    with pytest.raises(ValueError) as batch:
        model._phi_rows(np.array([[1, 0], [1, 1], [0, 0]]))  # states 1, 3, -1
    assert str(batch.value) == str(one.value) == "performance returned 3, outside [0, 1]"


def test_check_coherency_clean_on_builtin():
    graph = Graph(3, ((0, 1), (1, 2), (0, 2)))
    model = SystemModel(3, 2, 2, global_connectivity(graph))
    assert check_coherency(model, trials=1000, seed=3) == []


def test_check_coherency_flags_antimonotone():
    model = SystemModel(1, 2, 2, lambda x: 1 - int(x[0]))
    violations = check_coherency(model, trials=200, seed=5)
    assert violations
    x1, x2 = violations[0]
    assert x1[0] <= x2[0]


def test_check_coherency_rejects_zero_trials():
    model = SystemModel(1, 2, 2, lambda x: int(x[0]))
    with pytest.raises(ValueError):
        check_coherency(model, trials=0, seed=0)


def test_distribution_rows_must_sum_to_one():
    with pytest.raises(ValueError):
        ComponentDistribution(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        ComponentDistribution(np.array([[1.2, -0.2]]))
    # NaN fails every comparison: the checks must accept only in-range values
    for row in ([np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [np.inf, -np.inf], [0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            ComponentDistribution(np.array([row]))


def test_distribution_iid_shape():
    dist = ComponentDistribution.iid(4, [0.25, 0.75])
    assert dist.n_components == 4
    assert dist.n_states == 2
    assert np.allclose(dist.probs.sum(axis=1), 1.0)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, ">i4"])
def test_check_states_rejects_negative_states(dtype):
    assert check_states(np.array([0, 4, 2], dtype=dtype), 5).dtype == np.dtype(dtype)
    with pytest.raises(ValueError, match=r"\[0, 4\]"):
        check_states(np.array([0, -1, 2], dtype=dtype), 5)
    lowest = np.iinfo(np.dtype(dtype)).min
    with pytest.raises(ValueError, match=r"\[0, 4\]"):
        check_states(np.array([[3, lowest]], dtype=dtype), 5)


def test_check_states_rejects_states_from_m_up():
    assert check_states(np.array([0, 4], dtype=np.uint8), 5).dtype == np.uint8
    for bad in (5, 255):
        with pytest.raises(ValueError, match=r"\[0, 4\]"):
            check_states(np.array([0, bad], dtype=np.uint8), 5)
    with pytest.raises(ValueError):
        check_states(np.array([2], dtype=np.int64), 2)


def test_check_states_when_m_exceeds_the_signed_range():
    # every non-negative int8 is a valid state out of 300, and -1 still is not
    assert check_states(np.array([127, 0], dtype=np.int8), 300).dtype == np.int8
    with pytest.raises(ValueError):
        check_states(np.array([127, -1], dtype=np.int8), 300)
