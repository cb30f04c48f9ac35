import pytest

from perfbench.common import median, percentile


@pytest.mark.parametrize(
    "values, q, expected",
    [
        # q*n an odd integer: the rank is q*n itself, not one above it
        (list(range(1, 11)), 0.9, 9),
        (list(range(1, 11)), 0.5, 5),
        (list(range(1, 21)), 0.95, 19),
        (list(range(1, 201)), 0.95, 190),
        (list(range(1, 11)), 0.55, 6),
        (list(range(1, 11)), 0.01, 1),
        (list(range(1, 11)), 1.0, 10),
        ([3.0, 1.0, 2.0], 0.5, 2.0),
        ([7.5], 0.95, 7.5),
    ],
)
def test_percentile_is_the_ceil_q_n_th_smallest(values, q, expected):
    assert percentile(values, q) == expected


@pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
def test_percentile_rejects_q_outside_0_1(q):
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], q)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_median():
    assert median([5, 1, 3]) == 3
    assert median([4, 1, 3, 2]) == 2.5
