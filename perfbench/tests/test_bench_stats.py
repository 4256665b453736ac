import pytest

from stats import min_samples, percentile


def test_percentile_interpolates_between_closest_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([1.0, 2.0, 3.0, 10.0], 50) == 2.5


def test_percentile_of_one_sample_is_that_sample():
    assert percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("values,q", [([], 50), ([1.0], -1), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


def test_min_samples_leaves_ten_beyond_the_percentile():
    assert min_samples(50) == 20
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    for q in (50, 90, 95, 99):
        n = min_samples(q)
        assert n * (100 - q) / 100 >= 10
        assert (n - 1) * (100 - q) / 100 < 10
    with pytest.raises(ValueError):
        min_samples(100)
