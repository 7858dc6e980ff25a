import numpy as np
import pytest

from kout import surjection
from kout.digraph import RngSpec
from kout.errors import RejectionLimitError
from kout.surjection import sample_surjection


def test_m1_trivial():
    s = sample_surjection(1, 2, RngSpec(3))
    assert s.mapping.tolist() == [[0, 0]]
    assert s.retries >= 1
    assert s.is_surjective()


def test_every_output_surjective():
    for i in range(200):
        s = sample_surjection(3, 2, RngSpec(12, i))
        assert s.mapping.shape == (3, 2)
        assert s.is_surjective()
        assert s.mapping.min() >= 0 and s.mapping.max() < 3


def test_surjective_table_has_min_indegree_one():
    # surjectivity here is exactly "every value appears", per k-out table
    for i in range(50):
        s = sample_surjection(4, 2, RngSpec(99, i))
        counts = np.bincount(s.mapping.ravel(), minlength=4)
        assert (counts >= 1).all()


def test_deterministic():
    a = sample_surjection(5, 2, RngSpec(7, 1))
    b = sample_surjection(5, 2, RngSpec(7, 1))
    assert np.array_equal(a.mapping, b.mapping) and a.retries == b.retries


def test_validates_inputs():
    with pytest.raises(ValueError):
        sample_surjection(0, 2, RngSpec(1))
    with pytest.raises(ValueError):
        sample_surjection(3, 1, RngSpec(1))


def test_retry_cap(monkeypatch):
    monkeypatch.setattr(surjection, "RETRY_CAP", 1)
    with pytest.raises(RejectionLimitError):
        # cap of 1 trips quickly across seeds: P(hit on first try) is well below 1
        for i in range(200):
            sample_surjection(2, 2, RngSpec(1, i))
