import numpy as np
import pytest

from kout import surjection
from kout.decompose import one_in_core
from kout.digraph import KOutDigraph, RngSpec
from kout.errors import InvariantViolationError, RejectionLimitError
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


@pytest.mark.parametrize("mapping", [[[0, 2], [2, 0]], [[-1, 0], [0, -1]]])
def test_is_surjective_rejects_values_outside_range(mapping):
    # two distinct values, but 1 never appears
    s = surjection.SurjectionSample(m=2, k=2, mapping=np.array(mapping), retries=1)
    assert not s.is_surjective()


def test_arc_leaving_core_raises(monkeypatch):
    # a core mask that loses one core vertex lets an arc point outside the
    # kept set; the check must survive ``python -O``, so it is no assert
    core_mask = surjection._core_mask

    def drop_first(endpoints, indeg):
        core, rounds = core_mask(endpoints, indeg)
        core[np.argmax(core)] = False
        return core, rounds

    monkeypatch.setattr(surjection, "_core_mask", drop_first)
    monkeypatch.setattr(surjection, "RETRY_CAP", 200)
    with pytest.raises(InvariantViolationError, match=r"attempt \d+: .*m=5, n=7"):
        sample_surjection(5, 2, RngSpec(3))


class _CountingRng:
    """An ``RngSpec`` stand-in that counts the n-vertex tables drawn from
    its generator."""

    def __init__(self, spec: RngSpec):
        self.spec = spec
        self.tables = 0

    def generator(self):
        self.gen = self.spec.generator()
        return self

    def integers(self, low, high, size, **kw):
        self.tables += size[0] // high
        return self.gen.integers(low, high, size=size, **kw)


# m = 1000, k = 2 runs blocks of 6 tables; these streams of the golden seed
# accept attempts 123 and 11
GOLDEN_SEED = 20260809


@pytest.mark.parametrize("cap", [1, 5, 8, 13])
def test_retry_cap_counts_tables_inside_blocks(monkeypatch, cap):
    monkeypatch.setattr(surjection, "RETRY_CAP", cap)
    rng = _CountingRng(RngSpec(GOLDEN_SEED, 0))
    with pytest.raises(RejectionLimitError) as info:
        sample_surjection(1000, 2, rng)
    assert info.value.attempts == cap
    assert rng.tables == cap


def test_retry_cap_boundary_is_the_accepted_attempt(monkeypatch):
    spec = RngSpec(GOLDEN_SEED, 2)
    want = sample_surjection(1000, 2, spec)
    r = want.retries
    assert r == 11  # not a multiple of the block size 6
    monkeypatch.setattr(surjection, "RETRY_CAP", r)
    rng = _CountingRng(spec)
    got = sample_surjection(1000, 2, rng)
    assert got.retries == r and np.array_equal(got.mapping, want.mapping)
    assert rng.tables == r
    monkeypatch.setattr(surjection, "RETRY_CAP", r - 1)
    with pytest.raises(RejectionLimitError) as info:
        sample_surjection(1000, 2, spec)
    assert info.value.attempts == r - 1


def test_block_tables_after_the_accepted_one_are_discarded():
    # the draw is the first table in stream order whose core has size m
    spec = RngSpec(GOLDEN_SEED, 2)
    s = sample_surjection(1000, 2, spec)
    n = 1256  # ceil(1000 / nu_2)
    gen = spec.generator()
    for attempt in range(1, s.retries + 1):
        endpoints = gen.integers(0, n, size=(n, 2))
        core = one_in_core(KOutDigraph(n, 2, endpoints))
        assert (core.size == 1000) == (attempt == s.retries)
    rank = np.full(n, -1)
    rank[core] = np.arange(1000)
    assert np.array_equal(rank[endpoints[core]], s.mapping)
