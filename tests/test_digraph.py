import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import digraph_from_rows, endpoint_tables
from kout import digraph
from kout.digraph import (
    KOutDigraph,
    RngSpec,
    count_multi_pairs,
    count_self_loops,
    deserialize,
    digraph_from_json,
    digraph_to_json,
    generate,
    generate_simple,
    is_simple,
    serialize,
)
from kout.errors import DigraphFormatError, RejectionLimitError


def test_single_vertex_all_self_loops():
    g = generate(1, 2, RngSpec(7))
    assert g.endpoints.tolist() == [[0, 0]]
    assert count_self_loops(g) == 2


def test_generate_deterministic():
    a = generate(3, 2, RngSpec(123, 5))
    b = generate(3, 2, RngSpec(123, 5))
    assert a == b
    c = generate(3, 2, RngSpec(123, 6))
    assert a != c  # overwhelmingly likely; frozen by the seed


def test_generate_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate(0, 2, RngSpec(1))
    with pytest.raises(ValueError):
        generate(3, 0, RngSpec(1))


def test_rngspec_validation():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(0, 2**64)


def test_endpoint_validation():
    with pytest.raises(ValueError):
        KOutDigraph(2, 2, np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        KOutDigraph(2, 2, np.array([[0, 1]]))


@pytest.mark.parametrize(
    "endpoints",
    [np.array([[1.7], [0.2]]), np.array([[True], [False]]), np.array([[1], [None]])],
    ids=["float", "bool", "object"],
)
def test_endpoints_must_be_integers(endpoints):
    with pytest.raises(ValueError, match="endpoints must be integers"):
        KOutDigraph(2, 1, endpoints)


def test_int64_endpoints_are_not_copied():
    ep = np.array([[1], [0]], dtype=np.int64)
    assert KOutDigraph(2, 1, ep).endpoints is ep
    assert KOutDigraph(2, 1, ep.astype(np.uint32)).endpoints.dtype == np.int64


def test_indegree_mean():
    # in-degree of vertex 0 is Binomial(kn, 1/n): mean k
    draws = 100_000
    total = 0
    for i in range(draws):
        g = generate(100, 2, RngSpec(2024, i))
        total += int(np.count_nonzero(g.endpoints == 0))
    assert abs(total / draws - 2.0) < 0.02


def test_uniformity_n2_k2():
    counts = Counter()
    reps = 160_000
    for i in range(reps):
        g = generate(2, 2, RngSpec(55, i))
        counts[tuple(g.endpoints.ravel().tolist())] += 1
    assert len(counts) == 16
    for pattern, c in counts.items():
        assert abs(c / reps - 1 / 16) < 0.005, pattern


def test_self_loop_and_multi_counts_hand_cases():
    g = digraph_from_rows([(0, 0), (1, 1)])  # every arc a self-loop
    assert count_self_loops(g) == 4
    assert count_multi_pairs(g) == 2
    assert not is_simple(g)

    g = digraph_from_rows([(1, 1), (0, 0)])
    assert count_self_loops(g) == 0
    assert count_multi_pairs(g) == 2
    assert not is_simple(g)

    g = digraph_from_rows([(1, 2), (0, 2), (0, 1)])
    assert count_self_loops(g) == 0
    assert count_multi_pairs(g) == 0
    assert is_simple(g)


def test_multi_pairs_k3():
    g = digraph_from_rows([(1, 1, 1), (0, 0, 2), (0, 1, 2)])
    # row 0: three equal entries = 3 pairs; row 1: one pair; row 2: none
    assert count_multi_pairs(g) == 4


def test_generate_simple_contract():
    for i in range(50):
        g, attempts = generate_simple(6, 2, RngSpec(9, i))
        assert attempts >= 1
        assert is_simple(g)


def test_generate_simple_rejects_small_n():
    with pytest.raises(ValueError):
        generate_simple(2, 2, RngSpec(0))


def test_generate_simple_cap(monkeypatch):
    # n=3, k=2 acceptance probability is 8/729; cap of 1 attempt nearly always trips
    monkeypatch.setattr(digraph, "SIMPLE_ATTEMPT_CAP", 1)
    with pytest.raises(RejectionLimitError):
        for i in range(64):
            generate_simple(3, 2, RngSpec(11, i))


def test_acceptance_probability_n3():
    # (3, 2): acceptance probability is exactly (2/9)^3 = 8/729
    accepted = 0
    trials = 20_000
    for i in range(trials):
        g = generate(3, 2, RngSpec(31, i))
        accepted += is_simple(g)
    assert abs(accepted / trials - 8 / 729) < 0.004


@settings(max_examples=60)
@given(endpoint_tables(max_n=8, max_k=3))
def test_serialize_round_trip(rows):
    g = digraph_from_rows(rows)
    assert deserialize(serialize(g)) == g
    assert digraph_from_json(digraph_to_json(g)) == g


def test_serialize_rejects_n_beyond_u32():
    # a real digraph this large cannot be allocated; the size check comes first
    stub = SimpleNamespace(n=2**32, k=1, endpoints=None)
    with pytest.raises(ValueError, match="u32"):
        serialize(stub)


def test_deserialize_truncated():
    data = serialize(generate(10, 2, RngSpec(3)))
    with pytest.raises(DigraphFormatError) as exc:
        deserialize(data[:-3])
    assert exc.value.offset == len(data) - 3


def test_deserialize_bad_magic():
    with pytest.raises(DigraphFormatError) as exc:
        deserialize(b"NOPE!" + b"\0" * 20)
    assert exc.value.offset == 0


def test_deserialize_out_of_range_entry():
    g = generate(4, 2, RngSpec(3))
    data = bytearray(serialize(g))
    data[21 + 4 * 3] = 200  # third endpoint out of range
    with pytest.raises(DigraphFormatError) as exc:
        deserialize(bytes(data))
    assert exc.value.offset == 21 + 4 * 3


def test_json_form_schema():
    g = generate(3, 2, RngSpec(8))
    obj = json.loads(digraph_to_json(g))
    assert set(obj) == {"n", "k", "endpoints"}
    assert obj["n"] == 3 and obj["k"] == 2
    assert len(obj["endpoints"]) == 3 and all(len(r) == 2 for r in obj["endpoints"])
    with pytest.raises(ValueError):
        digraph_from_json("{\"n\": 2}")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 2, "k": 1, "endpoints": [[1.7], [0.2]]}', "endpoints must be integers"),
        ('{"n": 2, "k": 1, "endpoints": [[true], [false]]}', "endpoints must be integers"),
        ('{"n": 2.0, "k": 1, "endpoints": [[1], [0]]}', "not integers"),
        ('{"n": 2, "k": "1", "endpoints": [[1], [0]]}', "not integers"),
        ('{"n": true, "k": 1, "endpoints": [[0]]}', "not integers"),
    ],
    ids=["float-endpoints", "bool-endpoints", "float-n", "string-k", "bool-n"],
)
def test_json_values_must_be_integers(text, message):
    # rejected, not truncated to integers
    with pytest.raises(ValueError, match=message):
        digraph_from_json(text)
