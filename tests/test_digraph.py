import hashlib
import json
import struct
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csr_matrix

from conftest import digraph_from_rows, endpoint_tables
from kout import digraph
from kout.digraph import (
    MAGIC,
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
    _indegree,
    _reverse_tails,
    _row_pointers,
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


@pytest.mark.parametrize(
    "n, k", [(32767, 2), (32768, 2), (21845, 3), (21846, 3), (65535, 1), (65537, 1), (99991, 3)]
)
def test_generate_draws_the_int64_values_in_the_index_dtype(n, k):
    # n * k = 2**16 is where the index dtype turns from int64 to int32
    spec = RngSpec(41, 3)
    g = generate(n, k, spec)
    want = spec.generator().integers(0, n, size=(n, k), dtype=np.int64)
    assert g.endpoints.dtype == (np.int32 if n * k >= 2**16 else np.int64)
    assert np.array_equal(g.endpoints, want)


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
    "n, k", [(3.0, 1), (True, 1), (3, 1.0), (3, np.bool_(True)), (1.5, 0), (2, 2.5)]
)
def test_sizes_must_be_integers(n, k):
    # the first argument that is not an integer is the one reported
    bad, value = ("k", k) if type(n) is int else ("n", n)
    with pytest.raises(ValueError) as exc:
        KOutDigraph(n, k, np.zeros((3, 1), dtype=np.int64))
    assert str(exc.value) == f"{bad} must be an integer, got {value!r}"
    # the same values as a seed and a stream
    with pytest.raises(ValueError) as exc:
        RngSpec(n, k)
    name = {"n": "seed", "k": "stream"}[bad]
    assert str(exc.value) == f"{name} must be a 64-bit unsigned integer, got {value!r}"
    # numpy integer scalars are integers
    assert KOutDigraph(np.int64(3), np.int32(1), np.zeros((3, 1), dtype=np.int64)).n == 3
    assert RngSpec(np.uint64(3), np.int64(1)) == RngSpec(3, 1)


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


def test_int32_endpoints_are_not_copied_on_large_tables():
    # n * k = 2^16: the smallest table stored as int32
    n = 2**15
    ep = np.random.default_rng(5).integers(0, n, size=(n, 2), dtype=np.int64)
    narrow = ep.astype(np.int32)
    assert KOutDigraph(n, 2, narrow).endpoints is narrow
    cast = KOutDigraph(n, 2, ep).endpoints
    assert cast.dtype == np.int32 and np.array_equal(cast, ep)


def test_out_of_range_endpoint_is_refused_before_the_int32_cast():
    # 2^32 + 1 would wrap to the valid endpoint 1 in int32
    n = 2**15
    ep = np.zeros((n, 2), dtype=np.int64)
    ep[3, 1] = 2**32 + 1
    with pytest.raises(ValueError, match="endpoint outside"):
        KOutDigraph(n, 2, ep)


def _tables():
    gen = np.random.default_rng(31)
    return [
        gen.integers(0, 50, size=(50, 3)),
        gen.integers(0, 1000, size=(1000, 2)),
        np.zeros((1, 2), dtype=np.int64),  # n = 1: two self-loops
        np.full((20, 2), 7),  # every arc into one vertex
        gen.permutation(100)[:, None],  # k = 1: a permutation
    ]


def _read_back(table: np.ndarray, n: int) -> list[list[int]]:
    """Each vertex's tails, read from its row of the reverse table and the
    continuation rows its links lead to, checking the layout on the way:
    row n is all n, padding (n) only ends a row, a row that links on is
    full, and every continuation row is read exactly once."""
    rows, slots = table.tolist(), table.shape[1] - 1
    assert rows[n] == [n] * (slots + 1)
    linked, out = [], []
    for v in range(n):
        tails, r = [], v
        while True:
            entries, link = rows[r][:slots], rows[r][slots]
            m = entries.index(n) if n in entries else slots
            assert entries[m:] == [n] * (slots - m), (v, r)
            tails += entries[:m]
            if link == n:
                break
            assert m == slots and link > n, (v, r)
            linked.append(link)
            r = link
        out.append(tails)
    assert sorted(linked) == list(range(n + 1, len(rows)))
    return out


def _csr_of(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """int64 CSR row pointers and entries of the given rows."""
    indptr = _row_pointers(np.array([len(r) for r in lists], dtype=np.int64))
    return indptr, np.array([t for r in lists for t in r], dtype=np.int64)


@pytest.mark.parametrize(
    "endpoints", _tables(), ids=["random-k3", "random-k2", "n1", "one-head", "permutation"]
)
def test_reverse_csr_matches_scipy_csc(endpoints):
    # the reverse CSR as ``_reverse_tails`` sorts it and as the table holds it
    n, k = endpoints.shape
    indptr = _row_pointers(_indegree(endpoints))
    # column v of the table's CSC lists the tails of v's in-arcs, ascending
    csc = csr_matrix(
        (np.ones(n * k, dtype=np.int8), endpoints.ravel(), np.arange(0, n * k + 1, k)),
        shape=(n, n),
    ).tocsc()
    assert np.array_equal(indptr, csc.indptr)
    for dtype in (np.int32, np.int64):
        tails = _reverse_tails(endpoints, dtype)
        assert tails.dtype == dtype
        assert np.array_equal(tails, csc.indices)
    table, widest = KOutDigraph(n, k, endpoints).reverse_table
    assert table.shape[1] == 3 * k + 1 and table.dtype == digraph._index_dtype(*table.shape)
    got = _read_back(table, n)
    assert [len(r) for r in got] == np.diff(csc.indptr).tolist()
    assert [t for r in got for t in r] == csc.indices.tolist()
    # a vertex of in-degree d takes ceil(d / 3k) rows of 3k + 1 entries
    chain = -(-np.diff(indptr).clip(1) // (3 * k))
    assert table.shape[0] == n + 1 + int((chain - 1).sum())
    assert widest == (3 * k + 1) * int(chain.max())


def test_one_head_table_is_a_chain_of_continuation_rows():
    # 40 in-arcs of vertex 7 at k = 2 fill its row and six continuation rows
    table, widest = KOutDigraph(20, 2, np.full((20, 2), 7)).reverse_table
    assert table.shape == (27, 7) and widest == 49
    assert table[7].tolist() == [0, 0, 1, 1, 2, 2, 21]
    assert table[21:, 6].tolist() == [22, 23, 24, 25, 26, 20]
    assert table[26].tolist() == [18, 18, 19, 19, 20, 20, 20]


def test_reverse_csr_keys_do_not_wrap_on_an_int32_table():
    # n^2 > 2^31, so keys head * n + tail built in int32 would wrap
    n, k = 50_000, 2
    endpoints = generate(n, k, RngSpec(22, 1)).endpoints
    assert endpoints.dtype == np.int32
    # a stable sort by head keeps the tails of each row ascending
    want = np.argsort(endpoints.ravel(), kind="stable") // k
    for dtype in (np.int32, np.int64):
        tails = _reverse_tails(endpoints, dtype)
        assert tails.dtype == dtype and np.array_equal(tails, want)
    table, _ = KOutDigraph(n, k, endpoints).reverse_table
    assert table.dtype == np.int32
    indptr, tails = _csr_of(_read_back(table, n))
    assert np.array_equal(indptr, _row_pointers(_indegree(endpoints)))
    assert np.array_equal(tails, want)


@pytest.mark.parametrize("n, k", [(1, 1), (7, 3), (50_000, 2)])
def test_reverse_tails_of_chosen_rows_keep_only_their_arcs(n, k):
    endpoints = generate(n, k, RngSpec(24, n)).endpoints
    gen = np.random.default_rng(n)
    for rows in (np.arange(0), np.flatnonzero(gen.random(n) < 0.7), np.arange(n)):
        rows = rows.astype(endpoints.dtype)
        for dtype in (np.int32, np.int64):
            tails = _reverse_tails(endpoints, dtype, rows)
            full = _reverse_tails(endpoints, dtype)
            assert tails.dtype == dtype
            assert np.array_equal(tails, full[np.isin(full, rows)])
            # its row pointers are those of the in-degrees from the rows
            counts = np.bincount(endpoints[rows].ravel(), minlength=n)
            assert tails.size == counts.sum()


def test_reverse_csr_bytes_are_pinned_at_100k():
    # the input of every pair search on the digraph of perfbench's distance-1e5:
    # the int64 CSR read back from the table is the one the search used to read
    g = generate(100_000, 2, RngSpec(150406240, 0))
    table, widest = g.reverse_table
    assert table.shape == (100_453, 7) and table.dtype == np.int32 and widest == 14
    indptr, tails = _csr_of(_read_back(table, g.n))
    digest = hashlib.sha256(indptr.tobytes() + tails.tobytes()).hexdigest()
    assert digest == "983001a21ac6396386504cba494b6beb75c562b25c2bea65973847a2bb9333e9"


def test_index_dtype_is_int32_on_large_tables_while_every_arc_index_fits():
    assert digraph._index_dtype(2**15 - 1, 2) == np.int64
    assert digraph._index_dtype(2**15, 2) == np.int32
    assert digraph._index_dtype(10**6, 2) == np.int32
    assert digraph._index_dtype(2**30 - 1, 2) == np.int32
    assert digraph._index_dtype(2**30, 2) == np.int64
    assert digraph._index_dtype(2**31, 1) == np.int64


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


def test_generate_simple_draws_the_int64_values_in_the_index_dtype():
    # n * k = 2**16: the attempts are drawn as int32, and each must equal the
    # int64 draw, so the accepted digraph and the attempt count are the same
    n, k, spec = 2**15, 2, RngSpec(20261020, 2)
    g, attempts = generate_simple(n, k, spec)
    assert g.endpoints.dtype == np.int32 and attempts == 5
    gen = spec.generator()
    for attempt in range(1, attempts + 1):
        want = gen.integers(0, n, size=(n, k), dtype=np.int64)
        assert is_simple(KOutDigraph(n, k, want)) == (attempt == attempts)
    assert np.array_equal(g.endpoints, want)


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


def test_serialize_round_trip_keeps_int32_storage():
    g = generate(40_000, 2, RngSpec(3))
    for back in (deserialize(serialize(g)), digraph_from_json(digraph_to_json(g))):
        assert back == g and back.endpoints.dtype == np.int32


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


def test_deserialize_truncated_header():
    with pytest.raises(DigraphFormatError, match="truncated header") as exc:
        deserialize(MAGIC + b"\0\0\0")
    assert exc.value.offset == len(MAGIC) + 3


@pytest.mark.parametrize("n, k", [(0, 2), (3, 0)])
def test_deserialize_invalid_sizes(n, k):
    with pytest.raises(DigraphFormatError, match=f"invalid sizes n={n}, k={k}") as exc:
        deserialize(MAGIC + struct.pack("<QQ", n, k))
    assert exc.value.offset == len(MAGIC) == 5


def test_eq_defers_to_other_types():
    g = generate(3, 2, RngSpec(1))
    assert g.__eq__(object()) is NotImplemented
    assert g != "not a digraph" and g == generate(3, 2, RngSpec(1))


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
        ('{"n": 2, "k": 1, "endpoints": [[0], [true]]}', "malformed.*must be integers"),
        ('{"n": 2, "k": 1, "endpoints": [[0], [1, 2]]}', "malformed.*rows must hold k=1"),
        ('{"n": 2, "k": 1, "endpoints": [[0], 1]}', "malformed.*rows must hold k=1"),
    ],
    ids=[
        "float-endpoints", "bool-endpoints", "float-n", "string-k", "bool-n",
        "bool-among-integers", "ragged-rows", "row-not-a-list",
    ],
)
def test_json_values_must_be_integers(text, message):
    # rejected, not truncated to integers
    with pytest.raises(ValueError, match=message):
        digraph_from_json(text)
