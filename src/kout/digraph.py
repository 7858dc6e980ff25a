"""Uniform random k-out digraphs and their wire formats.

A k-out digraph on ``n`` vertices is a dense table: row ``v`` holds the
endpoints of the ``k`` labeled arcs leaving ``v``.  Vertex ids are 0-based
everywhere (internally and on the wire); the self-loop / multi-arc statistics
treat row ``v`` entries equal to ``v`` as self-loops and equal pairs within a
row as parallel arcs.

Randomness: :class:`RngSpec` names a PCG64 generator seeded from
``numpy.random.SeedSequence(seed, spawn_key=(stream,))``.  Distinct streams
give independent generators for parallel replicates; the same ``(seed,
stream)`` always reproduces the same digraph within this implementation.

Every integer argument of the package (sizes, counts, seeds, streams) goes
through ``_check_int``: a Python or numpy integer, not a bool, at or above its
minimum, or ``ValueError`` naming the argument before anything is drawn.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DigraphFormatError, RejectionLimitError

__all__ = [
    "RngSpec",
    "KOutDigraph",
    "generate",
    "generate_simple",
    "count_self_loops",
    "count_multi_pairs",
    "is_simple",
    "serialize",
    "deserialize",
    "digraph_to_json",
    "digraph_from_json",
]

MAGIC = b"KOUT1"
SIMPLE_ATTEMPT_CAP = 1_000_000


def _check_int(name: str, value, minimum: int = 0, bits: int | None = None) -> int:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a Python or
    numpy integer, not a bool, at or above ``minimum`` (and below ``2**bits``
    when ``bits`` is given); return it as a plain ``int``."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if bits is not None:
        if not (is_int and minimum <= value < 2**bits):
            raise ValueError(f"{name} must be a {bits}-bit unsigned integer, got {value!r}")
    elif not is_int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    elif value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream index; the replicate index goes in ``stream``."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        _check_int("seed", self.seed, bits=64)
        _check_int("stream", self.stream, bits=64)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(eq=False)
class KOutDigraph:
    """n vertices, k labeled out-arcs each; ``endpoints[v, i]`` in ``[0, n)``.

    ``endpoints`` is stored in the index dtype of ``_index_dtype(n, k)``:
    int32 on tables with 2**16 <= n * k < 2**31 (8 bytes a vertex at k = 2
    instead of 16), int64 otherwise.  An input already in that dtype is kept,
    not copied.  A key or sum built from endpoint values must be computed in
    int64: ``head * n + tail`` wraps in 32 bits once n > 46,341.

    Treated as immutable after construction.
    """

    n: int
    k: int
    endpoints: np.ndarray

    def __post_init__(self) -> None:
        _check_int("n", self.n, 1)
        _check_int("k", self.k, 1)
        ep = np.asarray(self.endpoints)
        if ep.dtype.kind not in "iu":
            raise ValueError(f"endpoints must be integers, got dtype {ep.dtype}")
        if ep.shape != (self.n, self.k):
            raise ValueError(f"endpoints shape {ep.shape} != ({self.n}, {self.k})")
        # checked before the cast, which could wrap an out-of-range value
        if ep.min() < 0 or ep.max() >= self.n:
            raise ValueError("endpoint outside [0, n)")
        ep = ep.astype(_index_dtype(self.n, self.k), copy=False)
        object.__setattr__(self, "endpoints", ep)

    @cached_property
    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of the reversed digraph: row v lists the tails of v's in-arcs.

        Built on first use and kept, since the digraph does not change.  Both
        arrays are int64: the pair search gathers through them on every step.
        """
        indptr = _row_pointers(_indegree(self.endpoints))
        return indptr, _reverse_tails(self.endpoints, np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KOutDigraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and np.array_equal(self.endpoints, other.endpoints)
        )


def _index_dtype(n: int, k: int) -> np.dtype:
    """Storage type of vertex and arc index arrays of an n x k out-table:
    int32 when every arc index fits (n * k < 2**31) and the table is large
    enough to gain from it (n * k >= 2**16), int64 otherwise.  Below that
    size numpy's casts of int32 index arrays to intp cost more than the
    smaller arrays save (see the CHANGES.md entry of ``BENCH_16.json``).
    Only storage: pair keys ``a * m + b`` and counters stay int64."""
    return np.dtype(np.int32 if 2**16 <= n * k < 2**31 else np.int64)


def _indegree(endpoints: np.ndarray) -> np.ndarray:
    """(n,) in-degree of every vertex of the out-table."""
    return np.bincount(endpoints.ravel(), minlength=endpoints.shape[0])


def _row_pointers(counts: np.ndarray, dtype=np.int64) -> np.ndarray:
    """CSR row pointers, as ``dtype``, of rows holding ``counts`` entries."""
    indptr = np.zeros(counts.size + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _reverse_tails(endpoints: np.ndarray, dtype, rows: np.ndarray | None = None) -> np.ndarray:
    """Tails of the reversed out-table, as ``dtype``, grouped by head and
    ascending in each row; its row pointers are
    ``_row_pointers(_indegree(endpoints))``.  Given the vertex ids ``rows``,
    only the arcs out of those rows are kept, and the row pointers
    are those of the in-degrees from them.  Sorting the keys
    ``head << s | tail`` (s the bit length of n - 1) with numpy's vectorized
    sort beats scipy's CSR -> CSC counting sort at n = 10^6 (whose scattered
    writes miss the cache) and costs far less per call at small n.  The keys
    are int64 whatever the table's dtype, since they need up to 2 * s bits,
    and fit while n <= 2**31.  A shift and a mask in place of keys
    ``head * n + tail`` and their remainder order the rows the same way for
    less (``BENCH_22.json``, ``reverse_tails_1e6``)."""
    n = endpoints.shape[0]
    s = (n - 1).bit_length()
    if rows is None:
        keys = np.left_shift(endpoints, s, dtype=np.int64)
        keys |= np.arange(n)[:, None]
    else:
        keys = np.left_shift(endpoints.take(rows, axis=0), s, dtype=np.int64)
        keys |= rows[:, None]
    keys = keys.ravel()
    keys.sort()
    tails = keys if keys.dtype == dtype else np.empty(keys.size, dtype=dtype)
    return np.bitwise_and(keys, (1 << s) - 1, out=tails, casting="unsafe")


def _random_endpoints(n: int, k: int, gen: np.random.Generator) -> np.ndarray:
    return gen.integers(0, n, size=(n, k), dtype=np.int64)


def generate(n: int, k: int, rng: RngSpec) -> KOutDigraph:
    """Draw every arc endpoint i.i.d. uniform on [0, n), straight into the
    index dtype: numpy draws a range below 2**32 by one 32-bit path for int32
    and int64 output alike, so the values equal an int64 draw's."""
    _check_int("n", n, 1)
    _check_int("k", k, 1)
    ep = rng.generator().integers(0, n, size=(n, k), dtype=_index_dtype(n, k))
    return KOutDigraph(n, k, ep)


def generate_simple(n: int, k: int, rng: RngSpec) -> tuple[KOutDigraph, int]:
    """Rejection-sample a digraph with no self-loops or repeated row entries.

    Uniform over simple k-out digraphs.  The acceptance probability tends to
    exp(-k - k(k-1)/2), so the cap ``SIMPLE_ATTEMPT_CAP`` (read at call time)
    fails loudly for k beyond ~5 instead of hanging.
    """
    _check_int("k", k, 1)
    _check_int("n", n, k + 1)  # a simple row needs k endpoints other than v
    gen = rng.generator()
    for attempt in range(1, SIMPLE_ATTEMPT_CAP + 1):
        g = KOutDigraph(n, k, _random_endpoints(n, k, gen))
        if is_simple(g):
            return g, attempt
    raise RejectionLimitError(
        f"no simple digraph with n={n}, k={k}", attempts=SIMPLE_ATTEMPT_CAP
    )


def count_self_loops(g: KOutDigraph) -> int:
    """Number of arcs (v, i) whose endpoint is v itself."""
    return int((g.endpoints == np.arange(g.n)[:, None]).sum())


def count_multi_pairs(g: KOutDigraph) -> int:
    """Number of within-row label pairs i < j with equal endpoints."""
    total = 0
    for i in range(g.k):
        for j in range(i + 1, g.k):
            total += int((g.endpoints[:, i] == g.endpoints[:, j]).sum())
    return total


def is_simple(g: KOutDigraph) -> bool:
    return count_self_loops(g) == 0 and count_multi_pairs(g) == 0


def serialize(g: KOutDigraph) -> bytes:
    """Binary form: magic ``KOUT1``, little-endian u64 n, u64 k, n*k u32 endpoints."""
    if g.n > 2**32 - 1:
        raise ValueError(f"n={g.n} does not fit the u32 endpoint format (max 2**32 - 1)")
    header = MAGIC + struct.pack("<QQ", g.n, g.k)
    return header + g.endpoints.astype("<u4").tobytes()


def deserialize(data: bytes) -> KOutDigraph:
    """Parse the binary form, reporting the byte offset on any malformation."""
    if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        raise DigraphFormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    if len(data) < len(MAGIC) + 16:
        raise DigraphFormatError("truncated header", offset=len(data))
    n, k = struct.unpack_from("<QQ", data, len(MAGIC))
    if n < 1 or k < 1:
        raise DigraphFormatError(f"invalid sizes n={n}, k={k}", offset=len(MAGIC))
    body_start = len(MAGIC) + 16
    expected = body_start + 4 * n * k
    if len(data) != expected:
        raise DigraphFormatError(
            f"expected {expected} bytes for n={n}, k={k}, got {len(data)}",
            offset=min(len(data), expected),
        )
    ep = np.frombuffer(data, dtype="<u4", offset=body_start)  # the digraph casts it
    bad = np.flatnonzero(ep >= n)
    if bad.size:
        raise DigraphFormatError(
            f"endpoint {int(ep[bad[0]])} out of range for n={n}",
            offset=body_start + 4 * int(bad[0]),
        )
    return KOutDigraph(int(n), int(k), ep.reshape(int(n), int(k)))


def digraph_to_json(g: KOutDigraph) -> str:
    return json.dumps({"n": g.n, "k": g.k, "endpoints": g.endpoints.tolist()})


def digraph_from_json(text: str) -> KOutDigraph:
    try:
        obj = json.loads(text)
        n, k = obj["n"], obj["k"]
        if type(n) is not int or type(k) is not int:
            raise ValueError(f"malformed digraph JSON: n={n!r}, k={k!r} are not integers")
        return KOutDigraph(n, k, np.asarray(obj["endpoints"]))
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed digraph JSON: {exc}") from exc
