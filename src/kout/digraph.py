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
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

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


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream index; the replicate index goes in ``stream``."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (0 <= self.stream < 2**64):
            raise ValueError(f"stream must be a 64-bit unsigned integer, got {self.stream!r}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(eq=False)
class KOutDigraph:
    """n vertices, k labeled out-arcs each; ``endpoints[v, i]`` in ``[0, n)``.

    Treated as immutable after construction.
    """

    n: int
    k: int
    endpoints: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        ep = np.asarray(self.endpoints)
        if ep.dtype.kind not in "iu":
            raise ValueError(f"endpoints must be integers, got dtype {ep.dtype}")
        ep = ep.astype(np.int64, copy=False)
        if ep.shape != (self.n, self.k):
            raise ValueError(f"endpoints shape {ep.shape} != ({self.n}, {self.k})")
        if ep.size and (ep.min() < 0 or ep.max() >= self.n):
            raise ValueError("endpoint outside [0, n)")
        object.__setattr__(self, "endpoints", ep)

    @cached_property
    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of the reversed digraph: row v lists the tails of v's in-arcs.

        Built on first use and kept, since the digraph does not change.
        scipy's CSR -> CSC conversion is a counting sort, an order of
        magnitude faster than a stable argsort of the heads.  The ids go in
        as int32, the dtype scipy would otherwise downcast them to by a copy.
        """
        indices = self.endpoints.astype(np.int32).ravel()
        indptr = np.arange(0, indices.size + 1, self.k, dtype=np.int32)
        ones = np.ones(indices.size, dtype=np.int8)
        shape = (self.n, self.n)
        rev = csr_matrix((ones, indices, indptr), shape=shape).tocsc()
        return rev.indptr, rev.indices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KOutDigraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and np.array_equal(self.endpoints, other.endpoints)
        )


def _random_endpoints(n: int, k: int, gen: np.random.Generator) -> np.ndarray:
    return gen.integers(0, n, size=(n, k), dtype=np.int64)


def generate(n: int, k: int, rng: RngSpec) -> KOutDigraph:
    """Draw every arc endpoint i.i.d. uniform on [0, n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return KOutDigraph(n, k, _random_endpoints(n, k, rng.generator()))


def _rows_simple(endpoints: np.ndarray) -> bool:
    n, k = endpoints.shape
    if (endpoints == np.arange(n)[:, None]).any():
        return False
    if k > 1:
        srt = np.sort(endpoints, axis=1)
        if (srt[:, 1:] == srt[:, :-1]).any():
            return False
    return True


def generate_simple(n: int, k: int, rng: RngSpec) -> tuple[KOutDigraph, int]:
    """Rejection-sample a digraph with no self-loops or repeated row entries.

    Uniform over simple k-out digraphs.  The acceptance probability tends to
    exp(-k - k(k-1)/2), so the cap ``SIMPLE_ATTEMPT_CAP`` (read at call time)
    fails loudly for k beyond ~5 instead of hanging.
    """
    if n <= k:
        raise ValueError(f"simple k-out digraphs need n > k, got n={n}, k={k}")
    gen = rng.generator()
    for attempt in range(1, SIMPLE_ATTEMPT_CAP + 1):
        ep = _random_endpoints(n, k, gen)
        if _rows_simple(ep):
            return KOutDigraph(n, k, ep), attempt
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
    return _rows_simple(g.endpoints)


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
    ep = np.frombuffer(data, dtype="<u4", offset=body_start).astype(np.int64)
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
