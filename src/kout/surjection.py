"""Uniform random surjections [km] -> [m] by rejection on the one-in-core.

Generate a random k-out digraph on n = ceil(m / nu_k) vertices and keep it
when its one-in-core has exactly m vertices.  The core is closed and every
core vertex keeps in-degree >= 1, so its induced arc table, relabeled to
[0, m) in increasing original-label order, is a k-out table in which every
value appears: a surjective function from the km arc slots onto [m].  Vertex
exchangeability makes the conditional law uniform over all such tables.  The
hit probability scales like 1/sqrt(m), so expected retries are Theta(sqrt(m)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import derive_constants
from .decompose import _core_mask
from .digraph import RngSpec, _check_int, _indegree, _random_endpoints
from .errors import RejectionLimitError

__all__ = ["SurjectionSample", "sample_surjection", "RETRY_CAP"]

RETRY_CAP = 1_000_000


@dataclass
class SurjectionSample:
    m: int
    k: int
    mapping: np.ndarray  # (m, k) table; every value in [0, m) appears
    retries: int  # digraphs generated, including the accepted one

    def is_surjective(self) -> bool:
        return np.unique(self.mapping).size == self.m


def sample_surjection(m: int, k: int, rng: RngSpec) -> SurjectionSample:
    """Draw one uniform k-out surjective table on m values.

    Gives up after ``RETRY_CAP`` digraphs (read at call time).
    """
    _check_int("m", m, 1)
    _check_int("k", k, 2)
    n = math.ceil(m / derive_constants(k).nu)
    gen = rng.generator()
    for attempt in range(1, RETRY_CAP + 1):
        endpoints = _random_endpoints(n, k, gen)
        core = _core_mask(endpoints, _indegree(endpoints))
        if int(core.sum()) != m:
            continue
        keep = np.flatnonzero(core)
        rank = np.full(n, -1, dtype=np.int64)
        rank[keep] = np.arange(m)
        mapping = rank[endpoints.take(keep, axis=0)]
        # the core is closed, so no arc can have left it
        assert mapping.min() >= 0
        return SurjectionSample(m=m, k=k, mapping=mapping, retries=attempt)
    raise RejectionLimitError(
        f"one-in-core never hit size {m} (n={n}, k={k})", attempts=RETRY_CAP
    )
