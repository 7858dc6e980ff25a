"""Uniform random surjections [km] -> [m] by rejection on the one-in-core.

Generate a random k-out digraph on n = ceil(m / nu_k) vertices and keep it
when its one-in-core has exactly m vertices.  The core is closed and every
core vertex keeps in-degree >= 1, so its induced arc table, relabeled to
[0, m) in increasing original-label order, is a k-out table in which every
value appears: a surjective function from the km arc slots onto [m].  Vertex
exchangeability makes the conditional law uniform over all such tables.  The
hit probability is about 1/E with E = sqrt(2 pi sigma_k^2 n), the core size
being asymptotically normal, so expected retries are Theta(sqrt(m)).

Attempts run in blocks of b digraphs: b out-tables are drawn in one call,
shifted onto disjoint vertex ranges and peeled as one table, since the core
of a disjoint union is the union of the cores.  The first table of the block
whose core has size m is accepted, so up to b - 1 later tables are drawn and
discarded; the draw is the same as one table at a time.  The block size is
b = max(1, min(floor(sqrt(E)), floor(BLOCK_VERTICES / n))), never more than
the attempts left under ``RETRY_CAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import derive_constants
from .decompose import _core_mask
from .digraph import RngSpec, _check_int, _indegree
from .errors import InvariantViolationError, RejectionLimitError

__all__ = ["SurjectionSample", "sample_surjection", "RETRY_CAP"]

RETRY_CAP = 1_000_000
# vertex budget of one block of attempts: enough digraphs to spread numpy's
# per-call cost of each peel level, few enough that the block stays in cache
BLOCK_VERTICES = 2**13


@dataclass
class SurjectionSample:
    m: int
    k: int
    mapping: np.ndarray  # (m, k) table; every value in [0, m) appears
    # index of the accepted digraph among those generated, counting from 1;
    # the up to b - 1 tables drawn after it in its block are not counted
    retries: int

    def is_surjective(self) -> bool:
        values = np.asarray(self.mapping).ravel()
        return bool(
            values.min() >= 0
            and values.max() < self.m
            and np.bincount(values, minlength=self.m).all()
        )


def sample_surjection(m: int, k: int, rng: RngSpec) -> SurjectionSample:
    """Draw one uniform k-out surjective table on m values.

    Gives up after ``RETRY_CAP`` digraphs (read at call time).
    """
    _check_int("m", m, 1)
    _check_int("k", k, 2)
    c = derive_constants(k)
    n = math.ceil(m / c.nu)
    # floor(sqrt(E)), E = sqrt(2 pi sigma^2 n) being the expected attempts
    root_e = int((2.0 * math.pi * c.sigma2 * n) ** 0.25)
    block = max(1, min(root_e, BLOCK_VERTICES // n))
    cap = RETRY_CAP
    gen = rng.generator()
    done = 0
    while done < cap:
        b = min(block, cap - done)
        endpoints = gen.integers(0, n, size=(b * n, k))
        # table j moves to vertices [j n, (j + 1) n), in place
        for j in range(1, b):
            endpoints[j * n : (j + 1) * n] += j * n
        core, _ = _core_mask(endpoints, _indegree(endpoints))
        sizes = [np.count_nonzero(core[j * n : (j + 1) * n]) for j in range(b)]
        if m not in sizes:
            done += b
            continue
        j = sizes.index(m)
        attempt = done + j + 1
        # block j's core vertices, in increasing label order
        first = sum(sizes[:j])
        keep = np.flatnonzero(core)[first : first + m]
        rank = np.full(b * n, -1, dtype=np.int64)
        rank[keep] = np.arange(m)
        mapping = rank[endpoints.take(keep, axis=0)]
        # the core is closed, so no arc can have left it
        if mapping.min() < 0:
            raise InvariantViolationError(
                f"attempt {attempt}: an arc leaves the one-in-core "
                f"(m={m}, n={n}, k={k})"
            )
        return SurjectionSample(m=m, k=k, mapping=mapping, retries=attempt)
    raise RejectionLimitError(
        f"one-in-core never hit size {m} (n={n}, k={k})", attempts=cap
    )
