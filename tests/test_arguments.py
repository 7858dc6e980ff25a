"""Every integer argument of the public entry points goes through one rule.

A size, count, seed or stream must be a Python or numpy integer, not a bool,
at or above its minimum (``RngSpec`` also keeps its 2**64 ceiling).  Anything
else raises ``ValueError`` naming the argument, before any digraph is drawn.
"""

import argparse
import dataclasses
import time

import numpy as np
import pytest

from kout.cli import _cmd_surjection
from kout.constants import derive_constants, solve_tau
from kout.digraph import KOutDigraph, RngSpec, generate, generate_simple
from kout.distance import phase_sweep, typical_distance
from kout.harness import ExperimentConfig
from kout.oracle import (
    enumerate_all,
    expected_k_surjections,
    good_log_stirling,
    gw_bound,
    gw_bound_survival,
    gw_extinction,
    gw_survival,
    stirling2,
    surjection_count,
)
from kout.surjection import sample_surjection

G = generate(50, 2, RngSpec(1))
R = RngSpec(1)


def _surjection_cli(count):
    args = argparse.Namespace(m=5, k=2, count=count, seed=1, json=True)
    return _cmd_surjection(args)


# (argument name, minimum, a valid value, call with that argument replaced)
ENTRY_POINTS = {
    "RngSpec.seed": ("seed", 0, 3, lambda v: RngSpec(v)),
    "RngSpec.stream": ("stream", 0, 3, lambda v: RngSpec(1, v)),
    "KOutDigraph.n": ("n", 1, 3, lambda v: KOutDigraph(v, 1, np.zeros((3, 1), np.int64))),
    "KOutDigraph.k": ("k", 1, 1, lambda v: KOutDigraph(3, v, np.zeros((3, 1), np.int64))),
    "generate.n": ("n", 1, 10, lambda v: generate(v, 2, R)),
    "generate.k": ("k", 1, 2, lambda v: generate(10, v, R)),
    "generate_simple.n": ("n", 3, 10, lambda v: generate_simple(v, 2, R)),
    "generate_simple.k": ("k", 1, 2, lambda v: generate_simple(10, v, R)),
    "ExperimentConfig.n": ("n", 1, 10, lambda v: ExperimentConfig(n=v, k=2, reps=1, seed=1)),
    "ExperimentConfig.k": ("k", 1, 2, lambda v: ExperimentConfig(n=10, k=v, reps=1, seed=1)),
    "ExperimentConfig.reps": (
        "reps", 1, 2, lambda v: ExperimentConfig(n=10, k=2, reps=v, seed=1)
    ),
    "ExperimentConfig.seed": (
        "seed", 0, 2, lambda v: ExperimentConfig(n=10, k=2, reps=1, seed=v)
    ),
    "typical_distance.pairs": ("pairs", 1, 5, lambda v: typical_distance(G, v, R)),
    "phase_sweep.n": ("n", 1, 20, lambda v: phase_sweep(v, 2, 3, 2, R)),
    "phase_sweep.k_min": ("k_min", 1, 2, lambda v: phase_sweep(20, v, 3, 2, R)),
    "phase_sweep.k_max": ("k_max", 2, 3, lambda v: phase_sweep(20, 2, v, 2, R)),
    "phase_sweep.reps": ("reps", 1, 2, lambda v: phase_sweep(20, 2, 3, v, R)),
    "sample_surjection.m": ("m", 1, 5, lambda v: sample_surjection(v, 2, R)),
    "sample_surjection.k": ("k", 2, 2, lambda v: sample_surjection(5, v, R)),
    "solve_tau.k": ("k", 2, 3, solve_tau),
    "derive_constants.k": ("k", 2, 3, derive_constants),
    "kout surjection --count": ("count", 1, 2, _surjection_cli),
    "stirling2.x": ("x", 0, 6, lambda v: stirling2(v, 3)),
    "stirling2.y": ("y", 0, 3, lambda v: stirling2(6, v)),
    "surjection_count.m": ("m", 1, 3, lambda v: surjection_count(v, 2)),
    "surjection_count.k": ("k", 1, 2, lambda v: surjection_count(3, v)),
    "expected_k_surjections.n": ("n", 1, 5, lambda v: expected_k_surjections(v, 2, 2)),
    "expected_k_surjections.s": ("s", 1, 2, lambda v: expected_k_surjections(5, v, 2)),
    "expected_k_surjections.k": ("k", 1, 2, lambda v: expected_k_surjections(5, 2, v)),
    "good_log_stirling.s": ("s", 1, 3, lambda v: good_log_stirling(v, 2, 1.6)),
    "good_log_stirling.k": ("k", 2, 2, lambda v: good_log_stirling(3, v, 1.6)),
    "gw_extinction.k": ("k", 1, 2, lambda v: gw_extinction(0.2, v, 3)),
    "gw_extinction.m": ("m", 0, 3, lambda v: gw_extinction(0.2, 2, v)),
    "gw_survival.k": ("k", 1, 2, lambda v: gw_survival(0.2, v, 3)),
    "gw_survival.m": ("m", 0, 3, lambda v: gw_survival(0.2, 2, v)),
    "gw_bound.k": ("k", 1, 2, lambda v: gw_bound(0.1, v, 3)),
    "gw_bound.m": ("m", 1, 3, lambda v: gw_bound(0.1, 2, v)),
    "gw_bound_survival.k": ("k", 1, 2, lambda v: gw_bound_survival(0.1, v, 3)),
    "gw_bound_survival.m": ("m", 1, 3, lambda v: gw_bound_survival(0.1, 2, v)),
    "enumerate_all.n": ("n", 1, 2, lambda v: enumerate_all(v, 1)),
    "enumerate_all.k": ("k", 1, 1, lambda v: enumerate_all(2, v)),
}


def _message(name, value, minimum):
    if name in ("seed", "stream"):
        return f"{name} must be a 64-bit unsigned integer, got {value!r}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{name} must be >= {minimum}, got {value}"
    return f"{name} must be an integer, got {value!r}"


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(self):
        raise AssertionError("a generator was built before the arguments were checked")

    monkeypatch.setattr(RngSpec, "generator", refuse)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", ["float", "bool", "below-minimum"])
def test_bad_integer_argument_fails_at_once(entry, kind, no_sampling):
    name, minimum, good, call = ENTRY_POINTS[entry]
    value = {"float": float(good), "bool": True, "below-minimum": minimum - 1}[kind]
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == _message(name, value, minimum)


def _plain(x):
    if dataclasses.is_dataclass(x):
        return _plain(dataclasses.asdict(x))
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {key: _plain(v) for key, v in x.items()}
    return x


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integers_are_accepted(entry, capsys):
    _name, _minimum, good, call = ENTRY_POINTS[entry]
    np.testing.assert_equal(_plain(call(np.int64(good))), _plain(call(good)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample_surjection(10.5, 2, R), "m must be an integer, got 10.5"),
        (lambda: sample_surjection(True, 2, R), "m must be an integer, got True"),
        (lambda: generate(10.0, 2, R), "n must be an integer, got 10.0"),
        (lambda: generate_simple(10.0, 2, R), "n must be an integer, got 10.0"),
        (lambda: typical_distance(G, 2.0, R), "pairs must be an integer, got 2.0"),
        (lambda: phase_sweep(20, 2.0, 3, 2, R), "k_min must be an integer, got 2.0"),
        (lambda: phase_sweep(20, 2, 3, 2.0, R), "reps must be an integer, got 2.0"),
        (lambda: solve_tau(2.0), "k must be an integer, got 2.0"),
        (lambda: gw_extinction(0.2, 2.5, 3), "k must be an integer, got 2.5"),
        (lambda: good_log_stirling(3, 2.5, 1.6), "k must be an integer, got 2.5"),
    ],
    ids=[
        "surjection-float-m", "surjection-bool-m", "generate", "generate_simple",
        "typical_distance", "phase_sweep-k_min", "phase_sweep-reps", "solve_tau",
        "gw_extinction-k", "good_log_stirling-k",
    ],
)
def test_reported_calls_fail_fast(call, message, no_sampling):
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        call()
    assert time.perf_counter() - t0 < 0.1
    assert str(exc.value) == message


def test_constants_store_a_plain_int_k():
    derive_constants.cache_clear()
    c = derive_constants(np.int64(2))
    assert type(c.k) is int
    assert c == derive_constants(2)
    assert solve_tau(np.int64(2)) == solve_tau(2)


def test_cached_constants_are_not_served_to_a_float_k():
    derive_constants.cache_clear()
    derive_constants(np.int64(2))
    with pytest.raises(ValueError) as exc:
        derive_constants(2.0)
    assert str(exc.value) == "k must be an integer, got 2.0"


def test_numpy_sizes_keep_exact_integer_arithmetic():
    # n^(ks) = 9^27 wraps in int64; the checked value is a plain int
    assert expected_k_surjections(np.int64(9), np.int64(9), np.int64(3)) == (
        expected_k_surjections(9, 9, 3)
    )
