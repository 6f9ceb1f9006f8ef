"""Tests of the benchmark's independent reference (bench/reference.py).

Run from the repository root:

    python3 -m pytest -q bench/test_reference.py
"""

import itertools
import sys
from math import prod
from pathlib import Path

import numpy as np
import pytest

import reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_sc import textbook_sc_decode  # noqa: E402


def orderings(max_n):
    """Every ordered sequence of kernel sizes 2 and 3 with product <= max_n."""
    out = []
    for s in range(1, 5):
        out += [b for b in itertools.product((2, 3), repeat=s) if prod(b) <= max_n]
    return out


def brute_force_llr(bases, llrs, i, prefix, mode):
    """Whole-code SC LLR of bit i: all 2^N inputs extending ``prefix``."""
    n = prod(bases)
    u = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    u = u[np.all(u[:, :i] == prefix, axis=1)]
    metric = (1.0 - 2.0 * reference.encode(bases, u)) @ llrs / 2.0
    combine = (lambda v: np.logaddexp.reduce(v)) if mode == "exact" else np.max
    return combine(metric[u[:, i] == 0]) - combine(metric[u[:, i] == 1])


@pytest.mark.parametrize("bases", orderings(12))
@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_sc_matches_whole_code_enumeration(bases, mode):
    n = prod(bases)
    rng = np.random.default_rng([n, len(bases), mode == "exact"])
    # |LLR| < 3 keeps every partial sum below the saturation rail.
    llrs = rng.uniform(-3.0, 3.0, size=(20, n))
    frozen = rng.random(n) < 0.3
    decisions, seen = reference.sc_decode(bases, llrs, frozen, mode)
    for f in range(len(llrs)):
        for i in range(n):
            want = brute_force_llr(bases, llrs[f], i, decisions[f, :i], mode)
            assert abs(seen[f, i] - want) <= 1e-9, (bases, f, i)
            bit = 0 if frozen[i] else int(seen[f, i] < 0)
            assert decisions[f, i] == bit


@pytest.mark.parametrize("s", range(1, 6))
@pytest.mark.parametrize("mode", ["exact", "minsum"])
def test_all_binary_matches_textbook_decoder(s, mode):
    n = 2**s
    rng = np.random.default_rng([s, 9])
    # |LLR| < 1 with N <= 32 keeps every update below the saturation rail.
    llrs = rng.uniform(-1.0, 1.0, size=(50, n))
    frozen = rng.random(n) < 0.5
    decisions, seen = reference.sc_decode((2,) * s, llrs, frozen, mode)
    for f in range(len(llrs)):
        # Past a near-tie the two decoders may take either path.
        ties = np.flatnonzero(~frozen & (np.abs(seen[f]) <= 1e-9))
        end = ties[0] if len(ties) else n
        want = textbook_sc_decode(llrs[f], frozen, mode)
        assert np.array_equal(decisions[f, :end], want[:end])


@pytest.mark.parametrize("bases", orderings(36))
def test_noiseless_round_trip(bases):
    n = prod(bases)
    rng = np.random.default_rng(n)
    u = rng.integers(0, 2, size=(10, n), dtype=np.uint8)
    llrs = reference.LLR_MAX * (1.0 - 2.0 * reference.encode(bases, u))
    for mode in ("exact", "minsum"):
        decisions, _ = reference.sc_decode(bases, llrs, np.zeros(n, dtype=bool), mode)
        assert np.array_equal(decisions, u)


def test_generator_is_the_kronecker_product():
    g = reference.generator((2, 3))
    assert g.tolist() == [
        [1, 1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 0, 1, 1, 0, 1],
        [0, 1, 1, 0, 1, 1],
    ]


def test_follow_feeds_back_the_given_decisions():
    bases = (2, 2, 3)
    rng = np.random.default_rng(4)
    llrs = rng.normal(1.0, 2.0, size=(8, 12))
    follow = rng.integers(0, 2, size=(8, 12), dtype=np.uint8)
    _, seen = reference.sc_decode(bases, llrs, np.zeros(12, dtype=bool), "exact", follow=follow)
    for f in range(8):
        for i in range(12):
            want = brute_force_llr(bases, llrs[f], i, follow[f, :i], "exact")
            assert abs(seen[f, i] - want) <= 1e-9


def test_genie_rates_count_ties_as_half():
    bases = (2, 3)
    assert np.all(reference.genie_error_rates(bases, np.full((4, 6), 40.0)) == 0.0)
    assert np.all(reference.genie_error_rates(bases, np.zeros((4, 6))) == 0.5)
