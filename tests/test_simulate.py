"""Sampling layer: reproducibility, convergence to the exact lumped law,
order-2 diagnostics."""

import math
import random
from fractions import Fraction

import pytest

from lumpwalk import (
    AlgebraElement,
    Xoshiro256StarStar,
    empirical_lumped_matrix,
    eta,
    lumping_function,
    markov_diagnostic,
    simulate_walk,
    walk_lumped_matrix,
)
from lumpwalk.errors import InvariantError, ResourceError
from lumpwalk.shuffles import random_to_top
from lumpwalk.simulate import STEP_CAP, _sampler
from tests.conftest import simulate_ensemble
from tests.reference import fraction_threshold_sampler


def test_prng_is_stable():
    rng = Xoshiro256StarStar(1)
    first = [rng.next_uint64() for _ in range(4)]
    rng2 = Xoshiro256StarStar(1)
    assert [rng2.next_uint64() for _ in range(4)] == first
    assert Xoshiro256StarStar(2).next_uint64() != first[0]
    k = Xoshiro256StarStar(3).next_uint64()
    assert 0 <= k < 1 << 64


def test_reproducible_trajectories(sym4, top_prob, frustrator, mid_swap_T):
    alpha = eta(sym4, mid_swap_T)
    a = simulate_walk(top_prob, frustrator, alpha, seed=9, length=500)
    b = simulate_walk(top_prob, frustrator, alpha, seed=9, length=500)
    assert a == b
    c = simulate_walk(top_prob, frustrator, alpha, seed=10, length=500)
    assert a.states != c.states


def test_length_zero_and_deterministic_weight(sym4, top_prob):
    alpha = AlgebraElement.basis(sym4, 5)
    t = simulate_walk(top_prob, random_to_top(sym4), alpha, seed=1, length=0)
    assert t.states == (5,)
    delta = AlgebraElement.basis(sym4, 0)
    t2 = simulate_walk(top_prob, delta, alpha, seed=1, length=50)
    assert set(t2.states) == {5}


def test_empirical_matches_exact_lumped(sym4, top_prob, frustrator, mid_swap_T):
    alpha = eta(sym4, mid_swap_T)
    n = 100_000
    trajectory = simulate_walk(top_prob, frustrator, alpha, seed=7, length=n)
    f = lumping_function(top_prob)
    empirical = empirical_lumped_matrix(trajectory.lumps, f.n_lumps)
    exact = walk_lumped_matrix(top_prob, frustrator)
    visits = [0] * f.n_lumps
    for b in trajectory.lumps[:-1]:
        visits[b] += 1
    for i in range(f.n_lumps):
        bound = 4 / math.sqrt(visits[i])
        for j in range(f.n_lumps):
            assert abs(empirical[i][j] - exact[i][j]) <= bound
    # marginal top-card frequencies are near uniform (3 sigma)
    counts = [0] * f.n_lumps
    for b in trajectory.lumps:
        counts[b] += 1
    sigma = math.sqrt(0.25 * 0.75 * (n + 1))
    assert all(abs(c - (n + 1) / 4) <= 3 * sigma for c in counts)


def test_diagnostic_clean_for_stationary_start(sym4, top_prob, frustrator):
    alpha = eta(sym4, range(24))
    trajectory = simulate_walk(top_prob, frustrator, alpha, seed=21, length=60_000)
    report = markov_diagnostic(trajectory.lumps, 4)
    assert report.clean and report.warning is None


def test_diagnostic_flags_transient_start(sym4, top_prob, frustrator):
    delta = AlgebraElement.basis(sym4, 0)
    batch = simulate_ensemble(top_prob, frustrator, delta, seed=3, replicas=8000, length=3)
    report = markov_diagnostic([t.lumps for t in batch], 4)
    f = lumping_function(top_prob)
    top_lump = f.lump_of[0]
    assert (top_lump, top_lump) in [tuple(item["context"]) for item in report.flagged]


def test_diagnostic_iid_sequence_clean():
    rng = Xoshiro256StarStar(19)
    lumps = [rng.next_uint64() % 4 for _ in range(50_000)]
    report = markov_diagnostic(lumps, 4)
    assert report.clean


def test_diagnostic_short_sequence_warns():
    report = markov_diagnostic([0, 1, 0, 1], 2)
    assert report.warning is not None and report.clean


def linear_scan_draw(entries, u):
    """Reference: the value at the first cumulative threshold above u, by a linear scan."""
    acc = Fraction(0)
    kept = []
    for value, p in entries:
        if p:
            acc += p
            kept.append((value, acc))
    for value, threshold in kept:
        if u < threshold:
            return value
    return kept[-1][0]


def test_bisect_draw_matches_linear_scan():
    """The integer draw at k agrees with a linear scan and with the `Fraction`
    thresholds at u = k / 2^64, also just below, at and above each t * 2^64."""
    rng = random.Random(404)
    gen = Xoshiro256StarStar(404)
    for _ in range(200):
        weights = [rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(rng.randint(1, 9))]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        entries = [(k, Fraction(c, total)) for k, c in enumerate(weights)]
        draw = _sampler(entries)
        reference = fraction_threshold_sampler(entries)
        thresholds = []
        acc = Fraction(0)
        for _, p in entries:
            acc += p
            thresholds.append(acc)
        # the thresholds themselves, and their neighbours, are the boundary cases
        probes = [gen.next_uint64() for _ in range(20)] + [0, (1 << 64) - 1]
        for t in thresholds:
            at = t * (1 << 64)
            probes += [math.floor(at) - 1, math.floor(at), math.ceil(at), math.ceil(at) + 1]
        for k in probes:
            if 0 <= k < 1 << 64:
                expected = linear_scan_draw(entries, Fraction(k, 1 << 64))
                assert draw(k) == reference(k) == expected, (entries, k)


def test_trajectories_match_fraction_thresholds(sym4, top_prob, frustrator, mid_swap_T):
    """`simulate_walk` gives the states of a walk drawn on `Fraction`
    thresholds and multiplied with `G.mul`."""
    G = sym4
    for w, alpha, seed in ((frustrator, eta(G, mid_swap_T), 5),
                           (random_to_top(G), AlgebraElement.basis(G, 7), 11)):
        rng = Xoshiro256StarStar(seed)
        draw_start = fraction_threshold_sampler(list(alpha.support()))
        draw_step = fraction_threshold_sampler(list(w.normalized().support()))
        x = draw_start(rng.next_uint64())
        states = [x]
        for _ in range(300):
            x = G.mul(x, draw_step(rng.next_uint64()))
            states.append(x)
        assert simulate_walk(top_prob, w, alpha, seed, 300).states == tuple(states)


def test_sampler_rejects_probabilities_not_summing_to_one():
    with pytest.raises(InvariantError, match="sum to 1"):
        _sampler([(0, Fraction(1, 2)), (1, Fraction(1, 3))])


def test_simulate_walk_builds_no_fraction_per_step(fraction_work, top_prob, frustrator, sym4,
                                                   mid_swap_T):
    """A 2000-step walk reads its `Fraction`s while it builds its samplers,
    not once or more per step."""
    alpha = eta(sym4, mid_swap_T)
    length = 2000
    fraction_work.clear()
    simulate_walk(top_prob, frustrator, alpha, seed=9, length=length)
    assert sum(fraction_work.values()) < length // 4, fraction_work


def test_walk_length_above_the_step_cap_is_a_resource_error(sym4, top_prob, frustrator,
                                                            monkeypatch):
    """The cap is checked before the generator is seeded: a walk one step
    longer stops at once, and the longest walk of the acceptance suite
    (100 000 steps) is within it."""
    assert STEP_CAP >= 100_000
    alpha = AlgebraElement.basis(sym4, 0)
    monkeypatch.setattr("lumpwalk.simulate.Xoshiro256StarStar", None)
    with pytest.raises(ResourceError, match=f"walk length {STEP_CAP + 1} exceeds the cap"):
        simulate_walk(top_prob, frustrator, alpha, seed=1, length=STEP_CAP + 1)
