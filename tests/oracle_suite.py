"""Randomized instance generator for the cross-oracle equivalence suite.

Each instance is a tuple (problem, weight, start distribution) drawn from a
pool of groups of order up to 120 and several weight families: generic sparse
weights, bi-invariant weights, weights built inside the compatibility algebra
of an averaging idempotent (these exercise the weakly-but-not-strongly
lumping paths), and one-sided coset weights.  Every group-specific verdict is
compared with the generic chain oracle, and the time-reversal dualities are
checked on the same instances.
"""

import random
from fractions import Fraction

from lumpwalk import (
    AlgebraElement,
    Distribution,
    FiniteGroup,
    LumpingProblem,
    eta,
    lumping_function,
    parse_cycles,
    stable_ideal_check,
    stationary_distribution,
    time_reversal_dual_idempotent,
    time_reversal_matrix,
    transition_from_weight,
)
from lumpwalk import test_exact as exact_test
from lumpwalk import test_strong as strong_test
from lumpwalk import test_weak_distribution as weak_dist_test
from lumpwalk import test_weak_weight as weak_weight_test
from lumpwalk import test_exact_generic as exact_generic
from lumpwalk import test_strong_generic as strong_generic
from lumpwalk import test_weak_generic as weak_generic
from lumpwalk.linalg import nullspace
from tests.reference import coset_blocks, to_subspace


def _gen(degree, *cycles):
    return [parse_cycles(degree, c) for c in cycles]


def build_pool():
    """(label, group, subgroup-generators) triples with |G| <= 120."""
    pool = []
    s3 = FiniteGroup.generate(3, _gen(3, "(1,2)", "(1,2,3)"))
    pool.append(("S3/<(2,3)>", s3, _gen(3, "(2,3)")))
    pool.append(("S3/<(1,2,3)>", s3, _gen(3, "(1,2,3)")))
    s4 = FiniteGroup.generate(4, _gen(4, "(1,2)", "(1,2,3,4)"))
    pool.append(("S4/S{2,3,4}", s4, _gen(4, "(2,3)", "(2,3,4)")))
    pool.append(("S4/C4", s4, _gen(4, "(1,2,3,4)")))
    pool.append(("S4/V4", s4, _gen(4, "(1,2)(3,4)", "(1,3)(2,4)")))
    pool.append(("S4/<(3,4)>", s4, _gen(4, "(3,4)")))
    a4 = FiniteGroup.generate(4, _gen(4, "(1,2)(3,4)", "(1,2,3)"))
    pool.append(("A4/<(1,2)(3,4)>", a4, _gen(4, "(1,2)(3,4)")))
    pool.append(("A4/<(1,2,3)>", a4, _gen(4, "(1,2,3)")))
    d10 = FiniteGroup.generate(5, _gen(5, "(1,2,3,4,5)", "(2,5)(3,4)"))
    pool.append(("D10/<tau>", d10, _gen(5, "(2,5)(3,4)")))
    pool.append(("D10/<sigma>", d10, _gen(5, "(1,2,3,4,5)")))
    d12 = FiniteGroup.generate(6, _gen(6, "(1,2,3,4,5,6)", "(2,6)(3,5)"))
    pool.append(("D12/<refl>", d12, _gen(6, "(2,6)(3,5)")))
    c6 = FiniteGroup.generate(6, _gen(6, "(1,2,3,4,5,6)"))
    pool.append(("C6/C3", c6, _gen(6, "(1,3,5)(2,4,6)")))
    s5 = FiniteGroup.generate(5, _gen(5, "(1,2)", "(1,2,3,4,5)"))
    pool.append(("S5/S{2..5}", s5, _gen(5, "(2,3)", "(2,3,4,5)")))
    return pool


def theta_basis(problem, e):
    """Basis of the solution space of the two stability conditions for e."""
    G = problem.group
    one = AlgebraElement.one(G)
    eta_H = problem.eta_H
    rows = []
    for g in range(G.order):
        basis_g = AlgebraElement.basis(G, g)
        img1 = e * basis_g * (one - e)
        img2 = (e - eta_H) * basis_g * eta_H
        rows.append(img1.coeffs + img2.coeffs)
    constraints = [[rows[g][k] for g in range(G.order)] for k in range(2 * G.order)]
    return to_subspace(nullspace(constraints, G.order))


def random_subgroup_of(rng, H):
    size = rng.randint(1, min(3, len(H.members)))
    gens = [H.parent.elements[rng.choice(H.members)] for _ in range(size)]
    return H.parent.subgroup(gens)


def sample_weight(rng, problem, kind):
    G = problem.group
    if kind == "hecke":
        w = AlgebraElement.zero(G)
        for cid in range(problem.double.n_classes):
            c = Fraction(rng.randint(1, 4))
            for g in problem.double.classes[cid]:
                w.coeffs[g] = c
        return w
    if kind == "theta":
        T = random_subgroup_of(rng, problem.subgroup)
        e = eta(G, T)
        basis = theta_basis(problem, e)
        # start bi-invariant (inside every compatibility algebra) and add a
        # compatible direction scaled to keep all coefficients non-negative
        w = sample_weight(rng, problem, "hecke")
        if basis.dim:
            direction = AlgebraElement(G, list(basis.rows[rng.randrange(basis.dim)]))
            scale = min(
                (w.coeffs[g] / (-direction.coeffs[g]))
                for g in range(G.order)
                if direction.coeffs[g] < 0
            ) if any(c < 0 for c in direction.coeffs) else Fraction(1)
            w = w + AlgebraElement(G, [scale / 2 * c for c in direction.coeffs])
        return w
    if kind == "coset":
        side = rng.choice(["left", "right"])
        decomposition = problem.left if side == "left" else problem.right
        cid = rng.randrange(decomposition.n_cosets)
        w = AlgebraElement.zero(G)
        for g in coset_blocks(decomposition)[cid]:
            w.coeffs[g] = Fraction(1)
        w.coeffs[0] += Fraction(1)
        return w
    # generic sparse weight; force a generating support
    w = AlgebraElement.zero(G)
    for g in G.generators:
        w.coeffs[g] = Fraction(rng.randint(1, 3))
    for _ in range(rng.randint(1, 4)):
        w.coeffs[rng.randrange(G.order)] += Fraction(rng.randint(0, 3))
    return w


def sample_distribution(rng, problem, kind):
    G = problem.group
    if kind == "point":
        return AlgebraElement.basis(G, rng.randrange(G.order))
    if kind == "uniform":
        return eta(G, range(G.order))
    if kind == "coset":
        b = rng.randrange(G.order)
        return AlgebraElement.basis(G, b) * problem.eta_H
    raw = [Fraction(rng.randint(0, 3)) for _ in range(G.order)]
    if not any(raw):
        raw[0] = Fraction(1)
    total = sum(raw)
    return AlgebraElement(G, [r / total for r in raw])


WEIGHT_KINDS = ("random", "hecke", "theta", "coset")
DIST_KINDS = ("point", "uniform", "coset", "random")


def check_instance(rng, problem, w, alpha, deep=True):
    """Compare every group verdict with the generic oracle; returns verdicts."""
    G = problem.group
    f = lumping_function(problem)
    P = transition_from_weight(G, w)
    uniform = Distribution.uniform(G.order)

    strong, _ = strong_test(problem, w)
    assert strong == strong_generic(f, P), "strong verdict disagrees with the oracle"
    exact, _ = exact_test(problem, w)
    assert exact == exact_generic(f, P, uniform), "exact verdict disagrees with the oracle"

    weak, _, _ = weak_weight_test(problem, w)
    oracle_weak, _ = weak_generic(f, P, uniform)
    assert weak == oracle_weak, "weight-level weak verdict disagrees with the oracle"

    alpha_dist = Distribution(tuple(alpha.normalized().coeffs))
    group_alpha, _ = weak_dist_test(problem, w, alpha.normalized())
    oracle_alpha, _ = weak_generic(f, P, alpha_dist)
    assert group_alpha == oracle_alpha, "start-level weak verdict disagrees with the oracle"

    if deep:
        # time-reversal duality for the walk and for stable ideals
        mu = stationary_distribution(P)
        Pstar = time_reversal_matrix(P, mu)
        assert strong_generic(f, P) == exact_generic(f, Pstar, mu)
        assert exact_generic(f, P, mu) == strong_generic(f, Pstar)
        T = random_subgroup_of(rng, problem.subgroup)
        e = eta(G, T)
        dual = time_reversal_dual_idempotent(problem, e)
        assert (
            stable_ideal_check(problem, w, e)[0]
            == stable_ideal_check(problem, w.star(), dual)[0]
        ), "stable-ideal duality failed"
        # multiplicative closure of the compatibility space of e
        basis = theta_basis(problem, e)
        one = AlgebraElement.one(G)
        eta_H = problem.eta_H

        def in_theta(x):
            return (e * x * (one - e)).is_zero() and ((e - eta_H) * x * eta_H).is_zero()

        picks = [
            AlgebraElement(G, list(basis.rows[rng.randrange(basis.dim)]))
            for _ in range(2)
        ]
        assert all(in_theta(x) for x in picks)
        assert in_theta(picks[0] * picks[1]), "compatibility algebra not closed"
    return strong, exact, weak, group_alpha


def run_suite(count, seed, size_cap=120, deep_cap=30, big_every=25):
    """Run `count` randomized instances; returns a tally of observed verdicts.

    Most instances come from groups of order <= 24; every `big_every`-th draw
    uses the largest group in the pool so the boundary of the size range is
    exercised without dominating the runtime.
    """
    rng = random.Random(seed)
    pool = [entry for entry in build_pool() if entry[1].order <= size_cap]
    small = [entry for entry in pool if entry[1].order <= 24]
    biggest = max(pool, key=lambda entry: entry[1].order)
    problems = {}
    tally = {"strong": 0, "exact": 0, "weak": 0, "weak_alpha": 0, "count": 0}
    for k in range(count):
        label, G, hgens = biggest if big_every and k % big_every == big_every - 1 else rng.choice(small)
        if label not in problems:
            problems[label] = LumpingProblem(G, G.subgroup(hgens))
        problem = problems[label]
        kind = WEIGHT_KINDS[rng.randrange(len(WEIGHT_KINDS))]
        if G.order > 30 and kind == "theta":
            kind = "hecke"  # the nullspace construction is for small orders
        w = sample_weight(rng, problem, kind)
        if not w.is_irreducible_weight():
            w = w + AlgebraElement.from_pairs(
                G, [(g, Fraction(1)) for g in G.generators]
            )
        alpha = sample_distribution(rng, problem, DIST_KINDS[rng.randrange(len(DIST_KINDS))])
        deep = G.order <= deep_cap
        strong, exact, weak, weak_alpha = check_instance(rng, problem, w, alpha, deep=deep)
        tally["strong"] += strong
        tally["exact"] += exact
        tally["weak"] += weak
        tally["weak_alpha"] += weak_alpha
        tally["count"] += 1
    return tally
