"""Acceptance suite: every criterion exact unless a tolerance is stated.

Each test prints one `criterion N: PASS/FAIL` line (visible with pytest -s or
in the failure output).
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct

import pytest

from lumpwalk import (
    AlgebraElement,
    Distribution,
    LumpingProblem,
    Subspace,
    abelian_characters,
    abelian_weak_test,
    check_Q_characterization,
    compute_Jw,
    compute_Lw,
    conditional_law,
    coset_sums,
    eta,
    interpolation_test,
    lumping_function,
    orbital_matrices,
    theta_dimension,
    transition_from_weight,
    verify_hecke_isomorphism,
    walk_lumped_matrix,
)
from lumpwalk import test_exact as exact_test
from lumpwalk import test_strong as strong_test
from lumpwalk import test_weak_distribution as weak_dist_test
from lumpwalk import test_weak_weight as weak_weight_test
from lumpwalk import test_weak_generic as weak_generic
from lumpwalk.algebra import character_idempotent
from lumpwalk.shuffles import (
    bottom_card_cycle,
    random_to_top,
    symmetric_group,
    top_stabilizer,
    top_to_random,
)
from lumpwalk.simulate import (
    empirical_lumped_matrix,
    markov_diagnostic,
    simulate_walk,
)
from tests.conftest import lazy_frustrator, simulate_ensemble, uniform_on
from tests.oracle_suite import conditional_distribution, run_suite
from tests.reference import full_subspace, left_ideal_closure


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


def ideal_of(G, elem):
    return left_ideal_closure(Subspace(G.order, [elem.coeffs]), G)


def test_criterion_01_double_cosets(sym4, top_prob):
    with criterion(1, "double cosets of the top-card problem and the counting identity"):
        assert top_prob.double.n_classes == 2
        assert sorted(top_prob.double.sizes) == [6, 18]
        identity_class = top_prob.double.class_of[0]
        assert top_prob.double.sizes[identity_class] == 6
        H = top_prob.subgroup
        for cid, x in enumerate(top_prob.double.representatives):
            xi = sym4.inv(x)
            conj = {sym4.mul(sym4.mul(xi, h), x) for h in H.members}
            assert top_prob.double.sizes[cid] * len(conj & set(H.members)) == H.order ** 2


def test_criterion_02_strong_exact_weak_verdicts(sym4, top_prob):
    with criterion(2, "shuffle verdicts: strong / exact / weak-only family"):
        assert strong_test(top_prob, random_to_top(sym4))[0]
        assert exact_test(top_prob, top_to_random(sym4))[0]
        for lam in (Fraction(1, 4), Fraction(3, 4), Fraction(1)):
            w = lazy_frustrator(sym4, lam)
            assert not strong_test(top_prob, w)[0]
            assert not exact_test(top_prob, w)[0]
            ok, _, _ = weak_weight_test(top_prob, w)
            assert ok


def test_criterion_03_minimal_ideal(sym4, top_prob, mid_swap_T):
    with criterion(3, "minimal stable ideal is the mid-swap averaging ideal"):
        expected = ideal_of(sym4, eta(sym4, mid_swap_T))
        for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            w = lazy_frustrator(sym4, lam)
            ideal = compute_Lw(top_prob, w)
            assert ideal.dim == 12
            assert full_subspace(ideal) == expected
            averaged = top_prob.eta_H * w
            c12 = top_prob.left.coset_of[sym4.element_of("(1,2)")]
            rep = AlgebraElement.basis(sym4, top_prob.left.representatives[c12])
            comp = top_prob.coset_components(averaged)[c12]
            assert (rep * top_prob.from_H_vector(comp)).normalized() == AlgebraElement.from_pairs(
                sym4, [(sym4.element_of("(1,4,2)"), Fraction(1, 2)),
                       (sym4.element_of("(1,4,3,2)"), Fraction(1, 2))]
            )
        averaged_weight = eta(sym4, mid_swap_T) * lazy_frustrator(sym4, Fraction(3, 4))
        assert full_subspace(compute_Lw(top_prob, averaged_weight)) == expected


def test_criterion_04_maximal_ideal_and_start_set(sym4, top_prob, mid_swap_T, frustrator):
    with criterion(4, "maximal stable ideal and admissible start distributions"):
        expected = ideal_of(sym4, eta(sym4, mid_swap_T))
        jw = compute_Jw(top_prob, frustrator)
        assert full_subspace(jw) == expected
        averaged = eta(sym4, mid_swap_T) * frustrator
        assert compute_Jw(top_prob, averaged).dim == 24
        assert weak_dist_test(top_prob, frustrator, eta(sym4, range(24)))[0]
        assert weak_dist_test(top_prob, frustrator, eta(sym4, mid_swap_T))[0]
        assert weak_dist_test(top_prob, frustrator, AlgebraElement.basis(sym4, 0))[0] is False


def test_criterion_05_lumped_matrix_and_step_law(sym4, top_prob, mid_swap_T, frustrator):
    with criterion(5, "lumped matrix is iid-uniform; per-position step law"):
        ok, _ = weak_generic(
            lumping_function(top_prob),
            transition_from_weight(sym4, frustrator),
            Distribution(tuple(eta(sym4, mid_swap_T).coeffs)),
        )
        assert ok  # the averaging start is admissible
        Q = walk_lumped_matrix(top_prob, frustrator)
        assert all(q == Fraction(1, 4) for row in Q for q in row)
        sums = coset_sums(frustrator.normalized(), top_prob.left)
        step_law = []
        for k in range(1, 5):
            element = "id" if k == 1 else f"(1,{k})"
            step_law.append(sums[top_prob.left.coset_of[sym4.element_of(element)]])
        assert step_law == [Fraction(1, 4), Fraction(0), Fraction(1, 2), Fraction(1, 4)]


def test_criterion_06_conditional_counterexample(sym4, top_prob, frustrator):
    with criterion(6, "deterministic start breaks the induced Markov property"):
        f = lumping_function(top_prob)
        P = transition_from_weight(sym4, frustrator)
        top = f.lump_of[0]
        jack = f.lump_of[sym4.element_of("(1,2)")]
        # independent oracle: enumerate all length-3 step sequences
        support = list(frustrator.normalized().support())
        joint = {"qq": Fraction(0), "qq_j": Fraction(0), "q": Fraction(0), "q_j": Fraction(0)}
        for steps in iproduct(support, repeat=3):
            x, p = 0, Fraction(1)
            states = []
            for g, pg in steps:
                x = sym4.mul(x, g)
                states.append(x)
                p *= pg
            l1, l2, l3 = (f.lump_of[s] for s in states)
            if l2 == top:
                joint["q"] += p
                joint["q_j"] += p if l3 == jack else 0
                if l1 == top:
                    joint["qq"] += p
                    joint["qq_j"] += p if l3 == jack else 0
        assert joint["qq_j"] / joint["qq"] == 0
        assert joint["q_j"] / joint["q"] == Fraction(1, 8) > 0
        # library values agree, on the group and on the chain
        law = conditional_distribution(f, P, Distribution.point(24, 0), [top, top, top])
        point = AlgebraElement.basis(sym4, 0)
        assert conditional_law(top_prob, frustrator, point, [top, top, top]) == {
            x: p for x, p in enumerate(law.probs) if p}
        assert f.apply_F(P.apply(list(law.probs)))[jack] == 0
        vec = P.apply(P.apply([Fraction(1)] + [Fraction(0)] * 23))
        vec_q = f.project(vec, top)
        assert f.apply_F(P.apply(vec_q))[jack] / sum(vec_q) == Fraction(1, 8)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_criterion_07_bottom_card_family(n):
    with criterion(7, f"bottom-card two-step shuffle on {n} cards"):
        G = symmetric_group(n)
        prob = LumpingProblem(G, top_stabilizer(G))
        w = bottom_card_cycle(G)
        assert exact_test(prob, w)[0] is False  # fails for all n >= 3
        if n >= 4:
            assert strong_test(prob, w)[0] is False
            from lumpwalk.groups import parse_cycles

            middle = ",".join(str(p) for p in range(2, n))
            T = G.subgroup([parse_cycles(n, "(2,3)"), parse_cycles(n, f"({middle})")])
            ok, failed = interpolation_test(prob, T, w)
            assert ok and failed == []
            weak, _, _ = weak_weight_test(prob, w)
            assert weak


def test_criterion_08_die_lumping(sym4, die_prob, die_weight):
    with criterion(8, "die rotations: class sizes, compatibility dims, witnesses"):
        assert sorted(die_prob.double.sizes) == [4, 4, 16]
        one = AlgebraElement.one(sym4)
        assert theta_dimension(die_prob, one)[0] == 21
        assert theta_dimension(die_prob, die_prob.eta_H)[0] == 21
        m, chars = abelian_characters(die_prob.subgroup)
        idems = [character_idempotent(die_prob.subgroup, chi, m) for chi in chars]
        e_P = idems[0] + idems[1] + idems[3]
        assert theta_dimension(die_prob, e_P)[0] == 19
        assert not strong_test(die_prob, die_weight)[0]
        assert not exact_test(die_prob, die_weight)[0]
        ok, witness, found = abelian_weak_test(die_prob, die_weight)
        assert ok and witness == (0, 1, 3) and found == e_P
        ok_star, witness_star, found_star = abelian_weak_test(die_prob, die_weight.star())
        assert ok_star and witness_star == (0, 2)
        assert found_star == idems[0] + idems[2]
        weak, _, _ = weak_weight_test(die_prob, die_weight)
        assert weak


def test_criterion_09_exact_compatibility_dimension_formula(sym4, top_prob, die_prob):
    with criterion(9, "rank computation matches the closed dimension count"):
        for prob, expected in ((top_prob, 22), (die_prob, 21)):
            dim, _ = theta_dimension(prob, prob.eta_H)
            assert dim == expected
            closed_form = prob.double.n_classes + 24 - 24 // prob.subgroup.order
            assert dim == closed_form


def test_criterion_10_dihedral_pentagon(dihedral10, dihedral_prob):
    with criterion(10, "pentagon walks: one-sided coset weights and the reducible rotation"):
        G, sigma, tau = dihedral10
        prob = dihedral_prob
        sig_tau = G.mul(sigma, tau)
        tau_sig = G.mul(tau, sigma)
        # uniform on the left coset sigma H: exact but not strong
        # (its left-coset sums differ inside the size-4 double coset;
        # its right-coset sums are constant); dually for H sigma
        left_coset_w = uniform_on(G, [sigma, sig_tau])
        assert exact_test(prob, left_coset_w)[0] and not strong_test(prob, left_coset_w)[0]
        right_coset_w = uniform_on(G, [sigma, tau_sig])
        assert strong_test(prob, right_coset_w)[0] and not exact_test(prob, right_coset_w)[0]
        both_w = uniform_on(G, [sig_tau, tau_sig])
        assert strong_test(prob, both_w)[0] and exact_test(prob, both_w)[0]
        # oracle agreement for all three
        f = lumping_function(prob)
        from lumpwalk import test_exact_generic, test_strong_generic

        for w in (left_coset_w, right_coset_w, both_w):
            P = transition_from_weight(G, w)
            assert test_strong_generic(f, P) == strong_test(prob, w)[0]
            assert test_exact_generic(f, P, Distribution.uniform(10)) == exact_test(prob, w)[0]
        # reducible half-lazy rotation: weak exactly when the start stays in
        # one coset of the rotation subgroup
        w = AlgebraElement.from_pairs(G, [(0, Fraction(1, 2)), (sigma, Fraction(1, 2))])
        P = transition_from_weight(G, w)
        rotations = G.subgroup([G.elements[sigma]])
        reflections = [g for g in range(10) if g not in rotations]
        cases = [
            (uniform_on(G, rotations.members), True),
            (AlgebraElement.basis(G, tau), True),
            (eta(G, range(10)), False),
            (AlgebraElement.from_pairs(G, [(0, Fraction(1, 2)), (tau, Fraction(1, 2))]), False),
        ]
        for alpha, expected in cases:
            ok, _ = weak_generic(f, P, Distribution(tuple(alpha.coeffs)))
            assert ok == expected
        assert uniform_on(G, reflections).total() == 1


def test_criterion_11_randomized_oracle_equivalence():
    with criterion(11, "200 randomized instances agree with the generic oracle"):
        tally = run_suite(200, seed=20260809)
        assert tally["count"] == 200
        # both verdict values must occur at every level
        for key in ("strong", "exact", "weak", "weak_alpha"):
            assert 0 < tally[key] < 200


def test_criterion_12_orbital_characterization(sym4, top_prob, die_prob, dihedral_prob):
    with criterion(12, "orbital decomposition and bi-invariant realization"):
        rng = random.Random(1212)
        for prob in (top_prob, die_prob, dihedral_prob):
            assert verify_hecke_isomorphism(prob)
            mats = orbital_matrices(prob)
            m = prob.index
            for _ in range(3):
                raw = [Fraction(rng.randint(1, 6)) for _ in mats]
                total = sum(c * sum(mat.matrix[0]) for c, mat in zip(raw, mats))
                coeffs = [c / total for c in raw]
                Q = [
                    [
                        sum(coeffs[k] * mats[k].matrix[i][j] for k in range(len(mats)))
                        for j in range(m)
                    ]
                    for i in range(m)
                ]
                ok, back, realizing = check_Q_characterization(prob, Q)
                assert ok and back == coeffs
                assert walk_lumped_matrix(prob, realizing) == Q
                assert strong_test(prob, realizing)[0] and exact_test(prob, realizing)[0]


def test_criterion_13_simulation_corroboration(sym4, top_prob, mid_swap_T, frustrator):
    with criterion(13, "sampled walks corroborate the exact lumped laws"):
        f = lumping_function(top_prob)
        n = 100_000
        # strongly lumping walk (criterion 2 family) and the weakly lumping
        # walk started at the averaging distribution (criterion 5)
        runs = [
            (random_to_top(sym4), eta(sym4, range(24)), 101),
            (frustrator, eta(sym4, mid_swap_T), 102),
        ]
        for w, alpha, seed in runs:
            trajectory = simulate_walk(top_prob, w, alpha, seed=seed, length=n)
            exact_Q = walk_lumped_matrix(top_prob, w)
            empirical = empirical_lumped_matrix(trajectory.lumps, f.n_lumps)
            visits = [0] * f.n_lumps
            for b in trajectory.lumps[:-1]:
                visits[b] += 1
            for i in range(f.n_lumps):
                bound = 4 / math.sqrt(visits[i])
                for j in range(f.n_lumps):
                    assert abs(empirical[i][j] - exact_Q[i][j]) <= bound
            assert markov_diagnostic(trajectory.lumps, f.n_lumps).clean
        # deterministic start: the ensemble diagnostic flags the top-top context
        delta = AlgebraElement.basis(sym4, 0)
        batch = simulate_ensemble(top_prob, frustrator, delta, seed=103, replicas=10_000, length=3)
        report = markov_diagnostic([t.lumps for t in batch], f.n_lumps)
        top = f.lump_of[0]
        assert (top, top) in [tuple(item["context"]) for item in report.flagged]
