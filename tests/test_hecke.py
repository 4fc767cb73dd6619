"""Orbital matrices, bi-invariant weights and achievable lumped matrices."""

import random
from fractions import Fraction

import pytest

from lumpwalk import (
    AlgebraElement,
    LumpingProblem,
    check_Q_characterization,
    hecke_project,
    orbital_matrices,
    verify_hecke_isomorphism,
    walk_lumped_matrix,
)
from lumpwalk import test_exact as exact_test
from lumpwalk import test_strong as strong_test
from lumpwalk.errors import DomainError
from tests.conftest import lazy_frustrator
from tests.oracle_suite import build_pool


def test_orbitals_two_transitive(sym4, top_prob):
    mats = orbital_matrices(top_prob)
    assert len(mats) == 2
    identity = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    offdiag = tuple(tuple(0 if i == j else 1 for j in range(4)) for i in range(4))
    assert {m.matrix for m in mats} == {identity, offdiag}


def test_orbitals_die(die_prob):
    mats = orbital_matrices(die_prob)
    assert len(mats) == 3
    total = [[0] * 6 for _ in range(6)]
    for o in mats:
        for i in range(6):
            for j in range(6):
                total[i][j] += o.matrix[i][j]
    assert all(x == 1 for row in total for x in row)
    assert sorted(sum(o.matrix[0]) for o in mats) == [1, 1, 4]


def test_orbital_whole_group(sym4):
    prob = LumpingProblem(sym4, sym4.subgroup(sym4.generators))
    mats = orbital_matrices(prob)
    assert len(mats) == 1 and mats[0].matrix == ((1,),)


def test_hecke_project(sym4, top_prob, frustrator):
    values = hecke_project(top_prob, frustrator)
    sizes = top_prob.double.sizes
    assert [v * size for v, size in zip(values, sizes)] == [Fraction(1, 4), Fraction(3, 4)]
    x = sym4.element_of("(1,2)")
    hx = hecke_project(top_prob, AlgebraElement.basis(sym4, x))
    cid = top_prob.double.class_of[x]
    assert hx[cid] == Fraction(1, top_prob.double.sizes[cid])
    # eta_H w eta_H takes the class values on each class, and as a
    # bi-invariant element it is a fixed point
    sandwiched = top_prob.eta_H * frustrator * top_prob.eta_H
    assert all(sandwiched.coeffs[g] == value
               for value, members in zip(values, top_prob.double.classes)
               for g in members)
    assert hecke_project(top_prob, sandwiched) == values


def test_q_characterization_uniform(sym4, top_prob, frustrator):
    Q = walk_lumped_matrix(top_prob, frustrator)
    assert all(q == Fraction(1, 4) for row in Q for q in row)
    ok, coefficients, realizing = check_Q_characterization(top_prob, Q)
    assert ok and coefficients == [Fraction(1, 4), Fraction(1, 4)]
    assert strong_test(top_prob, realizing)[0] and exact_test(top_prob, realizing)[0]
    assert walk_lumped_matrix(top_prob, realizing) == Q


def test_q_characterization_identity(sym4, top_prob):
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    ok, coefficients, realizing = check_Q_characterization(top_prob, identity)
    assert ok and realizing == top_prob.eta_H


def test_q_characterization_violations(top_prob):
    skew = [
        [Fraction(1, 2), Fraction(1, 2), 0, 0],
        [Fraction(1, 4)] * 4,
        [Fraction(1, 4)] * 4,
        [Fraction(1, 4)] * 4,
    ]
    ok, certificate, _ = check_Q_characterization(top_prob, skew)
    assert not ok and "entries" in certificate
    with pytest.raises(DomainError):
        check_Q_characterization(top_prob, [[Fraction(1, 2)] * 4] * 4)


def test_q_round_trip_random(sym4, top_prob, die_prob, dihedral_prob):
    rng = random.Random(42)
    for prob in (top_prob, die_prob, dihedral_prob):
        mats = orbital_matrices(prob)
        for _ in range(4):
            raw = [Fraction(rng.randint(1, 5)) for _ in mats]
            total = sum(c * sum(m.matrix[0]) for c, m in zip(raw, mats))
            coeffs = [c / total for c in raw]
            m = prob.index
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


def test_hecke_isomorphism(sym4, top_prob, die_prob, dihedral_prob):
    assert verify_hecke_isomorphism(top_prob)
    assert verify_hecke_isomorphism(die_prob)
    assert verify_hecke_isomorphism(dihedral_prob)
    # S4/V4 and S4/<(3,4)> have non-commutative Hecke algebras, so the
    # product order of the check matters there
    for label, G, hgens in build_pool():
        assert verify_hecke_isomorphism(LumpingProblem(G, G.subgroup(hgens))), label


def test_offdiagonal_orbital_square(top_prob):
    # for the two-class problem the isomorphism forces
    # (J - I)^2 = 3 I + 2 (J - I) in the orbital span
    mats = {sum(m.matrix[0]): m.matrix for m in orbital_matrices(top_prob)}
    J_minus_I = mats[3]
    square = [
        [sum(J_minus_I[i][k] * J_minus_I[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]
    expected = [[3 if i == j else 2 for j in range(4)] for i in range(4)]
    assert square == expected


def test_lumped_matrix_matches_biinvariant_projection(sym4, top_prob):
    # the lumped matrix of a weakly lumping weight equals that of its
    # bi-invariant projection
    rng = random.Random(8)
    for lam in (Fraction(1, 3), Fraction(4, 5)):
        w = lazy_frustrator(sym4, lam)
        projected = top_prob.eta_H * w * top_prob.eta_H
        assert walk_lumped_matrix(top_prob, w) == walk_lumped_matrix(top_prob, projected)
    del rng


def test_lumped_matrix_is_group_invariant(sym4, top_prob, frustrator):
    Q = walk_lumped_matrix(top_prob, frustrator)
    f_of = top_prob.left.coset_of
    reps = top_prob.left.representatives
    for k in range(24):
        for i, ri in enumerate(reps):
            for j, rj in enumerate(reps):
                ki = f_of[sym4.mul(k, ri)]
                kj = f_of[sym4.mul(k, rj)]
                assert Q[i][j] == Q[ki][kj]
