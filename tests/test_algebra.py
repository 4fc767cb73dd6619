"""Group-algebra arithmetic: convolution, star, projections, idempotents."""

import random
from fractions import Fraction

import pytest

from lumpwalk import (
    AlgebraElement,
    abelian_characters,
    coset_sums,
    eta,
    parse_cycles,
)
from lumpwalk.algebra import (
    character_idempotent,
    format_element,
    parse_element_file,
)
from lumpwalk.errors import DomainError, InputFormatError
from lumpwalk.lumping import require_E_bullet
from lumpwalk.scalars import RATIONALS, cyclotomic_field
from tests.conftest import lazy_frustrator
from tests.reference import inner_product


def random_element(G, rng, low=-3, high=3):
    return AlgebraElement(G, [Fraction(rng.randint(low, high)) for _ in range(G.order)])


def test_eta_idempotent(sym4, top_prob, mid_swap_T):
    eta_G = eta(sym4, range(24))
    assert all(c == Fraction(1, 24) for c in eta_G.coeffs)
    eta_H = top_prob.eta_H
    assert eta_H * eta_H == eta_H
    eta_T = eta(sym4, mid_swap_T)
    expected = AlgebraElement.from_pairs(
        sym4, [(0, Fraction(1, 2)), (sym4.element_of("(2,3)"), Fraction(1, 2))]
    )
    assert eta_T == expected
    with pytest.raises(DomainError):
        eta(sym4, [])


def test_convolution_identity_and_eta(sym4, mid_swap_T):
    rng = random.Random(7)
    a = random_element(sym4, rng)
    one = AlgebraElement.one(sym4)
    assert a * one == a and one * a == a
    eta_T = eta(sym4, mid_swap_T)
    assert eta_T * eta_T == eta_T


def test_frustrator_averaged_closed_form(sym4, mid_swap_T):
    # eta_T * w = (1-lam) eta_T + (lam/6) * (uniform on the right coset H(1,4))
    for lam in (Fraction(1, 4), Fraction(2, 3)):
        w = lazy_frustrator(sym4, lam)
        left = eta(sym4, mid_swap_T) * w
        h14 = [i for i in range(24) if sym4.images[i][0] == 3]
        expected = AlgebraElement(sym4, [(1 - lam) * c for c in eta(sym4, mid_swap_T).coeffs])
        for i in h14:
            expected.coeffs[i] += Fraction(lam, 6)
        assert left == expected


def test_star(sym4, frustrator):
    ws = frustrator.star()
    expected = AlgebraElement.from_pairs(sym4, [
        (sym4.element_of(text), Fraction(1, 4))
        for text in ("id", "(1,4)(2,3)", "(1,3,4)", "(1,3,2,4)")
    ])
    assert ws == expected
    eta_H = eta(sym4, sym4.subgroup([parse_cycles(4, "(2,3)"), parse_cycles(4, "(2,3,4)")]))
    assert eta_H.star() == eta_H
    rng = random.Random(3)
    for _ in range(5):
        a = random_element(sym4, rng)
        b = random_element(sym4, rng)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()


def test_projections(sym4, top_prob, frustrator):
    """The coset components b^-1 pi_bH(x) of `LumpingProblem.coset_components`,
    translated back by their representatives b, are the coset projections."""
    ehw = top_prob.eta_H * frustrator
    components = top_prob.coset_components(ehw)
    projections = [
        AlgebraElement.basis(sym4, rep) * top_prob.from_H_vector(comp)
        for rep, comp in zip(top_prob.left.representatives, components)
    ]
    c12 = top_prob.left.coset_of[sym4.element_of("(1,2)")]
    expected = AlgebraElement.from_pairs(
        sym4, [(sym4.element_of("(1,4,2)"), Fraction(1, 2)),
               (sym4.element_of("(1,4,3,2)"), Fraction(1, 2))]
    )
    assert projections[c12].normalized() == expected
    assert projections[top_prob.left.coset_of[0]].normalized() == top_prob.eta_H
    assert not any(map(any, top_prob.coset_components(AlgebraElement.zero(sym4))))
    # projections resolve the identity
    assert sum(projections[1:], projections[0]) == ehw


def test_inner_product(sym4, top_prob):
    eta_H = top_prob.eta_H
    assert inner_product(eta_H, eta_H) == Fraction(1, 144)
    rng = random.Random(11)
    a = random_element(sym4, rng)
    b = random_element(sym4, rng)
    assert inner_product(a, b) == RATIONALS.conjugate(inner_product(b, a))
    F = cyclotomic_field(4)
    ac = AlgebraElement(sym4, [F.zeta() * c for c in a.to_field(F).coeffs], F)
    assert inner_product(ac, b.to_field(F)) == F.conjugate(inner_product(b.to_field(F), ac))


def test_E_bullet(sym4, top_prob, mid_swap_T, die_prob):
    eta_T = eta(sym4, mid_swap_T)
    assert require_E_bullet(top_prob, eta_T) is eta_T
    half = AlgebraElement.from_pairs(sym4, [(0, Fraction(1, 2))])
    assert half * half != half
    with pytest.raises(DomainError, match="not idempotent"):
        require_E_bullet(top_prob, half)
    m, chars = abelian_characters(die_prob.subgroup)
    idems = [character_idempotent(die_prob.subgroup, chi, m) for chi in chars]
    e_P = idems[0] + idems[1] + idems[3]
    assert require_E_bullet(die_prob, e_P) is e_P
    with pytest.raises(DomainError, match="does not average to eta_H"):
        require_E_bullet(die_prob, idems[1])


def test_abelian_idempotents_die(sym4, die_prob):
    H = die_prob.subgroup
    m, chars = abelian_characters(H)
    assert m == 4 and len(chars) == 4
    F = cyclotomic_field(4)
    idems = [character_idempotent(H, chi, m) for chi in chars]
    # trivial character gives the averaging element
    assert idems[0] == die_prob.eta_H
    h = sym4.element_of("(1,2,3,4)")
    i_unit = F.zeta()
    # e for the character h -> -i is (1/4)(1 + i h - h^2 - i h^3)
    minus_i_char = next(
        k for k, chi in enumerate(chars) if chi[h] == 3
    )
    e = character_idempotent(H, chars[minus_i_char], m)
    expected = AlgebraElement.zero(sym4, F)
    expected.coeffs[0] = F.from_rational(Fraction(1, 4))
    expected.coeffs[h] = i_unit * Fraction(1, 4)
    expected.coeffs[sym4.mul(h, h)] = F.from_rational(Fraction(-1, 4))
    expected.coeffs[sym4.mul(sym4.mul(h, h), h)] = -i_unit * Fraction(1, 4)
    assert e == expected
    # sign character
    sign_index = next(k for k, chi in enumerate(chars) if chi[h] == 2)
    s = character_idempotent(H, chars[sign_index], m)
    h2 = sym4.mul(h, h)
    h3 = sym4.mul(h2, h)
    assert s.coeffs[0] == Fraction(1, 4) and s.coeffs[h] == Fraction(-1, 4)
    assert s.coeffs[h2] == Fraction(1, 4) and s.coeffs[h3] == Fraction(-1, 4)
    # orthogonality and completeness
    total = AlgebraElement.zero(sym4, F)
    for a in range(4):
        total = total + idems[a]
        for b in range(4):
            product = idems[a] * idems[b]
            assert product == (idems[a] if a == b else AlgebraElement.zero(sym4, F))
    assert total == AlgebraElement.one(sym4, F)


def test_abelian_character_validation(sym4, die_prob, top_prob):
    with pytest.raises(DomainError):
        abelian_characters(top_prob.subgroup)  # nonabelian
    H = die_prob.subgroup
    m, chars = abelian_characters(H)
    # every character is defined on exactly the members and is multiplicative
    for chi in chars:
        assert set(chi) == set(H.members)
        for a in H.members:
            for b in H.members:
                assert (chi[a] + chi[b]) % m == chi[sym4.mul(a, b)] % m


def test_coset_sums(sym4, top_prob, frustrator):
    sums = coset_sums(frustrator, top_prob.right)
    # all non-identity support lies in the right coset sending the top position to 4
    by_rep = {
        sym4.cycle_string(r): sums[cid]
        for cid, r in enumerate(top_prob.right.representatives)
    }
    assert sum(sums, Fraction(0)) == 1
    assert by_rep["id"] == Fraction(1, 4)
    assert coset_sums(AlgebraElement.zero(sym4), top_prob.right) == [0, 0, 0, 0]


def test_averaging(sym4, top_prob, mid_swap_T):
    """eta_T w is constant on right cosets of T; w eta_H constant on left
    cosets of H; eta_T w eta_H constant on (T, H) double cosets."""
    from lumpwalk.groups import cosets as make_cosets, double_cosets as make_double
    from tests.reference import coset_blocks

    rng = random.Random(23)
    T = mid_swap_T
    H = top_prob.subgroup
    eta_T = eta(sym4, T)
    eta_H = top_prob.eta_H
    right_T = make_cosets(sym4, T, "right")
    dc = make_double(sym4, T, top_prob.left)
    for _ in range(3):
        w = random_element(sym4, rng, 0, 4)
        left_avg = eta_T * w
        for cid, block in enumerate(coset_blocks(right_T)):
            values = {left_avg.coeffs[g] for g in block}
            assert len(values) == 1
            assert values.pop() * T.order == sum(w.coeffs[g] for g in block)
        wh = w * eta_H
        for block in coset_blocks(top_prob.left):
            values = {wh.coeffs[g] for g in block}
            assert len(values) == 1
            assert values.pop() * H.order == sum(w.coeffs[g] for g in block)
        both = eta_T * w * eta_H
        for cid, block in enumerate(dc.classes):
            values = {both.coeffs[g] for g in block}
            assert len(values) == 1
            assert values.pop() * dc.sizes[cid] == sum(w.coeffs[g] for g in block)


def test_star_exchanges_coset_sum_vectors(sym4, top_prob):
    rng = random.Random(5)
    for _ in range(4):
        w = random_element(sym4, rng, 0, 3)
        left_sums = sorted(coset_sums(w, top_prob.left))
        right_sums_star = sorted(coset_sums(w.star(), top_prob.right))
        assert left_sums == right_sums_star


def test_associativity_random(sym4):
    rng = random.Random(17)
    for _ in range(3):
        a = random_element(sym4, rng)
        b = random_element(sym4, rng)
        c = random_element(sym4, rng)
        assert (a * b) * c == a * (b * c)


def test_weight_checks(sym4):
    w = AlgebraElement.from_pairs(sym4, [(0, Fraction(1, 2))])
    assert w.is_weight()
    assert not w.is_irreducible_weight()
    neg = AlgebraElement.from_pairs(sym4, [(0, Fraction(-1))])
    assert not neg.is_weight()
    with pytest.raises(DomainError):
        neg.require_weight()
    with pytest.raises(DomainError):
        w.require_distribution()
    assert w.normalized().total() == 1


def test_element_file_roundtrip(sym4):
    text = "1/4 id\n1/4 (1,4)(2,3)\n1/4 (1,4,3)\n1/4 (1,4,2,3)\n"
    w = parse_element_file(text, sym4)
    assert w.total() == 1
    assert parse_element_file(format_element(w), sym4) == w
    dup = parse_element_file("1/8 id\n1/8 id\n", sym4)
    assert dup.coeffs[0] == Fraction(1, 4)
    cyclo = "scalar cyclotomic 4\n1/4 + 1/4*z id\n"
    e = parse_element_file(cyclo, sym4)
    assert e.field.order == 4
    assert parse_element_file(format_element(e), sym4) == e
    with pytest.raises(InputFormatError):
        parse_element_file("", sym4)
    with pytest.raises(InputFormatError):
        parse_element_file("1/4\n", sym4)
    with pytest.raises(InputFormatError):
        parse_element_file("1/4 id\nscalar cyclotomic 4\n", sym4)


def test_mixed_scalar_promotion(sym4):
    F = cyclotomic_field(4)
    a = AlgebraElement.one(sym4)
    b = AlgebraElement.from_pairs(sym4, [(0, F.zeta())], F)
    product = a * b
    assert product.field is F
    other = AlgebraElement.one(sym4, cyclotomic_field(3))
    with pytest.raises(DomainError):
        _ = b * other
