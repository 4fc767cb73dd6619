"""Group-specific lumping decisions against the generic oracle and known cases."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lumpwalk import (
    AlgebraElement,
    Distribution,
    LumpingProblem,
    Subspace,
    abelian_characters,
    abelian_weak_test,
    compute_Jw,
    compute_L_alpha_w,
    compute_Lw,
    conditional_law,
    eta,
    interpolation_test,
    lumping_function,
    parse_cycles,
    stable_ideal_check,
    theta_dimension,
    time_reversal_dual_idempotent,
    transition_from_weight,
)
from lumpwalk import test_exact as exact_test
from lumpwalk import test_strong as strong_test
from lumpwalk import test_weak_distribution as weak_dist_test
from lumpwalk import test_weak_weight as weak_weight_test
from lumpwalk import test_weak_generic as weak_generic
from lumpwalk import lumping
from lumpwalk.algebra import character_idempotent
from lumpwalk.errors import DomainError, InvariantError
from lumpwalk.linalg import IntegerRows
from lumpwalk.shuffles import bottom_card_cycle, random_to_top, symmetric_group, top_stabilizer, top_to_random
from lumpwalk.simulate import simulate_walk
from tests.conftest import counted_closures, lazy_frustrator, uniform_on
from tests.oracle_suite import (DIST_KINDS, WEIGHT_KINDS, build_pool, conditional_distribution,
                                random_subgroup_of, sample_distribution, sample_weight)
from tests.reference import (field_rank, full_subspace, left_ideal_closure, theta_dimension_by_rank,
                             theta_rows, to_subspace, verify_axioms)
from tests.test_properties import conjugate_index


def ideal_of(G, elem):
    return left_ideal_closure(Subspace(G.order, [elem.coeffs]), G)


def dist(elem):
    return Distribution(tuple(elem.coeffs))


# -- strong / exact ------------------------------------------------------------


def test_strong_exact_shuffles(sym4, top_prob):
    r2t, t2r = random_to_top(sym4), top_to_random(sym4)
    assert strong_test(top_prob, r2t) == (True, None)
    assert exact_test(top_prob, r2t)[0] is False
    assert exact_test(top_prob, t2r) == (True, None)
    assert strong_test(top_prob, t2r)[0] is False


@pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(3, 4), Fraction(1)])
def test_frustrator_neither_strong_nor_exact(sym4, top_prob, lam):
    w = lazy_frustrator(sym4, lam)
    verdict, cert = strong_test(top_prob, w)
    assert not verdict and cert is not None
    assert cert["double_coset"]
    verdict, cert = exact_test(top_prob, w)
    assert not verdict and cert is not None


def test_averaged_weight_lumps_strongly(sym4, top_prob, mid_swap_T, frustrator):
    w_strong = eta(sym4, mid_swap_T) * frustrator
    assert strong_test(top_prob, w_strong)[0]


def test_biinvariant_weights_lump_both_ways(sym4, top_prob):
    rng = random.Random(6)
    for _ in range(3):
        coeffs = [Fraction(rng.randint(1, 5)) for _ in range(top_prob.double.n_classes)]
        w = AlgebraElement.zero(sym4)
        for cid, c in enumerate(coeffs):
            for g in top_prob.double.classes[cid]:
                w.coeffs[g] = c
        assert strong_test(top_prob, w)[0] and exact_test(top_prob, w)[0]


# -- stable ideal checks ----------------------------------------------------------


def test_stable_ideal_check_cases(sym4, top_prob, mid_swap_T, frustrator, die_prob, die_weight):
    eta_T = eta(sym4, mid_swap_T)
    assert stable_ideal_check(top_prob, frustrator, eta_T) == (True, [])
    ok, failed = stable_ideal_check(top_prob, frustrator, top_prob.eta_H)
    assert not ok and failed == ["ideal-not-stable"]
    m, chars = abelian_characters(die_prob.subgroup)
    idems = [character_idempotent(die_prob.subgroup, chi, m) for chi in chars]
    e_P = idems[0] + idems[1] + idems[3]
    assert stable_ideal_check(die_prob, die_weight, e_P) == (True, [])
    with pytest.raises(DomainError):
        half = AlgebraElement.from_pairs(sym4, [(0, Fraction(1, 2))])
        stable_ideal_check(top_prob, frustrator, half)
    with pytest.raises(DomainError):
        # idempotent but not supported on the subgroup
        stable_ideal_check(top_prob, frustrator, eta(sym4, range(24)))


def test_stable_check_strong_and_exact_degenerations(sym4, top_prob, frustrator):
    one = AlgebraElement.one(sym4)
    ok_one, _ = stable_ideal_check(top_prob, random_to_top(sym4), one)
    assert ok_one == strong_test(top_prob, random_to_top(sym4))[0]
    ok_eta, _ = stable_ideal_check(top_prob, top_to_random(sym4), top_prob.eta_H)
    assert ok_eta == exact_test(top_prob, top_to_random(sym4))[0]
    assert stable_ideal_check(top_prob, frustrator, one)[0] is False
    assert stable_ideal_check(top_prob, frustrator, top_prob.eta_H)[0] is False


# -- minimal ideal -----------------------------------------------------------------


@pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
def test_minimal_ideal_is_mid_swap_ideal(sym4, top_prob, mid_swap_T, lam):
    w = lazy_frustrator(sym4, lam)
    ideal = compute_Lw(top_prob, w)
    assert ideal.dim == 12
    assert ideal.weakly_lumping
    assert full_subspace(ideal) == ideal_of(sym4, eta(sym4, mid_swap_T))


def test_minimal_ideal_of_averaged_weight(sym4, top_prob, mid_swap_T, frustrator):
    w_strong = eta(sym4, mid_swap_T) * frustrator
    ideal = compute_Lw(top_prob, w_strong)
    assert full_subspace(ideal) == ideal_of(sym4, eta(sym4, mid_swap_T))


def test_minimal_ideal_biinvariant_weight(sym4, top_prob):
    # strongly and exactly lumping bi-invariant weight: minimal ideal is the
    # averaging ideal with trivial cut
    w = AlgebraElement.zero(sym4)
    w.coeffs[0] = Fraction(1, 2)
    for g in top_prob.double.classes[1]:
        w.coeffs[g] = Fraction(1, 36)
    assert strong_test(top_prob, w)[0] and exact_test(top_prob, w)[0]
    ideal = compute_Lw(top_prob, w)
    assert full_subspace(ideal) == ideal_of(sym4, top_prob.eta_H)
    assert ideal.dim == 4


def test_minimal_ideal_requires_irreducible(sym4, top_prob):
    w = AlgebraElement.from_pairs(sym4, [(0, Fraction(1, 2)),
                                         (sym4.element_of("(2,3)"), Fraction(1, 2))])
    with pytest.raises(DomainError):
        compute_Lw(top_prob, w)
    with pytest.raises(DomainError):
        weak_weight_test(top_prob, w)


def test_weak_weight_verdicts(sym4, top_prob, dihedral10, dihedral_prob, frustrator):
    ok, ideal, cert = weak_weight_test(top_prob, frustrator)
    assert ok and cert is None
    for n in (4, 5):
        G = symmetric_group(n)
        prob = LumpingProblem(G, top_stabilizer(G))
        ok, _, _ = weak_weight_test(prob, bottom_card_cycle(G))
        assert ok
    # an unbalanced dihedral weight does not lump weakly; the generic oracle agrees
    G, sigma, tau = dihedral10
    w = AlgebraElement.from_pairs(G, [
        (sigma, Fraction(1, 4)),
        (G.mul(sigma, tau), Fraction(1, 2)),
        (tau, Fraction(1, 4)),
    ])
    ok, _, cert = weak_weight_test(dihedral_prob, w)
    assert not ok and cert is not None
    oracle, _ = weak_generic(
        lumping_function(dihedral_prob), transition_from_weight(G, w), Distribution.uniform(10)
    )
    assert not oracle


# -- maximal ideal and start distributions ---------------------------------------


def test_maximal_ideal(sym4, top_prob, mid_swap_T, frustrator):
    jw = compute_Jw(top_prob, frustrator)
    assert jw.dim == 12
    assert full_subspace(jw) == ideal_of(sym4, eta(sym4, mid_swap_T))
    w_strong = eta(sym4, mid_swap_T) * frustrator
    assert compute_Jw(top_prob, w_strong).dim == 24
    # exactly lumping weight: the maximal ideal contains the averaging ideal
    jt = compute_Jw(top_prob, top_to_random(sym4))
    assert jt.contains(top_prob.eta_H)
    nonlumping = AlgebraElement.from_pairs(
        sym4, [(sym4.element_of("(1,2)"), Fraction(1, 2)),
               (sym4.element_of("(1,2,3,4)"), Fraction(1, 2))]
    )
    with pytest.raises(DomainError):
        compute_Jw(top_prob, nonlumping)


def test_weak_distribution_cases(sym4, top_prob, mid_swap_T, frustrator):
    eta_G = eta(sym4, range(24))
    eta_T = eta(sym4, mid_swap_T)
    delta = AlgebraElement.basis(sym4, 0)
    assert weak_dist_test(top_prob, frustrator, eta_G)[0]
    assert weak_dist_test(top_prob, frustrator, eta_T)[0]
    assert weak_dist_test(top_prob, frustrator, delta)[0] is False
    # translated averaging starts stay admissible
    b = sym4.element_of("(1,2)")
    assert weak_dist_test(top_prob, frustrator, AlgebraElement.basis(sym4, b) * eta_T)[0]


def test_weak_distribution_nonlumping_weight(sym4, top_prob):
    w = AlgebraElement.from_pairs(
        sym4, [(sym4.element_of("(1,2)"), Fraction(1, 2)),
               (sym4.element_of("(1,2,3,4)"), Fraction(1, 2))]
    )
    ok, _, _ = weak_weight_test(top_prob, w)
    assert not ok
    verdict, jw = weak_dist_test(top_prob, w, eta(sym4, range(24)))
    assert verdict is False and jw is None


def test_test_dist_closes_L_w_once(sym4, mid_swap_T, frustrator, monkeypatch):
    """`test_weak_distribution` asks for L_w twice, for its own verdict and
    inside `compute_Jw`, and the problem closes it once.  The frustrator
    does not lump strongly, so the cut of L_{w*} (``last``) is closed as
    well; the averaged frustrator lumps strongly and closes nothing more."""
    calls = counted_closures(monkeypatch)
    problem = LumpingProblem(sym4, top_stabilizer(sym4))
    assert weak_dist_test(problem, frustrator, eta(sym4, mid_swap_T))[0]
    assert calls == [False, True]
    calls.clear()
    strong = eta(sym4, mid_swap_T) * frustrator
    verdict, jw = weak_dist_test(problem, strong, AlgebraElement.basis(sym4, 0))
    assert verdict and jw.dim == 24 and calls == [False]


def test_last_minimal_ideal_is_kept_by_integral_form(sym4, frustrator, monkeypatch):
    """A problem keeps the last L_w it has closed, by the integral form of
    the weight: a positive multiple with the same integral form reads the
    kept cut and certificate, a different weight replaces the entry (the
    problem holds one cut at most), a weight that does not lump keeps its
    certificate, and L_alpha keeps nothing."""
    calls = counted_closures(monkeypatch)
    problem = LumpingProblem(sym4, top_stabilizer(sym4))
    first = compute_Lw(problem, frustrator)
    half = AlgebraElement(sym4, [c / 2 for c in frustrator.coeffs])  # the same D w
    again = compute_Lw(problem, half)
    assert calls == [False] and problem._last_Lw[1] is first.cut
    assert again.cut is first.cut and again.problem is problem
    assert (again.dim, again.weakly_lumping, again.cut_violation) == \
        (first.dim, True, None)
    nonlumping = AlgebraElement.from_pairs(
        sym4, [(sym4.element_of("(1,2)"), Fraction(1, 3)),
               (sym4.element_of("(1,2,3,4)"), Fraction(2, 3))]
    )
    verdict, ideal, certificate = weak_weight_test(problem, nonlumping)
    assert not verdict and calls == [False, False]
    assert ideal.cut is not first.cut and problem._last_Lw[1] is ideal.cut
    assert weak_weight_test(problem, nonlumping) == (False, ideal, certificate)
    assert calls == [False, False]
    assert compute_Lw(problem, frustrator).cut == first.cut  # replaced: closed again
    assert len(calls) == 3
    scaled = AlgebraElement(sym4, [8 * c for c in frustrator.coeffs])  # D w twice the above
    assert compute_Lw(problem, scaled).cut == first.cut
    assert len(calls) == 4
    kept = problem._last_Lw
    compute_L_alpha_w(problem, frustrator, eta(sym4, range(24)))
    assert len(calls) == 5 and problem._last_Lw is kept


def test_sandwich_containment(sym4, top_prob, mid_swap_T, frustrator):
    lw = compute_Lw(top_prob, frustrator)
    jw = compute_Jw(top_prob, frustrator)
    l_alpha, ok = compute_L_alpha_w(top_prob, frustrator, eta(sym4, mid_swap_T))
    assert ok
    assert all(to_subspace(l_alpha.cut).contains(row) for row in lw.cut.rows)
    assert all(to_subspace(jw.cut).contains(row) for row in l_alpha.cut.rows)


def test_L_alpha_cases(sym4, top_prob, mid_swap_T, frustrator):
    lw = compute_Lw(top_prob, frustrator)
    ideal_u, ok_u = compute_L_alpha_w(top_prob, frustrator, eta(sym4, range(24)))
    assert ok_u and ideal_u.cut == lw.cut
    ideal_T, ok_T = compute_L_alpha_w(top_prob, frustrator, eta(sym4, mid_swap_T))
    assert ok_T and full_subspace(ideal_T) == ideal_of(sym4, eta(sym4, mid_swap_T))
    ideal_d, ok_d = compute_L_alpha_w(top_prob, frustrator, AlgebraElement.basis(sym4, 0))
    assert not ok_d
    assert ideal_d.dim > 12
    # agreement with the membership test
    assert weak_dist_test(top_prob, frustrator, AlgebraElement.basis(sym4, 0))[0] is False


# -- duality -------------------------------------------------------------------------


def test_dual_idempotent(sym4, top_prob, mid_swap_T, frustrator):
    eta_T = eta(sym4, mid_swap_T)
    dual = time_reversal_dual_idempotent(top_prob, eta_T)
    one = AlgebraElement.one(sym4)
    assert dual == one - eta_T + top_prob.eta_H
    assert stable_ideal_check(top_prob, frustrator.star(), dual)[0]
    assert time_reversal_dual_idempotent(top_prob, top_prob.eta_H) == one
    assert time_reversal_dual_idempotent(top_prob, one) == top_prob.eta_H


def test_duality_on_random_pairs(sym4, top_prob, mid_swap_T):
    rng = random.Random(77)
    H = top_prob.subgroup
    eta_T = eta(sym4, mid_swap_T)
    candidates = [eta_T, top_prob.eta_H, AlgebraElement.one(sym4)]
    for _ in range(6):
        w = AlgebraElement(sym4, [Fraction(rng.randint(0, 3)) for _ in range(24)])
        if not w.is_weight():
            continue
        e = candidates[rng.randrange(len(candidates))]
        dual = time_reversal_dual_idempotent(top_prob, e)
        assert stable_ideal_check(top_prob, w, e)[0] == stable_ideal_check(
            top_prob, w.star(), dual
        )[0]


# -- interpolation ----------------------------------------------------------------


def test_interpolation_bottom_card(sym4, top_prob, mid_swap_T):
    w = bottom_card_cycle(sym4)
    ok, failed = interpolation_test(top_prob, mid_swap_T, w)
    assert ok and failed == []
    # the two-sided degenerations
    t2r = top_to_random(sym4)
    assert interpolation_test(top_prob, top_prob.subgroup, t2r)[0] == exact_test(top_prob, t2r)[0]
    r2t = random_to_top(sym4)
    trivial = sym4.subgroup([])
    assert interpolation_test(top_prob, trivial, r2t)[0] == strong_test(top_prob, r2t)[0]
    assert interpolation_test(top_prob, trivial, t2r)[0] == strong_test(top_prob, t2r)[0]
    with pytest.raises(DomainError):
        interpolation_test(top_prob, sym4.subgroup([parse_cycles(4, "(1,2)")]), w)


def test_interpolation_certifies_stability(sym4, top_prob, mid_swap_T, frustrator):
    ok, _ = interpolation_test(top_prob, mid_swap_T, frustrator)
    assert ok
    assert stable_ideal_check(top_prob, frustrator, eta(sym4, mid_swap_T))[0]


# -- compatibility-algebra dimensions ------------------------------------------------


def test_theta_dimensions(sym4, top_prob, die_prob):
    d, per = theta_dimension(top_prob, top_prob.eta_H)
    assert d == 22
    assert d == top_prob.double.n_classes + 24 - 24 // top_prob.subgroup.order
    one = AlgebraElement.one(sym4)
    d1, _ = theta_dimension(top_prob, one)
    assert d1 == 22
    dd, perd = theta_dimension(die_prob, die_prob.eta_H)
    assert dd == 21 == die_prob.double.n_classes + 24 - 24 // die_prob.subgroup.order
    d1d, per1d = theta_dimension(die_prob, one)
    assert d1d == 21
    assert sorted(per1d) == [0, 0, 3]  # three constraints, all on the large class
    m, chars = abelian_characters(die_prob.subgroup)
    idems = [character_idempotent(die_prob.subgroup, chi, m) for chi in chars]
    e_P = idems[0] + idems[1] + idems[3]
    dP, perP = theta_dimension(die_prob, e_P)
    assert dP == 19
    assert sorted(perP) == [0, 0, 5]
    # per-class split matches a global rank computation
    global_dim = _theta_dimension_global(die_prob, e_P)
    assert global_dim == dP


def _theta_dimension_global(problem, e):
    """Independent oracle: one rank over the whole group algebra, no class
    split, over Q(zeta_n) through the rotations of each row."""
    G = problem.group
    return G.order - field_rank(theta_rows(problem, e, range(G.order)), e.field)


def _theta_idempotents(rng, problem):
    """Idempotents of E_bullet for the differential tests: 1, eta_H, eta_T for
    two random subgroups T of H, and sums of character idempotents of
    T = <t> for t of the largest order in H: the averaging one plus the first
    other one (not real once the order is above 2), and plus a random set of
    the others."""
    G, H = problem.group, problem.subgroup
    out = [AlgebraElement.one(G), problem.eta_H]
    out += [eta(G, random_subgroup_of(rng, H)) for _ in range(2)]
    T = max((G.subgroup([t]) for t in H.members), key=lambda T: T.order)
    m, chars = abelian_characters(T)
    idems = [character_idempotent(T, chi, m) for chi in chars]
    if len(idems) > 1:
        out.append(idems[0] + idems[1])
    e = idems[0]
    for b in rng.sample(range(1, len(chars)), rng.randint(0, len(chars) - 1)):
        e = e + idems[b]
    out.append(e)
    return out


def test_theta_dimension_matches_rotation_rank():
    """The trace count of `theta_dimension` equals, per double coset, the rank
    of the dense constraint rows, over Q(zeta_n) through their rotations, on
    every pool pair up to order 30, with rational and cyclotomic idempotents,
    and on S5 over its top-card stabiliser once."""
    rng = random.Random(29)
    cyclotomic = 0
    for label, G, hgens in build_pool():
        if G.order > 30:
            continue
        problem = LumpingProblem(G, G.subgroup(hgens))
        for e in _theta_idempotents(rng, problem):
            assert theta_dimension(problem, e) == theta_dimension_by_rank(problem, e), label
            cyclotomic += not all(e.field.is_rational_value(c) for c in e.coeffs)
    assert cyclotomic > 0
    S5 = symmetric_group(5)
    problem = LumpingProblem(S5, top_stabilizer(S5))
    e = eta(S5, S5.subgroup([parse_cycles(5, "(2,3)")]))
    assert theta_dimension(problem, e) == theta_dimension_by_rank(problem, e) == (91, [5, 24])


def test_theta_dimension_s6():
    """S6 over its top-card stabiliser with e = eta of <(2,3)>: 549, per class [27, 144]."""
    S6 = symmetric_group(6)
    problem = LumpingProblem(S6, top_stabilizer(S6))
    e = eta(S6, S6.subgroup([parse_cycles(6, "(2,3)")]))
    assert theta_dimension(problem, e) == (549, [27, 144])


def test_theta_count_that_is_not_an_integer_raises(monkeypatch, top_prob):
    """A constraint count is a rank; an element let past the idempotent check
    that gives a fractional trace is an invariant error, not a dimension."""
    third = AlgebraElement.from_pairs(top_prob.group, [(0, Fraction(1, 3))])
    monkeypatch.setattr(lumping, "require_E_bullet", lambda problem, e: e)
    with pytest.raises(InvariantError, match="not an integer"):
        theta_dimension(top_prob, third)


def test_theta_multiplicative_closure(sym4, top_prob, mid_swap_T):
    # elements compatible with the same idempotent stay compatible under products
    from lumpwalk.linalg import nullspace

    e = eta(sym4, mid_swap_T)
    one = AlgebraElement.one(sym4)
    eta_H = top_prob.eta_H
    rows = []
    for g in range(24):
        basis_g = AlgebraElement.basis(sym4, g)
        img1 = e * basis_g * (one - e)
        img2 = (e - eta_H) * basis_g * eta_H
        rows.append(img1.coeffs + img2.coeffs)
    transposed = [[rows[g][k] for g in range(24)] for k in range(48)]
    members = to_subspace(nullspace(transposed, 24))
    rng = random.Random(13)

    def random_member():
        out = AlgebraElement.zero(sym4)
        for row in members.rows:
            c = Fraction(rng.randint(-2, 2))
            if c:
                out = out + AlgebraElement(sym4, [c * x for x in row])
        return out

    def in_theta(x):
        return (e * x * (one - e)).is_zero() and ((e - eta_H) * x * eta_H).is_zero()

    for _ in range(4):
        w1, w2 = random_member(), random_member()
        assert in_theta(w1) and in_theta(w2)
        assert in_theta(w1 * w2)


# -- abelian enumeration -----------------------------------------------------------


def test_closure_insert_counts_on_s6(monkeypatch):
    """A work-count guard on the translation rule of the weak closures:
    S6 over its top-card stabiliser, L_w of random-to-top takes at most 260
    `IntegerRows.insert` calls (249 with the rule, 907 with every map on
    every vector) and L_w of the reversed bottom-card weight at most 200
    (183 and 609).  Counts, unlike times, do not depend on the machine.
    The patched method is the spin store's own `insert`, and `echelon`
    calls none, so a count of zero would mean the guard counts nothing."""
    calls = []
    insert = IntegerRows.insert

    def counted(self, vector):
        calls.append(None)
        return insert(self, vector)

    monkeypatch.setattr(IntegerRows, "insert", counted)
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    for name, w, cap in (("rtt", random_to_top(G), 260), ("bottom*", bottom_card_cycle(G).star(), 200)):
        calls.clear()
        assert compute_Lw(problem, w).weakly_lumping, name
        assert 0 < len(calls) <= cap, (name, len(calls))


def test_jw_insert_counts_on_s6(monkeypatch):
    """A work-count guard on the one echelon of the cut of L_{w*}: S6 over
    its top-card stabiliser, `compute_Jw` takes at most 207 `IntegerRows.insert`
    calls for bottom-card (23 for L_w, 183 for L_{w*}, 1 for eta_H; a second
    echelon of the cut in `nullspace` would add 76) and at most 259 for
    random-to-top (260 with that second echelon).  Both column orders spin
    on the one `IntegerRows.insert`, and `echelon` calls none, so a count of
    zero would mean the guard counts nothing."""
    calls = []
    insert = IntegerRows.insert

    def counted(self, vector):
        calls.append(None)
        return insert(self, vector)

    monkeypatch.setattr(IntegerRows, "insert", counted)
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    for name, w, cap in (("bottom", bottom_card_cycle(G), 207), ("rtt", random_to_top(G), 259)):
        calls.clear()
        compute_Jw(problem, w)
        assert 0 < len(calls) <= cap, (name, len(calls))


def test_closure_reduce_counts_on_s6(monkeypatch):
    """A work-count guard on the offered-once rule of the spin store: a
    vector `IntegerRows.insert` was given before lies in the span, so it is
    not reduced again.  S6 over its top-card stabiliser, L_w of random-to-top
    takes at most 130 `IntegerRows.reduce` calls (128; 249 when every insert
    reduces), L_w of the reversed bottom-card weight at most 105 (103; 183)
    and `compute_Jw` of bottom-card at most 115 (111; 207).  The insert
    counts of the two guards above do not change.  `echelon` and `nullspace`
    reduce nothing, so a count of zero would mean the guard counts nothing."""
    calls = []
    reduce = IntegerRows.reduce

    def counted(self, vector):
        calls.append(None)
        return reduce(self, vector)

    monkeypatch.setattr(IntegerRows, "reduce", counted)
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    bottom = bottom_card_cycle(G)
    for name, compute, w, cap in (("rtt", compute_Lw, random_to_top(G), 130),
                                  ("bottom*", compute_Lw, bottom.star(), 105),
                                  ("bottom jw", compute_Jw, bottom, 115)):
        calls.clear()
        compute(problem, w)
        assert 0 < len(calls) <= cap, (name, len(calls))


def test_abelian_test_die(die_prob, die_weight):
    ok, P, e_P = abelian_weak_test(die_prob, die_weight)
    assert ok and P == (0, 1, 3)
    m, chars = abelian_characters(die_prob.subgroup)
    idems = [character_idempotent(die_prob.subgroup, chi, m) for chi in chars]
    assert e_P == idems[0] + idems[1] + idems[3]
    ok_star, P_star, _ = abelian_weak_test(die_prob, die_weight.star())
    assert ok_star and P_star == (0, 2)
    # both witnesses are conjugation-closed already, so `--real-only` has nothing to add
    for witness in (P, P_star):
        conjugates = {conjugate_index(die_prob.subgroup, m, chars, b) for b in witness}
        assert conjugates == set(witness)


def test_abelian_test_agrees_with_ideal_test(sym4, die_prob, die_weight):
    perturbed = AlgebraElement(sym4, list(die_weight.coeffs))
    perturbed.coeffs[sym4.element_of("(1,2)")] += Fraction(1, 12)
    ok, _, _ = abelian_weak_test(die_prob, perturbed)
    group_ok, _, _ = weak_weight_test(die_prob, perturbed)
    oracle, _ = weak_generic(
        lumping_function(die_prob),
        transition_from_weight(sym4, perturbed),
        Distribution.uniform(24),
    )
    assert ok == group_ok == oracle == False  # noqa: E712


def test_abelian_test_rejects_nonabelian(top_prob, frustrator):
    with pytest.raises(DomainError):
        abelian_weak_test(top_prob, frustrator)


# -- small subgroups --------------------------------------------------------------


def test_small_subgroup_verdicts(dihedral10, dihedral_prob):
    G, sigma, tau = dihedral10
    sig_tau = G.mul(sigma, tau)
    tau_sig = G.mul(tau, sigma)
    exact_w = uniform_on(G, [sigma, sig_tau])         # supported on one left coset
    strong_w = uniform_on(G, [sigma, tau_sig])        # supported on one right coset
    both_w = uniform_on(G, [sig_tau, tau_sig])        # two reflections
    none_w = AlgebraElement.from_pairs(G, [
        (sigma, Fraction(1, 4)), (sig_tau, Fraction(1, 2)), (tau, Fraction(1, 4))
    ])
    # the three-element balanced weight happens to lump exactly
    balanced = uniform_on(G, [sigma, sig_tau, tau])
    labels = {(True, True): "strong+exact", (True, False): "strong",
              (False, True): "exact", (False, False): "none"}
    for w, label in ((exact_w, "exact"), (strong_w, "strong"), (both_w, "strong+exact"),
                     (none_w, "none"), (balanced, "exact")):
        strong, _ = strong_test(dihedral_prob, w)
        exact, _ = exact_test(dihedral_prob, w)
        weak, _, _ = weak_weight_test(dihedral_prob, w)
        # for |H| <= 3, weak lumping forces strong or exact lumping
        assert weak == (strong or exact), label
        assert labels[(strong, exact)] == label


@pytest.mark.parametrize("test, side", [(strong_test, "left"), (exact_test, "right")])
def test_strong_exact_self_check_raises_on_disagreement(monkeypatch, top_prob, frustrator, test, side):
    """The closed-form obstruction cross-checks the coset-sum criterion without assert."""
    verdict, _ = test(top_prob, frustrator)
    calls = []

    def flipped(problem, sums, s, scale):
        calls.append(s)
        return not verdict, None

    monkeypatch.setattr(lumping, "_double_coset_constancy", flipped)
    with pytest.raises(InvariantError, match="criteria disagree"):
        test(top_prob, frustrator)
    assert calls == [side]


def test_ideal_axioms_recomputable(sym4, top_prob, frustrator):
    lw = compute_Lw(top_prob, frustrator)
    assert verify_axioms(lw, frustrator) == {
        "contains_uniform": True,
        "stable_under_weight": True,
        "induced": True,
        "cut_stable": True,
    }
    jw = compute_Jw(top_prob, frustrator)
    assert all(verify_axioms(jw, frustrator).values())
    # the minimal ideal of a non-lumping weight fails only the cut axiom
    w = AlgebraElement.from_pairs(
        sym4, [(sym4.element_of("(1,2)"), Fraction(1, 2)),
               (sym4.element_of("(1,2,3,4)"), Fraction(1, 2))]
    )
    ideal = compute_Lw(top_prob, w)
    flags = verify_axioms(ideal, w)
    assert flags["contains_uniform"] and flags["stable_under_weight"] and flags["induced"]
    assert not flags["cut_stable"]


def test_right_cosets_are_built_only_when_read(sym4, frustrator):
    """Strong and weak verdicts read the left cosets only; the exact verdict
    builds the right cosets on first use."""
    for test in (strong_test, weak_weight_test):
        problem = LumpingProblem(sym4, top_stabilizer(sym4))
        test(problem, frustrator)
        assert "right" not in problem.__dict__, test.__name__
        exact_test(problem, frustrator)
        assert problem.__dict__["right"].side == "right"


# -- the law of the state given a coset history --------------------------------------


def coset_histories(rng, problem, w, alpha, count):
    """`count` coset histories of length 1 to 8: half drawn uniformly, which
    often have an impossible prefix, and half read off sampled paths."""
    out = []
    for k in range(count):
        length = rng.randint(1, 8)
        if k % 2:
            out.append([rng.randrange(problem.index) for _ in range(length)])
        else:
            out.append(list(simulate_walk(problem, w, alpha, rng.getrandbits(64),
                                          length - 1).lumps))
    return out


def compare_conditional_laws(problem, w, alpha, histories, P=None) -> Counter:
    """`conditional_law` against the chain filter of the oracle on the walk
    matrix P of w, on each history: the same law, or the same message for an
    impossible prefix.  Counts the outcomes."""
    f = lumping_function(problem)
    P = P or transition_from_weight(problem.group, w)
    start = Distribution(tuple(alpha.coeffs))
    outcomes = Counter()
    for history in histories:
        try:
            law = conditional_distribution(f, P, start, history)
            expected = {x: p for x, p in enumerate(law.probs) if p}
        except DomainError as error:
            with pytest.raises(DomainError) as raised:
                conditional_law(problem, w, alpha, history)
            assert str(raised.value) == str(error), history
            outcomes["impossible"] += 1
            continue
        assert conditional_law(problem, w, alpha, history) == expected, history
        outcomes["law"] += 1
    return outcomes


def test_conditional_law_matches_the_chain_filter_on_pool():
    """On every pool pair, weight kind and start kind, the filter on the group
    gives the law of the chain filter, or its message, on random histories
    and on histories of sampled paths."""
    rng = random.Random(39)
    outcomes = Counter()
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue
            w = sample_weight(rng, problem, kind).require_weight()
            P = transition_from_weight(G, w)
            for start in DIST_KINDS:
                alpha = sample_distribution(rng, problem, start).require_distribution()
                histories = coset_histories(rng, problem, w, alpha, 4)
                outcomes += compare_conditional_laws(problem, w, alpha, histories, P)
    assert outcomes["law"] > 100 and outcomes["impossible"] > 50, outcomes


@pytest.mark.parametrize("shuffle", [bottom_card_cycle, random_to_top])
def test_conditional_law_matches_the_chain_filter_on_s6(shuffle):
    """The top-card problem S6/S5 from a point and from the uniform start, an
    empty history among them."""
    rng = random.Random(6)
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    w = shuffle(G)
    P = transition_from_weight(G, w)
    outcomes = Counter()
    for alpha in (AlgebraElement.basis(G, rng.randrange(G.order)), eta(G, range(G.order))):
        histories = [[], *coset_histories(rng, problem, w, alpha, 6)]
        outcomes += compare_conditional_laws(problem, w, alpha, histories, P)
    assert outcomes["law"] >= 8 and outcomes["impossible"], outcomes
