"""Cross-cutting invariants: oracle agreement, dualities, well-definedness."""

import random
from fractions import Fraction
from itertools import combinations

from lumpwalk import (
    AlgebraElement,
    Distribution,
    LumpingProblem,
    abelian_character_idempotent,
    abelian_characters,
    abelian_weak_test,
    compute_Vmax_generic,
    coset_sums,
    eta,
    hecke_project,
    inner_product,
    left_ideal_closure,
    lumped_transition_matrix,
    lumping_function,
    minimal_GL_space,
    orbital_matrices,
    span,
    stable_ideal_check,
    transition_from_weight,
    verify_hecke_isomorphism,
    walk_lumped_matrix,
)
from lumpwalk import test_exact as exact_test
from lumpwalk import test_strong as strong_test
from lumpwalk import test_weak_weight as weak_weight_test
from lumpwalk import test_weak_generic as weak_generic
from lumpwalk.linalg import Subspace, intersect, nullspace
from lumpwalk.lumping import _averaging_kernel, _cut_coset_values, _first_cut_violation
from lumpwalk.lumping import compute_Lw
from lumpwalk.scalars import RATIONALS, cyclotomic_field
from tests.conftest import lazy_frustrator
from tests.oracle_suite import WEIGHT_KINDS, build_pool, run_suite, sample_weight, theta_basis


def test_oracle_suite_small_batch():
    tally = run_suite(40, seed=2024)
    assert tally["count"] == 40
    # the batch must exercise both verdict values at every level
    assert 0 < tally["weak"] < 40
    assert 0 < tally["strong"] < 40
    assert 0 < tally["weak_alpha"] < 40


def dense_lumped_matrix(problem, w):
    """Reference: coset sums of the dense product eta_H w, for the normalized weight."""
    sums = coset_sums(problem.eta_H * w.normalized(), problem.left)
    G, left = problem.group, problem.left
    return [
        [sums[left.coset_of[G.mul(G.inv(ri), rj)]] for rj in left.representatives]
        for ri in left.representatives
    ]


def averaged_class_element(problem, cid):
    """The uniform element 1_C / |C| of one double coset."""
    out = AlgebraElement.zero(problem.group)
    for g in problem.double.classes[cid]:
        out.coeffs[g] = Fraction(1, problem.double.sizes[cid])
    return out


def dense_hecke_check(problem, anti=False):
    """Reference: the orbital map on dense products of averaged class elements.

    1_A/|A| * 1_B/|B| must be bi-invariant and map to (M_A/m_A)(M_B/m_B), or
    to (M_B/m_B)(M_A/m_A) with ``anti``.
    """
    orbitals = orbital_matrices(problem)
    m = problem.index
    n_classes = problem.double.n_classes

    def scaled(cid):
        mc = orbitals[cid].ones_per_row
        return [[Fraction(x, mc) for x in row] for row in orbitals[cid].matrix]

    def mat_mul(A, B):
        return [
            [sum((A[i][k] * B[k][j] for k in range(m)), Fraction(0)) for j in range(m)]
            for i in range(m)
        ]

    basis = [averaged_class_element(problem, cid) for cid in range(n_classes)]
    for a in range(n_classes):
        for b in range(n_classes):
            product = basis[a] * basis[b]
            image = [[Fraction(0)] * m for _ in range(m)]
            for cid in range(n_classes):
                value = product.coeffs[problem.double.representatives[cid]]
                if any(product.coeffs[g] != value for g in problem.double.classes[cid]):
                    return False
                block = scaled(cid)
                for i in range(m):
                    for j in range(m):
                        image[i][j] += value * problem.double.sizes[cid] * block[i][j]
            expected = mat_mul(scaled(b), scaled(a)) if anti else mat_mul(scaled(a), scaled(b))
            if image != expected:
                return False
    return True


def cut_element(problem, w, side="left"):
    """The obstruction of one side as an element: its coset value at every group element."""
    decomposition = problem.left if side == "left" else problem.right
    values = _cut_coset_values(problem, w, side)
    return AlgebraElement(problem.group, [values[c] for c in decomposition.coset_of])


def test_closed_forms_match_dense_references_on_pool():
    """The closed forms of the weak and verdict paths against the dense products they replace."""
    rng = random.Random(4242)
    anti_order_fails = []
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        eta_H = problem.eta_H
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            weta = w * eta_H
            left = weta - eta_H * weta
            etaw = eta_H * w
            right = etaw - etaw * eta_H
            assert cut_element(problem, w) == left, (label, kind)
            assert cut_element(problem, w, "right") == right, (label, kind)
            assert strong_test(problem, w)[0] == left.is_zero(), (label, kind)
            assert exact_test(problem, w)[0] == right.is_zero(), (label, kind)
            assert walk_lumped_matrix(problem, w) == dense_lumped_matrix(problem, w), (label, kind)
            sandwiched = eta_H * w * eta_H
            assert hecke_project(problem, w).element().to_field(w.field) == sandwiched, (label, kind)
        eta_vec = problem.eta_H_vector()
        h_minus_eta = [[(k == pos) - c for k, c in enumerate(eta_vec)] for pos in range(len(eta_vec))]
        assert _averaging_kernel(problem) == Subspace(RATIONALS, len(eta_vec), h_minus_eta), label
        assert verify_hecke_isomorphism(problem) is dense_hecke_check(problem) is True, label
        if not dense_hecke_check(problem, anti=True):
            anti_order_fails.append(label)
    # the pool holds non-commutative Hecke algebras, where the order matters
    assert anti_order_fails == ["S4/V4", "S4/<(3,4)>"]


def test_weak_path_tables_match_dense_products_on_pool():
    """The action table and the coset-level obstruction against dense products.

    Checked on the basis rows of L_w, on the unit vectors of the subgroup
    algebra, and on the annihilator {u : u z = 0} of the obstruction z, which
    the coset-level check must pass as a whole.
    """
    rng = random.Random(5151)
    weak = nonweak = 0
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        n = problem.subgroup.order
        units = Subspace(RATIONALS, n, [[Fraction(k == j) for k in range(n)] for j in range(n)])
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            weta = w * problem.eta_H
            z = weta - problem.eta_H * weta
            action = problem.weight_action(w)
            lw = compute_Lw(problem, w)
            unit_products = [problem.from_H_vector(row) * z for row in units.rows]
            annihilator = nullspace(RATIONALS, [[uz.coeffs[g] for uz in unit_products]
                                                for g in range(G.order)], n)
            assert _first_cut_violation(problem, w, annihilator) is None, (label, kind)
            for M in (lw.pi_H, units):
                for row in M.rows:
                    dense = problem.coset_components(problem.from_H_vector(row) * w)
                    assert problem.times_weight(action, row) == dense, (label, kind)
                first = next((row for row in M.rows
                              if not (problem.from_H_vector(row) * z).is_zero()), None)
                assert _first_cut_violation(problem, w, M) == first, (label, kind)
            if lw.weakly_lumping:
                assert lw.cut_violation is None, (label, kind)
                weak += 1
            else:
                first = next(row for row in lw.pi_H.rows
                             if not (problem.from_H_vector(row) * z).is_zero())
                assert lw.cut_violation == problem.from_H_vector(first), (label, kind)
                nonweak += 1
    assert weak > 0 and nonweak > 0


def test_generic_cut_matches_zassenhaus_intersection_on_pool():
    """`V cap ker F` of the generic oracle against the Zassenhaus intersection it replaced.

    For the minimal stable space from a uniform and from a point start, and for
    the maximal stable space wherever the stationary (uniform) chain lumps weakly.
    """
    rng = random.Random(6262)
    minimal = maximal = 0
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        f = lumping_function(problem)
        kernel = f.kernel_F()
        uniform = Distribution.uniform(G.order)
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            P = transition_from_weight(G, w)
            for alpha in (uniform, Distribution.point(G.order, rng.randrange(G.order))):
                gl = minimal_GL_space(f, P, alpha)
                assert gl.circ == intersect(gl.space, kernel), (label, kind)
                minimal += 1
            if weak_generic(f, P, uniform)[0]:
                vmax = compute_Vmax_generic(f, P, lumped_transition_matrix(f, P, uniform))
                assert vmax.circ == intersect(vmax.space, kernel), (label, kind)
                maximal += 1
    assert 0 < maximal < minimal // 2


def dense_abelian_pairings(problem, w):
    """Reference: every pairing <e_b x e_c, w> from dense group-algebra products."""
    H = problem.subgroup
    m, chars = abelian_characters(H)
    field = cyclotomic_field(m)
    idempotents = [abelian_character_idempotent(H, chi, m) for chi in chars]
    w_f = w.to_field(field)
    pairings = {}
    for x in problem.double.representatives:
        x_elem = AlgebraElement.basis(problem.group, x, field)
        for b, e_b in enumerate(idempotents):
            eb_x = e_b * x_elem
            for c, e_c in enumerate(idempotents):
                pairings[(x, b, c)] = inner_product(eb_x * e_c, w_f)
    return pairings


def conjugate_index(H, m, chars, index):
    """Index of the complex conjugate of a character."""
    target = tuple((-chars[index][h]) % m for h in H.members)
    return next(j for j, chi in enumerate(chars) if tuple(chi[h] for h in H.members) == target)


def conjugation_closed_closure(problem, pairings):
    """Reference: the closure of the trivial character under nonzero pairings
    and under complex conjugation, as (verdict, sorted closure)."""
    H = problem.subgroup
    m, chars = abelian_characters(H)
    field = cyclotomic_field(m)
    reps = problem.double.representatives

    def pairs_nonzero(b, c):
        return any(not field.is_zero(pairings[(x, b, c)]) for x in reps)

    closure, frontier = {0}, [0]
    while frontier:
        b = frontier.pop()
        if b and pairs_nonzero(b, 0):
            return False, None
        targets = [c for c in range(len(chars)) if pairs_nonzero(b, c)]
        for c in targets + [conjugate_index(H, m, chars, b)]:
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    return True, tuple(sorted(closure))


def subset_search(problem, pairings, conjugation_closed_only):
    """Reference: the first certifying character subset, by size, then lexicographically."""
    H = problem.subgroup
    m, chars = abelian_characters(H)
    field = cyclotomic_field(m)
    n_chars = len(chars)
    reps = problem.double.representatives
    conj_index = [conjugate_index(H, m, chars, i) for i in range(n_chars)]

    def subset_works(P):
        complement = [c for c in range(n_chars) if c not in P]
        return all(
            field.is_zero(pairings[(x, b, c)])
            for x in reps for b in P for c in complement + [0] if (b, c) != (0, 0)
        )

    for size in range(1, n_chars + 1):
        for rest in combinations(range(1, n_chars), size - 1):
            P = (0,) + rest
            if conjugation_closed_only and any(conj_index[b] not in P for b in P):
                continue
            if subset_works(P):
                return True, P
    return False, None


def test_abelian_closure_matches_subset_search_on_pool():
    """The closure of the trivial character against the dense pairings and subset search.

    Both modes of the search, with and without conjugation-closed subsets, and
    the closure under conjugation as well, give the library's one answer.
    """
    rng = random.Random(3131)
    compared = accepted = 0
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        if not problem.subgroup.is_abelian():
            continue
        m, chars = abelian_characters(problem.subgroup)
        idempotents = [abelian_character_idempotent(problem.subgroup, chi, m) for chi in chars]
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            pairings = dense_abelian_pairings(problem, w)
            ok, P, e_P = abelian_weak_test(problem, w)
            # w is rational, so conjugating both characters conjugates the pairing
            # and the closure of the trivial character is already conjugation-closed
            assert conjugation_closed_closure(problem, pairings) == (ok, P), (label, kind)
            for real_only in (False, True):
                assert subset_search(problem, pairings, real_only) == (ok, P), (label, kind)
            if ok:
                expected_idempotent = idempotents[0]
                for b in P[1:]:
                    expected_idempotent = expected_idempotent + idempotents[b]
                assert e_P == expected_idempotent, (label, kind)
                accepted += 1
            compared += 1
    assert compared == 44
    assert 0 < accepted < compared


def test_kernel_of_coset_summing_has_expected_dimension(sym4, top_prob, die_prob):
    one = AlgebraElement.one(sym4)
    for prob in (top_prob, die_prob):
        full = left_ideal_closure(span(RATIONALS, 24, [one.coeffs]), sym4)
        from lumpwalk import right_multiply_space

        ker = right_multiply_space(full, one - prob.eta_H)
        assert ker.dim == 24 - prob.index


def test_stable_verdict_is_ideal_invariant(sym4, top_prob, mid_swap_T, frustrator):
    """Idempotents generating the same ideal give identical verdicts.

    f = e + (1-e) r e ranges over exactly the idempotents with the same left
    ideal as e.
    """
    rng = random.Random(99)
    e = eta(sym4, mid_swap_T)
    one = AlgebraElement.one(sym4)
    H = top_prob.subgroup
    weights = [frustrator, lazy_frustrator(sym4, Fraction(1, 3)),
               eta(sym4, mid_swap_T) * frustrator, frustrator.star()]
    for _ in range(5):
        r = AlgebraElement.zero(sym4)
        for h in H.members:
            r.coeffs[h] = Fraction(rng.randint(-2, 2))
        f = e + (one - e) * r * e
        assert f * f == f
        # same ideal: f e = f and e f = e
        assert f * e == f and e * f == e
        for w in weights:
            assert stable_ideal_check(top_prob, w, f) == stable_ideal_check(top_prob, w, e)


def test_minimal_ideal_is_closure_of_generic_space(sym4, top_prob, die_prob, die_weight, frustrator):
    for prob, w in ((top_prob, frustrator), (die_prob, die_weight)):
        f = lumping_function(prob)
        P = transition_from_weight(sym4, w)
        gl = minimal_GL_space(f, P, Distribution.uniform(24))
        closure = left_ideal_closure(gl.space, sym4)
        _, ideal, _ = weak_weight_test(prob, w)
        assert closure == ideal.full_subspace()


def test_theta_members_lump_stably(sym4, top_prob, mid_swap_T):
    # non-negative members of the compatibility algebra with generating
    # support must pass the weight-level weak test with the certifying ideal
    rng = random.Random(55)
    e = eta(sym4, mid_swap_T)
    for _ in range(5):
        w = sample_weight(rng, top_prob, "hecke")
        basis = theta_basis(top_prob, e)
        direction = AlgebraElement(sym4, list(basis.rows[rng.randrange(basis.dim)]))
        if any(c < 0 for c in direction.coeffs):
            scale = min(
                w.coeffs[g] / (-direction.coeffs[g])
                for g in range(24)
                if direction.coeffs[g] < 0
            )
        else:
            scale = Fraction(1)
        w = w + direction.scale(scale / 2)
        assert w.is_weight() and w.is_irreducible_weight()
        assert stable_ideal_check(top_prob, w, e)[0]
        ok, _, _ = weak_weight_test(top_prob, w)
        assert ok
