"""Cross-cutting invariants: oracle agreement, dualities, well-definedness."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumpwalk import (
    AlgebraElement,
    Distribution,
    LumpingProblem,
    abelian_characters,
    abelian_weak_test,
    check_Q_characterization,
    coset_sums,
    eta,
    hecke_project,
    interpolation_test,
    lumping_function,
    minimal_GL_space,
    orbital_matrices,
    parse_cycles,
    stable_ideal_check,
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
from lumpwalk.algebra import character_idempotent, format_element, parse_element_file
from lumpwalk.errors import DomainError
from lumpwalk.groups import format_cycles
from lumpwalk.linalg import (
    IntegerRows,
    Subspace,
    closure,
    intersect,
    kernel_span,
    nullspace,
)
from lumpwalk.lumping import (
    GurvitsLedouxIdeal,
    _cut_coset_values,
    _first_cut_violation,
    _integer_element,
    require_E_bullet,
)
from lumpwalk.lumping import compute_Jw, compute_L_alpha_w, compute_Lw
from lumpwalk.markov import _cut_rows
from lumpwalk.scalars import RATIONALS, cyclotomic_field, integral_form
from lumpwalk.shuffles import bottom_card_cycle, random_to_top, symmetric_group, top_stabilizer
from tests.conftest import counted_closures, lazy_frustrator, run_main
from tests.oracle_suite import (
    DIST_KINDS,
    WEIGHT_KINDS,
    build_pool,
    compute_Vmax_generic,
    random_subgroup_of,
    run_suite,
    sample_distribution,
    sample_weight,
    theta_basis,
)
from tests.reference import (
    BackEliminatingRows,
    ReversedBackEliminatingRows,
    all_maps_H_ideal,
    balanced_double_coset_mass,
    check_Q_characterization_per_element,
    contains_by_subspace,
    compute_Jw_by_nullspace,
    cut_by_block_echelon,
    cut_strings_by_subspace,
    full_subspace,
    inner_product,
    kernel_F,
    left_ideal_closure,
    maximal_cut_two_echelons,
    one_sided_test_two_pass,
    permuted,
    require_E_bullet_dense,
    right_multiply_space,
    stable_ideal_check_dense,
    theta_dimension_per_element,
    to_subspace,
    walk_lumped_matrix_normalizing,
    weak_certificate_by_subspace,
)
from tests.test_linalg import dense_kernel_span


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
        mc = sum(orbitals[cid].matrix[0])
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
    """The obstruction of one side as an element: its coset value at every
    group element, divided by the size of the double coset HgH that holds
    it, as `_cut_coset_values` returns |HgH| z(g)."""
    decomposition = problem.left if side == "left" else problem.right
    values = _cut_coset_values(problem, coset_sums(w, decomposition), side)
    sizes, class_of = problem.double.sizes, problem.double.class_of
    return AlgebraElement(problem.group, [values[c] * Fraction(1, sizes[class_of[g]])
                                          for g, c in enumerate(decomposition.coset_of)], w.field)


def round_based_closure(V, perms):
    """Reference: smallest subspace containing V and stable under coordinate permutations.

    Each perm moves entry k of a vector to position perm[k].  Every round
    translates every row by every perm, until a round adds nothing.
    """
    out = V.copy()
    zero = RATIONALS.zero
    changed = True
    while changed:
        changed = False
        for row in list(out.rows):
            src = list(row)  # insert() may rewrite the stored row
            for perm in perms:
                shifted = [zero] * out.ambient
                for pos, c in enumerate(src):
                    if c:
                        shifted[perm[pos]] = c
                if out.insert(shifted):
                    changed = True
    return out


def grown_minimal_ideal(problem, action, seed):
    """Reference: M <- H-ideal(M + all coset components of M w) until nothing is added."""
    perms = problem._H_generator_perms
    M = round_based_closure(seed, perms)
    while True:
        fresh = []
        for row in M.basis():
            for comp in problem.times_weight(action, row):
                if not M.contains(comp):
                    fresh.append(comp)
        if not fresh:
            return M
        grown = M.copy()
        for comp in fresh:
            grown.insert(comp)
        M = round_based_closure(grown, perms)


def averaging_kernel(problem):
    """The kernel {v : sum v = 0} of averaging on the subgroup algebra, in its
    canonical basis e_j - e_{|H|-1} for j < |H| - 1."""
    n = problem.subgroup.order
    cut = Subspace(n)
    for j in range(n - 1):
        vec = [RATIONALS.zero] * n
        vec[j], vec[n - 1] = RATIONALS.one, -RATIONALS.one
        cut.insert(vec)
    return cut


def narrowed_maximal_cut(problem, w):
    """Reference: the cut of J_w by narrowing the averaging kernel.

    Each round keeps the u whose coset components of u w lie in the current
    space, then those whose components lie in it plus eta_H, until a round
    removes nothing; eta_H is added at the end.
    """
    n = problem.subgroup.order
    eta_vec = [Fraction(1, n)] * n
    action = problem.weight_action(w)

    def restrict_mod(ideal_cut, include_eta):
        reducer = ideal_cut.copy()
        if include_eta:
            reducer.insert(eta_vec)
        images = []
        for row in ideal_cut.rows:
            flat = []
            for comp in problem.times_weight(action, row):
                flat.extend(reducer.reduce(comp))
            images.append(flat)
        return kernel_span(images, ideal_cut.rows, problem.subgroup.order)

    current = averaging_kernel(problem)
    while True:
        again = restrict_mod(restrict_mod(current, include_eta=False), include_eta=True)
        if again.dim == current.dim:
            break
        current = again
    current = again.copy()
    current.insert(eta_vec)
    return current


def test_closed_forms_match_dense_references_on_pool():
    """The closed forms of the weak and verdict paths against the dense products they replace."""
    rng = random.Random(4242)
    inner_rng = random.Random(4243)  # the inner subgroups T, apart from the weights
    anti_order_fails = []
    inexact_to_inner = unbalanced_mass = 0
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
            # the obstruction from rational, integral and cyclotomic coset sums
            scale, integral = _integer_element(w)
            assert all(type(s) is int for s in coset_sums(integral, problem.left)), (label, kind)
            cyclotomic = w.to_field(cyclotomic_field(4))
            for side, dense in (("left", left), ("right", right)):
                assert cut_element(problem, w, side) == dense, (label, kind, side)
                assert cut_element(problem, cyclotomic, side) == dense, (label, kind, side)
                scaled = [scale * c for c in dense.coeffs]
                assert cut_element(problem, integral, side).coeffs == scaled, (label, kind, side)
            assert strong_test(problem, w)[0] == left.is_zero(), (label, kind)
            assert exact_test(problem, w)[0] == right.is_zero(), (label, kind)
            assert walk_lumped_matrix(problem, w) == dense_lumped_matrix(problem, w), (label, kind)
            # interpolation condition (a): eta_T w - eta_T w eta_T == 0
            T = random_subgroup_of(inner_rng, problem.subgroup)
            eta_T = eta(G, T)
            etw = eta_T * w
            inexact = not (etw - etw * eta_T).is_zero()
            failed = interpolation_test(problem, T, w)[1]
            assert ("not-exact-to-inner-cosets" in failed) == inexact, (label, kind)
            inexact_to_inner += inexact
            # condition (b): (eta_T - eta_H) w eta_H == 0, and by the double cosets T\G/H
            unbalanced = not ((eta_T - eta_H) * w * eta_H).is_zero()
            assert ("unbalanced-double-coset-mass" in failed) == unbalanced, (label, kind)
            assert balanced_double_coset_mass(problem, T, w) is not unbalanced, (label, kind)
            unbalanced_mass += unbalanced
            sandwiched = eta_H * w * eta_H
            class_values = hecke_project(problem, w)
            assert all(sandwiched.coeffs[g] == value
                       for value, members in zip(class_values, problem.double.classes)
                       for g in members), (label, kind)
        n = problem.subgroup.order
        h_minus_eta = [[(k == pos) - Fraction(1, n) for k in range(n)] for pos in range(n)]
        assert averaging_kernel(problem) == Subspace(n, h_minus_eta), label
        assert verify_hecke_isomorphism(problem) is dense_hecke_check(problem) is True, label
        if not dense_hecke_check(problem, anti=True):
            anti_order_fails.append(label)
    # the pool holds non-commutative Hecke algebras, where the order matters
    assert anti_order_fails == ["S4/V4", "S4/<(3,4)>"]
    assert inexact_to_inner > 0 and unbalanced_mass > 0


def test_weak_path_tables_match_dense_products_on_pool():
    """The action table and the coset-level obstruction against dense products.

    Checked on the basis rows of L_w and on the unit vectors of the subgroup
    algebra.  The obstruction z is also checked on the annihilator
    {u : u z = 0}, which must pass as a whole, and on the annihilator plus
    one unit vector, where rows that pass can come before the first that
    fails; the index of that row is compared with the dense products u z.
    """
    rng = random.Random(5151)
    weak = nonweak = later = 0
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        n = problem.subgroup.order
        units = Subspace(n, [[Fraction(k == j) for k in range(n)] for j in range(n)])
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
            annihilator = to_subspace(nullspace([[uz.coeffs[g] for uz in unit_products]
                                                 for g in range(G.order)], n))
            lw_cut = to_subspace(lw.cut)
            for M in (lw_cut, units):
                for row in M.rows:
                    dense = problem.coset_components(problem.from_H_vector(row) * w)
                    assert problem.times_weight(action, row) == dense, (label, kind)
            spaces = [annihilator, lw_cut, units]
            for row in units.rows:
                grown = annihilator.copy()
                if grown.insert(row):
                    spaces.append(grown)
            for M in spaces:
                first = next((i for i, row in enumerate(M.rows)
                              if not (problem.from_H_vector(row) * z).is_zero()), None)
                # canonical rows inserted in order keep their order as integer rows
                scaled = IntegerRows(n, [integral_form(row)[1] for row in M.rows])
                assert to_subspace(scaled) == M, (label, kind)
                assert _first_cut_violation(problem, w, scaled.rows) == first, (label, kind)
                assert _first_cut_violation(problem, w, M.rows) == first, (label, kind)
                later += (first or 0) > 0
            if lw.weakly_lumping:
                assert lw.cut_violation is None, (label, kind)
                weak += 1
            else:
                first = next(row for row in lw_cut.rows
                             if not (problem.from_H_vector(row) * z).is_zero())
                assert lw.cut_violation == problem.from_H_vector(first), (label, kind)
                nonweak += 1
    assert weak > 0 and nonweak > 0 and later > 0


def extra_weak_path_instances():
    """(label, problem, weight, weak verdict) beyond the pool's random draws.

    Top-card S4 and S5 under four card shuffles: their maximal ideals lie
    strictly between the minimal one and the whole algebra, which the
    pool's weakly lumping draws rarely reach.  And a non-weak S4 weight with
    a non-scalar part on H, where the map of the subgroup's own coset
    changes the annihilator of the maximal cut.
    """
    out = []
    for n in (4, 5):
        G = symmetric_group(n)
        problem = LumpingProblem(G, top_stabilizer(G))
        for name, w in (("bottom", bottom_card_cycle(G)), ("rtt", random_to_top(G))):
            out.append((f"S{n} {name}", problem, w, True))
            out.append((f"S{n} {name}*", problem, w.star(), True))
    G = symmetric_group(4)
    w = parse_element_file("3 (3,4)\n5 (2,3)\n2 (2,4)\n5 (1,2,4,3)\n5 (1,3,4,2)\n", G)
    out.append(("S4 H-supported", LumpingProblem(G, top_stabilizer(G)), w, False))
    return out


def assert_subspace_of_rows(store, reference: Subspace, label):
    """`Subspace(store.ambient, store.rows)` for a forward canonical echelon
    has the rows, pivots and supports of the reference `to_subspace(store)`."""
    built = Subspace(store.ambient, store.rows)
    assert (built.rows, built.pivots, built.support) == \
        (reference.rows, reference.pivots, reference.support), label


def check_weak_fixpoints(problem, w, rng, label):
    """L_w, L_alpha and (for a weak w) J_w against the references; returns the verdict."""
    G, n = problem.group, problem.subgroup.order
    action = problem.weight_action(w)
    eta_seed = Subspace(n, [[Fraction(1, n)] * n])
    lw = compute_Lw(problem, w)
    assert to_subspace(lw.cut) == grown_minimal_ideal(problem, action, eta_seed), label
    points = rng.sample(range(G.order), min(2, G.order))
    alpha = AlgebraElement.from_pairs(G, [(g, Fraction(1, len(points))) for g in points])
    alpha_seed = eta_seed.copy()
    for comp in problem.coset_components(alpha):
        alpha_seed.insert(comp)
    l_alpha, _ = compute_L_alpha_w(problem, w, alpha)
    assert to_subspace(l_alpha.cut) == grown_minimal_ideal(problem, action, alpha_seed), label
    # the largest stable sum-zero cut is defined for every weight, weak or not;
    # it is the nullspace of the cut of L_{w*}
    annihilator = problem.close_H_ideal([[1] * n], _integer_element(w.star())[1])
    maximal = to_subspace(nullspace(annihilator.rows, n))
    maximal.insert([Fraction(1, n)] * n)
    assert maximal == narrowed_maximal_cut(problem, w), label
    if not lw.weakly_lumping:
        return False
    jw_cut = to_subspace(compute_Jw(problem, w).cut)
    assert jw_cut == maximal, label
    sum_zero = intersect(jw_cut, averaging_kernel(problem))
    assert annihilator.dim + sum_zero.dim == n, label
    assert all(sum(a * c for a, c in zip(a_row, c_row)) == 0
               for a_row in annihilator.rows for c_row in sum_zero.rows), label
    assert to_subspace(problem.close_H_ideal(jw_cut.rows, _integer_element(w)[1])) == jw_cut, label
    return True


def test_weak_fixpoints_match_round_based_references_on_pool():
    """The worklist closures against the round-based loops they replaced.

    L_w and L_alpha against the old minimal-ideal growth, J_w against the
    narrowing loop, and `left_ideal_closure` against the round-based closure,
    on every pool pair and weight family and on `extra_weak_path_instances`.  The
    cut of L_{w*} is orthogonal to the sum-zero part of the cut of J_w and of
    the complementary dimension, and the cut of J_w is a left H-ideal stable
    under w.
    """
    rng = random.Random(7272)
    verdicts = []
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        group_perms = [tuple(G.mul(g, x) for x in range(G.order)) for g in G.generators]
        sparse = [AlgebraElement.from_pairs(G, [(rng.randrange(G.order), Fraction(rng.randint(-2, 2)))
                                                for _ in range(3)]) for _ in range(2)]
        # x eta_H generates an ideal of dimension at most [G:H]; a sparse
        # element alone is kept to the small groups, where its ideal is cheap
        seed = Subspace(G.order, [(sparse[0] * problem.eta_H).coeffs])
        if G.order <= 30:
            seed.insert(sparse[1].coeffs)
        assert left_ideal_closure(seed, G) == round_based_closure(seed, group_perms), label
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            verdicts.append(check_weak_fixpoints(problem, w, rng, (label, kind)))
    assert len(verdicts) == 51 and 0 < sum(verdicts) < 51
    for label, problem, w, weak in extra_weak_path_instances():
        assert check_weak_fixpoints(problem, w, rng, label) == weak, label


def test_weak_distribution_matches_l_alpha():
    """`test-dist` and `l-alpha` decide by independent routes whether the walk
    started at alpha lumps weakly: membership of alpha in J_w, read off the
    cut of L_{w*}, and the cut obstruction on L_alpha.  Their verdicts agree
    on every pool pair, weight family and start kind of the oracle suite, and
    on S6/S5 over the top-card stabiliser under bottom-card and random-to-top
    with every start kind.  For weights that lump weakly, starts that lump
    and starts that do not both occur."""
    rng = random.Random(3131)
    cases = []
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            cases.append(((label, kind), problem, w))
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    cases += [(("S6", "bottom"), problem, bottom_card_cycle(G)), (("S6", "rtt"), problem, random_to_top(G))]
    verdicts = Counter()
    for label, problem, w in cases:
        weak = weak_weight_test(problem, w)[0]
        for start in DIST_KINDS:
            alpha = sample_distribution(rng, problem, start).normalized()
            member, _ = weak_dist_test(problem, w, alpha)
            _, lumps = compute_L_alpha_w(problem, w, alpha)
            assert member == lumps, (label, start)
            verdicts[weak, member] += 1
    assert verdicts[True, True] > 0 and verdicts[True, False] > 0, verdicts


def check_integer_echelon_reads(problem, w, starts, label) -> Counter:
    """The reads of an ideal's integer echelon against its `Fraction` route,
    for L_w, L_alpha of each start and (for a weak w) J_w: cut strings,
    dimensions, the `Subspace` of the integer rows as they stand, membership
    of each start, and the false `test weak` certificate.  Returns the
    (weak, member) tally of the starts in J_w."""
    from lumpwalk import cli

    tally = Counter()
    verdict, lw, certificate = weak_weight_test(problem, w)
    assert (certificate is None) == verdict, label
    if not verdict or problem.group.order <= 120:  # a weak S6 cut passes in seconds of products
        expected = weak_certificate_by_subspace(lw, w)
        assert (certificate or {}).get("violating_cut_element") == expected, label
    ideals = [lw] + [compute_L_alpha_w(problem, w, alpha)[0] for alpha in starts]
    jw = compute_Jw(problem, w) if verdict else None
    if jw is not None:
        ideals.append(jw)
    for ideal in ideals:
        fractions = to_subspace(ideal.cut)
        assert cli._cut_strings(ideal) == cut_strings_by_subspace(ideal), label
        assert (ideal.cut.dim, ideal.dim) == (fractions.dim, problem.index * fractions.dim), label
        assert_subspace_of_rows(ideal.cut, fractions, label)
        for alpha in starts:
            assert ideal.contains(alpha) == contains_by_subspace(ideal, alpha), label
    for alpha in starts:
        member, maximal = weak_dist_test(problem, w, alpha)
        assert member == (jw is not None and contains_by_subspace(jw, alpha)), label
        assert (maximal is None) == (jw is None), label
        tally[verdict, member] += 1
    return tally


def test_integer_echelon_reads_match_fraction_route_on_pool():
    """Cut strings, dimensions, membership and the false `test weak`
    certificate read off the integer echelon match the route through
    `to_subspace` (`tests/reference.py`), on every pool pair and weight kind
    of the oracle suite, with seeded random starts, the uniform start and
    point starts, one of them the identity."""
    rng = random.Random(2828)
    tally = Counter()
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            starts = [sample_distribution(rng, problem, "random"), eta(G, range(G.order)),
                      AlgebraElement.basis(G, 0), AlgebraElement.basis(G, rng.randrange(G.order))]
            tally += check_integer_echelon_reads(problem, w, starts, (label, kind))
    assert tally[False, False] and tally[True, True] and tally[True, False], tally


def test_integer_echelon_reads_match_fraction_route_on_s6():
    """The same on S6 over the top-card stabiliser S5 with bottom-card,
    random-to-top and the reversed bottom-card weight w*."""
    rng = random.Random(2929)
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    starts = [sample_distribution(rng, problem, "random"), eta(G, range(G.order)),
              AlgebraElement.basis(G, 0), AlgebraElement.basis(G, rng.randrange(G.order))]
    tally = Counter()
    bottom = bottom_card_cycle(G)
    for name, w in (("bottom", bottom), ("rtt", random_to_top(G)), ("bottom*", bottom.star())):
        tally += check_integer_echelon_reads(problem, w, starts, ("S6", name))
    assert tally[True, True] and tally[True, False], tally


def test_integer_echelon_reads_match_fraction_route_with_fractional_rows(monkeypatch):
    """The cuts the closures give on the pool and on S6 have canonical RREF
    rows with integer entries, so their integer echelons all have pivot
    entry 1.  Echelons of random integer rows, whose RREF rows have
    fractional entries, are read as cuts here, four per pool pair with
    |H| > 2: cut strings, dimensions, the `Subspace` of the integer rows as
    they stand, membership of members and non-members, and the false
    `test weak` certificate, taken from such a cut in place of the
    closure's, against the route through `to_subspace`."""
    rng = random.Random(3030)
    fractional = Counter()
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        if problem.subgroup.order > 2:
            for _ in range(4):
                fractional += check_fractional_cut(problem, rng, monkeypatch, label)
    assert fractional["cut"] >= 20 and fractional["certificate"] >= 5, fractional


def check_fractional_cut(problem, rng, monkeypatch, label) -> Counter:
    """One echelon of random integer rows read as the cut of `problem`;
    returns whether a pivot entry and the certificate are fractional."""
    from lumpwalk import cli

    G, n = problem.group, problem.subgroup.order
    rows = [[rng.choice((0, 0, 1, -1, 2, 3, -4)) for _ in range(n)] for _ in range(n // 2)]
    cut = IntegerRows(n, rows).echelon()
    ideal = GurvitsLedouxIdeal(problem, cut, weakly_lumping=False)  # no weight decides it here
    assert cli._cut_strings(ideal) == cut_strings_by_subspace(ideal), label
    assert_subspace_of_rows(cut, to_subspace(cut), label)
    assert ideal.dim == problem.index * cut.dim, label
    weights = [rng.randint(-2, 2) for _ in cut.rows]
    member = problem.from_H_vector([sum(c * row[k] for c, row in zip(weights, cut.rows))
                                    for k in range(n)])
    outside = AlgebraElement.basis(G, rng.randrange(G.order))
    for elem in (member, outside, member + outside, sample_distribution(rng, problem, "random")):
        assert ideal.contains(elem) == contains_by_subspace(ideal, elem), label
    assert ideal.contains(member), label
    w = sample_weight(rng, problem, "random")
    if not w.is_irreducible_weight():
        w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
    with monkeypatch.context() as patch:
        patch.setattr(LumpingProblem, "close_H_ideal", lambda self, seeds, integral, last=False: cut)
        _, lw, certificate = weak_weight_test(problem, w)
    assert lw.cut is cut, label
    expected = weak_certificate_by_subspace(ideal, w)
    assert (certificate or {}).get("violating_cut_element") == expected, label
    return Counter(cut=any(row[p] > 1 for row, p in zip(cut.rows, cut.pivots)),
                   certificate=expected is not None and "/" in expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_worklist_closure_matches_round_based_loop(data):
    """The worklist kernel against the round-based loop on random permutation
    sets, and on both row stores under random small integer linear maps: the
    integer rows give the `Fraction` rows, pivots and supports, and the
    identity basis when the closure is the whole space."""
    n = data.draw(st.integers(1, 7))
    perms = data.draw(st.lists(st.permutations(range(n)), max_size=3))
    vectors = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                 max_size=3))
    V = Subspace(n, [[Fraction(c) for c in v] for v in vectors])
    zero = RATIONALS.zero
    grown = closure(V, lambda v: (permuted(v, perm, zero) for perm in perms))
    assert grown == round_based_closure(V, perms)
    assert grown.support == [[k for k, c in enumerate(row) if c] for row in grown.rows]
    maps = data.draw(st.lists(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                       min_size=n, max_size=n), max_size=3))

    def successors(v):
        for M in maps:
            yield [sum(a * b for a, b in zip(row, v)) for row in M]

    exact = closure(V, successors)
    fast = to_subspace(closure(IntegerRows(n, vectors), successors).echelon())
    assert (fast.rows, fast.pivots, fast.support) == (exact.rows, exact.pivots, exact.support)
    if exact.dim == n:
        assert exact.rows == [[Fraction(k == i) for k in range(n)] for i in range(n)]


def exact_H_ideal(problem, seed, action):
    """Reference: `close_H_ideal` as the `Fraction` closure under the rational table."""
    perms = problem._H_generator_perms

    def successors(u):
        for perm in perms:
            yield permuted(u, perm, 0)
        yield from problem.times_weight(action, u)

    return closure(seed, successors)


def exact_annihilator(problem, action):
    """Reference: the annihilator of the cut of J_w, under the plain dot
    product, as the `Fraction` closure of the all-ones vector under the
    rational transposed table, a -> M_c a for each coset id c, where u M_c is
    the coset-c component of u w."""
    n = problem.subgroup.order

    def transposed_times_weight(a):
        # M_c[p][pos] sums w(g) over the entries (c, pos, w(g)) of action[p]
        out = [[0] * n for _ in range(problem.index)]
        for p, entries in enumerate(action):
            for cid, pos, value in entries:
                if a[pos]:
                    out[cid][p] += value * a[pos]
        return out

    ones = Subspace(n, [[RATIONALS.one] * n])
    return closure(ones, transposed_times_weight)


def check_annihilator(problem, w, label):
    """The cut of L_{w*} from `close_H_ideal` against the transposed
    `Fraction` closure for w: rows, pivots and supports."""
    n = problem.subgroup.order
    fast = to_subspace(problem.close_H_ideal([[1] * n], _integer_element(w.star())[1]))
    exact = exact_annihilator(problem, problem.weight_action(w))
    assert (fast.rows, fast.pivots, fast.support) == (exact.rows, exact.pivots, exact.support), label


def check_H_ideal(problem, w, rng, label):
    """L_w and L_alpha from `close_H_ideal` against the `Fraction` closure:
    rows, pivots and supports.  `close_H_ideal` takes the raw seeds, eta_H or
    the all-ones vector and the coset components of alpha as they come (zero
    components included), the reference their echelon form.  Returns how
    many of the two are the whole space.
    """
    G, n = problem.group, problem.subgroup.order
    action = problem.weight_action(w)
    points = rng.sample(range(G.order), min(2, G.order))
    alpha = AlgebraElement.from_pairs(G, [(g, Fraction(1, len(points))) for g in points])
    full = 0
    for seeds in ([[Fraction(1, n)] * n], [[1] * n] + problem.coset_components(alpha)):
        fast = to_subspace(problem.close_H_ideal(seeds, _integer_element(w)[1]))
        echelon = Subspace(n, [[Fraction(c) for c in v] for v in seeds])
        exact = exact_H_ideal(problem, echelon, action)
        assert (fast.rows, fast.pivots, fast.support) == (exact.rows, exact.pivots, exact.support), label
        full += exact.dim == n
    return full


def test_rank_shortcut_matches_exact_closure():
    """`close_H_ideal` on integer rows equals the `Fraction` closure on every
    pool pair and weight family and on S6 over its top-card stabiliser, for
    L_w and for L_alpha; both the whole algebra and proper ideals occur.  The
    cut of L_{w*} equals the annihilator of the maximal cut of w, the
    transposed `Fraction` closure, on the same inputs."""
    rng = random.Random(6161)
    full = total = 0
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            full += check_H_ideal(problem, w, rng, (label, kind))
            check_annihilator(problem, w, (label, kind))
            total += 2
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    for name, w in (("bottom", bottom_card_cycle(G)), ("rtt", random_to_top(G))):
        full += check_H_ideal(problem, w, rng, ("S6", name))
        check_annihilator(problem, w, ("S6", name))
        total += 2
    assert 0 < full < total


def check_translation_rule(problem, w, rng, label):
    """L_w, L_alpha and L_{w*} from `close_H_ideal`, which spares translates
    the coset maps, against `all_maps_H_ideal`, which applies every map to
    every vector: the same integer rows, pivots and supports.  Returns how
    many of the three are proper ideals."""
    G, n = problem.group, problem.subgroup.order
    points = rng.sample(range(G.order), min(2, G.order))
    alpha = AlgebraElement.from_pairs(G, [(g, Fraction(1, len(points))) for g in points])
    ones = [[1] * n]
    proper = 0
    for seeds, weight in ((ones, w), (ones + problem.coset_components(alpha), w), (ones, w.star())):
        action = problem.weight_action(weight)
        fast = problem.close_H_ideal(seeds, _integer_element(weight)[1])
        spun = all_maps_H_ideal(problem, seeds, action)
        assert (fast.rows, fast.pivots, fast.support) == (spun.rows, spun.pivots, spun.support), label
        proper += fast.dim < n
    return proper


def test_translation_rule_matches_all_maps_closure():
    """The translation rule of `linalg.closure` gives the closure of every
    map on every vector, for L_w, L_alpha and L_{w*}, on every pool pair and
    weight family and on S6 over its top-card stabiliser under bottom-card,
    random-to-top and the reversed bottom-card w*; proper ideals and the
    whole algebra both occur."""
    rng = random.Random(9191)
    proper = total = 0
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            proper += check_translation_rule(problem, w, rng, (label, kind))
            total += 3
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    bottom = bottom_card_cycle(G)
    for name, w in (("bottom", bottom), ("rtt", random_to_top(G)), ("bottom*", bottom.star())):
        proper += check_translation_rule(problem, w, rng, ("S6", name))
        total += 3
    assert 0 < proper < total


def test_maximal_cut_annihilator_is_left_H_ideal():
    """The lemma behind reading J_w off L_{w*}: the annihilator of the
    maximal cut is a left ideal of the subgroup algebra, though the
    transposed closure that grows it never translates by H.  Closing the
    transposed `Fraction` closure under the generators of H adds no row, on
    every pool pair and weight family and on `extra_weak_path_instances`;
    annihilators strictly between the all-ones line and the whole space
    occur."""
    rng = random.Random(8383)
    cases = []
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            cases.append(((label, kind), problem, sample_weight(rng, problem, kind)))
    cases += [(label, problem, w) for label, problem, w, _ in extra_weak_path_instances()]
    proper = 0
    for label, problem, w in cases:
        annihilator = exact_annihilator(problem, problem.weight_action(w))
        perms = problem._H_generator_perms
        translated = closure(annihilator, lambda a: (permuted(a, perm, 0) for perm in perms))
        assert translated == annihilator, label
        proper += 1 < annihilator.dim < annihilator.ambient
    assert proper > 0


def insert_nullspace(rows, ambient):
    """Reference: the nullspace by forward echelon form, each solution inserted."""
    field = RATIONALS
    constraints = Subspace(ambient, rows)
    out = Subspace(ambient)
    pivset = set(constraints.pivots)
    for free in range(ambient):
        if free in pivset:
            continue
        v = [field.zero] * ambient
        v[free] = field.one
        for row, p in zip(constraints.rows, constraints.pivots):
            if row[free]:
                v[p] = -row[free]
        out.insert(v)
    return out


# zero, or a fraction with any sign and mixed denominators
rationals = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def constraint_matrices(draw):
    """(rows, ambient): random rational rows, with zero rows and repeats mixed in."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        extra = list(rows[draw(st.integers(0, len(rows) - 1))]) if rows and draw(st.booleans()) \
            else [Fraction(0)] * n
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows, n


@settings(max_examples=300, deadline=None)
@given(constraint_matrices())
@example(([], 1))
@example(([[Fraction(0)]], 1))
@example(([[Fraction(2)]], 1))
@example(([[Fraction(0)] * 3] * 2, 3))
@example(([[Fraction(int(i == j)) for j in range(4)] for i in range(4)], 4))
@example(([[Fraction(1), Fraction(2), Fraction(3)]] * 3, 3))
@example(([[Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 4)]], 3))
@example(([[Fraction(3, 4), Fraction(-1, 6), Fraction(0)], [Fraction(-3, 2), Fraction(1, 3), Fraction(7, 5)]], 3))
def test_nullspace_matches_insert_reference(case):
    rows, n = case
    assert_nullspace_matches_reference(rows, n)


def assert_nullspace_matches_reference(rows, n, store=None):
    """`nullspace` gives the integer canonical rows of the `Fraction` reference:
    the same rows, pivots and supports once made `Fraction` rows, each row
    primitive with a positive pivot and its support exactly its nonzero columns.
    It gives the same rows, pivots and supports when handed the constraints as
    the echelon of a store spun with ``last``: ``store`` if given (it must span
    the rows), else that of the rows inserted last to first, so the store has
    another history than the one `nullspace` builds from the rows."""
    fast = nullspace(rows, n)
    canonical, ref = to_subspace(fast), insert_nullspace(rows, n)
    assert (canonical.rows, canonical.pivots, canonical.support) == (ref.rows, ref.pivots, ref.support)
    for row, p, cols in zip(fast.rows, fast.pivots, fast.support):
        assert all(type(c) is int for c in row)
        assert row[p] > 0 and gcd(*row) == 1
        assert cols == [k for k, c in enumerate(row) if c]
    assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows for v in fast.rows)
    if store is None:
        store = IntegerRows(n, [integral_form(row)[1] for row in reversed(rows)], last=True).echelon()
    read = nullspace(store, n)
    assert (read.rows, read.pivots, read.support) == (fast.rows, fast.pivots, fast.support)


def test_nullspace_matches_insert_reference_on_pool_reversed_cuts():
    """The constraints `compute_Jw` hands to `nullspace`: the cut of L_{w*}, on
    every pool pair and weight family."""
    rng = random.Random(2121)
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        n = problem.subgroup.order
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            cut = problem.close_H_ideal([[1] * n], _integer_element(w.star())[1])
            store = problem.close_H_ideal([[1] * n], _integer_element(w.star())[1], last=True)
            assert_nullspace_matches_reference(cut.rows, n, store)


def test_reversed_annihilator_matches_forward_route():
    """`compute_Jw` spins the cut of L_{w*} with ``last`` and reads its
    nullspace off that store's echelon.  On every pool pair and weight
    family and on S6 over its top-card stabiliser under bottom-card,
    random-to-top and their reverses, that echelon holds exactly the
    forward closure's rows echelonised with their columns reversed by the
    back-eliminating reference (rows, pivots, supports), and gives back the
    forward echelon; for a weak weight the cut of J_w equals the route of
    two echelons (`maximal_cut_two_echelons`).  Weak and non-weak weights
    and proper annihilators occur."""
    rng = random.Random(2424)
    cases = []
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            cases.append(((label, kind), problem, w))
    G = symmetric_group(6)
    problem = LumpingProblem(G, top_stabilizer(G))
    for name, w in (("bottom", bottom_card_cycle(G)), ("rtt", random_to_top(G))):
        cases += [(("S6", name), problem, w), (("S6", name + "*"), problem, w.star())]
    weak = proper = 0
    for label, problem, w in cases:
        n = problem.subgroup.order
        forward = problem.close_H_ideal([[1] * n], _integer_element(w.star())[1])
        store = problem.close_H_ideal([[1] * n], _integer_element(w.star())[1], last=True)
        expected = ReversedBackEliminatingRows(n, forward.rows)
        assert (store.rows, store.pivots, store.support) == expected.canonical(), label
        again = IntegerRows(n, store.rows).echelon()
        assert (again.rows, again.pivots, again.support) == \
            (forward.rows, forward.pivots, forward.support), label
        proper += 1 < store.dim < n
        if compute_Lw(problem, w).weakly_lumping:
            jw_cut = to_subspace(compute_Jw(problem, w).cut)
            assert jw_cut == maximal_cut_two_echelons(problem, w), label
            weak += 1
    assert 0 < weak < len(cases) and proper > 0, (weak, proper, len(cases))


def problem_files(directory, problem, hgens, w, alpha) -> list[str]:
    """Input files of `problem` (its subgroup given by the image tuples
    ``hgens``), of the weight w and of the start alpha, as the flags of a
    `jw` or `test-dist` request."""
    G = problem.group
    texts = {
        "group": f"degree {G.degree}\n" + "".join(f"gen {G.cycle_string(g)}\n"
                                                 for g in G.generators),
        "subgroup": f"degree {G.degree}\n" + "".join(f"gen {format_cycles(h)}\n"
                                                    for h in hgens),
        "weight": format_element(w),
        "dist": format_element(alpha),
    }
    argv = []
    for role, text in texts.items():
        path = directory / f"{role}.txt"
        path.write_text(text)
        argv += [f"--{role}", str(path)]
    return argv


def jw_report_bytes(argv) -> list[str]:
    """The `--json` and `--text` reports of `jw` and `test-dist` on the files of
    `problem_files` (`jw` takes no start)."""
    outputs = []
    for command in ("jw", "test-dist"):
        args = argv if command == "test-dist" else argv[:-2]
        for flag in ("--json", "--text"):
            result = run_main(command, *args, flag)
            assert result.returncode == 0, (command, flag, result.stderr)
            outputs.append(result.stdout)
    return outputs


def check_jw_route(problem, w, monkeypatch, files, label) -> bool:
    """`compute_Jw` against the route of one echelon for every weight
    (`compute_Jw_by_nullspace`): the cut (rows, pivots, supports, column
    order) and the dimension, and the bytes of the `jw` and `test-dist`
    reports on the files of `problem_files` against those with the
    reference in its place.  The cut of L_{w*} (``last``) is spun exactly
    when w does not lump strongly.  Returns whether w lumps strongly."""
    from lumpwalk import cli, lumping

    strong = strong_test(problem, w)[0]
    with monkeypatch.context() as patch:
        spun = counted_closures(patch)
        jw = compute_Jw(problem, w)
    assert spun.count(True) == (not strong), (label, spun)
    expected = compute_Jw_by_nullspace(problem, w)
    assert jw.cut == expected.cut and jw.dim == expected.dim, label
    assert (jw.cut.pivots, jw.cut.support) == (expected.cut.pivots, expected.cut.support), label
    if strong:
        assert jw.dim == problem.group.order, label
    reports = jw_report_bytes(files)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "compute_Jw", compute_Jw_by_nullspace)
        patch.setattr(lumping, "compute_Jw", compute_Jw_by_nullspace)
        assert jw_report_bytes(files) == reports, label
    return strong


def test_strongly_lumping_weight_has_the_whole_algebra_as_J_w(tmp_path, monkeypatch):
    """A weight that lumps strongly has J_w = C[G]: `compute_Jw` returns the
    identity cut with no closure of L_{w*}, and gives the cut, dimension and
    `jw`/`test-dist` report bytes of the L_{w*}/nullspace route on every pool
    pair and weight family whose weight lumps strongly (the bi-invariant
    family always does), on S6/S5 and S7/S6 under random-to-top.  Weak
    weights that do not lump strongly, bottom-card on S6/S5 among them, still
    spin the cut of L_{w*} and give the same cut and bytes."""
    rng = random.Random(3030)
    strong_pairs, weak_only = set(), 0
    for k, (label, G, hgens) in enumerate(build_pool()):
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            if not compute_Lw(problem, w).weakly_lumping:
                continue
            directory = tmp_path / f"{k}-{kind}"
            directory.mkdir()
            alpha = sample_distribution(rng, problem, "random")
            files = problem_files(directory, problem, hgens, w, alpha)
            if check_jw_route(problem, w, monkeypatch, files, (label, kind)):
                strong_pairs.add(label)
            else:
                weak_only += 1
    assert len(strong_pairs) == len(build_pool()) and weak_only > 0, (strong_pairs, weak_only)
    for degree in (6, 7):
        G = symmetric_group(degree)
        H = top_stabilizer(G)
        problem = LumpingProblem(G, H)
        hgens = [G.elements[h] for h in H.generators]
        cases = [("rtt", random_to_top(G), True)]
        if degree == 6:
            cases.append(("bottom", bottom_card_cycle(G), False))
        for name, w, strong in cases:
            directory = tmp_path / f"S{degree}-{name}"
            directory.mkdir()
            files = problem_files(directory, problem, hgens, w, AlgebraElement.basis(G, 0))
            assert check_jw_route(problem, w, monkeypatch, files, (degree, name)) == strong


def check_spin_echelons(problem, w, seeds, label):
    """`close_H_ideal` in both column orders against the same closure, with
    the same translation rule, on the back-eliminating reference stores:
    the same rows, pivots and supports."""
    n = problem.subgroup.order
    table = problem.weight_action(_integer_element(w)[1])
    perms = problem._H_generator_perms
    for last, store in ((False, BackEliminatingRows), (True, ReversedBackEliminatingRows)):
        spun = problem.close_H_ideal(seeds, _integer_element(w)[1], last=last)
        grown = closure(store(n, (integral_form(v)[1] for v in seeds)),
                        lambda u: problem.times_weight(table, u),
                        lambda u: (permuted(u, perm, 0) for perm in perms))
        assert (spun.rows, spun.pivots, spun.support) == grown.canonical(), (label, last)
        for row, p, cols in zip(spun.rows, spun.pivots, spun.support):
            assert row[p] > 0 and gcd(*row) == 1, (label, last)
            assert cols == [k for k, c in enumerate(row) if c], (label, last)
            assert cols[-1 if last else 0] == p, (label, last)
    return spun.dim


def test_spin_echelons_match_back_eliminating_closures():
    """The spin store's canonical echelons, forward and with ``last``,
    against the closures on the back-eliminating reference stores: L_w and
    L_alpha on every pool pair and weight family, and L_w on S6/S5 and S7/S6
    over the top-card stabiliser under bottom-card, random-to-top and their
    reverses.  (The `Fraction` closures of `test_rank_shortcut_matches_exact_closure`
    cover the pool and S6; at S7 they are too slow for this suite.)  Proper
    ideals, one-dimensional ones and the whole algebra all occur."""
    rng = random.Random(2525)
    dims = set()
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        n = problem.subgroup.order
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            points = rng.sample(range(G.order), min(2, G.order))
            alpha = AlgebraElement.from_pairs(G, [(g, Fraction(1, len(points))) for g in points])
            for seeds in ([[1] * n], [[1] * n] + problem.coset_components(alpha)):
                dim = check_spin_echelons(problem, w, seeds, (label, kind))
                dims.add((dim == 1) - (dim == n))
    for degree in (6, 7):
        G = symmetric_group(degree)
        problem = LumpingProblem(G, top_stabilizer(G))
        n = problem.subgroup.order
        bottom, rtt = bottom_card_cycle(G), random_to_top(G)
        for name, w in (("bottom", bottom), ("rtt", rtt), ("bottom*", bottom.star()), ("rtt*", rtt.star())):
            dim = check_spin_echelons(problem, w, [[1] * n], (f"S{degree}", name))
            dims.add((dim == 1) - (dim == n))
    assert dims == {-1, 0, 1}


def round_based_GL_space(f, P, alpha):
    """Reference: the minimal stable space of alpha grown round by round."""
    V = Subspace(P.n)
    frontier = []
    for b in range(f.n_lumps):
        proj = f.project(alpha.probs, b)
        if any(proj) and V.insert(proj):
            frontier.append(proj)
    while frontier:
        new_frontier = []
        for v in frontier:
            vP = P.apply(v)
            for b in range(f.n_lumps):
                proj = f.project(vP, b)
                if any(proj) and V.insert(proj):
                    new_frontier.append(proj)
        frontier = new_frontier
    return V


def block_narrowed_Vmax(f, P, Q):
    """Reference: V_max as a direct sum of per-lump blocks, narrowed until V P <= V.

    A block starts as the vectors v on its lump with v (PF - FQ) = 0 (for v
    supported on lump b, vF = (sum v) e_b), and keeps the part of itself that
    P maps into the current sum of blocks.
    """
    n, m = P.n, f.n_lumps
    blocks = []
    for b, states in enumerate(f.lumps()):
        basis_rows, images = [], []
        for x in states:
            v = [Fraction(0)] * n
            v[x] = Fraction(1)
            basis_rows.append(v)
            image = f.apply_F(P.apply(v))
            images.append([image[j] - Fraction(Q[b][j]) for j in range(m)])
        blocks.append(kernel_span(images, basis_rows, n))
    while True:
        V = Subspace(n, [r for blk in blocks for r in blk.rows])
        if all(V.contains(P.apply(v)) for v in V.rows):
            return V
        blocks = [kernel_span([V.reduce(P.apply(v)) for v in blk.rows], blk.rows, n)
                  for blk in blocks]


def check_cut(f, V, kernel, label) -> Subspace:
    """The cut by block echelon (`cut_by_block_echelon`) against the
    Zassenhaus intersection with ker F, and against the dense kernel
    coefficients of the lump images combined with the basis of V, which
    share no code with the block echelon of `kernel_span`; the cut is
    returned."""
    cut = cut_by_block_echelon(f, V)
    assert cut == intersect(V, kernel), label
    dense = dense_kernel_span([f.apply_F(v) for v in V.rows], V.rows, V.ambient)
    assert (cut.rows, cut.pivots) == (dense.rows, dense.pivots), label
    return cut


def test_generic_cut_matches_zassenhaus_intersection_on_pool(monkeypatch):
    """The generic oracle's stable spaces against their references on the pool.

    For the minimal stable space from a uniform, a point and a two-point
    start, and for the maximal stable space wherever the stationary (uniform)
    chain lumps weakly: the worklist closure equals the round-based or
    block-narrowed loop it replaced, and `V cap ker F` equals the Zassenhaus
    intersection and the dense reference (`check_cut`).  On the minimal
    space the closed-form cut rows of the weak test (`_cut_rows`) are those
    rows.  V_max, the
    `Subspace` of the canonical integer rows of its `nullspace`, has the
    rows, pivots and supports of the reference route through `to_subspace`.
    On those weak draws the maximal induced ideal J_w of the group path
    equals V_max as well.
    """
    from tests import oracle_suite

    kernels = []  # every nullspace the oracle suite reads, the last one V_max's

    def recorded(constraints, ambient):
        kernels.append(nullspace(constraints, ambient))
        return kernels[-1]

    monkeypatch.setattr(oracle_suite, "nullspace", recorded)
    rng = random.Random(6262)
    draws = minimal = maximal = 0
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        f = lumping_function(problem)
        kernel = kernel_F(f)
        uniform = Distribution.uniform(G.order)
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            if not w.is_irreducible_weight():
                w = w + AlgebraElement.from_pairs(G, [(g, Fraction(1)) for g in G.generators])
            P = transition_from_weight(G, w)
            draws += 1
            x = rng.randrange(G.order)
            # a start on two lumps that is not stationary: its lump
            # projections are not in the closure of the start alone
            y = f.lumps()[(f.lump_of[x] + 1) % f.n_lumps][0]
            spread = Distribution(tuple(Fraction((s == x) + (s == y), 2) for s in range(G.order)))
            for alpha in (uniform, Distribution.point(G.order, x), spread):
                gl = minimal_GL_space(f, P, alpha)
                assert gl == round_based_GL_space(f, P, alpha), (label, kind)
                cut = check_cut(f, gl, kernel, (label, kind))
                assert list(_cut_rows(f, gl)) == cut.rows, (label, kind)
                minimal += 1
            if weak_generic(f, P, uniform)[0]:
                Q = walk_lumped_matrix(problem, w)
                vmax = compute_Vmax_generic(f, P, Q)
                assert vmax == block_narrowed_Vmax(f, P, Q), (label, kind)
                ref = to_subspace(kernels[-1])
                assert (vmax.rows, vmax.pivots, vmax.support) == \
                    (ref.rows, ref.pivots, ref.support), (label, kind)
                check_cut(f, vmax, kernel, (label, kind))
                assert full_subspace(compute_Jw(problem, w)) == vmax, (label, kind)
                maximal += 1
    assert minimal == 3 * draws
    assert 0 < maximal < draws


def dense_abelian_pairings(problem, w):
    """Reference: every pairing <e_b x e_c, w> from dense group-algebra products."""
    H = problem.subgroup
    m, chars = abelian_characters(H)
    field = cyclotomic_field(m)
    idempotents = [character_idempotent(H, chi, m) for chi in chars]
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
        idempotents = [character_idempotent(problem.subgroup, chi, m) for chi in chars]
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
        full = left_ideal_closure(Subspace(24, [one.coeffs]), sym4)
        ker = right_multiply_space(full, one - prob.eta_H)
        assert ker.dim == 24 - prob.index


def E_bullet_cases(rng, label, problem):
    """Elements to test for E_• membership, (inside, outside) by name.

    Inside: the unit, eta_H, eta_T for a random T <= H and, for an abelian H,
    e_0 + e_chi for each non-real character chi, and on the die the witness
    e_P = e_0 + e_1 + e_3.  Outside: (1/2) 1, a lone nontrivial character
    idempotent, eta of H without its identity (not a subgroup) and an element
    supported off H.
    """
    G, H = problem.group, problem.subgroup
    inside = {"one": AlgebraElement.one(G), "eta_H": problem.eta_H,
              "eta_T": eta(G, random_subgroup_of(rng, H))}
    outside = {"half": AlgebraElement.from_pairs(G, [(0, Fraction(1, 2))]),
               "eta_H_minus_id": eta(G, H.members[1:]),
               "off_H": AlgebraElement.basis(G, next(g for g in range(G.order) if g not in H))}
    if H.is_abelian():
        m, chars = abelian_characters(H)
        idems = [character_idempotent(H, chi, m) for chi in chars]
        outside["e_chi"] = idems[-1]
        for b, chi in enumerate(chars):
            if any(2 * k % m for k in chi.values()):
                inside[f"e_0+e_{b}"] = idems[0] + idems[b]
        if label == "S4/C4":
            inside["e_P"] = idems[0] + idems[1] + idems[3]
    return inside, outside


def domain_message(check, *args):
    """The message of the `DomainError` a call raises, or None."""
    try:
        check(*args)
    except DomainError as exc:
        return str(exc)
    return None


def test_E_bullet_and_stable_check_match_dense_products():
    """`require_E_bullet` and `stable_ideal_check` against their dense
    products, on the pool and on S6 over its top-card stabiliser: the same
    (verdict, failed) inside E_•, the same `DomainError` message outside it.
    The elements w include a signed one, as `stable_ideal_check` takes any."""
    rng = random.Random(2020)
    S6 = symmetric_group(6)
    instances = [*build_pool(), ("S6/S5", S6, [S6.elements[g] for g in top_stabilizer(S6).generators])]
    outcomes = Counter()
    for label, G, hgens in instances:
        problem = LumpingProblem(G, G.subgroup(hgens))
        if G.order > 120:  # one sparse weight: the dense products on S6 are slow
            elements = [sample_weight(rng, problem, "random")]
        else:
            kinds = [k for k in WEIGHT_KINDS if G.order <= 30 or k != "theta"]
            signed = AlgebraElement.zero(G)
            for _ in range(4):
                signed.coeffs[rng.randrange(G.order)] += Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            elements = [*(sample_weight(rng, problem, kind) for kind in kinds), signed]
        inside, outside = E_bullet_cases(rng, label, problem)
        for name, e in inside.items():
            assert require_E_bullet(problem, e) is e, (label, name)
            for w in elements:
                result = stable_ideal_check(problem, w, e)
                assert result == stable_ideal_check_dense(problem, w, e), (label, name)
                outcomes[tuple(result[1])] += 1
        for name, e in outside.items():
            message = domain_message(require_E_bullet_dense, problem, e)
            assert message is not None, (label, name)
            assert domain_message(require_E_bullet, problem, e) == message, (label, name)
            assert domain_message(stable_ideal_check, problem, elements[0], e) == message, (label, name)
            outcomes[message] += 1
    assert len(outcomes) == 7, outcomes  # each verdict and each message occurs


def test_rational_and_cyclotomic_scalar_paths_agree():
    """Each rational e and w against its copy over Q(zeta_4), on every pool
    pair: the same `require_E_bullet` outcome, the same (verdict, failed) of
    `stable_ideal_check` for every mix of the two fields, and the same index
    from the cut kernel `_first_cut_violation` on the unit vectors of the
    subgroup algebra in a random order, after the all-ones vector for every
    other w (|H| eta_H z = 0 always, and a unit u has u z = 0 only for z = 0).
    The elements e are those of `E_bullet_cases` and 1 - eta_H, which does
    not average to eta_H.  The rational path reads the integral forms of e
    and w, the cyclotomic one the elements as given."""
    rng = random.Random(2323)
    Q4 = cyclotomic_field(4)
    outcomes, firsts = Counter(), Counter()
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        n = problem.subgroup.order
        kinds = [k for k in WEIGHT_KINDS if G.order <= 30 or k != "theta"]
        signed = AlgebraElement.zero(G)
        for _ in range(4):
            signed.coeffs[rng.randrange(G.order)] += Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        elements = [*(sample_weight(rng, problem, kind) for kind in kinds), signed]
        inside, outside = E_bullet_cases(rng, label, problem)
        outside["one_minus_eta_H"] = AlgebraElement.one(G) - problem.eta_H
        for name, e in {**inside, **outside}.items():
            if e.field.kind != "rational":
                continue
            message = domain_message(require_E_bullet, problem, e)
            assert domain_message(require_E_bullet, problem, e.to_field(Q4)) == message, (label, name)
            if message is not None:
                outcomes[message] += 1
                continue
            for w in elements:
                result = stable_ideal_check(problem, w, e)
                for e_field, w_field in ((e.to_field(Q4), w), (e, w.to_field(Q4)),
                                         (e.to_field(Q4), w.to_field(Q4))):
                    assert stable_ideal_check(problem, w_field, e_field) == result, (label, name)
                outcomes[tuple(result[1])] += 1
        units = [[int(k == j) for k in range(n)] for j in range(n)]
        for i, w in enumerate(elements):
            rows = [[1] * n] * (i % 2) + rng.sample(units, n)
            first = _first_cut_violation(problem, w, rows)
            assert _first_cut_violation(problem, w.to_field(Q4), rows) == first, label
            firsts["none" if first is None else "later" if first else "first"] += 1
    # each single verdict, each E_• message and each kind of index occurs
    assert len(outcomes) == 6 and len(firsts) == 3, (outcomes, firsts)


def check_class_sum_forms(problem, w, label):
    """The strong and exact verdicts with their certificates, the lumped
    rows, and the realizing weight (or the certificate) of the lumped rows and
    of their rows shifted by one, against the per-element references.
    Returns whether each of the two is achievable."""
    for test, side in ((strong_test, "left"), (exact_test, "right")):
        assert test(problem, w) == one_sided_test_two_pass(problem, w, side), (label, side)
    Q = walk_lumped_matrix(problem, w)
    assert Q == walk_lumped_matrix_normalizing(problem, w), label
    achievable = []
    for rows in (Q, Q[1:] + Q[:1]):
        got = check_Q_characterization(problem, rows)
        want = check_Q_characterization_per_element(problem, rows)
        assert got[:2] == want[:2], label
        if got[0]:
            assert format_element(got[2]) == format_element(want[2]), label
        achievable.append(got[0])
    return tuple(achievable)


def test_class_sum_forms_match_per_element_references():
    """The strong and exact tests, the lumped matrix, its realizing weight
    and Theta(e), each summed once per coset or per class, against the
    per-element forms they replace (`tests/reference.py`).

    Weights: the pool's samples, S6 over its top-card stabiliser with
    bottom-card and random-to-top, and S6 over the cyclic group of the
    6-cycle with a seeded bi-invariant weight (a random value in 1..4 on each
    double coset).  Idempotents: those of `E_bullet_cases` on the pool,
    among them the die's e_P and e_0 + e_chi for a non-real chi, and on S7
    over its top-card stabiliser 1, eta of <(2,3)> and eta_H.
    """
    rng = random.Random(2222)
    verdicts, achievable, cyclotomic = Counter(), Counter(), 0
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue  # the nullspace construction is for small orders
            w = sample_weight(rng, problem, kind)
            achievable[check_class_sum_forms(problem, w, (label, kind))] += 1
            verdicts[strong_test(problem, w)[0], exact_test(problem, w)[0]] += 1
        for name, e in E_bullet_cases(rng, label, problem)[0].items():
            assert theta_dimension(problem, e) == theta_dimension_per_element(problem, e), (label, name)
            cyclotomic += e.field.kind == "cyclotomic"
    # every strong/exact verdict pair, and shifted rows both achievable and not
    assert len(verdicts) == 4 and set(achievable) == {(True, True), (True, False)}, (
        verdicts, achievable)
    assert cyclotomic > 0
    S6 = symmetric_group(6)
    top = LumpingProblem(S6, top_stabilizer(S6))
    for name, w in (("bottom-card", bottom_card_cycle(S6)), ("random-to-top", random_to_top(S6))):
        check_class_sum_forms(top, w, ("S6/S5", name))
    cyclic = LumpingProblem(S6, S6.subgroup([parse_cycles(6, "(1,2,3,4,5,6)")]))
    bi_invariant = AlgebraElement.zero(S6)
    for members in cyclic.double.classes:
        value = Fraction(rng.randint(1, 4))
        for g in members:
            bi_invariant.coeffs[g] = value
    check_class_sum_forms(cyclic, bi_invariant, ("S6/C6", "bi-invariant"))
    assert strong_test(cyclic, bi_invariant)[0] and exact_test(cyclic, bi_invariant)[0]
    S7 = symmetric_group(7)
    problem = LumpingProblem(S7, top_stabilizer(S7))
    for e in (AlgebraElement.one(S7), eta(S7, S7.subgroup([parse_cycles(7, "(2,3)")])),
              problem.eta_H):
        assert theta_dimension(problem, e) == theta_dimension_per_element(problem, e), ("S7/S6", e)


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
        closure = left_ideal_closure(gl, sym4)
        _, ideal, _ = weak_weight_test(prob, w)
        assert closure == full_subspace(ideal)


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
        w = w + AlgebraElement(sym4, [scale / 2 * c for c in direction.coeffs])
        assert w.is_weight() and w.is_irreducible_weight()
        assert stable_ideal_check(top_prob, w, e)[0]
        ok, _, _ = weak_weight_test(top_prob, w)
        assert ok
