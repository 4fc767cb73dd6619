"""Generic chain machinery: the oracle side of every lumping verdict."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumpwalk import (
    AlgebraElement,
    Distribution,
    LumpingFunction,
    LumpingProblem,
    Subspace,
    TransitionMatrix,
    compute_Vmax_generic,
    conditional_distribution,
    eta,
    lumped_transition_matrix,
    lumping_function,
    minimal_GL_space,
    stationary_distribution,
    test_exact_generic as exact_generic,
    test_strong_generic as strong_generic,
    test_weak_generic as weak_generic,
    time_reversal_matrix,
    transition_from_weight,
    walk_lumped_matrix,
)
from lumpwalk.errors import DomainError, InputFormatError
from lumpwalk.markov import (
    STATE_CAP,
    _cut,
    lumped_matrix_from_start,
    parse_distribution_file,
    parse_lump_file,
    parse_matrix_file,
)
from lumpwalk.shuffles import random_to_top, symmetric_group, top_to_random
from tests.conftest import uniform_on
from tests.oracle_suite import WEIGHT_KINDS, build_pool, sample_weight
from tests.reference import (
    left_ideal_closure,
    strong_generic_on_fractions,
    transition_rows_per_entry,
)


def dist(alg_elem):
    return Distribution(tuple(alg_elem.coeffs))


# -- transition matrices -----------------------------------------------------


def test_transition_from_weight_rows(sym4):
    P = transition_from_weight(sym4, random_to_top(sym4))
    for row in P.rows:
        nonzero = [p for p in row if p]
        assert len(nonzero) == 4 and all(p == Fraction(1, 4) for p in nonzero)
    delta = AlgebraElement.basis(sym4, 0)
    Pid = transition_from_weight(sym4, delta)
    assert all(Pid.rows[x][x] == 1 for x in range(24))
    doubled = random_to_top(sym4) + random_to_top(sym4)
    assert transition_from_weight(sym4, doubled) == P


def dense_apply(P, vec):
    """Reference: row vector times the dense matrix, every entry visited."""
    return [sum((vec[x] * P.rows[x][y] for x in range(P.n)), Fraction(0)) for y in range(P.n)]


def test_sparse_rows_match_dense_reference(sym4, frustrator):
    rng = random.Random(77)
    chains = [transition_from_weight(sym4, w) for w in (frustrator, random_to_top(sym4))]
    for n in (1, 3, 7):
        rows = []
        for _ in range(n):
            raw = [rng.choice([0, 0, 1, 2, 5]) for _ in range(n)]
            raw[rng.randrange(n)] += 1
            rows.append([Fraction(r, sum(raw)) for r in raw])
        chains.append(TransitionMatrix(rows))
    for P in chains:
        assert P.nonzero == [[(y, p) for y, p in enumerate(row) if p] for row in P.rows]
        for _ in range(5):
            vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * rng.randint(0, 1)
                   for _ in range(P.n)]
            assert P.apply(vec) == dense_apply(P, vec)
        for x in range(P.n):
            unit = [Fraction(int(y == x)) for y in range(P.n)]
            assert P.apply(unit) == P.rows[x] == dense_apply(P, unit)


def test_transition_matrix_validation():
    half = Fraction(1, 2)
    assert TransitionMatrix([[1, 0], ["1/3", Fraction(2, 3)]]).rows[1] == [Fraction(1, 3),
                                                                          Fraction(2, 3)]
    with pytest.raises(DomainError, match="square"):
        TransitionMatrix([[half, half]])
    with pytest.raises(DomainError, match="square"):
        TransitionMatrix([[1, 0], [1]])
    with pytest.raises(DomainError, match="negative"):
        TransitionMatrix([[1, 0], [Fraction(3, 2), -half]])
    with pytest.raises(DomainError, match="sum to 1"):
        TransitionMatrix([[half, Fraction(1, 3)], [1, 0]])
    with pytest.raises(DomainError, match="sum to 1"):
        TransitionMatrix([[0, 0], [0, 1]])
    with pytest.raises(DomainError, match="sum to 1"):
        # 1/6 + 1/10 + 10/15 + 1/30 = 29/30, over a common denominator of several
        TransitionMatrix([[Fraction(1, 6), Fraction(1, 10)] + [Fraction(1, 15)] * 10
                          + [Fraction(1, 30)]] * 13)
    with pytest.raises(DomainError, match="exceeds the cap"):
        TransitionMatrix([[]] * (STATE_CAP + 1))


@st.composite
def matrix_rows(draw):
    """Square or ragged rows of `Fraction`s, most of them stochastic."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        length = n if draw(st.integers(0, 7)) else draw(st.integers(0, 6))
        if draw(st.integers(0, 3)):
            weights = draw(st.lists(st.integers(0, 4), min_size=length, max_size=length))
            rows.append([Fraction(c, sum(weights) or 1) for c in weights])
        else:
            rows.append(draw(st.lists(st.fractions(-1, 2, max_denominator=6),
                                      min_size=length, max_size=length)))
    return rows


def written(p: Fraction, form: int):
    """An entry as a caller may give it: the `Fraction`, an `int` when it is
    one, or a literal, reduced or not."""
    if form == 1 and p.denominator == 1:
        return int(p)
    if form >= 2:
        k = form - 1
        return f"{p.numerator * k}/{p.denominator * k}"
    return p


def outcome(build):
    """(rows, nonzero) of a matrix, or the type and message of its error."""
    try:
        rows, nonzero = build()
    except (DomainError, InputFormatError) as exc:
        return type(exc).__name__, str(exc)
    assert all(type(p) is Fraction for row in rows for p in row)
    return rows, nonzero


def built(*args):
    P = TransitionMatrix(*args)
    return P.rows, P.nonzero


def built_from(text):
    P = parse_matrix_file(text)
    return P.rows, P.nonzero


@settings(max_examples=150, deadline=None)
@given(matrix_rows(), st.data())
def test_integral_rows_match_per_entry_checks(rows, data):
    """Rows given as `Fraction`s, `int`s or literals, and as matrix text, give
    the rows, nonzero pairs and errors of the per-entry checks."""
    forms = data.draw(st.lists(st.integers(0, 3), min_size=sum(map(len, rows)),
                               max_size=sum(map(len, rows))))
    it = iter(forms)
    given_rows = [[written(p, next(it)) for p in row] for row in rows]
    expected = outcome(lambda: transition_rows_per_entry(rows))
    assert outcome(lambda: built(given_rows)) == expected
    assert outcome(lambda: built(rows)) == expected
    if all(rows):
        tokens = [[str(written(p, 2 + (k + x) % 2)) for k, p in enumerate(row)]
                  for x, row in enumerate(rows)]
        text = f"states {len(rows)}\n" + "".join(" ".join(t) + "\n" for t in tokens)
        short = [x for x, row in enumerate(rows) if len(row) != len(rows)]
        if short:  # row x is line x + 2, after the header
            expected = ("InputFormatError", f"line {short[0] + 2}: matrix row with wrong entry count")
        assert outcome(lambda: built_from(text)) == expected


def lumpable_chain(rng, sizes):
    """A chain on lumps of the given sizes satisfying Dynkin's condition, each
    row splitting its lump sums with denominators of its own."""
    lump_of = [b for b, k in enumerate(sizes) for _ in range(k)]
    lumps = [[x for x, b in enumerate(lump_of) if b == c] for c in range(len(sizes))]
    rows = [None] * len(lump_of)
    for members in lumps:
        raw = [rng.randint(0, 3) for _ in sizes]
        raw[rng.randrange(len(sizes))] += 1
        sums = [Fraction(c, sum(raw)) for c in raw]
        for x in members:
            row = [Fraction(0)] * len(lump_of)
            for c, q in enumerate(sums):
                split = [rng.randint(1, 7) for _ in lumps[c]]
                for y, r in zip(lumps[c], split):
                    row[y] = q * Fraction(r, sum(split))
            rows[x] = row
    return LumpingFunction(tuple(lump_of)), rows


def test_integral_dynkin_matches_fraction_lump_sums():
    """Dynkin's test on integer lump sums agrees with the `Fraction` form on
    every walk of the pool and on chains whose rows have different
    denominators, lumpable or made not to be."""
    rng = random.Random(2025)
    verdicts = []
    for label, G, hgens in build_pool():
        problem = LumpingProblem(G, G.subgroup(hgens))
        f = lumping_function(problem)
        for kind in WEIGHT_KINDS:
            if G.order > 30 and kind == "theta":
                continue
            P = transition_from_weight(G, sample_weight(rng, problem, kind))
            verdicts.append(strong_generic(f, P))
            assert verdicts[-1] == strong_generic_on_fractions(f, P), (label, kind)
    mixed = 0
    for _ in range(60):
        f, rows = lumpable_chain(rng, [rng.randint(1, 4) for _ in range(rng.randint(1, 4))])
        if rng.random() < 0.5:
            # move mass between two lumps in one row
            x = rng.randrange(len(rows))
            src = max(range(len(rows)), key=lambda y: rows[x][y])
            dst = rng.randrange(len(rows))
            shift = rows[x][src] / rng.randint(2, 5)
            rows[x][src] -= shift
            rows[x][dst] += shift
        P = TransitionMatrix(rows)
        mixed += any(len({P.integral[x][0] for x in block}) > 1 for block in f.lumps())
        verdicts.append(strong_generic(f, P))
        assert verdicts[-1] == strong_generic_on_fractions(f, P), rows
    assert mixed > 20 and set(verdicts) == {True, False}


def test_parse_matrix_file_reads_no_fraction_per_entry(fraction_work):
    """A 120-state walk matrix is read with a bounded number of `Fraction`
    operations per row, not one or more per entry."""
    G = symmetric_group(5)
    P = transition_from_weight(G, random_to_top(G))
    text = f"states {P.n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in P.rows)
    fraction_work.clear()
    parsed = parse_matrix_file(text)
    assert sum(fraction_work.values()) <= 10 * P.n, fraction_work
    assert parsed == P


# -- the minimal stable space and the three tests -----------------------------


def test_minimal_space_identity_matrix():
    P = TransitionMatrix([[1, 0], [0, 1]])
    f = LumpingFunction((0, 1))
    alpha = Distribution((Fraction(1, 2), Fraction(1, 2)))
    gl = minimal_GL_space(f, P, alpha)
    assert gl.dim == 2  # span of the projections of alpha
    assert exact_generic(f, P, alpha)
    ok, _ = weak_generic(f, P, alpha)
    assert ok


def test_single_lump_always_weak():
    P = TransitionMatrix([[Fraction(1, 2), Fraction(1, 2)], [1, 0]])
    f = LumpingFunction((0, 0))
    ok, _ = weak_generic(f, P, Distribution.point(2, 0))
    assert ok


def test_minimal_space_walk_closure(sym4, top_prob, frustrator):
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, frustrator)
    gl = minimal_GL_space(f, P, Distribution.uniform(24))
    closure = left_ideal_closure(gl, sym4)
    eta_T = eta(sym4, sym4.subgroup([sym4.elements[sym4.element_of("(2,3)")]]))
    ideal_T = left_ideal_closure(Subspace(24, [eta_T.coeffs]), sym4)
    assert closure == ideal_T


def test_generic_tests_on_shuffles(sym4, top_prob):
    f = lumping_function(top_prob)
    uniform = Distribution.uniform(24)
    Pr = transition_from_weight(sym4, random_to_top(sym4))
    Pt = transition_from_weight(sym4, top_to_random(sym4))
    assert strong_generic(f, Pr)
    assert not strong_generic(f, Pt)
    assert exact_generic(f, Pt, uniform)
    assert not exact_generic(f, Pr, Distribution.point(24, 0))
    ok, cert = weak_generic(f, Pr, Distribution.point(24, 0))
    assert ok and cert is None


def test_frustrator_weak_only_from_compatible_starts(sym4, top_prob, frustrator, mid_swap_T):
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, frustrator)
    assert not strong_generic(f, P)
    assert not exact_generic(f, P, Distribution.uniform(24))
    ok_uni, _ = weak_generic(f, P, Distribution.uniform(24))
    assert ok_uni
    ok_eta_T, _ = weak_generic(f, P, dist(eta(sym4, mid_swap_T)))
    assert ok_eta_T
    ok_point, cert = weak_generic(f, P, Distribution.point(24, 0))
    assert not ok_point
    assert cert is not None
    # the certificate is a vector of the cut space violating stability
    image = f.apply_F(P.apply(cert))
    assert any(image) and not any(f.apply_F(cert))


def test_reducible_pentagon(dihedral10, dihedral_prob):
    G, sigma, tau = dihedral10
    prob = dihedral_prob
    f = lumping_function(prob)
    w = AlgebraElement.from_pairs(G, [(0, Fraction(1, 2)), (sigma, Fraction(1, 2))])
    P = transition_from_weight(G, w)
    C5 = G.subgroup([G.elements[sigma]])
    ok, _ = weak_generic(f, P, dist(uniform_on(G, C5.members)))
    assert ok
    ok, _ = weak_generic(f, P, Distribution.point(10, 0))
    assert ok
    reflection_coset = [g for g in range(10) if g not in C5]
    ok, _ = weak_generic(f, P, dist(uniform_on(G, reflection_coset)))
    assert ok
    ok, _ = weak_generic(f, P, Distribution.uniform(10))
    assert not ok
    mixed = AlgebraElement.from_pairs(G, [(0, Fraction(1, 2)), (tau, Fraction(1, 2))])
    ok, _ = weak_generic(f, P, dist(mixed))
    assert not ok
    gl = minimal_GL_space(f, P, dist(uniform_on(G, C5.members)))
    assert gl.dim <= 10
    # the cut part is stable under P when it lumps
    for v in _cut(f, gl).rows:
        assert not any(f.apply_F(P.apply(v)))


# -- stationary laws and aggregation ------------------------------------------


def test_stationary(sym4, frustrator):
    P = transition_from_weight(sym4, frustrator)
    mu = stationary_distribution(P)
    assert all(p == Fraction(1, 24) for p in mu.probs)
    swap = TransitionMatrix([[0, 1], [1, 0]])
    assert stationary_distribution(swap).probs == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(DomainError):
        stationary_distribution(TransitionMatrix([[1, 0], [0, 1]]))


def test_lumped_matrix(sym4, top_prob, frustrator):
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, frustrator)
    mu = Distribution.uniform(24)
    Q = lumped_transition_matrix(f, P, mu)
    assert all(q == Fraction(1, 4) for row in Q for q in row)
    assert Q == walk_lumped_matrix(top_prob, frustrator)
    Pr = transition_from_weight(sym4, random_to_top(sym4))
    Qr = lumped_transition_matrix(f, Pr, mu)
    assert all(q == Fraction(1, 4) for row in Qr for q in row)
    # injective lump map reproduces P
    fid = LumpingFunction(tuple(range(24)))
    assert lumped_transition_matrix(fid, P, mu) == P.rows
    # zero-mass lump rows are undefined
    P2 = TransitionMatrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    f2 = LumpingFunction((0, 1))
    rows = lumped_transition_matrix(f2, P2, Distribution.point(2, 0))
    assert rows[1] is None and rows[0] == [Fraction(1, 2), Fraction(1, 2)]


def test_lumped_matrix_constant_across_starts(sym4, top_prob, frustrator, mid_swap_T):
    # within the stable simplex every start yields the same defined rows
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, frustrator)
    reference = lumped_transition_matrix(f, P, Distribution.uniform(24))
    for alpha in (dist(eta(sym4, mid_swap_T)), Distribution.uniform(24)):
        observed = lumped_matrix_from_start(f, P, alpha)
        for row_obs, row_ref in zip(observed, reference):
            if row_obs is not None:
                assert row_obs == row_ref


def test_vmax(sym4, top_prob, frustrator, mid_swap_T):
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, frustrator)
    Q = walk_lumped_matrix(top_prob, frustrator)
    vmax = compute_Vmax_generic(f, P, Q)
    eta_T = eta(sym4, mid_swap_T)
    ideal_T = left_ideal_closure(Subspace(24, [eta_T.coeffs]), sym4)
    assert left_ideal_closure(vmax, sym4) == ideal_T
    assert vmax.dim == 12
    strong = eta_T * frustrator
    Ps = transition_from_weight(sym4, strong)
    Qs = walk_lumped_matrix(top_prob, strong)
    assert compute_Vmax_generic(f, Ps, Qs).dim == 24
    # injective lumping: whole space
    fid = LumpingFunction(tuple(range(24)))
    assert compute_Vmax_generic(fid, P, P.rows).dim == 24
    wrong_Q = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(DomainError):
        compute_Vmax_generic(f, P, wrong_Q)


# -- conditionals and reversal -------------------------------------------------


def test_conditional_distribution(sym4, top_prob, frustrator):
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, frustrator)
    # empty history imposes no condition; length-1 history conditions X_0
    alpha = Distribution.point(24, 0)
    assert conditional_distribution(f, P, alpha, []) is alpha
    law = conditional_distribution(f, P, alpha, [f.lump_of[0]])
    assert law.probs[0] == 1
    with pytest.raises(DomainError, match="prefix index 0"):
        conditional_distribution(f, P, alpha, [f.lump_of[sym4.element_of("(1,2)")]])
    lumps = [f.lump_of[0], f.lump_of[0], f.lump_of[sym4.element_of("(1,2)")]]
    with pytest.raises(DomainError, match="prefix index 2"):
        conditional_distribution(f, P, alpha, lumps)


def test_conditional_counterexample_exact_values(sym4, top_prob, frustrator):
    """Brute-force path enumeration fixes the two conditional probabilities."""
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, frustrator)
    Qlump = f.lump_of[0]
    Jlump = f.lump_of[sym4.element_of("(1,2)")]
    # oracle: enumerate all length-3 step sequences over the support
    support = list(frustrator.normalized().support())
    from itertools import product as iproduct

    weight_qq_j = Fraction(0)
    weight_qq = Fraction(0)
    weight_q_j = Fraction(0)
    weight_q = Fraction(0)
    for steps in iproduct(support, repeat=3):
        x = 0
        states = []
        p = Fraction(1)
        for g, pg in steps:
            x = sym4.mul(x, g)
            states.append(x)
            p *= pg
        l1, l2, l3 = (f.lump_of[s] for s in states)
        if l2 == Qlump:
            weight_q += p
            if l3 == Jlump:
                weight_q_j += p
            if l1 == Qlump:
                weight_qq += p
                if l3 == Jlump:
                    weight_qq_j += p
    oracle_given_qq = weight_qq_j / weight_qq
    oracle_given_q = weight_q_j / weight_q
    assert oracle_given_qq == 0
    assert oracle_given_q == Fraction(1, 8)
    # library path: conditional law after the full history, then one step
    alpha = Distribution.point(24, 0)
    law = conditional_distribution(f, P, alpha, [Qlump, Qlump, Qlump])
    next_lumps = f.apply_F(P.apply(list(law.probs)))
    assert next_lumps[Jlump] == oracle_given_qq
    vec = P.apply(P.apply(list(alpha.probs)))
    vec_q = f.project(vec, Qlump)
    marginal = f.apply_F(P.apply(vec_q))[Jlump] / sum(vec_q)
    assert marginal == oracle_given_q


def test_conditional_depends_only_on_last_lump_for_strong(sym4, top_prob):
    # strongly lumping chain at stationarity: conditional next-lump law given
    # the history depends only on the last lump (length <= 3 histories)
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, random_to_top(sym4))
    uniform = Distribution.uniform(24)
    from itertools import product as iproduct

    seen = {}
    for history in iproduct(range(4), repeat=3):
        try:
            law = conditional_distribution(f, P, uniform, list(history))
        except DomainError:
            continue
        key = history[-1]
        next_law = tuple(f.apply_F(P.apply(list(law.probs))))
        seen.setdefault(key, set()).add(next_law)
    assert all(len(v) == 1 for v in seen.values())


def test_time_reversal(sym4, top_prob):
    Pr = transition_from_weight(sym4, random_to_top(sym4))
    Pt = transition_from_weight(sym4, top_to_random(sym4))
    mu = Distribution.uniform(24)
    assert time_reversal_matrix(Pr, mu) == Pt
    assert time_reversal_matrix(time_reversal_matrix(Pr, mu), mu) == Pr
    symmetric = TransitionMatrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    assert time_reversal_matrix(symmetric, Distribution.uniform(2)) == symmetric
    with pytest.raises(DomainError):
        time_reversal_matrix(Pr, Distribution.point(24, 0))


def test_time_reversal_matches_fraction_formula(sym4, frustrator):
    """The reversed chain read off the integral rows equals
    alpha(y) P(y, x) / alpha(x) in `Fraction`s, also for chains whose rows
    and stationary law have different denominators."""
    rng = random.Random(58)
    chains = [transition_from_weight(sym4, frustrator)]
    for n in (1, 2, 5, 7):
        rows = []
        for _ in range(n):
            raw = [rng.choice([0, 1, 2, 5]) for _ in range(n)]
            raw[rng.randrange(n)] += 1
            raw = [r * rng.randint(1, 3) for r in raw]
            rows.append([Fraction(r, sum(raw)) for r in raw])
        chains.append(TransitionMatrix(rows))
    checked = 0
    for P in chains:
        if not P.is_irreducible():
            continue
        mu = stationary_distribution(P).probs
        expected = [[mu[y] * P.rows[y][x] / mu[x] for y in range(P.n)] for x in range(P.n)]
        Pstar = time_reversal_matrix(P, Distribution(mu))
        assert Pstar.rows == expected
        assert Pstar.nonzero == [[(y, p) for y, p in enumerate(row) if p] for row in expected]
        checked += 1
    assert checked >= 3


def test_strong_exact_reversal_duality_small_chains():
    rng = random.Random(31)
    for _ in range(8):
        n, m = 6, 3
        lump_of = tuple(rng.randrange(m) for _ in range(n - m)) + tuple(range(m))
        f = LumpingFunction(lump_of)
        rows = []
        for _ in range(n):
            raw = [rng.randint(1, 4) for _ in range(n)]
            total = sum(raw)
            rows.append([Fraction(r, total) for r in raw])
        P = TransitionMatrix(rows)
        mu = stationary_distribution(P)
        Pstar = time_reversal_matrix(P, mu)
        assert strong_generic(f, P) == exact_generic(f, Pstar, mu)
        assert exact_generic(f, P, mu) == strong_generic(f, Pstar)
        ok, _ = weak_generic(f, P, mu)
        ok_star, _ = weak_generic(f, Pstar, mu)
        assert ok == ok_star


def test_ergodic_membership(sym4, top_prob):
    # the stationary law lies in every minimal stable space of an irreducible chain
    rng = random.Random(12)
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, random_to_top(sym4))
    mu = stationary_distribution(P)
    for _ in range(3):
        raw = [Fraction(rng.randint(0, 3)) for _ in range(24)]
        total = sum(raw) or Fraction(1)
        alpha = Distribution(tuple(r / total for r in raw)) if sum(raw) else Distribution.point(24, 0)
        gl = minimal_GL_space(f, P, alpha)
        assert gl.contains(list(mu.probs))


def test_conditional_independence_exact_lumping(sym4, top_prob):
    # exactly lumping chain: the conditional law of the state given the lump
    # history is a function of the last lump alone (histories up to length 3)
    f = lumping_function(top_prob)
    P = transition_from_weight(sym4, top_to_random(sym4))
    uniform = Distribution.uniform(24)
    from itertools import product as iproduct

    laws = {}
    for t in (1, 2, 3):
        for history in iproduct(range(4), repeat=t):
            try:
                law = conditional_distribution(f, P, uniform, list(history))
            except DomainError:
                continue
            laws.setdefault(history[-1], set()).add(law.probs)
    assert all(len(v) == 1 for v in laws.values())


# -- file formats ---------------------------------------------------------------


def test_matrix_files(tmp_path):
    text = "states 2\n1/2 1/2\n1 0\n"
    P = parse_matrix_file(text)
    assert P.rows[1][0] == 1
    f = parse_lump_file("lump 0 a\nlump 1 b\n", 2)
    assert f.n_lumps == 2 and f.labels == ("a", "b")
    alpha = parse_distribution_file("states 2\n1/3 2/3\n")
    assert alpha.probs == (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(InputFormatError):
        parse_matrix_file("1/2 1/2\n")
    with pytest.raises(InputFormatError):
        parse_lump_file("lump 0 a\n", 2)
    with pytest.raises(InputFormatError, match="line 3: state 1 has a second lump line"):
        parse_lump_file("lump 0 a\nlump 1 b\nlump 1 a\n", 2)
    with pytest.raises(DomainError):
        parse_matrix_file("states 2\n1/2 1/3\n1 0\n")


def test_matrix_file_tokens():
    # equal tokens give equal values, and equal values written differently agree
    P = parse_matrix_file("states 3\n1/3 1/3 1/3\n2/6 0 4/6\n0 1 0\n")
    assert P._rows is None  # the dense rows are built from the integral form when first read
    assert P.rows == [[Fraction(1, 3)] * 3, [Fraction(1, 3), 0, Fraction(2, 3)], [0, 1, 0]]
    assert P.rows is P.rows
    assert P.nonzero[1] == [(0, Fraction(1, 3)), (2, Fraction(2, 3))]
    # a bad token fails wherever it repeats, and so does a zero denominator
    for text in ("states 2\n1/x 1/x\n1/x 1/x\n", "states 2\n1/2 1/2\n1/x 1/x\n",
                 "states 2\n1/2 1/2\n1/0 1\n", "states 2\n1/0 1/0\n1/0 1/0\n"):
        with pytest.raises(InputFormatError):
            parse_matrix_file(text)
    # a distribution reads each distinct token once, in the order it first
    # occurs: the first bad token fails, and before the entry count is checked
    alpha = parse_distribution_file("states 4\n1/4 1/4 2/8 1/4\n")
    assert alpha.probs == (Fraction(1, 4),) * 4
    for text, message in (("states 3\n1/2 1/x 1/y\n", "bad rational literal '1/x'"),
                          ("states 2\n1/0 1/x 1/0\n", "zero denominator in rational literal '1/0'"),
                          ("states 3\n1/2 1/2\n", "distribution row with wrong entry count")):
        with pytest.raises(InputFormatError, match=message):
            parse_distribution_file(text)
