"""Exact subspace engine, and the full-|G| ideal references built on it."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumpwalk import AlgebraElement, Subspace, eta, intersect
from lumpwalk.linalg import IntegerRows, kernel_coefficients, kernel_span, nullspace
from lumpwalk.scalars import integral_form
from tests.reference import (
    BackEliminatingRows,
    ReversedBackEliminatingRows,
    is_induced,
    is_left_ideal,
    left_ideal_closure,
    right_multiply_space,
    to_subspace,
)


def rand_vec(rng, n, low=-3, high=3):
    return [Fraction(rng.randint(low, high)) for _ in range(n)]


class DenseSubspace:
    """Reference: RREF elimination that tests every column of every pivot row."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    def reduce(self, vector):
        v = list(vector)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for k in range(p, self.ambient):
                    if row[k]:
                        v[k] = v[k] - c * row[k]
        return v

    def insert(self, vector):
        v = self.reduce(vector)
        pivot = next((k for k, c in enumerate(v) if c), None)
        if pivot is None:
            return False
        lead = v[pivot]
        if lead != 1:
            v = [c / lead for c in v]
        for row in self.rows:
            c = row[pivot]
            if c:
                for k in range(pivot, self.ambient):
                    if v[k]:
                        row[k] = row[k] - c * v[k]
        at = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


def dense_kernel_coefficients(images):
    """Reference: kernel coefficients, finding each pivot again on every use."""
    k = len(images)
    out = DenseSubspace(k)
    if k == 0:
        return out
    m = len(images[0])
    pivot_rows = []
    for i, img in enumerate(images):
        v = list(img)
        coef = [Fraction(0)] * k
        coef[i] = Fraction(1)
        for pimg, pcoef in pivot_rows:
            p = next(j for j, c in enumerate(pimg) if c)
            c = v[p]
            if c:
                for j in range(m):
                    if pimg[j]:
                        v[j] = v[j] - c * pimg[j]
                for j in range(k):
                    if pcoef[j]:
                        coef[j] = coef[j] - c * pcoef[j]
        pivot = next((j for j, c in enumerate(v) if c), None)
        if pivot is None:
            out.insert(coef)
        else:
            lead = v[pivot]
            if lead != 1:
                v = [c / lead for c in v]
                coef = [c / lead for c in coef]
            pivot_rows.append((v, coef))
    return out


def dense_kernel_span(images, basis_rows, ambient):
    """Reference: the dense kernel coefficients, each combined by hand with
    the basis rows and echelonised in a `DenseSubspace`."""
    out = DenseSubspace(ambient)
    for coef in dense_kernel_coefficients(images).rows:
        vec = [Fraction(0)] * ambient
        for c, row in zip(coef, basis_rows):
            if c:
                for j, r in enumerate(row):
                    if r:
                        vec[j] += c * r
        out.insert(vec)
    return out


# mostly zeros, so the nonzero-column lists are short and change under elimination
sparse_entries = st.sampled_from(
    [Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4)]
)


@st.composite
def sparse_matrices(draw):
    """A width and a list of rows of that width over sparse rational entries."""
    width = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=width, max_size=width), max_size=12))
    return width, rows


@given(sparse_matrices(), st.lists(sparse_entries, min_size=9, max_size=9))
@settings(max_examples=150, deadline=None)
def test_sparse_elimination_matches_dense_reference(matrix, probe):
    width, rows = matrix
    probe = probe[:width]
    fast, dense = Subspace(width), DenseSubspace(width)
    for row in rows:
        assert fast.insert(row) == dense.insert(row)
        assert (fast.rows, fast.pivots) == (dense.rows, dense.pivots)
        assert fast.support == [[k for k, c in enumerate(r) if c] for r in fast.rows]
        assert fast.reduce(probe) == dense.reduce(probe)
    copied = fast.copy()
    assert (copied.rows, copied.pivots, copied.support) == (fast.rows, fast.pivots, fast.support)
    kernel, reference = kernel_coefficients(rows), dense_kernel_coefficients(rows)
    assert (kernel.rows, kernel.pivots) == (reference.rows, reference.pivots)
    assert kernel.support == [[k for k, c in enumerate(r) if c] for r in kernel.rows]
    basis_rows = rows[::-1]
    span, reference = kernel_span(rows, basis_rows, width), dense_kernel_span(rows, basis_rows, width)
    assert (span.rows, span.pivots) == (reference.rows, reference.pivots)
    assert span.support == [[k for k, c in enumerate(r) if c] for r in span.rows]


# zero half the time, otherwise a fraction with any sign and mixed denominators
signed_entries = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 10))
)


@st.composite
def rational_matrices(draw):
    """A width, a list of rows of that width (repeats and multiples mixed in)
    and an order in which to insert them."""
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(signed_entries, min_size=width, max_size=width), max_size=10))
    if rows and draw(st.booleans()):
        scale = draw(st.sampled_from([Fraction(-1), Fraction(2, 3), Fraction(-7, 4)]))
        rows.append([scale * c for c in draw(st.sampled_from(rows))])
    return width, rows, draw(st.permutations(range(len(rows))))


def proportional(u, v):
    """Whether u is a nonzero multiple of v, or both are zero."""
    k = next((k for k, c in enumerate(v) if c), None)
    if k is None:
        return not any(u)
    return bool(u[k]) and all(a * v[k] == b * u[k] for a, b in zip(u, v))


@given(rational_matrices(), st.lists(signed_entries, min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_integer_rows_match_fraction_rows(matrix, probe):
    """The spin store `IntegerRows` against `Subspace`, the dense reference and
    the back-eliminating references, in any insertion order and in both
    column orders: the same growth at every step; appended primitive rows
    with a positive pivot at their first (last) nonzero column, each zero at
    the pivots of the rows before it, and never rewritten; and an `echelon`
    equal to the references' canonical rows, pivots and supports, which
    the reference `to_subspace` turns into the `Subspace`."""
    width, rows, order = matrix
    probe = probe[:width]
    integral_probe = integral_form(probe)[1]
    ref, dense = Subspace(width), DenseSubspace(width)
    stores = [(IntegerRows(width), BackEliminatingRows(width)),
              (IntegerRows(width, last=True), ReversedBackEliminatingRows(width))]
    for i in order:
        row = rows[i]
        grew = ref.insert(row)
        assert grew == dense.insert(row)
        integral_row = integral_form(row)[1]
        for fast, back in stores:
            kept = [list(r) for r in fast.rows]
            assert fast.insert(integral_row) == back.insert(integral_row) == grew
            assert fast.rows[:len(kept)] == kept
            for j, (r, p, cols) in enumerate(zip(fast.rows, fast.pivots, fast.support)):
                assert all(isinstance(c, int) for c in r)
                assert r[p] > 0 and gcd(*r) == 1
                assert cols == [k for k, c in enumerate(r) if c]
                assert p == cols[-1 if fast.last else 0]
                assert not any(r[q] for q in fast.pivots[:j])
            canonical = fast.echelon()
            assert canonical.last == fast.last
            assert (canonical.rows, canonical.pivots, canonical.support) == back.canonical()
            assert proportional(fast.reduce(integral_probe), canonical.reduce(integral_probe))
        exact = to_subspace(stores[0][0].echelon())
        assert (exact.rows, exact.pivots, exact.support) == (ref.rows, ref.pivots, ref.support)
        assert (exact.rows, exact.pivots) == (dense.rows, dense.pivots)
        assert proportional(stores[0][0].reduce(integral_probe), ref.reduce(probe))
    fast = stores[0][0]
    again = IntegerRows(width, [integral_form(row)[1] for row in rows]).echelon()
    canonical = fast.echelon()
    assert (again.rows, again.pivots, again.support) == \
        (canonical.rows, canonical.pivots, canonical.support)
    # canonical echelons are equal exactly when the spans are; a store spun
    # with `last` holds its rows in another echelon
    assert again == canonical and again != stores[1][0].echelon()
    wider = canonical.copy()
    assert wider == canonical and (not wider.insert(integral_probe)) == (wider == canonical)
    copied = fast.copy()
    assert (copied.rows, copied.pivots, copied.support) == (fast.rows, fast.pivots, fast.support)
    assert copied.basis() == fast.rows and copied.dim == ref.dim
    assert stores[1][0].copy().last and not copied.last


@given(rational_matrices())
@example((3, [[Fraction(2), Fraction(1), Fraction(0)], [Fraction(0), Fraction(3), Fraction(1)]],
          [0, 1]))
@settings(max_examples=100, deadline=None)
def test_subspace_takes_canonical_integer_rows_as_they_stand(matrix):
    """`Subspace(s.ambient, s.rows)` for a forward canonical echelon s is the
    reference `to_subspace(s)`, rows, pivots and supports alike: each row is
    zero at every other pivot, so an insert only divides it by its pivot
    entry, also where the RREF has fractional entries."""
    width, rows, _ = matrix
    echelon = IntegerRows(width, [integral_form(row)[1] for row in rows]).echelon()
    built, ref = Subspace(echelon.ambient, echelon.rows), to_subspace(echelon)
    assert (built.rows, built.pivots, built.support) == (ref.rows, ref.pivots, ref.support)
    assert built == ref == Subspace(width, rows)


def test_spin_store_reduces_each_offered_vector_once(monkeypatch):
    """A vector `IntegerRows.insert` was given before lies in the span, so a
    second offer returns False without a reduction, whether the first grew
    the span or reduced to zero; a copy has its own record, so an offer to
    the copy does not stop the original from growing."""
    calls = []
    reduce = IntegerRows.reduce

    def counted(self, vector):
        calls.append(None)
        return reduce(self, vector)

    monkeypatch.setattr(IntegerRows, "reduce", counted)
    store = IntegerRows(3, [[1, 2, 0], [2, 4, 0]])  # the second reduces to zero
    assert store.dim == 1 and len(calls) == 2
    assert not store.insert([1, 2, 0]) and not store.insert((2, 4, 0))
    assert len(calls) == 2
    assert not store.insert([3, 6, 0]) and len(calls) == 3  # in the span, not offered before
    copied = store.copy()
    assert copied.insert([0, 0, 1]) and copied.dim == 2
    assert store.insert([0, 0, 1]) and store.dim == 2
    assert not copied.insert([0, 0, 1]) and len(calls) == 5


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), max_size=6))
@example([[2, 1, 0, 0]])
@settings(max_examples=100, deadline=None)
def test_int_vectors_never_give_float_rows(rows):
    """`Subspace.insert` divides by the pivot in the field, so `int` vectors
    give no `float` entry, and the rows, pivots and supports of the same
    vectors as `Fraction`s."""
    fast = Subspace(4, rows)
    assert not any(isinstance(c, float) for row in fast.rows for c in row)
    exact = Subspace(4, [[Fraction(c) for c in row] for row in rows])
    assert (fast.rows, fast.pivots, fast.support) == (exact.rows, exact.pivots, exact.support)


def test_canonical_echelon():
    rng = random.Random(1)
    for _ in range(5):
        vectors = [rand_vec(rng, 6) for _ in range(3)]
        U = Subspace(6, vectors)
        # a different generating set of the same space gives identical rows
        mixed = [
            [a + b for a, b in zip(vectors[0], vectors[1])],
            [2 * b - c for b, c in zip(vectors[1], vectors[2])],
            vectors[2],
            [3 * a for a in vectors[0]],
        ]
        V = Subspace(6, mixed)
        assert U == V


def test_grassmann_identity():
    rng = random.Random(2)
    for _ in range(6):
        U = Subspace(8, [rand_vec(rng, 8) for _ in range(3)])
        V = Subspace(8, [rand_vec(rng, 8) for _ in range(3)])
        s = Subspace(8, U.rows + V.rows)
        meet = intersect(U, V)
        assert s.dim + meet.dim == U.dim + V.dim
        assert all(U.contains(r) and V.contains(r) for r in meet.rows)
        assert all(s.contains(r) for r in U.rows + V.rows)
        assert intersect(U, U) == U


def test_nullspace_and_kernel():
    rows = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    ns = to_subspace(nullspace(rows, 3))
    assert ns.dim == 1
    v = ns.rows[0]
    assert v[0] + v[1] == 0 and v[1] + v[2] == 0
    images = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    kernel = kernel_coefficients(images)
    assert kernel.dim == 1
    c = kernel.rows[0]
    assert all(
        sum(c[i] * images[i][j] for i in range(3)) == 0 for j in range(2)
    )


def test_ideal_closures(sym4, top_prob, mid_swap_T):
    eta_T = eta(sym4, mid_swap_T)
    ideal_T = left_ideal_closure(Subspace(24, [eta_T.coeffs]), sym4)
    assert ideal_T.dim == 12  # induced from a one-dimensional module: dim = index
    eta_G = eta(sym4, range(24))
    assert left_ideal_closure(Subspace(24, [eta_G.coeffs]), sym4).dim == 1
    one = AlgebraElement.one(sym4)
    assert left_ideal_closure(Subspace(24, [one.coeffs]), sym4).dim == 24
    assert ideal_T.contains(eta_G.coeffs)
    assert is_left_ideal(ideal_T, sym4)


def test_closure_by_generators_matches_brute_force(sym4):
    rng = random.Random(9)
    seed = AlgebraElement(sym4, rand_vec(rng, 24, 0, 2))
    fast = left_ideal_closure(Subspace(24, [seed.coeffs]), sym4)
    brute = Subspace(24,
                     [(AlgebraElement.basis(sym4, g) * seed).coeffs for g in range(24)])
    assert fast == brute


def test_right_multiply_space(sym4, top_prob, mid_swap_T, frustrator):
    eta_T = eta(sym4, mid_swap_T)
    ideal_T = left_ideal_closure(Subspace(24, [eta_T.coeffs]), sym4)
    moved = right_multiply_space(ideal_T, frustrator)
    assert all(ideal_T.contains(r) for r in moved.rows)
    one = AlgebraElement.one(sym4)
    assert right_multiply_space(ideal_T, one) == ideal_T
    assert right_multiply_space(ideal_T, AlgebraElement.zero(sym4)).dim == 0


def test_project_and_induced(sym4, top_prob, mid_swap_T):
    eta_T = eta(sym4, mid_swap_T)
    ideal_T = left_ideal_closure(Subspace(24, [eta_T.coeffs]), sym4)
    assert is_induced(ideal_T, top_prob.left, sym4)
    # ker of the coset-summing map decomposes over cosets
    one = AlgebraElement.one(sym4)
    ker = right_multiply_space(
        left_ideal_closure(Subspace(24, [one.coeffs]), sym4),
        one - top_prob.eta_H,
    )
    assert ker.dim == 24 - 4
    assert is_induced(ker, top_prob.left, sym4)
    assert is_induced(Subspace(24), top_prob.left, sym4)  # {0}
    # a non-ideal subspace is not induced
    w = AlgebraElement.basis(sym4, sym4.element_of("(1,2)"))
    assert not is_induced(Subspace(24, [w.coeffs]), top_prob.left, sym4)
