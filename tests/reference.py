"""Full-|G| reference forms for the differential tests.

The package decides lumping on vectors of length |H|: an induced ideal is
held by its cut to the subgroup algebra.  These are the forms over the whole
group algebra C[G] that the tests compare against: left-ideal closures,
right multiplication of a subspace, induced-ideal recognition, the induced
ideal itself with its defining axioms, the conjugate-linear inner product,
the kernel of a lumping map, the dimension of the compatibility algebra
Theta(e) by ranks, over Q(zeta_n) through the rotations of each row, the
E_• membership and stable-ideal checks by dense products, and condition (b)
of the interpolation test by the double cosets T\\G/H.  The closed forms
that sum once per coset or per class keep their per-element forms here: the
strong and exact tests that sum w once per criterion, the lumped matrix of
the normalized weight, the realizing weight divided per element, and
Theta(e) summed over every element of each double coset.  Three
references stay on the cut.  One is the closure of `close_H_ideal` with
every map on every vector, which the translation rule of `linalg.closure`
must reproduce; it translates by scattering entries (`permuted`) where the
package gathers them by the inverse map, so the two translation codes stay
independent.  The second is the cut of J_w by two echelons: the cut of
L_{w*} grown forward and echelonised again, columns read from the right,
by `nullspace`, which `compute_Jw` does in one.  The third is that one
echelon for every weak weight (`compute_Jw_by_nullspace`), where
`compute_Jw` returns the whole subgroup algebra, with no closure, for a
weight that lumps strongly.  The spin store
`linalg.IntegerRows` is compared with the integer store it replaced:
`BackEliminatingRows` holds the canonical echelon at every step by
eliminating each new pivot from every stored row, and
`ReversedBackEliminatingRows` is that store on reversed columns.  The weak
reports and membership tests read the integer echelon of an ideal's cut;
their route through its `Fraction` rows (`to_subspace`, each canonical
integer row divided by its pivot entry) stays here: the cut strings by
`element_lines`, `Subspace.contains`, and the false `test weak` certificate,
found by dense products.  The generic exact test, which holds one
direction per lump and stops at the second, keeps its form on the whole
minimal stable space (`exact_generic_by_closure`): its canonical echelon,
with the pivots counted per lump.  The generic weak test, which reads the
cut of that space in closed form, keeps the cut by Zassenhaus's block
echelon of the rows (v F | v) (`cut_by_block_echelon`), which also cuts
spaces where no closed form is claimed, such as V_max.

The group layer has its own reference, written in one-line notation and
sharing no code with `lumpwalk.groups`: the one-line images of a cycle
string, the multiplication and inverse tables of an enumerated group, the
subgroup generated by some of its elements, and its one-sided and double
cosets built from every product.  The cycle parser keeps its form with a
second scan for the cycles (`parse_cycles_findall`).  The double cosets,
which the package reads as orbits of the left factor's generators on the
left cosets, keep their construction from every member of the left factor
(`double_cosets_per_member`), and the members of each one-sided coset, which
the package no longer lists, are read from its `coset_of` (`coset_blocks`).

The integral forms keep their `Fraction` references: the sampler with its
thresholds as `Fraction`s, the per-entry checks of a transition matrix,
Dynkin's test on `Fraction` lump sums, and the cyclotomic power sum over a
table of `Fraction` coordinates.  The cyclotomic product and conjugate keep
the loops they had before both went through that power sum: the product
reduces each `a_i b_j` with i + j >= phi(n) by a table of the powers z^k up
to max(n - 1, 2 phi(n) - 2), and the conjugate adds the row of z^(-k) for
each coordinate.
"""

import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from lumpwalk.algebra import AlgebraElement, coset_sums, element_lines, eta
from lumpwalk.errors import DomainError, InputFormatError, InvariantError
from lumpwalk.groups import CosetDecomposition, FiniteGroup, double_cosets, gather
from lumpwalk.linalg import Subspace, closure, kernel_span, nullspace
from lumpwalk.lumping import (
    GurvitsLedouxIdeal,
    _integer_element,
    require_E_bullet,
    test_weak_weight,
)
from lumpwalk.markov import STATE_CAP, _check_states, minimal_GL_space
from lumpwalk.scalars import RATIONALS, common_field, cyclotomic_polynomial, integral_form


def compose(g: tuple, h: tuple) -> tuple:
    """g*h in one-line notation: the image of j is h[g[j]] (apply g, then h)."""
    return tuple(h[g[j]] for j in range(len(g)))


def permuted(vector, perm, zero) -> list:
    """The vector with entry k moved to position perm[k]: a scatter, where the
    closures of `lumpwalk` gather by the inverse map."""
    out = [zero] * len(vector)
    for pos, c in enumerate(vector):
        if c:
            out[perm[pos]] = c
    return out


def cycles_to_one_line(degree: int, text: str) -> tuple:
    """The one-line images of a canonical cycle string such as `(1,3)(2,4)`,
    1-based, or `id`: each point of a cycle goes to the next, the last to the
    first."""
    images = list(range(degree))
    if text != "id":
        for cycle in text[1:-1].split(")("):
            points = [int(p) - 1 for p in cycle.split(",")]
            for k, p in enumerate(points):
                images[p] = points[(k + 1) % len(points)]
    return tuple(images)


def generated_subgroup(mul, identity: int, ids) -> set:
    """The ids of the subgroup generated by the given ids, from a
    multiplication table: all that right multiplication by them reaches from
    the identity, a whole frontier at a time."""
    reached, frontier = {identity}, {identity}
    while frontier:
        frontier = {mul[g][s] for g in frontier for s in ids} - reached
        reached |= frontier
    return reached


def group_tables(G) -> tuple[list[list[int]], list[int]]:
    """The multiplication table of G over its element ids, by `compose`, and
    the inverse of each element, found by searching its row for the identity."""
    perms = list(G.elements)
    ids = {p: i for i, p in enumerate(perms)}
    mul = [[ids[compose(g, h)] for h in perms] for g in perms]
    identity = ids[tuple(range(G.degree))]
    return mul, [row.index(identity) for row in mul]


def coset_partition(mul, members, side: str) -> tuple:
    """(coset_of, representatives, cosets) of the cosets gH ("left") or Hg
    ("right") of the subgroup with the given member ids, from a
    multiplication table; the representative of a coset is its least id."""
    coset_of, reps, blocks = [-1] * len(mul), [], []
    for g in range(len(mul)):
        if coset_of[g] == -1:
            block = sorted({mul[g][h] if side == "left" else mul[h][g] for h in members})
            for x in block:
                coset_of[x] = len(reps)
            reps.append(g)
            blocks.append(tuple(block))
    return tuple(coset_of), tuple(reps), tuple(blocks)


def double_coset_partition(mul, left_members, right_members) -> tuple:
    """(class_of, representatives, sizes, classes) of the classes TxH, each
    built from all |T| |H| products t x h."""
    class_of, reps, blocks = [-1] * len(mul), [], []
    for x in range(len(mul)):
        if class_of[x] == -1:
            block = sorted({mul[mul[t][x]][h] for t in left_members for h in right_members})
            for g in block:
                class_of[g] = len(reps)
            reps.append(x)
            blocks.append(tuple(block))
    return tuple(class_of), tuple(reps), tuple(len(b) for b in blocks), tuple(blocks)


def coset_blocks(decomposition) -> tuple[tuple[int, ...], ...]:
    """The members of each coset of a `CosetDecomposition`, ascending, by
    coset id, read from its `coset_of`."""
    blocks = [[] for _ in decomposition.representatives]
    for g, cid in enumerate(decomposition.coset_of):
        blocks[cid].append(g)
    return tuple(map(tuple, blocks))


def double_cosets_per_member(G, T, left) -> tuple:
    """(class_of, representatives, sizes, classes) of the classes TxH, for H
    the subgroup of the left coset decomposition `left`: each class the union
    of the cosets (tx)H over every member t of T, numbered by its least
    member, with the counting identity |TxH| |x^-1 T x cap H| = |H| |T|
    checked by the conjugates x^-1 t x."""
    H = left.subgroup
    blocks = coset_blocks(left)
    class_of, reps, classes = [-1] * G.order, [], []
    for x in range(G.order):
        if class_of[x] != -1:
            continue
        tx = [G.mul(t, x) for t in T.members]
        block = sorted(y for c in {left.coset_of[y] for y in tx} for y in blocks[c])
        for y in block:
            class_of[y] = len(reps)
        reps.append(x)
        classes.append(tuple(block))
        x_inv = G.inv(x)
        meet = sum(G.mul(x_inv, y) in H for y in tx)
        if len(block) * meet != H.order * T.order:
            raise DomainError("double coset counting identity failed")
    return tuple(class_of), tuple(reps), tuple(map(len, classes)), tuple(classes)


class BackEliminatingRows:
    """Reference for `linalg.IntegerRows`: integer rows kept as the canonical
    echelon at every step, each row the canonical RREF row times the positive
    integer that makes it primitive.  `insert` eliminates each new pivot from
    every stored row, and the rows stay sorted by pivot."""

    def __init__(self, ambient, vectors=()):
        self.ambient, self.rows, self.pivots, self.support = ambient, [], [], []
        for v in vectors:
            self.insert(v)

    @property
    def dim(self):
        return len(self.rows)

    def copy(self):
        out = type(self)(self.ambient)
        out.rows = [list(r) for r in self.rows]
        out.pivots, out.support = list(self.pivots), [list(s) for s in self.support]
        return out

    def basis(self):
        return [list(r) for r in self.rows]

    def reduce(self, vector):
        v = list(vector)
        for row, p, cols in zip(self.rows, self.pivots, self.support):
            c = v[p]
            if c:
                d = row[p]
                g = gcd(c, d)
                if g != d:
                    v = [(d // g) * x for x in v]
                c //= g
                for k in cols:
                    v[k] -= c * row[k]
        return v

    def insert(self, vector):
        v = self.reduce(vector)
        cols = [k for k, c in enumerate(v) if c]
        if not cols:
            return False
        pivot = cols[0]
        g = gcd(*v) * (1 if v[pivot] > 0 else -1)
        for k in cols:
            v[k] //= g
        d = v[pivot]
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                g = gcd(c, d)
                m, c = d // g, c // g
                touched = set(self.support[i]) | set(cols)
                for k in touched:
                    row[k] = m * row[k] - c * v[k]
                kept = [k for k in sorted(touched) if row[k]]
                g = gcd(*[row[k] for k in kept])
                for k in kept:
                    row[k] //= g
                self.support[i] = kept
        at = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        self.support.insert(at, cols)
        return True

    def canonical(self):
        """(rows, pivots, supports) in ascending pivot order."""
        return self.rows, self.pivots, self.support


class ReversedBackEliminatingRows(BackEliminatingRows):
    """`BackEliminatingRows` of each vector with its columns reversed, so the
    pivot of a row is its last nonzero column; `basis` and `canonical` give
    the rows back in their own columns."""

    def insert(self, vector):
        return super().insert(vector[::-1])

    def basis(self):
        return [row[::-1] for row in self.rows]

    def canonical(self):
        last = self.ambient - 1
        rows = [row[::-1] for row in reversed(self.rows)]
        pivots = [last - p for p in reversed(self.pivots)]
        return rows, pivots, [[k for k, c in enumerate(row) if c] for row in rows]


def all_maps_H_ideal(problem, seeds, action) -> BackEliminatingRows:
    """Reference for `LumpingProblem.close_H_ideal`: the integer-row closure
    with every map on every vector, the generators of H and the coset
    components of u w alike, as successors of one family, on the
    back-eliminating store."""
    perms = problem._H_generator_perms
    scale = lcm(*(value.denominator for entries in action for _, _, value in entries))
    table = [[(cid, pos, value.numerator * (scale // value.denominator))
              for cid, pos, value in entries] for entries in action]

    def images(u):
        for perm in perms:
            yield permuted(u, perm, 0)
        yield from problem.times_weight(table, u)

    seed_rows = BackEliminatingRows(problem.subgroup.order,
                                    (integral_form(v)[1] for v in seeds))
    return closure(seed_rows, images)


def to_subspace(store) -> Subspace:
    """The row space of a forward `IntegerRows.echelon` as a `Subspace` in
    canonical RREF, built row by row: each row divided by its pivot entry,
    with `Fraction` entries.  The reference for `Subspace(store.ambient,
    store.rows)`, which inserts the integer rows as they stand."""
    out = Subspace(store.ambient)
    zero = RATIONALS.zero
    for row, p, cols in zip(store.rows, store.pivots, store.support):
        d = row[p]
        canonical = [zero] * store.ambient
        for k in cols:
            canonical[k] = Fraction(row[k], d)
        out.rows.append(canonical)
        out.pivots.append(p)
        out.support.append(list(cols))
    return out


def maximal_cut_two_echelons(problem, w: AlgebraElement) -> Subspace:
    """Reference for the cut of `compute_Jw`: the cut of L_{w*} in its
    forward echelon, its rows handed to `nullspace` as plain constraints,
    which echelonises them a second time with the columns read from the
    right, plus eta_H."""
    n = problem.subgroup.order
    forward = problem.close_H_ideal([[1] * n], _integer_element(w.star())[1])
    rows = nullspace(forward.rows, n)
    rows.insert([1] * n)
    return to_subspace(rows.echelon())


def compute_Jw_by_nullspace(problem, w: AlgebraElement) -> GurvitsLedouxIdeal:
    """Reference for `compute_Jw` on every weight, strongly lumping or not:
    the cut of L_{w*} spun with ``last``, its `nullspace`, and eta_H, in one
    canonical echelon.  `compute_Jw` takes this route only for a weight that
    does not lump strongly, and returns the identity cut for one that does."""
    if not test_weak_weight(problem, w)[0]:
        raise DomainError("weight does not lump weakly: the maximal ideal is undefined")
    n = problem.subgroup.order
    reversed_weight = _integer_element(w.require_weight().star())[1]
    rows = nullspace(problem.close_H_ideal([[1] * n], reversed_weight, last=True), n)
    rows.insert([1] * n)
    return GurvitsLedouxIdeal(problem, rows.echelon(), weakly_lumping=True)


def cut_strings_by_subspace(ideal) -> list[str]:
    """Reference for `cli._cut_strings`: the cut as the `Fraction` rows of
    `to_subspace`, each entry written by `element_lines`."""
    problem = ideal.problem
    labels = [problem.group.cycle_string(h) for h in problem.subgroup.members]
    pi_H = to_subspace(ideal.cut)
    return ["; ".join(element_lines(RATIONALS, ((labels[p], row[p]) for p in cols)))
            for row, cols in zip(pi_H.rows, pi_H.support)]


def contains_by_subspace(ideal, elem: AlgebraElement) -> bool:
    """Reference for `GurvitsLedouxIdeal.contains`: `Subspace.contains` of
    each coset component, over the `Fraction` rows of `to_subspace`."""
    pi_H = to_subspace(ideal.cut)
    return all(pi_H.contains(comp) for comp in ideal.problem.coset_components(elem))


def weak_certificate_by_subspace(ideal, w: AlgebraElement) -> str | None:
    """Reference for the certificate of a false `test weak`: the `repr` of
    the first `Fraction` row u of the cut's `to_subspace`, widened to C[G],
    with u z != 0 for z = (1 - eta_H) w eta_H by dense products; None when
    every row passes."""
    problem = ideal.problem
    w_eta = w * problem.eta_H
    z = w_eta - problem.eta_H * w_eta
    for row in to_subspace(ideal.cut).rows:
        u = problem.from_H_vector(row)
        if not (u * z).is_zero():
            return repr(u)
    return None


def right_multiply_space(V: Subspace, w: AlgebraElement) -> Subspace:
    """Span of v*w over a basis of V."""
    G = w.group
    if V.ambient != G.order:
        raise DomainError("subspace is not in this group algebra")
    out = Subspace(V.ambient)
    for row in V.rows:
        out.insert((AlgebraElement(G, row) * w).coeffs)
    return out


def left_ideal_closure(V: Subspace, group: FiniteGroup) -> Subspace:
    """Smallest left ideal containing V: closure under the group generators.

    Left multiplication by a generator permutes coordinates, and closure
    under the generators gives closure under the whole group.
    """
    elements = range(group.order)
    perms = [tuple(group.mul(g, x) for x in elements) for g in group.generators]
    return closure(V, lambda v: (permuted(v, perm, RATIONALS.zero) for perm in perms))


def is_left_ideal(V: Subspace, group: FiniteGroup) -> bool:
    for row in V.rows:
        elem = AlgebraElement(group, row)
        for g in group.generators:
            if not V.contains((AlgebraElement.basis(group, g) * elem).coeffs):
                return False
    return True


def is_induced(V: Subspace, decomposition: CosetDecomposition, group: FiniteGroup) -> bool:
    """True iff V is a left ideal equal to the direct sum of its coset projections."""
    if not is_left_ideal(V, group):
        return False
    for row in V.rows:
        for cid in range(decomposition.n_cosets):
            projection = [c if decomposition.coset_of[i] == cid else RATIONALS.zero
                          for i, c in enumerate(row)]
            if not V.contains(projection):
                return False
    return True


def induce_full(problem, pi_H: Subspace) -> Subspace:
    """Materialize the induced ideal as a subspace of the full group algebra."""
    out = Subspace(problem.group.order)
    for rep in problem.left.representatives:
        translate = AlgebraElement.basis(problem.group, rep)
        for row in pi_H.rows:
            out.insert((translate * problem.from_H_vector(row)).coeffs)
    return out


def full_subspace(ideal) -> Subspace:
    """The induced ideal of a `GurvitsLedouxIdeal` as a subspace of C[G]."""
    return induce_full(ideal.problem, to_subspace(ideal.cut))


def verify_axioms(ideal, w: AlgebraElement) -> dict:
    """Recompute the defining properties of an induced ideal from its stored basis."""
    problem = ideal.problem
    full = full_subspace(ideal)
    moved = right_multiply_space(full, w.require_weight())
    one = AlgebraElement.one(problem.group)
    cut = right_multiply_space(full, one - problem.eta_H)
    cut_moved = right_multiply_space(cut, w)
    eta_G = eta(problem.group, range(problem.group.order))
    return {
        "contains_uniform": full.contains(eta_G.coeffs),
        "stable_under_weight": all(full.contains(r) for r in moved.rows),
        "induced": is_induced(full, problem.left, problem.group),
        "cut_stable": all(cut.contains(r) for r in cut_moved.rows),
    }


def inner_product(a: AlgebraElement, b: AlgebraElement):
    """G-invariant inner product (1/|G|) sum conj(a(g)) b(g); conjugate-linear in ``a``."""
    x, y, f = a._aligned(b)
    conj = f.conjugate
    total = f.zero
    for i, c in x.support():
        d = y.coeffs[i]
        if d:
            total = total + conj(c) * d
    return total * Fraction(1, a.group.order)


def field_rank(rows, field) -> int:
    """The rank over a scalar field of rows of its scalars, by an elimination
    over Q alone.

    Over Q(zeta_n) each row v is written in the rational coordinates of the
    power basis together with its rotations zeta^j v, j < phi(n).  The Q-span
    of the rotations of the rows is the Q(zeta_n)-span of the rows, whose
    dimension over Q is phi(n) times its dimension over Q(zeta_n).
    """
    if field.kind == "rational":
        return Subspace(len(rows[0]), rows).dim
    rotations = [field.zeta(j) for j in range(field.phi)]
    space = Subspace(len(rows[0]) * field.phi)
    for row in rows:
        for z in rotations:
            space.insert([q for c in row for q in (z * c).coeffs])
    assert space.dim % field.phi == 0, "the rotation rank is a multiple of phi"
    return space.dim // field.phi


def theta_rows(problem, e, members) -> list[list]:
    """The constraint rows (e g (1-e) | (e - eta_H) g eta_H) of the group
    elements g given, by dense products over the field of e."""
    G, f = problem.group, e.field
    one = AlgebraElement.one(G, f)
    eta_H = problem.eta_H.to_field(f)
    rows = []
    for g in members:
        basis_g = AlgebraElement.basis(G, g, f)
        rows.append((e * basis_g * (one - e)).coeffs + ((e - eta_H) * basis_g * eta_H).coeffs)
    return rows


def theta_dimension_by_rank(problem, e) -> tuple[int, list[int]]:
    """Reference for `theta_dimension`: per double coset, the rank of the
    constraint rows of its elements (`field_rank`); the dimension is |G|
    minus their sum."""
    per_class = [field_rank(theta_rows(problem, e, members), e.field)
                 for members in problem.double.classes]
    return problem.group.order - sum(per_class), per_class


def require_E_bullet_dense(problem, e) -> AlgebraElement:
    """Reference for `lumping.require_E_bullet`: the same checks, in the same
    order and with the same messages, by dense products."""
    if not all(i in problem.subgroup for i in e.support_ids()):
        raise DomainError("idempotent is not supported on the subgroup")
    if e * e != e:
        raise DomainError("element is not idempotent")
    eta_H = problem.eta_H.to_field(e.field)
    if eta_H * e != eta_H:
        raise DomainError("idempotent does not average to eta_H (eta_H e != eta_H)")
    return e


def stable_ideal_check_dense(problem, w, e) -> tuple[bool, list[str]]:
    """Reference for `lumping.stable_ideal_check`: e w (1-e) and
    (e - eta_H) w eta_H by dense products over the joint field."""
    e = require_E_bullet_dense(problem, e)
    joint = common_field(w.field, e.field)
    w = w.to_field(joint)
    e = e.to_field(joint)
    one = AlgebraElement.one(problem.group, joint)
    eta_H = problem.eta_H.to_field(joint)
    failed = []
    if not (e * w * (one - e)).is_zero():
        failed.append("ideal-not-stable")
    if not ((e - eta_H) * w * eta_H).is_zero():
        failed.append("cut-not-stable")
    return not failed, failed


def balanced_double_coset_mass(problem, T, w) -> bool:
    """Reference for condition (b) of `lumping.interpolation_test`: w(TgH)
    |HgH| = w(HgH) |TgH| for every double coset TgH, from the classes T\\G/H
    and the sums of w over them and over the classes H\\G/H."""
    th = double_cosets(problem.group, T, problem.left)
    hh = problem.double
    w_th = [w.field.zero] * th.n_classes
    for i, c in w.support():
        w_th[th.class_of[i]] += c
    w_hh = problem.double_coset_sums(w)
    return all(w_th[cid] * hh.sizes[hh.class_of[rep]] == w_hh[hh.class_of[rep]] * th.sizes[cid]
               for cid, rep in enumerate(th.representatives))


def exact_generic_by_closure(f, P, alpha) -> bool:
    """The generic exact test on the whole minimal stable space: dim(V Pi_b)
    <= 1 for every lump b, read as the number of pivots of the canonical
    echelon of `minimal_GL_space` in lump b (each of its rows lies in one
    lump)."""
    lumps = [f.lump_of[p] for p in minimal_GL_space(f, P, alpha).pivots]
    return len(set(lumps)) == len(lumps)


def cut_by_block_echelon(f, V: Subspace) -> Subspace:
    """Reference for `markov._cut_rows`: V cap ker F, from the block echelon
    of the rows (v F | v) over a basis of V (`linalg.kernel_span`), n_lumps
    + n wide, for any subspace V of the states."""
    return kernel_span([f.apply_F(v) for v in V.rows], V.rows, V.ambient)


def weak_generic_by_block_echelon(f, P, alpha):
    """Reference for `markov.test_weak_generic`: the first row of the cut by
    block echelon of the minimal stable space with F(v P) != 0."""
    _check_states(f, P, alpha)
    for v in cut_by_block_echelon(f, minimal_GL_space(f, P, alpha)).rows:
        if any(f.apply_F(P.apply(v))):
            return False, list(v)
    return True, None


def kernel_F(f) -> Subspace:
    """ker F of a `LumpingFunction`, spanned by within-lump differences of basis vectors."""
    n = len(f.lump_of)
    out = Subspace(n)
    for block in f.lumps():
        base = block[0]
        for other in block[1:]:
            v = [Fraction(0)] * n
            v[base] = Fraction(1)
            v[other] = Fraction(-1)
            out.insert(v)
    return out


_CYCLE_RE = re.compile(r"\(([0-9,]*)\)")
_CYCLES_RE = re.compile(r"(?:\([0-9,]*\))*")


def parse_cycles_findall(degree: int, text: str) -> tuple[int, ...]:
    """Reference for `lumpwalk.groups.parse_cycles`: the text checked by one
    regular expression, then its cycles found by a second scan (`findall`).
    Whitespace is removed, except between two digits, where it is an error."""
    text = text.strip()
    if text in ("id", "()", "e", "1"):
        return tuple(range(degree))
    pieces = text.split()
    for left, right in zip(pieces, pieces[1:]):
        if left[-1] in "0123456789" and right[0] in "0123456789":
            raise InputFormatError(f"whitespace between digits in {text!r}")
    stripped = "".join(pieces)
    if not _CYCLES_RE.fullmatch(stripped):
        raise InputFormatError(f"bad cycle notation {text!r}")
    images = list(range(degree))
    seen = set()
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        try:
            points = [int(p) - 1 for p in body.split(",")]
        except ValueError:
            raise InputFormatError(f"bad point in cycle ({body})")
        cycle = set(points)
        if len(cycle) != len(points):
            raise InputFormatError(f"repeated point in cycle ({body})")
        if min(points) < 0 or max(points) >= degree:
            raise InputFormatError(f"cycle point outside 1..{degree} in ({body})")
        if not seen.isdisjoint(cycle):
            shared = min(seen & cycle) + 1
            raise InputFormatError(f"point {shared} appears in two cycles of {text!r}")
        seen |= cycle
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def double_coset_constancy_two_pass(problem, w, side):
    """Reference for the constancy criterion of `lumping._one_sided_test`:
    the coset sums of w taken for this criterion alone."""
    decomposition = problem.left if side == "left" else problem.right
    sums = coset_sums(w, decomposition)
    by_class = [[] for _ in range(problem.double.n_classes)]
    for coset_id, rep in enumerate(decomposition.representatives):
        # every coset lies inside one double coset, keyed by its rep
        by_class[problem.double.class_of[rep]].append(coset_id)
    name = problem.group.cycle_string
    for cid, members in enumerate(by_class):
        if any(sums[k] != sums[members[0]] for k in members[1:]):
            pair = sorted(members, key=sums.__getitem__)
            ends = (pair[0], pair[-1])
            return False, {
                "double_coset": name(problem.double.representatives[cid]),
                "cosets": [name(decomposition.representatives[k]) for k in ends],
                "sums": [str(sums[k]) for k in ends],
            }
    return True, None


def cut_coset_values_two_pass(problem, w, side="left") -> list:
    """Reference for `lumping._cut_coset_values`: the coset sums and the
    double-coset sums of w each taken from its coefficients, and the mean of a
    double coset divided out once per coset."""
    decomposition = problem.left if side == "left" else problem.right
    double = problem.double
    per_coset = coset_sums(w, decomposition)
    per_double = problem.double_coset_sums(w)
    per_H = Fraction(1, problem.subgroup.order)
    values = []
    for cid, rep in enumerate(decomposition.representatives):
        d = double.class_of[rep]
        values.append(per_coset[cid] * per_H - per_double[d] * Fraction(1, double.sizes[d]))
    return values


def one_sided_test_two_pass(problem, w, side):
    """Reference for `lumping._one_sided_test`: both criteria, each summing
    all the terms of w, and the same agreement check."""
    w = w.require_weight()
    verdict, certificate = double_coset_constancy_two_pass(problem, w, side)
    if any(cut_coset_values_two_pass(problem, w, side)) == verdict:
        kind = "strong" if side == "left" else "exact"
        raise InvariantError(f"{kind}-lumping criteria disagree")
    return verdict, certificate


def walk_lumped_matrix_normalizing(problem, w):
    """Reference for `lumping.walk_lumped_matrix`: the double-coset sums of
    the normalized weight, each coefficient divided by the total."""
    w = w.require_weight().normalized()
    order, sizes = problem.subgroup.order, problem.double.sizes
    per_class = [s * order / sizes[cid] for cid, s in enumerate(problem.double_coset_sums(w))]
    return [[per_class[cid] for cid in row] for row in problem.pair_classes]


def check_Q_characterization_per_element(problem, Q):
    """Reference for `hecke.check_Q_characterization`: the realizing weight
    holds q / |H| computed once for each element of each class."""
    m = problem.index
    rows = [list(map(Fraction, row)) for row in Q]
    if len(rows) != m or any(len(r) != m for r in rows):
        raise DomainError("lumped matrix has the wrong shape")
    for r in rows:
        if any(x < 0 for x in r):
            raise DomainError("lumped matrix has a negative entry")
        if sum(r) != 1:
            raise DomainError("lumped matrix row does not sum to 1")
    G = problem.group
    values = {}
    for i, row in enumerate(problem.pair_classes):
        for j, cid in enumerate(row):
            if cid in values:
                if values[cid] != rows[i][j]:
                    certificate = {
                        "class": G.cycle_string(problem.double.representatives[cid]),
                        "entries": [str(values[cid]), str(rows[i][j])],
                        "position": [i, j],
                    }
                    return False, certificate, None
            else:
                values[cid] = rows[i][j]
    weight = AlgebraElement.zero(G)
    order_H = problem.subgroup.order
    for cid, q in values.items():
        if q:
            for g in problem.double.classes[cid]:
                weight.coeffs[g] = q / order_H
    coefficients = [values[cid] for cid in range(problem.double.n_classes)]
    return True, coefficients, weight


def theta_dimension_per_element(problem, e) -> tuple[int, list[int]]:
    """Reference for `lumping.theta_dimension`: the trace of each double coset
    HxH summed over its elements g, with g^-1 h^-1 g composed for every g and
    every h in the support of e:
      c(HxH) = sum over g in HxH and h in supp e with h' = g^-1 h^-1 g in H of
               e(h) (delta_{h',1} - e(h') + 1/|H|),  minus 1."""
    e = require_E_bullet(problem, e)
    G, H = problem.group, problem.subgroup
    field, coeffs, images = e.field, e.coeffs, G.images
    in_H = {images[h]: h for h in H.members}  # the id of each member, by image tuple
    inverses = [(gather(images[G.inv(h)]), h) for h in e.support_ids()]
    uniform = Fraction(1, H.order)
    per_class = []
    for members in problem.double.classes:
        hits = Counter()  # (h, h') -> the number of g in the class with g^-1 h^-1 g = h'
        for g in members:
            g_img = images[g]
            g_inv_times = gather(images[G.inv(g)])
            for h_inv_times, h in inverses:
                k = in_H.get(g_inv_times(h_inv_times(g_img)))  # g^-1 h^-1 g
                if k is not None:
                    hits[h, k] += 1
        trace = field.zero
        for (h, k), n in hits.items():
            trace = trace + n * coeffs[h] * (int(k == 0) - coeffs[k] + uniform)
        count = trace - 1
        if not field.is_rational_value(count) or field.rational_value(count).denominator != 1:
            raise InvariantError(f"theta constraint count {count} is not an integer")
        per_class.append(int(field.rational_value(count)))
    return G.order - sum(per_class), per_class


def fraction_threshold_sampler(entries):
    """Reference for `simulate._sampler`: the cumulative thresholds held as
    `Fraction`s and compared with u = k / 2^64, one `Fraction` per draw."""
    values = []
    thresholds = []
    acc = Fraction(0)
    for value, p in entries:
        if p:
            acc += p
            values.append(value)
            thresholds.append(acc)
    if acc != 1:
        raise InvariantError("sampler probabilities must sum to 1")
    last = len(values) - 1

    def draw(k: int):
        return values[min(bisect_right(thresholds, Fraction(k, 1 << 64)), last)]

    return draw


def transition_rows_per_entry(rows):
    """Reference for the validation of `markov.TransitionMatrix` and its held
    form: every entry made a `Fraction`, then per row the square, sign and
    sum checks on the nonzero entries, summed over their common denominator
    D.  Returns (rows, integral), row x of ``integral`` being D, the columns
    of the nonzero entries and their numerators over D."""
    rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows]
    n = len(rows)
    if n > STATE_CAP:
        raise DomainError(f"state count {n} exceeds the cap {STATE_CAP}")
    integral = []
    for x, r in enumerate(rows):
        if len(r) != n:
            raise DomainError(f"row {x} of the transition matrix has {len(r)} entries: "
                              f"a square matrix needs {n}")
        pairs = [(y, p) for y, p in enumerate(r) if p]
        if any(p.numerator < 0 for _, p in pairs):
            raise DomainError(f"row {x} of the transition matrix has a negative entry")
        den = lcm(*{p.denominator for _, p in pairs})
        numerators = [p.numerator * (den // p.denominator) for _, p in pairs]
        if sum(numerators) != den:
            raise DomainError(f"row {x} of the transition matrix does not sum to 1")
        integral.append((den, [y for y, _ in pairs], numerators))
    return rows, integral


def strong_generic_on_fractions(f, P) -> bool:
    """Reference for `markov.test_strong_generic`: Dynkin's condition on the
    `Fraction` rows, each row's lump sums added one `Fraction` at a time."""
    for block in f.lumps():
        base = f.apply_F(P.rows[block[0]])
        for other in block[1:]:
            if f.apply_F(P.rows[other]) != base:
                return False
    return True


def power_sum_on_fraction_table(field, coeffs):
    """Reference for `CyclotomicField.power_sum`: the powers z^k reduced
    modulo Phi_n with `Fraction` coordinates, and the sum taken over them."""
    minimal = cyclotomic_polynomial(field.order)
    row = [Fraction(1)] + [Fraction(0)] * (field.phi - 1)
    out = [Fraction(0)] * field.phi
    for c in coeffs:
        out = [a + c * r for a, r in zip(out, row)]
        row = [Fraction(0)] + row
        lead = row.pop()
        row = [a - lead * m for a, m in zip(row, minimal)]
    return out


@cache
def long_power_table(order: int) -> tuple:
    """The coordinates of z^k, 0 <= k <= max(n - 1, 2 phi(n) - 2), reduced
    modulo Phi_n one power at a time: the table the product once read, with a
    row for every exponent i + j of two basis vectors."""
    minimal = cyclotomic_polynomial(order)
    phi = len(minimal) - 1
    table = []
    row = [0] * phi
    row[0] = 1
    table.append(tuple(row))
    for _ in range(max(order - 1, 2 * phi - 2)):
        row = [0] + list(row)
        lead = row.pop()
        if lead:
            row = [c - lead * m for c, m in zip(row, minimal[:-1])]
        table.append(tuple(row))
    return tuple(table)


def cyclotomic_product_by_long_table(field, a, b) -> list:
    """Reference for `CyclotomicField._mul` on coordinate vectors: a_i b_j
    added at i + j below phi(n), and through the row of z^(i+j) above."""
    table = long_power_table(field.order)
    out = [Fraction(0)] * field.phi
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if ca and cb:
                c = ca * cb
                if i + j < field.phi:
                    out[i + j] += c
                else:
                    for k, r in enumerate(table[i + j]):
                        if r:
                            out[k] += c * r
    return out


def cyclotomic_conjugate_by_rows(field, x) -> list:
    """Reference for `CyclotomicField.conjugate` on a coordinate vector: the
    row of z^(n-k) added once per coordinate k, times that coordinate."""
    table = long_power_table(field.order)
    out = [Fraction(0)] * field.phi
    for k, c in enumerate(x):
        if c:
            for i, r in enumerate(table[(field.order - k) % field.order]):
                out[i] += c * r
    return out
