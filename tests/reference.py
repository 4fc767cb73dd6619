"""Full-|G| reference forms for the differential tests.

The package decides lumping on vectors of length |H|: an induced ideal is
held by its cut to the subgroup algebra.  These are the forms over the whole
group algebra C[G] that the tests compare against: left-ideal closures,
right multiplication of a subspace, induced-ideal recognition, the induced
ideal itself with its defining axioms, the conjugate-linear inner product,
and the kernel of a lumping map.

The group layer has its own reference, written in one-line notation and
sharing no code with `lumpwalk.groups`: the multiplication and inverse
tables of an enumerated group, and its one-sided and double cosets built
from every product.
"""

from fractions import Fraction

from lumpwalk.algebra import AlgebraElement, eta
from lumpwalk.errors import DomainError
from lumpwalk.groups import CosetDecomposition, FiniteGroup
from lumpwalk.linalg import Subspace, closure, permuted
from lumpwalk.scalars import RATIONALS


def compose(g: tuple, h: tuple) -> tuple:
    """g*h in one-line notation: the image of j is h[g[j]] (apply g, then h)."""
    return tuple(h[g[j]] for j in range(len(g)))


def group_tables(G) -> tuple[list[list[int]], list[int]]:
    """The multiplication table of G over its element ids, by `compose`, and
    the inverse of each element, found by searching its row for the identity."""
    perms = [p.images for p in G.elements]
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


def right_multiply_space(V: Subspace, w: AlgebraElement) -> Subspace:
    """Span of v*w over a basis of V."""
    G = w.group
    if V.ambient != G.order:
        raise DomainError("subspace is not in this group algebra")
    out = Subspace(V.field, V.ambient)
    for row in V.rows:
        out.insert((AlgebraElement(G, row, V.field) * w).coeffs)
    return out


def left_ideal_closure(V: Subspace, group: FiniteGroup) -> Subspace:
    """Smallest left ideal containing V: closure under the group generators.

    Left multiplication by a generator permutes coordinates, and closure
    under the generators gives closure under the whole group.
    """
    elements = range(group.order)
    perms = [tuple(group.mul(g, x) for x in elements) for g in group.generators]
    zero = V.field.zero
    return closure(V, lambda v: (permuted(v, perm, zero) for perm in perms))


def is_left_ideal(V: Subspace, group: FiniteGroup) -> bool:
    for row in V.rows:
        elem = AlgebraElement(group, row, V.field)
        for g in group.generators:
            if not V.contains((AlgebraElement.basis(group, g, V.field) * elem).coeffs):
                return False
    return True


def is_induced(V: Subspace, decomposition: CosetDecomposition, group: FiniteGroup) -> bool:
    """True iff V is a left ideal equal to the direct sum of its coset projections."""
    if not is_left_ideal(V, group):
        return False
    zero = V.field.zero
    for row in V.rows:
        for cid in range(decomposition.n_cosets):
            projection = [c if decomposition.coset_of[i] == cid else zero
                          for i, c in enumerate(row)]
            if not V.contains(projection):
                return False
    return True


def induce_full(problem, pi_H: Subspace) -> Subspace:
    """Materialize the induced ideal as a subspace of the full group algebra."""
    out = Subspace(pi_H.field, problem.group.order)
    for rep in problem.left.representatives:
        translate = AlgebraElement.basis(problem.group, rep, pi_H.field)
        for row in pi_H.rows:
            out.insert((translate * problem.from_H_vector(row, pi_H.field)).coeffs)
    return out


def full_subspace(ideal) -> Subspace:
    """The induced ideal of a `GurvitsLedouxIdeal` as a subspace of C[G]."""
    return induce_full(ideal.problem, ideal.pi_H)


def verify_axioms(ideal, w: AlgebraElement) -> dict:
    """Recompute the defining properties of an induced ideal from its stored basis."""
    problem = ideal.problem
    full = full_subspace(ideal)
    moved = right_multiply_space(full, w.require_weight())
    one = AlgebraElement.one(problem.group, full.field)
    cut = right_multiply_space(full, one - problem.eta_H.to_field(full.field))
    cut_moved = right_multiply_space(cut, w)
    eta_G = eta(problem.group, range(problem.group.order))
    return {
        "contains_uniform": full.contains(eta_G.to_field(full.field).coeffs),
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
    return total / Fraction(a.group.order)


def kernel_F(f) -> Subspace:
    """ker F of a `LumpingFunction`, spanned by within-lump differences of basis vectors."""
    n = len(f.lump_of)
    out = Subspace(RATIONALS, n)
    for block in f.lumps():
        base = block[0]
        for other in block[1:]:
            v = [Fraction(0)] * n
            v[base] = Fraction(1)
            v[other] = Fraction(-1)
            out.insert(v)
    return out
