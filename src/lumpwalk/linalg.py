"""Exact linear algebra over Q: row spaces, their closures under linear maps, kernels.

A canonical echelon is a reduced row echelon form, so two subspaces are
equal exactly when their canonical basis matrices are equal.  Each row also
keeps the ascending list of its nonzero columns, so elimination touches only
those entries, in the order of a dense sweep.

There are two row stores, on one skeleton (`_RowStore`).  `Subspace` holds
rational rows in RREF with leading coefficient 1.  `IntegerRows`, the spin
store, holds primitive integer rows (gcd 1, positive pivot), appended in
semi-echelon form: growing a span rewrites no stored row, and elimination
divides only by a gcd.  It remembers every vector offered to it: one offered
again lies in the span already and is not reduced a second time; about
half the candidates of the shuffle closures repeat an earlier one exactly.
When the span is complete, `echelon` builds the canonical form its reader
needs, once: each row the canonical RREF row times the one positive integer
that makes it primitive, which the weak reports, dimensions and membership
tests of `lumping` read as it stands; or, for a store spun with ``last``,
the same with the columns read from the right, the echelon `nullspace`
reads.  A rational vector enters an integer store in its integral form
(`scalars.integral_form`), which spans the same line.
The group-path closures and `nullspace` run on integer rows, and `nullspace`
returns an `IntegerRows` (for `compute_Jw`, and for the `V_max` and
stationary laws of the tests' chain oracle).  The generic chain closures
stay on `Subspace`: the minimal stable space of `markov`, and the oracle's
annihilator of `V_max`.  A `Subspace` takes the canonical rows of a forward
echelon as they stand: each is zero at every other pivot, so `insert` only
divides it by its pivot entry.

`kernel_span` is the one kernel that combines coefficient vectors with a
basis: Zassenhaus's block echelon on one `Subspace`, which reads the span
off without building the coefficient vectors.  `kernel_coefficients` is
`kernel_span` with unit basis rows, and `intersect` is `kernel_span` of the
rows of both spaces with the rows of one.  No command reaches the three:
the weak test of `markov` reads its cut in closed form, and they serve the
tests' chain oracle and references.

`closure` is the one fixpoint kernel, generic over the row store, for the
group path and the generic oracle alike: the smallest subspace containing a
seed and closed under given linear maps, grown from a worklist.  Its maps
come in two families, successors and translations.  Every vector that grows
the span gets the translations, and only the seed rows and the successor
images that grew it also get the successors: a translate gets translations
only.  That is sound when the successors of a translate are translates of
successors, as for a left ideal of a group algebra under left multiplication
by the group (proved at `closure`); the generic oracle passes no
translations, so every map meets every vector there.  Whether a vector
grows a span does not depend on the echelon that holds it, so a closure
spun on `IntegerRows` has the same worklist, inserts and yields in either
column order, and its canonical echelon is built once, when it ends.  No
elimination runs over a cyclotomic field.  The module knows nothing of
groups: its callers hand it vectors and maps.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from itertools import compress
from math import gcd, lcm

from .errors import DomainError
from .scalars import RATIONALS, integral_form


class _RowStore:
    """What the two row stores share: the basis rows of a row space in
    ``ambient`` columns, with the pivot column ``pivots[i]`` of ``rows[i]``
    and its nonzero columns ``support[i]`` in ascending order, so elimination
    visits only those entries.  A subclass defines `insert` and `reduce`.
    """

    __slots__ = ("ambient", "rows", "pivots", "support")

    def __init__(self, ambient: int, vectors=()):
        self.ambient = ambient
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self.support: list[list[int]] = []
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self):
        out = shallow_copy(self)  # every slot; the lists are copied below
        out.rows = [list(r) for r in self.rows]
        out.pivots = list(self.pivots)
        out.support = [list(s) for s in self.support]
        return out

    def basis(self) -> list[list]:
        return [list(r) for r in self.rows]


class Subspace(_RowStore):
    """Row space of a rational matrix, kept in RREF with leading coefficient 1."""

    __slots__ = ()

    def reduce(self, vector) -> list:
        """Residue of a vector after eliminating all pivots (input not mutated)."""
        if len(vector) != self.ambient:
            raise DomainError("vector length does not match the ambient dimension")
        v = list(vector)
        for row, p, cols in zip(self.rows, self.pivots, self.support):
            c = v[p]
            if c:
                for k in cols:
                    v[k] = v[k] - c * row[k]
        return v

    def insert(self, vector) -> bool:
        """Add a vector to the span; returns True if the dimension grew."""
        v = self.reduce(vector)
        cols = [k for k, c in enumerate(v) if c]
        if not cols:
            return False
        pivot = cols[0]
        lead = v[pivot]
        if lead != 1:
            inv = RATIONALS.one / lead  # a Fraction, also for int entries
            for k in cols:
                v[k] = v[k] * inv
        # eliminate the new pivot column from existing rows
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                for k in cols:
                    row[k] = row[k] - c * v[k]
                touched = set(self.support[i])
                touched.update(cols)
                self.support[i] = [k for k in sorted(touched) if row[k]]
        at = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        self.support.insert(at, cols)
        return True

    def contains(self, vector) -> bool:
        return not any(self.reduce(vector))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __hash__(self):
        raise TypeError("Subspace is not hashable")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class IntegerRows(_RowStore):
    """Row space over Q of integer vectors, spun in semi-echelon form.

    `insert` reduces a vector by the stored rows in insertion order and
    appends the primitive residue, if any, with its first nonzero column as
    pivot (its last, with ``last``): each row is zero at the pivots of the
    rows before it, so `reduce` takes the span to zero.  ``offered`` holds
    every vector `insert` was given, as a tuple; each lies in the span, so
    `insert` answers a second offer with False and no reduction, and a
    `copy` gets a set of its own.  `echelon` builds the canonical form.  Two
    stores are equal when they hold the same rows in the same order, so two
    canonical echelons are equal exactly when their spans are.
    """

    __slots__ = ("last", "offered")

    def __init__(self, ambient: int, vectors=(), last: bool = False):
        self.last = last
        self.offered: set[tuple[int, ...]] = set()  # every vector `insert` was given
        super().__init__(ambient, vectors)

    def copy(self) -> IntegerRows:
        out = super().copy()
        out.offered = set(self.offered)  # shared, it would skip vectors this store never spanned
        return out

    def reduce(self, vector) -> list[int]:
        """A nonzero multiple of the residue of an integer vector (not mutated)."""
        if len(vector) != self.ambient:
            raise DomainError("vector length does not match the ambient dimension")
        v = list(vector)
        for row, p, cols in zip(self.rows, self.pivots, self.support):
            c = v[p]
            if c:
                d = row[p]
                g = gcd(c, d)
                if g != d:
                    m = d // g
                    v = [m * x for x in v]
                c //= g
                for k in cols:
                    v[k] -= c * row[k]
        return v

    def insert(self, vector) -> bool:
        """Add an integer vector to the span; returns True if the dimension grew.

        A vector offered before lies in the span already, so it is not
        reduced again.
        """
        key = tuple(vector)
        if key in self.offered:
            return False
        self.offered.add(key)
        v = self.reduce(key)
        if not any(v):
            return False
        cols = list(compress(range(self.ambient), v))
        pivot = cols[-1] if self.last else cols[0]
        g = gcd(*v)
        if v[pivot] < 0:
            g = -g
        if g != 1:
            for k in cols:
                v[k] //= g
        self.rows.append(v)
        self.pivots.append(pivot)
        self.support.append(cols)
        return True

    def echelon(self) -> IntegerRows:
        """The canonical echelon of the span, in ascending pivot order.

        The rows are taken from the last pivot to the first (the first to the
        last, with ``last``).  A row is zero left of its pivot (right, with
        ``last``) and at the pivots of the rows inserted before it, so every
        other pivot at which it is nonzero is that of a row already taken;
        the taken rows are zero at every pivot but their own, so one
        reduction by them makes the row canonical and rewrites no taken row.
        The whole space is the `identity`, with no reduction.
        """
        n = self.ambient
        if self.dim == n:
            return IntegerRows.identity(n, self.last)
        taken = {}  # pivot -> (canonical row, its nonzero columns)
        for i in sorted(range(self.dim), key=self.pivots.__getitem__, reverse=not self.last):
            v, p, cols = list(self.rows[i]), self.pivots[i], self.support[i]
            touched = set(cols)
            for k in cols:
                if k != p and k in taken:
                    row, row_cols = taken[k]
                    g = gcd(v[k], row[k])
                    m, c = row[k] // g, v[k] // g
                    if m != 1:
                        for j in touched:
                            v[j] *= m
                    for j in row_cols:
                        v[j] -= c * row[j]
                    touched.update(row_cols)
            kept = sorted(j for j in touched if v[j])
            g = gcd(*[v[j] for j in kept])
            if g != 1:
                for j in kept:
                    v[j] //= g
            taken[p] = (v, kept)
        out = IntegerRows(n, last=self.last)
        out.pivots = sorted(taken)
        out.rows = [taken[p][0] for p in out.pivots]
        out.support = [taken[p][1] for p in out.pivots]
        return out

    @staticmethod
    def identity(n: int, last: bool = False) -> IntegerRows:
        """The canonical echelon of the whole space: the unit rows."""
        out = IntegerRows(n, last=last)
        for i in range(n):
            row = [0] * n
            row[i] = 1
            out.rows.append(row)
            out.pivots.append(i)
            out.support.append([i])
        return out

    def __eq__(self, other):
        if not isinstance(other, IntegerRows):
            return NotImplemented
        # a row's pivot is its first nonzero column (its last, with ``last``)
        return (self.ambient, self.last, self.rows) == (other.ambient, other.last, other.rows)


def kernel_span(images: list[list], basis_rows: list[list], ambient: int) -> Subspace:
    """Span of sum_k c_k * basis_rows[k] over the c with sum_k c_k * images[k] == 0.

    Zassenhaus's block echelon: the rows (images[k] | basis_rows[k]) are
    echelonised as one `Subspace`.  A row whose pivot lies in the basis block
    is zero on the image block, and those rows, cut to the basis block, are
    the canonical RREF of the span.  The tests' chain oracle and references
    call it (the generic cut `V cap ker F` by block echelon is the reference
    of `markov._cut_rows`); no command does.
    """
    width = len(images[0]) if images else 0
    wide = Subspace(width + ambient,
                    (list(image) + list(row) for image, row in zip(images, basis_rows)))
    out = Subspace(ambient)
    for row, p, cols in zip(wide.rows, wide.pivots, wide.support):
        if p >= width:
            out.rows.append(row[width:])
            out.pivots.append(p - width)
            out.support.append([k - width for k in cols])
    return out


def kernel_coefficients(images: list[list]) -> Subspace:
    """Coefficient vectors c with sum_i c_i * images[i] == 0 (a subspace of Q^len)."""
    k = len(images)
    units = [[RATIONALS.one if j == i else RATIONALS.zero for j in range(k)] for i in range(k)]
    return kernel_span(images, units, k)


def intersect(U: Subspace, V: Subspace) -> Subspace:
    """U cap V over the rationals, by Zassenhaus's block echelon of (u | u) and (v | 0).

    sum a_i u_i lies in V exactly when some sum b_j v_j cancels it, so U cap V
    is the kernel span of the rows of U and V over the rows of U and zeros.
    """
    if U.ambient != V.ambient:
        raise DomainError("ambient dimension mismatch")
    zeros = [[RATIONALS.zero] * V.ambient] * V.dim
    return kernel_span(U.rows + V.rows, U.rows + zeros, U.ambient)


def nullspace(constraints, ambient: int) -> IntegerRows:
    """Rational solutions v of the homogeneous system row . v == 0 for each
    constraint row, as the canonical rows of an `IntegerRows`.

    ``constraints`` is a list of rational rows, each taken in its
    `integral_form` (which changes no solution) and spun with ``last``, or
    the `echelon` of such a store (as `compute_Jw` grows the cut of
    L_{w*}).  In that echelon the pivot of each row is its last nonzero
    column, and the row is zero at every other pivot.  So the solution of a free column f is 1 at f,
    -row[f] / row[pivot] at the pivot of each row, all right of f, and 0 at
    every other free column: a canonical RREF row as it stands.  Scaled by
    the lcm of its denominators and divided by the gcd of its entries, it
    is the primitive integer row with a positive pivot, without a `Fraction`.
    """
    if not isinstance(constraints, IntegerRows):
        spun = IntegerRows(ambient, (integral_form(row)[1] for row in constraints), last=True)
        constraints = spun.echelon()
    pivots = set(constraints.pivots)
    # per free column f, (pivot column, numerator, denominator) of each entry right of f
    entries = {free: [] for free in range(ambient) if free not in pivots}
    for row, p, cols in zip(constraints.rows, constraints.pivots, constraints.support):
        d = row[p]
        for k in cols:
            if k != p:
                entries[k].append((p, -row[k], d))
    out = IntegerRows(ambient)
    for free, terms in entries.items():
        scale = lcm(*(d for _, _, d in terms))
        values = [c * (scale // d) for _, c, d in terms]
        g = gcd(scale, *values)
        v = [0] * ambient
        v[free] = scale // g
        for (col, _, _), c in zip(terms, values):
            v[col] = c // g
        out.rows.append(v)
        out.pivots.append(free)
        out.support.append([free] + sorted(col for col, _, _ in terms))
    return out


def closure(V: Subspace, successors, translations=lambda v: ()) -> Subspace:
    """Smallest subspace containing V and closed under linear maps.

    ``V`` is a row store, `Subspace` or `IntegerRows`, and only its `copy`,
    `basis`, `insert`, `dim` and `ambient` are used; ``successors(v)`` and
    ``translations(v)`` yield the image of v under each map of their family,
    in the entries the store takes.  The images of a spanning set span the
    image of a space, and the vectors that grew the span form one: each of
    them is put on the worklist once, and each image that grows the span is
    put on it in turn (semi-naive evaluation).  Every vector on the worklist
    gets the translations; the seed rows and the successor images that grew
    the span also get the successors, but a translate gets translations
    only.  The loop ends when the worklist is empty or the span is the
    whole space.  The fixpoint is unique, so the order of exploration does
    not change the canonical echelon; last in, first out was about three
    times faster than first in, first out on the S7 shuffle closures.  The
    store comes back as it was grown: an `IntegerRows` in semi-echelon
    form, whose caller builds the `echelon` it reads.

    The translations are for a closure that is a module: the caller vouches
    that for every translation t and every successor f' there are a
    successor f and a product t' of translations with f'(t v) = t'(f(v))
    for all v.  Then the fixpoint is that of all maps on every vector.
    Proof: the queued vectors span the result S (the seed rows among them),
    and all of them get the translations, so S is closed under the
    translations and under their products.  Each queued vector v has its
    successor images in S, by induction on how v was derived: for a seed row
    or a successor image each image was inserted or already lay in the span;
    for v = t u with u queued earlier, f'(v) = t'(f(u)), where f(u) lies in S
    by induction and t' maps S into itself.  So S is closed under every map.
    Each queued vector is a seed row or an image of a queued vector, so S
    lies in the closure of V under all maps; it contains V and is closed, so
    it is that closure.  An early stop at the whole space is the whole space.

    It serves the group path (`L_w`, `L_alpha` and `L_{w*}`, whose nullspace
    is the cut of `J_w`: left H-ideals, with the generators of H as the
    translations) and the generic chain closures (the minimal stable space
    of `markov` and, in the tests' oracle, the annihilator of `V_max`, with
    no translations) alike.
    """
    def images(vector, spins):
        for image in translations(vector):
            yield image, False
        if spins:
            for image in successors(vector):
                yield image, True

    out = V.copy()
    worklist = [(row, True) for row in out.basis()]
    while worklist:
        for image, spins in images(*worklist.pop()):
            if out.insert(image):
                if out.dim == out.ambient:
                    return out
                worklist.append((image, spins))
    return out
