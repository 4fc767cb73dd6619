"""Finite permutation groups, subgroups and (double) coset decompositions.

Permutations act on points on the right and compose left to right: the image
of point ``j`` under ``g*h`` is ``(j g) h``.  A permutation is its one-line
image tuple: position ``j`` holds the image of point ``j``.  Elements of a
generated group are canonically ordered with the identity first, then
ascending lexicographic image tuples, which makes element ids, bases and
reports reproducible.

Every product is taken by one composition kernel on image tuples,
`gather(g)`: the callable that maps an image tuple ``h`` to that of ``g*h``,
whose images are ``h[g[0]], h[g[1]], ...``.  It is `operator.itemgetter(*g)`,
so the gather of all points runs in C: at degree 6 a built gather takes
about 200 ns against 500 ns for ``tuple([h[x] for x in g])`` (Python 3.11,
shared 2-vCPU VM).  This is the classical product of permutations on image
arrays, as in Holt, Eick and O'Brien, *Handbook of Computational Group
Theory* (2005).  A caller that multiplies many elements by one ``g`` builds
its gather once: the closures gather each element of the block already
generated, the left cosets their representative, the right cosets each
subgroup member, the double cosets each generator of the left factor (its
action on the left cosets) and, for the counting identity, each of its
members, `lumping` the subgroup members (`weight_action`, the cut kernel,
the abelian test's tables), the subgroup generators and their inverse
translations, and `hecke` the inverse of each element.  Gathers live within
one call; no table of them is kept.  Inverses are computed per element from
the image tuple, when asked for; no table of them is built.

A closure joins its generators by decreasing element order, the largest
cyclic block first.  A generated group of degree! elements is S_n, listed in
the order of `itertools.permutations` without a sort.

Cycle notation is the text form.  `parse_cycles` checks it and returns the
image tuple, and `format_cycles` writes it back from a tuple when a report
names an element.  A tuple that a caller passes to `FiniteGroup.generate` or
`FiniteGroup.subgroup` is checked to be a permutation of the group's degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from math import lcm
from operator import itemgetter

from .errors import DomainError, InputFormatError, InvariantError, ResourceError
from .scalars import at_line, content_lines, parse_integer, squeeze

DEFAULT_ORDER_CAP = 20_000
# Work budget of one enumeration: degree times group order, the number of
# permutation entries it stores.  The order cap alone would let a small group
# on millions of points cost seconds and gigabytes.
MAX_GROUP_ENTRIES = 500_000

_CYCLES_RE = re.compile(r"(?:\([0-9,]*\))*")


def parse_cycles(degree: int, text: str) -> tuple[int, ...]:
    """The image tuple of 1-based cycle notation such as ``(1,2)(3,4)``;
    ``id``, ``()``, ``e`` or ``1`` is the identity.

    Once `_CYCLES_RE` has matched the `squeeze`d text (whitespace between two
    digits is an error, not a join), its cycles are the pieces between the
    outer parentheses split at ``)(``: one split, no second scan.  Cycles
    whose points are in range, distinct and in disjoint cycles make a
    permutation by construction, so the images need no further check.
    """
    text = text.strip()
    if text in ("id", "()", "e", "1"):
        return tuple(range(degree))
    stripped = squeeze(text)
    if not _CYCLES_RE.fullmatch(stripped):
        raise InputFormatError(f"bad cycle notation {text!r}")
    images = list(range(-1, degree))  # by 1-based point, its 0-based image
    seen = set()
    for body in stripped[1:-1].split(")("):
        if not body:
            continue
        try:
            points = list(map(int, body.split(",")))
        except ValueError:
            raise InputFormatError(f"bad point in cycle ({body})")
        cycle = set(points)
        if len(cycle) != len(points):
            raise InputFormatError(f"repeated point in cycle ({body})")
        if min(points) < 1 or max(points) > degree:
            raise InputFormatError(f"cycle point outside 1..{degree} in ({body})")
        if not seen.isdisjoint(cycle):
            raise InputFormatError(f"point {min(seen & cycle)} appears in two cycles of {text!r}")
        seen |= cycle
        a = points[-1]
        for b in points:
            images[a] = b - 1
            a = b
    return tuple(images[1:])


def format_cycles(images: tuple[int, ...]) -> str:
    """1-based cycle notation of an image tuple, each non-trivial cycle from
    its least point; `id` for the identity.  Each step marks a new point, so
    the walk ends even on a tuple that is not a permutation."""
    seen = [False] * len(images)
    cycles = []
    for start, j in enumerate(images):
        if seen[start] or j == start:
            continue
        cycle = [start + 1]
        seen[start] = True
        while not seen[j]:
            cycle.append(j + 1)
            seen[j] = True
            j = images[j]
        cycles.append("(" + ",".join(map(str, cycle)) + ")")
    return "".join(cycles) or "id"


def _permutation(degree: int, images) -> tuple[int, ...]:
    """A caller's permutation as an image tuple, checked to be a bijection of
    0..degree-1."""
    images = tuple(images)
    if len(images) != degree:
        raise DomainError(f"generator degree {len(images)} != {degree}")
    if sorted(images) != list(range(degree)):
        raise DomainError(f"not a permutation of 0..{degree - 1}: {images}")
    return images


def _over_budget(degree: int) -> ResourceError:
    return ResourceError(
        f"degree {degree} times the group order exceeds the work budget of "
        f"{MAX_GROUP_ENTRIES} permutation entries"
    )


def gather(g: tuple[int, ...]):
    """The composition kernel: the callable that maps the image tuple of h to
    that of g*h, the images of g gathered from h.

    `operator.itemgetter` of one index returns the item itself, not a tuple,
    so degree 1 gets a tuple of its own.
    """
    if len(g) == 1:
        (x,) = g
        return lambda h: (h[x],)
    return itemgetter(*g)


def inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of the inverse of the permutation with image tuple g.

    Position y of the inverse holds the point that g sends to y, so sorting the
    points by their images under g lists the images of the inverse.
    """
    return tuple(sorted(range(len(g)), key=g.__getitem__))


def _order(g: tuple[int, ...]) -> int:
    """The order of the permutation with image tuple g: the lcm of its cycle
    lengths."""
    seen, out = [False] * len(g), 1
    for start in range(len(g)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = g[j]
            length += 1
        if length:
            out = lcm(out, length)
    return out


def _is_symmetric(degree: int, order: int) -> bool:
    """True iff order == degree!, so that a group of that order on `degree`
    points is S_n; degree! is not built past `order`, which the work budget
    keeps small however large the degree."""
    full = 1
    for m in range(2, degree + 1):
        full *= m
        if full > order:
            return False
    return full == order


def _closure(degree: int, gens, cap: int, known=None, past=None) -> set[tuple[int, ...]]:
    """The group generated by the image tuples `gens`, by Dimino's algorithm.

    The generators join one at a time.  The group K generated before a new
    generator is closed under the earlier ones, so the group it grows into is
    a union of right cosets K r, and K r t = K (r t) lies in it as soon as
    r t does: only coset representatives are multiplied by the generators,
    and each new coset costs |K| products that need no lookup.  `generate`
    and `subgroup` pass their generators in decreasing element order (a
    stable sort, ties in the given order), so the first block is the largest cyclic group the
    closure can start from, and the later generators join over fewer, larger
    cosets: S_n from an n-cycle and a transposition closes over the (n-1)!
    cosets of the cycle, not the n!/2 of the transposition.  `known`, if
    given, is the group generated by all of `gens` but the last, and only the
    last joins.  `past`, if given, stops the closure as soon as it holds more
    than `past` elements, and the set returned is then only a part of the
    group generated.
    """
    budget = MAX_GROUP_ENTRIES // degree
    if not budget:
        raise _over_budget(degree)
    limit = min(cap, budget)
    elements = set(known) if known else {tuple(range(degree))}
    for k in range(len(gens) - 1 if known else 0, len(gens)):
        if gens[k] in elements:
            continue
        block, active = [gather(g) for g in elements], gens[:k + 1]
        pending = [gens[k]]  # representatives of cosets that may be new
        for r in pending:  # grows while it is read
            if r in elements:
                continue
            if len(elements) + len(block) > limit:
                if cap <= budget:
                    raise ResourceError(f"group order exceeds the configured cap {cap}")
                raise _over_budget(degree)
            elements.update([g(r) for g in block])  # the coset K r
            if past is not None and len(elements) > past:
                return elements
            r_times = gather(r)
            for t in active:
                rt = r_times(t)
                if rt not in elements:
                    pending.append(rt)
    return elements


class FiniteGroup:
    """Enumerated permutation group with canonical element indexing.

    `images` holds the image tuple of each element, by id, and `index` the id
    of each image tuple.
    """

    def __init__(self, degree: int, images, generators):
        self.degree = degree
        self.images = tuple(images)
        if self.images[0] != tuple(range(degree)):
            raise InvariantError("the first enumerated group element is not the identity")
        self.index = {t: i for i, t in enumerate(self.images)}
        # the ids of the image tuples that generate the group, identity left out
        self.generators = tuple(sorted({self.index[g] for g in generators} - {0}))

    # -- construction -------------------------------------------------------

    @staticmethod
    def generate(degree: int, generators, order_cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        """The group generated by the given image tuples, each checked."""
        gens = [_permutation(degree, g) for g in generators]
        closure = _closure(degree, sorted(gens, key=_order, reverse=True), order_cap)
        if _is_symmetric(degree, len(closure)):
            # the canonical order of S_n is the lexicographic one of `permutations`
            return FiniteGroup(degree, permutations(range(degree)), gens)
        return FiniteGroup(degree, sorted(closure), gens)

    # -- basic queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The elements by id, as image tuples: the same tuple as `images`."""
        return self.images

    def mul(self, i: int, j: int) -> int:
        return self.index[gather(self.images[i])(self.images[j])]

    def inv(self, i: int) -> int:
        """The id of the inverse, computed from the image tuple."""
        return self.index[inverse(self.images[i])]

    def cycle_string(self, i: int) -> str:
        """The element with id i in 1-based cycle notation."""
        return format_cycles(self.images[i])

    def id_of(self, images: tuple[int, ...]) -> int:
        """The id of the element with the given image tuple."""
        try:
            return self.index[images]
        except KeyError:
            raise DomainError(f"{format_cycles(images)} is not an element of this group")

    def element_of(self, text: str) -> int:
        """Element id from 1-based cycle notation."""
        return self.id_of(parse_cycles(self.degree, text))

    def subgroup(self, generators) -> "Subgroup":
        """Closure of the given element ids or image tuples inside this group."""
        gens = []
        for g in generators:
            g = self.images[g] if isinstance(g, int) else _permutation(self.degree, g)
            if g not in self.index:
                raise DomainError(f"generator {format_cycles(g)} is not in the group")
            gens.append(g)
        closure = _closure(self.degree, sorted(gens, key=_order, reverse=True), self.order)
        members = sorted(self.index[t] for t in closure)
        gen_ids = sorted({self.index[g] for g in gens} - {0})
        return Subgroup(self, tuple(members), tuple(gen_ids))

    def is_generating(self, support) -> bool:
        """True iff the closure of the given element ids is the whole group.

        An element joins the generators only if the subgroup generated so far
        misses it; each join at least doubles that subgroup, so it happens at
        most log2 |G| times however large the support is.  Each join extends
        the subgroup already generated (`_closure` with `known`) instead of
        closing from the identity again, and stops as soon as it knows more
        than |G|/2 elements: the order of a subgroup divides |G| (Lagrange),
        so a subgroup with more than half of G is G.
        """
        support = list(support)
        if not support:
            raise DomainError("empty support cannot generate")
        half = self.order // 2
        gens, closure = [], {self.images[0]}
        for i in support:
            if self.images[i] not in closure:
                gens.append(self.images[i])
                closure = _closure(self.degree, gens, self.order, closure, past=half)
                if len(closure) > half:
                    break
        return len(closure) > half


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]
    generators: tuple[int, ...]
    _member_set: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self):
        self._member_set.update(self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index_in_parent(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._member_set

    def is_abelian(self) -> bool:
        mul = self.parent.mul
        for a in self.members:
            for b in self.members:
                if b >= a:
                    break
                if mul(a, b) != mul(b, a):
                    return False
        return True

    def exponent(self) -> int:
        out = 1
        for m in self.members:
            k, x = 1, m
            while x != 0:
                x = self.parent.mul(x, m)
                k += 1
            out = lcm(out, k)
        return out

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return all(m in self for m in other.members)


@dataclass(frozen=True)
class CosetDecomposition:
    """The cosets of a subgroup on one side, each represented by its least id.

    ``position[x]`` is the position in the subgroup's member list of the h
    with x = r h on the left side and x = h r on the right, for r the
    representative of the coset of x.
    """

    side: str  # "left" (gH) or "right" (Hg)
    subgroup: Subgroup
    coset_of: tuple[int, ...]
    representatives: tuple[int, ...]
    position: tuple[int, ...]

    @property
    def n_cosets(self) -> int:
        return len(self.representatives)


def cosets(G: FiniteGroup, H: Subgroup, side: str = "left") -> CosetDecomposition:
    if side not in ("left", "right"):
        raise DomainError(f"side must be left or right, got {side!r}")
    if H.parent is not G:
        raise DomainError("subgroup does not belong to this group")
    images, index = G.images, G.index
    subgroup = [images[h] for h in H.members]
    if side == "right":
        subgroup = [gather(h) for h in subgroup]
    coset_of, position = [-1] * G.order, [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] != -1:
            continue
        cid = len(reps)
        p = images[g]
        if side == "left":
            g_times = gather(p)
            block = [index[g_times(h)] for h in subgroup]  # g h, in member order
        else:
            block = [index[h_times(p)] for h_times in subgroup]  # h g, in member order
        for pos, y in enumerate(block):
            coset_of[y] = cid
            position[y] = pos
        reps.append(g)  # g is minimal in its coset since we scan ids upward
    return CosetDecomposition(side, H, tuple(coset_of), tuple(reps), tuple(position))


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    left_subgroup: Subgroup
    right_subgroup: Subgroup
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.representatives)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The members of each class, ascending, built from `class_of` when
        first read."""
        blocks = [[] for _ in self.representatives]
        for g, cid in enumerate(self.class_of):
            blocks[cid].append(g)
        return tuple(map(tuple, blocks))


def double_cosets(G: FiniteGroup, T: Subgroup,
                  left: CosetDecomposition) -> DoubleCosetDecomposition:
    """Partition of G into classes TxH, with the counting identity checked.

    H is the subgroup of ``left``, the left coset decomposition of G by H that
    the caller holds.  T acts on the left cosets by t (rH) = (t r)H, and the
    class TxH is the union of the orbit of xH: the orbits are read from one
    gather per generator of T and coset, and a class has |H| times as many
    members as its orbit has cosets.  The classes are numbered by their
    least member, the representative of their first coset.
    """
    H = left.subgroup
    if T.parent is not G or H.parent is not G:
        raise DomainError("subgroups do not belong to this group")
    if left.side != "left":
        raise DomainError("double cosets are built from the left cosets of the right factor")
    images, index, coset_of = G.images, G.index, left.coset_of
    rep_images = [images[r] for r in left.representatives]
    actions = []  # for each generator t of T, the coset id of t r, by coset id of r
    for t in T.generators:
        t_times = gather(images[t])
        actions.append([coset_of[index[t_times(r)]] for r in rep_images])
    class_of_coset = [-1] * left.n_cosets
    reps, sizes = [], []
    for c in range(left.n_cosets):
        if class_of_coset[c] != -1:
            continue
        cid = len(reps)
        class_of_coset[c] = cid
        orbit = [c]
        for d in orbit:  # grows while it is read
            for action in actions:
                e = action[d]
                if class_of_coset[e] == -1:
                    class_of_coset[e] = cid
                    orbit.append(e)
        reps.append(left.representatives[c])
        sizes.append(len(orbit) * H.order)
    # |TxH| * |x^{-1} T x cap H| == |H| * |T|, where x^-1 t x lies in H
    # exactly when t x lies in xH
    inner = [gather(images[t]) for t in T.members]
    for x, size in zip(reps, sizes):
        p, own = images[x], coset_of[x]
        meet = sum(coset_of[index[t_times(p)]] == own for t_times in inner)
        if size * meet != H.order * T.order:
            raise DomainError("double coset counting identity failed (corrupt input group)")
    return DoubleCosetDecomposition(
        T, H, tuple(map(class_of_coset.__getitem__, coset_of)), tuple(reps), tuple(sizes)
    )


# ---------------------------------------------------------------------------
# group file format: `degree <n>` then `gen <cycles>` lines, 1-based points


def parse_generators(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """The degree and the generator image tuples of a group file, without
    enumerating the group."""
    degree = None
    gens = []
    for lineno, raw, fields in content_lines(text):
        try:
            if fields[0] == "degree":  # the keyword is the whole first token
                if degree is not None:
                    raise InputFormatError(f"second degree line {raw!r}")
                try:
                    _, value = fields  # exactly `degree <n>`
                    degree = parse_integer(value)
                except ValueError:
                    raise InputFormatError(f"bad degree line {raw!r}")
                if degree < 1:
                    raise InputFormatError(f"degree must be positive, got {degree}")
                if degree > MAX_GROUP_ENTRIES:
                    raise _over_budget(degree)
            elif fields[0] == "gen":
                if degree is None:
                    raise InputFormatError("gen before degree")
                if len(fields) == 1:
                    raise InputFormatError("gen without cycles or id")
                gens.append(parse_cycles(degree, " ".join(fields[1:])))
            else:
                raise InputFormatError(f"unrecognized line {raw!r}")
        except (InputFormatError, DomainError) as error:
            raise at_line(lineno, error) from error
    if degree is None:
        raise InputFormatError("missing degree line")
    return degree, gens


def parse_group_file(text: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    degree, gens = parse_generators(text)
    return FiniteGroup.generate(degree, gens, order_cap)

