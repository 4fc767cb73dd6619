"""Finite permutation groups, subgroups and (double) coset decompositions.

Permutations act on points on the right and compose left to right: the image
of point ``j`` under ``g*h`` is ``(j g) h``.  A permutation is its one-line
image tuple: position ``j`` holds the image of point ``j``.  Elements of a
generated group are canonically ordered with the identity first, then
ascending lexicographic image tuples, which makes element ids, bases and
reports reproducible.

Every product is taken by one kernel on image tuples: for image tuples ``g``
and ``h`` the images of ``g*h`` are ``tuple([h[x] for x in g])``.  The
closures, `FiniteGroup.mul` and the coset and double-coset decompositions all
use it, on the image tuples that a group keeps next to its index.  Inverses
are computed per element from the image tuple, when asked for; no table of
them is built.

Cycle notation is the text form.  `parse_cycles` checks it and returns the
image tuple, and `format_cycles` writes it back from a tuple when a report
names an element.  A tuple that a caller passes to `FiniteGroup.generate` or
`FiniteGroup.subgroup` is checked to be a permutation of the group's degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DomainError, InputFormatError, InvariantError, ResourceError

DEFAULT_ORDER_CAP = 20_000
# Work budget of one enumeration: degree times group order, the number of
# permutation entries it stores.  The order cap alone would let a small group
# on millions of points cost seconds and gigabytes.
MAX_GROUP_ENTRIES = 500_000

_CYCLE_RE = re.compile(r"\(([0-9,]*)\)")
_CYCLES_RE = re.compile(r"(?:\([0-9,]*\))*")


def parse_cycles(degree: int, text: str) -> tuple[int, ...]:
    """The image tuple of 1-based cycle notation such as ``(1,2)(3,4)``;
    ``id`` or ``()`` is the identity.

    Cycles whose points are in range, distinct and in disjoint cycles make a
    permutation by construction, so the images need no further check.
    """
    text = text.strip()
    if text in ("id", "()", "e", "1"):
        return tuple(range(degree))
    stripped = "".join(text.split())  # without its whitespace
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


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of the inverse of the permutation with image tuple g.

    Position y of the inverse holds the point that g sends to y, so sorting the
    points by their images under g lists the images of the inverse.
    """
    return tuple(sorted(range(len(g)), key=g.__getitem__))


def _closure(degree: int, gens, cap: int, known=None) -> set[tuple[int, ...]]:
    """The group generated by the image tuples `gens`, by Dimino's algorithm.

    The generators join one at a time.  The group K generated before a new
    generator is closed under the earlier ones, so the group it grows into is
    a union of right cosets K r, and K r t = K (r t) lies in it as soon as
    r t does: only coset representatives are multiplied by the generators,
    and each new coset costs |K| products that need no lookup.  `known`, if
    given, is the group generated by all of `gens` but the last, and only the
    last joins.
    """
    budget = MAX_GROUP_ENTRIES // degree
    if not budget:
        raise _over_budget(degree)
    limit = min(cap, budget)
    elements = set(known) if known else {tuple(range(degree))}
    for k in range(len(gens) - 1 if known else 0, len(gens)):
        if gens[k] in elements:
            continue
        block, active = list(elements), gens[:k + 1]
        pending = [gens[k]]  # representatives of cosets that may be new
        for r in pending:  # grows while it is read
            if r in elements:
                continue
            if len(elements) + len(block) > limit:
                if cap <= budget:
                    raise ResourceError(f"group order exceeds the configured cap {cap}")
                raise _over_budget(degree)
            elements.update([tuple([r[x] for x in g]) for g in block])  # the coset K r
            for t in active:
                rt = tuple([t[x] for x in r])
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
        self._generating: dict[frozenset[int], bool] = {}  # `is_generating`, by support

    # -- construction -------------------------------------------------------

    @staticmethod
    def generate(degree: int, generators, order_cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        """The group generated by the given image tuples, each checked."""
        gens = [_permutation(degree, g) for g in generators]
        return FiniteGroup(degree, sorted(_closure(degree, gens, order_cap)), gens)

    # -- basic queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The elements by id, as image tuples: the same tuple as `images`."""
        return self.images

    def mul(self, i: int, j: int) -> int:
        h = self.images[j]
        return self.index[tuple([h[x] for x in self.images[i]])]

    def inv(self, i: int) -> int:
        """The id of the inverse, computed from the image tuple."""
        return self.index[_inverse(self.images[i])]

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
        closure = _closure(self.degree, gens, self.order)
        members = sorted(self.index[t] for t in closure)
        gen_ids = sorted({self.index[g] for g in gens} - {0})
        return Subgroup(self, tuple(members), tuple(gen_ids))

    def is_generating(self, support) -> bool:
        """True iff the closure of the given element ids is the whole group.

        An element joins the generators only if the subgroup generated so far
        misses it; each join at least doubles that subgroup, so it happens at
        most log2 |G| times however large the support is.  Each join extends
        the subgroup already generated (`_closure` with `known`) instead of
        closing from the identity again.  The answer is kept per set of ids
        for the life of the group, so asking again for the same support
        builds no closure.
        """
        support = list(support)
        if not support:
            raise DomainError("empty support cannot generate")
        key = frozenset(support)
        if key not in self._generating:
            gens, closure = [], {self.images[0]}
            for i in support:
                if self.images[i] not in closure:
                    gens.append(self.images[i])
                    closure = _closure(self.degree, gens, self.order, closure)
            self._generating[key] = len(closure) == self.order
        return self._generating[key]


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
        from math import lcm

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
    cosets: tuple[tuple[int, ...], ...]
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
    coset_of, position = [-1] * G.order, [-1] * G.order
    reps, blocks = [], []
    for g in range(G.order):
        if coset_of[g] != -1:
            continue
        cid = len(reps)
        p = images[g]
        if side == "left":
            block = [index[tuple([h[k] for k in p])] for h in subgroup]  # g h, in member order
        else:
            block = [index[tuple([p[k] for k in h])] for h in subgroup]  # h g, in member order
        for pos, y in enumerate(block):
            coset_of[y] = cid
            position[y] = pos
        reps.append(g)  # g is minimal in its coset since we scan ids upward
        blocks.append(tuple(sorted(block)))
    return CosetDecomposition(side, H, tuple(coset_of), tuple(reps), tuple(blocks),
                              tuple(position))


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    left_subgroup: Subgroup
    right_subgroup: Subgroup
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.representatives)


def double_cosets(G: FiniteGroup, T: Subgroup,
                  left: CosetDecomposition) -> DoubleCosetDecomposition:
    """Partition of G into classes TxH, with the counting identity checked.

    H is the subgroup of ``left``, the left coset decomposition of G by H that
    the caller holds.  Each class is the union of the left cosets (tx)H over t
    in T.
    """
    H = left.subgroup
    if T.parent is not G or H.parent is not G:
        raise DomainError("subgroups do not belong to this group")
    if left.side != "left":
        raise DomainError("double cosets are built from the left cosets of the right factor")
    images, index = G.images, G.index
    inner = [images[t] for t in T.members]
    class_of = [-1] * G.order
    reps, sizes, blocks = [], [], []
    for x in range(G.order):
        if class_of[x] != -1:
            continue
        cid = len(reps)
        p = images[x]
        coset_ids = {left.coset_of[index[tuple([p[k] for k in t])]] for t in inner}
        block = sorted(y for c in coset_ids for y in left.cosets[c])
        for y in block:
            class_of[y] = cid
        reps.append(x)
        sizes.append(len(block))
        blocks.append(tuple(block))
        # |TxH| * |x^{-1} T x cap H| == |H| * |T|
        p_inv, meet = _inverse(p), 0
        for t in inner:
            u = [t[k] for k in p_inv]  # x^-1 t
            meet += index[tuple([p[k] for k in u])] in H  # x^-1 t x
        if len(block) * meet != H.order * T.order:
            raise DomainError("double coset counting identity failed (corrupt input group)")
    return DoubleCosetDecomposition(
        T, H, tuple(class_of), tuple(reps), tuple(sizes), tuple(blocks)
    )


# ---------------------------------------------------------------------------
# group file format: `degree <n>` then `gen <cycles>` lines, 1-based points


def parse_generators(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """The degree and the generator image tuples of a group file, without
    enumerating the group."""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("degree"):
            if degree is not None:
                raise InputFormatError(f"line {lineno}: second degree line {raw!r}")
            try:
                degree = int(line.split()[1])
            except (IndexError, ValueError):
                raise InputFormatError(f"line {lineno}: bad degree line {raw!r}")
            if degree < 1:
                raise InputFormatError(f"line {lineno}: degree must be positive, got {degree}")
            if degree > MAX_GROUP_ENTRIES:
                raise _over_budget(degree)
        elif line.startswith("gen"):
            if degree is None:
                raise InputFormatError(f"line {lineno}: gen before degree")
            gens.append(parse_cycles(degree, line[3:].strip()))
        else:
            raise InputFormatError(f"line {lineno}: unrecognized line {raw!r}")
    if degree is None:
        raise InputFormatError("missing degree line")
    return degree, gens


def parse_group_file(text: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    degree, gens = parse_generators(text)
    return FiniteGroup.generate(degree, gens, order_cap)

