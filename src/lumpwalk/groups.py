"""Finite permutation groups, subgroups and (double) coset decompositions.

Permutations act on points on the right and compose left to right: the image
of point ``j`` under ``g*h`` is ``(j g) h``.  Elements of a generated group
are canonically ordered with the identity first, then ascending lexicographic
one-line notation, which makes element ids, bases and reports reproducible.

Every product is taken by one kernel on one-line image tuples: for image
tuples ``g`` and ``h`` the images of ``g*h`` are ``tuple([h[x] for x in g])``.
The closures, `FiniteGroup.mul`, the coset and double-coset decompositions
and `Permutation.__mul__` all use it, on the image tuples that a group keeps
next to its index.  Inverses are computed per element from the image tuple,
when asked for; no table of them is built.
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


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0, ..., n-1} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise DomainError(f"not a permutation of 0..{n - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise DomainError("degree mismatch in permutation product")
        h = other.images
        return Permutation(tuple([h[x] for x in self.images]))

    def apply(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(img == j for j, img in enumerate(self.images))

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles) -> "Permutation":
        """Build from 0-based cycles, e.g. ((0, 1), (2, 3))."""
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 0 <= a < degree:
                    raise DomainError(f"cycle point {a} outside degree {degree}")
                images[a] = b
        perm = Permutation(tuple(images))
        return perm

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Non-trivial cycles, 0-based, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_string(self) -> str:
        """1-based cycle notation, `id` for the identity."""
        cycles = self.cycles()
        if not cycles:
            return "id"
        return "".join("(" + ",".join(str(p + 1) for p in cyc) + ")" for cyc in cycles)


_CYCLE_RE = re.compile(r"\(([0-9,\s]*)\)")


def parse_cycles(degree: int, text: str) -> Permutation:
    """Parse 1-based cycle notation such as ``(1,2)(3,4)``; ``id`` or ``()`` is the identity."""
    text = text.strip()
    if text in ("id", "()", "e", "1"):
        return Permutation.identity(degree)
    stripped = re.sub(r"[\s]", "", text)
    if re.sub(_CYCLE_RE, "", stripped):
        raise InputFormatError(f"bad cycle notation {text!r}")
    cycles = []
    seen = set()
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            continue
        try:
            points = [int(p) - 1 for p in body.split(",")]
        except ValueError:
            raise InputFormatError(f"bad point in cycle ({body})")
        if len(points) != len(set(points)):
            raise InputFormatError(f"repeated point in cycle ({body})")
        if any(not 0 <= p < degree for p in points):
            raise InputFormatError(f"cycle point outside 1..{degree} in ({body})")
        shared = seen.intersection(points)
        if shared:
            raise InputFormatError(f"point {min(shared) + 1} appears in two cycles of {text!r}")
        seen.update(points)
        cycles.append(tuple(points))
    return Permutation.from_cycles(degree, cycles)


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


def _closure(degree: int, seeds, cap: int) -> set[tuple[int, ...]]:
    budget = MAX_GROUP_ENTRIES // degree
    if not budget:
        raise _over_budget(degree)
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    gens = [p.images for p in seeds]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = tuple([h[x] for x in g])
                if prod not in elements:
                    if len(elements) >= cap:
                        raise ResourceError(
                            f"group order exceeds the configured cap {cap}"
                        )
                    if len(elements) >= budget:
                        raise _over_budget(degree)
                    elements.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return elements


class FiniteGroup:
    """Enumerated permutation group with canonical element indexing."""

    def __init__(self, degree: int, elements: list[Permutation], generators: list[int]):
        self.degree = degree
        self.elements = elements
        self.images = tuple(p.images for p in elements)  # one-line image tuple, by element id
        self.index = {t: i for i, t in enumerate(self.images)}
        self.generators = tuple(generators)
        self._generating: dict[frozenset[int], bool] = {}  # `is_generating`, by support
        if not elements[0].is_identity():
            raise InvariantError("the first enumerated group element is not the identity")

    # -- construction -------------------------------------------------------

    @staticmethod
    def generate(degree: int, generators, order_cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        gens = list(generators)
        for g in gens:
            if g.degree != degree:
                raise DomainError(f"generator degree {g.degree} != {degree}")
        closure = _closure(degree, gens, order_cap)
        ordered = sorted(closure)  # identity is lexicographically least
        elements = [Permutation(t) for t in ordered]
        index = {t: i for i, t in enumerate(ordered)}
        gen_ids = sorted({index[g.images] for g in gens if not g.is_identity()})
        return FiniteGroup(degree, elements, gen_ids)

    # -- basic queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        h = self.images[j]
        return self.index[tuple([h[x] for x in self.images[i]])]

    def inv(self, i: int) -> int:
        """The id of the inverse, computed from the image tuple."""
        return self.index[_inverse(self.images[i])]

    def id_of(self, perm: Permutation) -> int:
        try:
            return self.index[perm.images]
        except KeyError:
            raise DomainError(f"{perm.cycle_string()} is not an element of this group")

    def element_of(self, text: str) -> int:
        """Element id from 1-based cycle notation."""
        return self.id_of(parse_cycles(self.degree, text))

    def subgroup(self, generators) -> "Subgroup":
        """Closure of the given permutations inside this group."""
        perms = []
        for g in generators:
            if isinstance(g, int):
                g = self.elements[g]
            if g.images not in self.index:
                raise DomainError(f"generator {g.cycle_string()} is not in the group")
            perms.append(g)
        closure = _closure(self.degree, perms, self.order)
        members = sorted(self.index[t] for t in closure)
        gen_ids = sorted({self.index[g.images] for g in perms if not g.is_identity()})
        return Subgroup(self, tuple(members), tuple(gen_ids))

    def is_generating(self, support) -> bool:
        """True iff the closure of the given element ids is the whole group.

        An element joins the generators only if the subgroup generated so far
        misses it; each join at least doubles that subgroup, so the closure is
        recomputed at most log2 |G| times however large the support is.  The
        answer is kept per set of ids for the life of the group, so asking
        again for the same support builds no closure.
        """
        support = list(support)
        if not support:
            raise DomainError("empty support cannot generate")
        key = frozenset(support)
        if key not in self._generating:
            gens, closure = [], {tuple(range(self.degree))}
            for i in support:
                perm = self.elements[i]
                if perm.images not in closure:
                    gens.append(perm)
                    closure = _closure(self.degree, gens, self.order)
            self._generating[key] = len(closure) == self.order
        return self._generating[key]


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]
    generators: tuple[int, ...]
    _pos: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._pos.update({m: k for k, m in enumerate(self.members)})

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index_in_parent(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._pos

    def position(self, element_id: int) -> int:
        """Position of a member in the sorted member list."""
        return self._pos[element_id]

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
    side: str  # "left" (gH) or "right" (Hg)
    subgroup: Subgroup
    coset_of: tuple[int, ...]
    representatives: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]

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
    coset_of = [-1] * G.order
    reps, blocks = [], []
    for g in range(G.order):
        if coset_of[g] != -1:
            continue
        cid = len(reps)
        p = images[g]
        if side == "left":
            block = sorted([index[tuple([h[k] for k in p])] for h in subgroup])
        else:
            block = sorted([index[tuple([p[k] for k in h])] for h in subgroup])
        for y in block:
            coset_of[y] = cid
        reps.append(g)  # g is minimal in its coset since we scan ids upward
        blocks.append(tuple(block))
    return CosetDecomposition(side, H, tuple(coset_of), tuple(reps), tuple(blocks))


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


def parse_generators(text: str) -> tuple[int, list[Permutation]]:
    """The degree and the generators of a group file, without enumerating the group."""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("degree"):
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

