"""Finite permutation groups, subgroups and (double) coset decompositions.

Permutations act on points on the right and compose left to right: the image
of point ``j`` under ``g*h`` is ``(j g) h``.  Elements of a generated group
are canonically ordered with the identity first, then ascending lexicographic
one-line notation, which makes element ids, bases and reports reproducible.
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
        g, h = self.images, other.images
        return Permutation(tuple(h[g[j]] for j in range(len(g))))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for j, img in enumerate(self.images):
            out[img] = j
        return Permutation(tuple(out))

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
                prod = tuple(h[g[j]] for j in range(degree))
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
        self.index = {p.images: i for i, p in enumerate(elements)}
        self.generators = tuple(generators)
        self._inverses = None
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
        g = self.elements[i].images
        h = self.elements[j].images
        return self.index[tuple(h[g[k]] for k in range(self.degree))]

    def inv(self, i: int) -> int:
        if self._inverses is None:
            inv = [0] * self.order
            for k, p in enumerate(self.elements):
                inv[k] = self.index[p.inverse().images]
            self._inverses = inv
        return self._inverses[i]

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
    coset_of = [-1] * G.order
    reps, blocks = [], []
    for g in range(G.order):
        if coset_of[g] != -1:
            continue
        cid = len(reps)
        if side == "left":
            block = sorted(G.mul(g, h) for h in H.members)
        else:
            block = sorted(G.mul(h, g) for h in H.members)
        for x in block:
            coset_of[x] = cid
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


def double_cosets(G: FiniteGroup, T: Subgroup, H: Subgroup) -> DoubleCosetDecomposition:
    """Partition of G into classes TxH, with the counting identity checked.

    Each class is the union of the left cosets (tx)H over t in T.
    """
    if T.parent is not G or H.parent is not G:
        raise DomainError("subgroups do not belong to this group")
    left = cosets(G, H, "left")
    class_of = [-1] * G.order
    reps, sizes, blocks = [], [], []
    for x in range(G.order):
        if class_of[x] != -1:
            continue
        cid = len(reps)
        coset_ids = {left.coset_of[G.mul(t, x)] for t in T.members}
        block = sorted(g for c in coset_ids for g in left.cosets[c])
        for g in block:
            class_of[g] = cid
        reps.append(x)
        sizes.append(len(block))
        blocks.append(tuple(block))
        # |TxH| * |x^{-1} T x cap H| == |H| * |T|
        xi = G.inv(x)
        conj = {G.mul(G.mul(xi, t), x) for t in T.members}
        meet = len(conj & set(H.members))
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

