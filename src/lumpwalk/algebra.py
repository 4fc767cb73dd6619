"""Group-algebra arithmetic with exact scalars.

An :class:`AlgebraElement` is a formal linear combination of the elements of a
fixed :class:`~lumpwalk.groups.FiniteGroup`, stored as a dense coefficient
array indexed by element id.  Multiplication is convolution,
``(ab)(g) = sum_x a(x) b(x^-1 g)``; the star anti-involution sends
``sum a(g) g`` to ``sum conj(a(g)) g^-1``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, InputFormatError, InvariantError
from .groups import CosetDecomposition, FiniteGroup, Subgroup
from .scalars import (
    RATIONALS,
    at_line,
    common_field,
    content_lines,
    cyclotomic_field,
    format_scalar,
    parse_integer,
    parse_scalar,
)


class AlgebraElement:
    __slots__ = ("group", "field", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs, scalar_field=RATIONALS):
        self.group = group
        self.field = scalar_field
        coeffs = list(coeffs)
        if len(coeffs) != group.order:
            raise DomainError("coefficient array length must equal the group order")
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(group: FiniteGroup, scalar_field=RATIONALS) -> "AlgebraElement":
        return AlgebraElement(group, [scalar_field.zero] * group.order, scalar_field)

    @staticmethod
    def basis(group: FiniteGroup, element_id: int, scalar_field=RATIONALS) -> "AlgebraElement":
        out = AlgebraElement.zero(group, scalar_field)
        out.coeffs[element_id] = scalar_field.one
        return out

    @staticmethod
    def one(group: FiniteGroup, scalar_field=RATIONALS) -> "AlgebraElement":
        return AlgebraElement.basis(group, 0, scalar_field)

    @staticmethod
    def from_pairs(group: FiniteGroup, pairs, scalar_field=RATIONALS) -> "AlgebraElement":
        """Accumulating constructor from (element_id, scalar) pairs: the
        scalars of an element are summed, and one met once is kept as given."""
        sums = {}
        for gid, c in pairs:
            sums[gid] = sums[gid] + c if gid in sums else c
        out = AlgebraElement.zero(group, scalar_field)
        for gid, c in sums.items():
            out.coeffs[gid] = c
        return out

    # -- promotion ------------------------------------------------------------

    def to_field(self, scalar_field) -> "AlgebraElement":
        if scalar_field is self.field:
            return self
        return AlgebraElement(
            self.group, [scalar_field.coerce(c) for c in self.coeffs], scalar_field
        )

    def _aligned(self, other: "AlgebraElement"):
        if self.group is not other.group:
            raise DomainError("elements of different group algebras")
        joint = common_field(self.field, other.field)
        return self.to_field(joint), other.to_field(joint), joint

    # -- linear structure -------------------------------------------------------

    def __add__(self, other):
        a, b, f = self._aligned(other)
        return AlgebraElement(a.group, [x + y for x, y in zip(a.coeffs, b.coeffs)], f)

    def __sub__(self, other):
        a, b, f = self._aligned(other)
        return AlgebraElement(a.group, [x - y for x, y in zip(a.coeffs, b.coeffs)], f)

    def __neg__(self):
        return AlgebraElement(self.group, [-x for x in self.coeffs], self.field)

    # -- ring structure ----------------------------------------------------------

    def support(self):
        """The pairs (id, coefficient) of the nonzero coefficients.  The dense
        coefficients share the field's zero object, so an identity test skips
        most of them before the scalar test."""
        zero = self.field.zero
        for i, c in enumerate(self.coeffs):
            if c is not zero and c:
                yield i, c

    def support_ids(self) -> list[int]:
        zero = self.field.zero
        return [i for i, c in enumerate(self.coeffs) if c is not zero and c]

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        a, b, f = self._aligned(other)
        G = a.group
        out = [f.zero] * G.order
        mul = G.mul
        b_support = list(b.support())
        for i, ca in a.support():
            for j, cb in b_support:
                k = mul(i, j)
                out[k] = out[k] + ca * cb
        return AlgebraElement(G, out, f)

    def star(self) -> "AlgebraElement":
        G = self.group
        conj = self.field.conjugate
        out = [self.field.zero] * G.order
        for i, c in self.support():
            out[G.inv(i)] = conj(c)
        return AlgebraElement(G, out, self.field)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def total(self):
        """Coefficient sum, i.e. the weight of the whole group."""
        out = self.field.zero
        for _, c in self.support():
            out = out + c
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.group is not other.group:
            return False
        a, b, _ = self._aligned(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

    def __repr__(self):
        parts = [
            f"{format_scalar(c)}*{self.group.cycle_string(i)}"
            for i, c in self.support()
        ]
        return "AlgebraElement(" + (" + ".join(parts) if parts else "0") + ")"

    # -- weight / distribution checks ------------------------------------------------

    def is_weight(self) -> bool:
        """Non-negative rational coefficients, at least one positive: each
        nonzero coefficient is rational and positive, and there is one.  A
        rational's sign is that of its numerator, so the signs are read off
        the numerators, in one scan of the support."""
        values = [c for _, c in self.support()]
        if self.field.kind != "rational":
            if not all(self.field.is_rational_value(c) for c in values):
                return False
            values = [self.field.rational_value(c) for c in values]
        return bool(values) and all(v.numerator > 0 for v in values)

    def require_weight(self) -> "AlgebraElement":
        if not self.is_weight():
            raise DomainError("expected a weight: non-negative with positive total")
        return self.to_field(RATIONALS) if self.field.kind != "rational" else self

    def require_distribution(self) -> "AlgebraElement":
        w = self.require_weight()
        if w.total() != 1:
            raise DomainError(f"distribution must sum to 1, got {w.total()}")
        return w

    def normalized(self) -> "AlgebraElement":
        t = self.total()
        if self.field.is_zero(t):
            raise DomainError("cannot normalize an element with zero total")
        return AlgebraElement(self.group, [c / t for c in self.coeffs], self.field)

    def is_irreducible_weight(self) -> bool:
        """Whether the support of this weight generates the group.  The caller
        has checked that it is a weight (`require_weight`); it is not checked
        again."""
        return self.group.is_generating(self.support_ids())


# ---------------------------------------------------------------------------
# standard elements, idempotents and coset sums


def eta(group: FiniteGroup, members) -> AlgebraElement:
    """Uniform averaging element on a subset or subgroup; idempotent on subgroups."""
    if isinstance(members, Subgroup):
        members = members.members
    members = list(members)
    if not members:
        raise DomainError("eta of an empty set")
    c = Fraction(1, len(members))
    out = AlgebraElement.zero(group)
    for m in members:
        out.coeffs[m] = c
    return out


def coset_sums(w: AlgebraElement, decomposition: CosetDecomposition) -> list:
    """The vector of coset weights w(coset), one entry per coset id.  The sums
    start at the `int` 0, which every scalar adds to, so those of an element
    with `int` coefficients stay integers."""
    sums = [0] * decomposition.n_cosets
    for i, c in w.support():
        cid = decomposition.coset_of[i]
        sums[cid] = sums[cid] + c
    return sums


# ---------------------------------------------------------------------------
# characters and primitive idempotents of an abelian subgroup


def abelian_characters(H: Subgroup):
    """All irreducible characters of an abelian subgroup.

    Returns ``(m, chars)`` where ``m`` is the exponent of H and each character
    is a dict mapping member element id to the exponent ``k`` of its value
    ``zeta_m^k``.  Characters are sorted by their exponent tuple over the
    members in id order, so the trivial character comes first.
    """
    if not H.is_abelian():
        raise DomainError("subgroup is not abelian")
    G = H.parent
    m = H.exponent()
    chars = [{0: 0}]  # characters of the trivial subgroup, built up generator by generator
    for g in H.generators + H.members:  # members as fallback generating sequence
        known = chars[0]
        if g in known:
            continue
        # least r >= 1 with g^r inside the subgroup built so far
        r, power = 1, g
        while power not in known:
            power = G.mul(power, g)
            r += 1
        if m % r:
            raise InvariantError(f"generator order {r} does not divide the exponent {m}")
        extended = []
        for chi in chars:
            target = chi[power]  # exponent of the value at g^r
            base = next(t for t in range(m) if (t * r) % m == target)
            for s in range(r):
                t = (base + s * (m // r)) % m
                new = {}
                power_id, power_exp = 0, 0
                for _ in range(r):
                    for k, v in chi.items():
                        new[G.mul(k, power_id)] = (v + power_exp) % m
                    power_id = G.mul(power_id, g)
                    power_exp = (power_exp + t) % m
                extended.append(new)
        chars = extended
    if len(chars) != H.order or set(chars[0]) != set(H.members):
        raise InvariantError("character construction does not cover the subgroup")
    keyed = sorted(chars, key=lambda chi: tuple(chi[h] for h in H.members))
    return m, keyed


def character_idempotent(H: Subgroup, character: dict, m: int) -> AlgebraElement:
    """Primitive idempotent (1/|H|) sum_h chi(h^-1) h of an abelian subgroup.

    ``character`` maps member ids to exponents of ``zeta_m`` and must come from
    :func:`abelian_characters` with exponent ``m``; it is not checked.
    """
    field = cyclotomic_field(m)
    inv_order = Fraction(1, H.order)
    out = AlgebraElement.zero(H.parent, field)
    for h in H.members:
        out.coeffs[h] = field.zeta(-character[h] % m) * inv_order
    return out


# ---------------------------------------------------------------------------
# element file format:
#   optional header `scalar cyclotomic <n>` (default rational)
#   lines `<scalar-literal> <cycles|id>`; duplicate group elements accumulate


def parse_element_file(text: str, group: FiniteGroup) -> AlgebraElement:
    field = RATIONALS
    pairs = []
    scalars = {}  # literal -> scalar: a weight file has few distinct literals
    header_done = False
    for lineno, raw, parts in content_lines(text):
        try:
            if parts[0] == "scalar":  # the keyword is the whole first token
                if header_done or pairs:
                    raise InputFormatError("scalar header must come first")
                if len(parts) != 3 or parts[1] != "cyclotomic":
                    raise InputFormatError(f"bad scalar header {raw!r}")
                try:
                    order = parse_integer(parts[2])
                except ValueError:
                    raise InputFormatError(f"bad cyclotomic order {parts[2]!r}")
                field = cyclotomic_field(order)
                header_done = True
                continue
            # the group element is the final token; scalar literals may contain spaces
            if len(parts) == 1:
                raise InputFormatError(f"expected `<scalar> <cycles>` in {raw!r}")
            literal, cycles_text = " ".join(parts[:-1]), parts[-1]
            scalar = scalars.get(literal)
            if scalar is None:
                scalar = scalars[literal] = parse_scalar(literal, field)
            pairs.append((group.element_of(cycles_text), scalar))
        except (InputFormatError, DomainError) as error:
            raise at_line(lineno, error) from error
    if not pairs:
        raise InputFormatError("element file has no coefficient lines")
    return AlgebraElement.from_pairs(group, pairs, field)


def element_lines(field, terms) -> list[str]:
    """The lines of an element file: the scalar header of a cyclotomic field,
    then `<scalar> <cycles>` for each term (cycle string, coefficient), in the
    order given."""
    header = [f"scalar cyclotomic {field.order}"] if field.kind == "cyclotomic" else []
    return header + [f"{format_scalar(c)} {cycles}" for cycles, c in terms]


def format_element(a: AlgebraElement) -> str:
    terms = ((a.group.cycle_string(i), c) for i, c in a.support())
    return "\n".join(element_lines(a.field, terms)) + "\n"
