"""Exact scalars: arbitrary-precision rationals and cyclotomic extensions Q(zeta_n).

Rationals are plain ``fractions.Fraction``.  A cyclotomic scalar is a vector of
rationals over the power basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n), reduced
modulo the n-th cyclotomic polynomial, so equality of scalars is equality of
coefficient vectors.  One kernel reduces, `CyclotomicField.power_sum`: a
product or a conjugate is a sum over the exponents 0..n-1 that it reduces.
Cyclotomic scalars form a ring here: they add, subtract, multiply and
conjugate, but do not divide, as no elimination runs over Q(zeta_n)
(characters, idempotents and the traces of `theta-dim` need no division).  No
floating point is used anywhere.

Every exact criterion of the package is homogeneous linear, so its kernels
read a rational vector in its integral form (D, D v), with D the lcm of the
denominators: `integral_form` is the one place that form is taken.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, InputFormatError, InvariantError

MAX_CYCLOTOMIC_ORDER = 64

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient lists; `_poly_div_exact` is integer-only)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_div_exact(num, den):
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[len(den) - 1 + k], lead)
        if r:
            raise InvariantError("non-exact cyclotomic division")
        out[k] = q
        for j, b in enumerate(den):
            num[j + k] -= q * b
    if _poly_trim(num):
        raise InvariantError("non-zero remainder in cyclotomic division")
    return _poly_trim(out)


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients of Phi_n, ascending, via Phi_n = (x^n - 1) / prod Phi_d."""
    if n < 1:
        raise DomainError(f"cyclotomic order must be positive, got {n}")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return num


def _euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


class Cyclo:
    """Element of Q(zeta_n) in the reduced power basis.  Immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "CyclotomicField", coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- helpers ----------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, (Cyclo, int, Fraction)):
            return self.field.coerce(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Cyclo(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyclo(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.field._mul(self, o)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.field.order == other.field.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field.order, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Cyclo({self.field.order}, {format_scalar(self)!r})"


class RationalField:
    """The field Q, with scalars represented as ``Fraction``."""

    kind = "rational"
    order = None
    zero = ZERO
    one = ONE

    def coerce(self, x):
        if isinstance(x, Cyclo):
            return x.rational_value()
        return Fraction(x)

    def conjugate(self, x):
        return x

    def is_zero(self, x) -> bool:
        return x == 0

    def is_rational_value(self, x) -> bool:
        return True

    def rational_value(self, x) -> Fraction:
        return x

    def __repr__(self):
        return "RationalField()"


class CyclotomicField:
    """Q(zeta_n) with the power basis reduced mod the n-th cyclotomic polynomial."""

    kind = "cyclotomic"

    def __init__(self, order: int):
        if not 1 <= order <= MAX_CYCLOTOMIC_ORDER:
            raise DomainError(
                f"cyclotomic order {order} outside supported range 1..{MAX_CYCLOTOMIC_ORDER}"
            )
        self.order = order
        self.phi = _euler_phi(order)
        minimal = cyclotomic_polynomial(order)
        if len(minimal) != self.phi + 1:
            raise InvariantError(f"cyclotomic polynomial of order {order} has the wrong degree")
        # power_table[k] = coefficients of z^k in the basis, 0 <= k < n (z^n = 1);
        # Phi_n is monic with integer coefficients, so they are `int`s
        row = [1] + [0] * (self.phi - 1)
        table = [tuple(row)]
        for _ in range(order - 1):
            lead, row = row[-1], [0] + row[:-1]  # times z: z^phi = -sum_{i<phi} m_i z^i
            if lead:
                row = [c - lead * m for c, m in zip(row, minimal)]
            table.append(tuple(row))
        self._power_table = table
        self.zero = Cyclo(self, (ZERO,) * self.phi)
        self.one = self.from_rational(ONE)

    def zeta(self, k: int = 1) -> Cyclo:
        """z^k as a field element."""
        return Cyclo(self, self._power_table[k % self.order])

    def power_sum(self, coeffs) -> Cyclo:
        """sum_k coeffs[k] z^k for rational coeffs indexed by 0 <= k < n: the one
        reduction mod Phi_n, also of products and conjugates.  The power table
        is integral, so `int` coeffs give `int` coordinates."""
        out = [0] * self.phi
        for k, c in enumerate(coeffs):
            if c:
                for i, r in enumerate(self._power_table[k]):
                    if r:
                        out[i] += c * r
        return Cyclo(self, out)

    def from_rational(self, q) -> Cyclo:
        coeffs = [ZERO] * self.phi
        coeffs[0] = Fraction(q)
        return Cyclo(self, coeffs)

    def coerce(self, x):
        if isinstance(x, Cyclo):
            if x.field.order != self.order:
                raise DomainError(
                    f"mixed cyclotomic orders {self.order} and {x.field.order}"
                )
            return x
        return self.from_rational(x)

    def conjugate(self, x) -> Cyclo:
        exponents = [ZERO] * self.order  # z^k goes to z^(-k)
        for k, c in enumerate(self.coerce(x).coeffs):
            exponents[-k % self.order] = c
        return self.power_sum(exponents)

    def is_zero(self, x) -> bool:
        return self.coerce(x).is_zero()

    def is_rational_value(self, x) -> bool:
        return self.coerce(x).is_rational()

    def rational_value(self, x) -> Fraction:
        return self.coerce(x).rational_value()

    # -- internal arithmetic -------------------------------------------------

    def _mul(self, a: Cyclo, b: Cyclo) -> Cyclo:
        n = self.order
        exponents = [ZERO] * n  # a_i b_j at the exponent (i + j) mod n
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        exponents[(i + j) % n] += ca * cb
        return self.power_sum(exponents)

    def __repr__(self):
        return f"CyclotomicField({self.order})"


RATIONALS = RationalField()

_field_cache: dict[int, CyclotomicField] = {}


def cyclotomic_field(order: int) -> CyclotomicField:
    field = _field_cache.get(order)
    if field is None:
        field = _field_cache[order] = CyclotomicField(order)
    return field


def common_field(f1, f2):
    """Join of two scalar fields; rational promotes into any cyclotomic field."""
    if f1 is f2:
        return f1
    if f1.kind == "rational":
        return f2
    if f2.kind == "rational":
        return f1
    if f1.order == f2.order:
        return f1
    raise DomainError(
        f"cannot mix cyclotomic orders {f1.order} and {f2.order}"
    )


# ---------------------------------------------------------------------------
# the lexical rules of every input file: `#` starts a comment, a line without a
# field is skipped, whitespace is what `str.split()` and `\s` split on; and the
# scalar literal grammar: rationals `p/q`; cyclotomic sums `a + b*z^k - ...`

# ASCII digits only: `\d` and `int` also read other Unicode digits
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")
_TERM_RE = re.compile(r"^(?:(?P<coef>[0-9]+(?:/[0-9]+)?)\*?)?z(?:\^(?P<exp>[0-9]+))?$")
_SPACED_DIGITS_RE = re.compile(r"[0-9]\s+[0-9]")


def content_lines(text: str):
    """(lineno, raw, fields) for each line of `text` with a field before its
    `#` comment, lineno 1-based: the one comment rule of every input parser."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, raw, fields


def squeeze(text: str) -> str:
    """`text` as one token, without its whitespace; whitespace between two
    digits is an error, so that `1 2` is never read as 12."""
    if _SPACED_DIGITS_RE.search(text):
        raise InputFormatError(f"whitespace between digits in {text.strip()!r}")
    return "".join(text.split())


def parse_integer(text: str) -> int:
    """An integer field of an input: ASCII digits with an optional leading
    minus sign.  `int` also reads other Unicode digits, `_` separators, a
    `+` sign and surrounding whitespace, which no input format allows; any
    of them raises `ValueError`, as `int` does for text it cannot read."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """A rational literal: a field of a line or a `squeeze`d token."""
    if not _RATIONAL_RE.match(text):
        raise InputFormatError(f"bad rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputFormatError(f"zero denominator in rational literal {text!r}")


def parse_scalar(text: str, field):
    """Parse a scalar literal in the given field."""
    text = squeeze(text)
    if "z" not in text:
        value = parse_rational(text)
        return value if field.kind == "rational" else field.from_rational(value)
    if field.kind == "rational":
        raise InputFormatError(f"cyclotomic literal {text!r} in a rational context")
    chunks = re.split(r"(?=[+-])", text)
    total = field.zero
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        if "z" in chunk:
            m = _TERM_RE.match(chunk)
            if not m:
                raise InputFormatError(f"bad cyclotomic term {chunk!r}")
            coef = parse_rational(m.group("coef")) if m.group("coef") else ONE
            exp = int(m.group("exp")) if m.group("exp") else 1
            total = total + sign * coef * field.zeta(exp)
        else:
            total = total + field.from_rational(sign * parse_rational(chunk))
    return total


def integral_form(values) -> tuple[int, list[int]]:
    """(D, [D v for v in values]) for rationals, `Fraction` or `int`, with D
    the lcm of their denominators (1 for no values): the integer vector on
    the line of a rational one, its numerators over one denominator."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def format_ratio(numerator: int, denominator: int) -> str:
    """The ratio of two integers as `str` writes its `Fraction`, without
    building one: in lowest terms, with the sign on the numerator, and as a
    bare integer when the denominator divides."""
    g = gcd(numerator, denominator)
    if denominator < 0:
        g = -g
    numerator, denominator = numerator // g, denominator // g
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    parts = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if k == 0 else (f"z^{k}" if mag == 1 else f"{mag}*z^{k}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
