"""A reference grammar of the input files, written from README "File formats".

It shares no parsing code with `lumpwalk`: it reads group, element, matrix,
distribution and lump files by its own scanners, and gives each file its
meaning or the class of its failure.

- `Rejected`: the text does not match its format (the command line's exit 1).
- `Refused`: the text is well formed, but a precondition of its content fails
  (exit 2): a degree above the work budget, a cyclotomic order outside
  1..64, an element outside the group, a state count above the cap, or a
  matrix row or distribution that is not a probability law.

The meanings are plain data: a group file is its degree and the 0-based image
tuples of its generators; an element file is its cyclotomic order (None for
the rationals) and a dict from image tuple to the summed scalar, a
`Fraction`, or for a cyclotomic field the vector of coefficients of
z^0..z^(n-1), not reduced; a matrix is its rows of `Fraction`s, a
distribution its one row, and a lump file the label of each state.

The lexical rules, once for every format: lines are those of
`str.splitlines()`, `#` starts a comment, a line with no field left is
skipped, fields are what `str.split()` gives, and where a token may be spaced
out (the cycles of a `gen` line, the scalar of an element line), its fields
are joined, except that whitespace between two digits is an error.
"""

from __future__ import annotations

from fractions import Fraction

DIGITS = "0123456789"
IDENTITY = ("id", "()", "e", "1")
MAX_GROUP_ENTRIES = 500_000  # README: `degree 1000000` stops at its degree line
MAX_CYCLOTOMIC_ORDER = 64
STATE_CAP = 5_000


class Rejected(Exception):
    """The text does not match its file format."""


class Refused(Exception):
    """The text is well formed; a precondition of what it says fails."""


def lines_of(text: str):
    """(line number, fields) of each line with a field before its comment."""
    for number, line in enumerate(text.splitlines(), start=1):
        fields = line.partition("#")[0].split()
        if fields:
            yield number, fields


def joined(fields) -> str:
    """One token from the fields it was spaced out into."""
    for left, right in zip(fields, fields[1:]):
        if left[-1] in DIGITS and right[0] in DIGITS:
            raise Rejected(f"whitespace between digits in {' '.join(fields)!r}")
    return "".join(fields)


def digits(text: str) -> bool:
    return text != "" and all(c in DIGITS for c in text)


def integer(text: str) -> int:
    """ASCII digits with an optional leading minus sign."""
    body = text[1:] if text[:1] == "-" else text
    if not digits(body):
        raise Rejected(f"not an integer: {text!r}")
    return int(text)


def unsigned_rational(text: str) -> Fraction:
    """`p` or `p/q` in ASCII digits, q not zero."""
    numerator, slash, denominator = text.partition("/")
    if not digits(numerator) or (slash and not digits(denominator)):
        raise Rejected(f"not a rational: {text!r}")
    if slash and int(denominator) == 0:
        raise Rejected(f"zero denominator: {text!r}")
    return Fraction(int(numerator), int(denominator) if slash else 1)


def rational(text: str) -> Fraction:
    """A rational literal with an optional sign."""
    if text[:1] in ("+", "-"):
        value = unsigned_rational(text[1:])
        return -value if text[0] == "-" else value
    return unsigned_rational(text)


def scalar(text: str, order):
    """A scalar literal: a signed rational, or in Q(z_n) a sum of signed
    terms `q`, `z`, `z^k`, `q z`, `q*z` and `q*z^k` with q an unsigned
    rational; the first term may go without its sign."""
    if "z" not in text:
        value = rational(text)
        return value if order is None else [value] + [Fraction(0)] * (order - 1)
    if order is None:
        raise Rejected(f"cyclotomic literal {text!r} without a cyclotomic header")
    vector = [Fraction(0)] * order
    pos = 0
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        end = pos
        while end < len(text) and text[end] not in "+-":
            end += 1
        term, pos = text[pos:end], end
        if "z" not in term:
            vector[0] += sign * unsigned_rational(term)
            continue
        coefficient, _, power = term.partition("z")
        if coefficient.endswith("*"):
            coefficient = coefficient[:-1]
            if not coefficient:
                raise Rejected(f"`*` without a coefficient in {term!r}")
        value = unsigned_rational(coefficient) if coefficient else Fraction(1)
        exponent = 1
        if power:
            if power[0] != "^" or not digits(power[1:]):
                raise Rejected(f"bad power in {term!r}")
            exponent = int(power[1:])
        vector[exponent % order] += sign * value
    return vector


def cycles(degree: int, fields) -> tuple:
    """The 0-based image tuple of cycle notation spaced out into `fields`."""
    if len(fields) == 1 and fields[0] in IDENTITY:
        return tuple(range(degree))
    text = joined(fields)
    images = list(range(degree))
    used = set()
    pos = 0
    while pos < len(text):
        close = text.find(")", pos)
        if text[pos] != "(" or close < 0:
            raise Rejected(f"bad cycle notation {text!r}")
        body, pos = text[pos + 1:close], close + 1
        if not body:
            continue
        points = body.split(",")
        if not all(map(digits, points)):
            raise Rejected(f"bad point in ({body})")
        points = [int(p) for p in points]
        if len(set(points)) != len(points) or not all(1 <= p <= degree for p in points):
            raise Rejected(f"not a cycle of 1..{degree}: ({body})")
        if used & set(points):
            raise Rejected(f"a point in two cycles of {text!r}")
        used |= set(points)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def group_file(text: str) -> tuple:
    """(degree, generators): one `degree <n>` line, then `gen` lines of cycle
    notation or an identity spelling."""
    degree, generators = None, []
    for number, fields in lines_of(text):
        if fields[0] == "degree":
            if degree is not None or len(fields) != 2:
                raise Rejected(f"line {number}: a second or malformed degree line")
            degree = integer(fields[1])
            if degree < 1:
                raise Rejected(f"line {number}: degree {degree}")
            if degree > MAX_GROUP_ENTRIES:
                raise Refused(f"line {number}: degree {degree} over the work budget")
        elif fields[0] == "gen":
            if degree is None or len(fields) == 1:
                raise Rejected(f"line {number}: gen before degree, or without cycles")
            generators.append(cycles(degree, fields[1:]))
        else:
            raise Rejected(f"line {number}: unrecognized")
    if degree is None:
        raise Rejected("no degree line")
    return degree, tuple(generators)


def element_file(text: str, degree: int, members) -> tuple:
    """(order, {image tuple: scalar}): an optional first line `scalar
    cyclotomic <n>`, then `<scalar> <element>` lines, the element the final
    field; the scalars of one element are summed."""
    order, terms = None, {}
    for number, fields in lines_of(text):
        if fields[0] == "scalar":
            if order is not None or terms or len(fields) != 3 or fields[1] != "cyclotomic":
                raise Rejected(f"line {number}: misplaced or malformed scalar header")
            order = integer(fields[2])
            if not 1 <= order <= MAX_CYCLOTOMIC_ORDER:
                raise Refused(f"line {number}: cyclotomic order {order}")
            continue
        if len(fields) < 2:
            raise Rejected(f"line {number}: no scalar before the element")
        value = scalar(joined(fields[:-1]), order)
        element = cycles(degree, fields[-1:])
        if element not in members:
            raise Refused(f"line {number}: {fields[-1]} is not in the group")
        if element in terms:
            old = terms[element]
            value = old + value if order is None else [a + b for a, b in zip(old, value)]
        terms[element] = value
    if not terms:
        raise Rejected("no element lines")
    return order, terms


def _states(text: str, what: str) -> tuple:
    """The count N of a `states <N>` first line and the fields of the lines after it."""
    lines = [fields for _, fields in lines_of(text)]
    if not lines or lines[0][0] != "states":
        raise Rejected(f"{what} without a states line")
    if len(lines[0]) != 2:
        raise Rejected("malformed states line")
    n = integer(lines[0][1])
    if n < 1:
        raise Rejected(f"{n} states")
    return n, lines[1:]


def _check_law(values) -> None:
    """Entries that are a probability law: none negative, summing to 1."""
    if min(values) < 0 or sum(values) != 1:
        raise Refused("not a probability law")


def matrix_file(text: str) -> tuple:
    """The rows of a `states <N>` file with N rows of N rational entries."""
    n, lines = _states(text, "matrix")
    if len(lines) != n:
        raise Rejected(f"{len(lines)} rows for {n} states")
    rows = []
    for row in lines:
        rows.append(tuple(map(rational, row)))
        if len(row) != n:
            raise Rejected("a row with the wrong entry count")
    if n > STATE_CAP:
        raise Refused(f"{n} states over the cap")
    for row in rows:
        _check_law(row)
    return tuple(rows)


def distribution_file(text: str) -> tuple:
    """The one row of a `states <N>` file with one row of N rational entries."""
    n, lines = _states(text, "distribution")
    if len(lines) != 1:
        raise Rejected("a distribution file has one row")
    row = tuple(map(rational, lines[0]))
    if len(row) != n:
        raise Rejected("the row has the wrong entry count")
    _check_law(row)
    return row


def lump_file(text: str, n_states: int) -> tuple:
    """The label of each state, from one `lump <state> <label>` line per state."""
    labels = {}
    for number, fields in lines_of(text):
        if len(fields) != 3 or fields[0] != "lump":
            raise Rejected(f"line {number}: not a lump line")
        state = integer(fields[1])
        if not 0 <= state < n_states or state in labels:
            raise Rejected(f"line {number}: state {state} out of range or assigned twice")
        labels[state] = fields[2]
    if len(labels) != n_states:
        raise Rejected("a state without a lump line")
    return tuple(labels[s] for s in range(n_states))
