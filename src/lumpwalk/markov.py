"""Generic finite Markov-chain machinery over exact rationals.

This module is deliberately group-free: states are abstract indices.  It
holds what `generic-test` runs: transition matrices, lumping functions, the
minimal stable subspace for a start distribution, the weak/strong/exact
lumping tests, and the parsers of the chain file formats.  No command builds
a chain from a group; `transition_from_weight` serves the bench and the
tests' chain oracle, whose further tools (stationary laws, aggregated
matrices, the maximal stable subspace, time reversal and the law given a
lump history) live in `tests/oracle_suite.py`.

The minimal stable subspace, which the weak test cuts, is a fixpoint of
`linalg.closure` on `Fraction` rows, with no group or action table: it grows
rows under v -> Pi_b(v P).  The exact test builds no subspace: that space is
the direct sum of its lump parts, so it holds one integer direction per lump
and stops at the first lump that meets a second one (`test_exact_generic`).

A transition matrix keeps each row in its integral form (D, D P(x, .)) in
`int`, beside the dense rows and the nonzero entries of each row:
validation, Dynkin's test and the exact test read the integral form, every
product with a `Fraction` vector the nonzero entries.  The cut `V ∩ ker F`
of a stable subspace is read off one block echelon of the rows `(v F | v)`
over a basis of `V` (`linalg.kernel_span`), and is computed only by the
callers that read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .algebra import AlgebraElement
from .errors import DomainError, InputFormatError
from .groups import FiniteGroup
from .linalg import Subspace, closure, kernel_span
from .scalars import at_line, content_lines, integral_form, parse_integer, parse_rational

STATE_CAP = 5_000


@dataclass(frozen=True)
class Distribution:
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if any(p < 0 for p in self.probs):
            raise DomainError("distribution has a negative entry")
        if sum(self.probs) != 1:
            raise DomainError("distribution entries must sum to 1")

    @property
    def n(self) -> int:
        return len(self.probs)

    @staticmethod
    def point(n: int, state: int) -> "Distribution":
        return Distribution(tuple(Fraction(1) if i == state else Fraction(0) for i in range(n)))

    @staticmethod
    def uniform(n: int) -> "Distribution":
        return Distribution((Fraction(1, n),) * n)


def _integral_row(keys, value) -> tuple[list[tuple[int, Fraction]], int, list[int]]:
    """One row as (nonzero, D, M): the ``(column, entry)`` pairs of its nonzero
    `Fraction` entries and its `integral_form` (D, M), M = D * row in `int`.

    The row is given as keys, and `value` maps a key to its `Fraction`: the
    entries themselves (`Fraction`, `int` or literal strings) by default,
    integer numerators over one denominator from `transition_from_weight`
    (and the oracle's time reversal in `tests/oracle_suite.py`), the tokens
    of a matrix file from `parse_matrix_file`.  Each distinct key is read
    once, in the order it first occurs, so a row of a walk matrix, with few
    distinct entries, is scaled with C-level maps.
    """
    values = {k: value(k) for k in dict.fromkeys(keys)}
    scale, numerators = integral_form(values.values())
    scaled = dict(zip(values, numerators))
    row = list(map(scaled.__getitem__, keys))
    nonzero = zip(compress(range(len(row)), row), map(values.__getitem__, compress(keys, row)))
    return list(nonzero), scale, row


class TransitionMatrix:
    """Row-stochastic matrix with exact rational entries acting on row vectors.

    Each row x is held in its integral form ``integral[x] = (D_x, M_x)``,
    with D_x the lcm of the denominators of the row and M_x = D_x P(x, .) in
    `int` (`_integral_row`), and validation reads only that form: no entry of
    M_x is negative, and M_x sums to D_x.  ``nonzero[x]`` lists the
    ``(y, P(x, y))`` pairs with ``P(x, y) != 0`` in ascending ``y``, picked
    out where M_x is nonzero, so ``apply`` touches only those entries.
    ``rows``, the dense matrix of `Fraction`s, is built from the integral
    form when first read.  A row that fails a check is named by its index
    x, the state number of a lump file.

    Rows are given as keys mapped to their values by `value`, the entries
    themselves by default (`_integral_row`).
    """

    __slots__ = ("n", "_rows", "nonzero", "integral")

    def __init__(self, rows, value=Fraction):
        forms = [_integral_row(r, value) for r in rows]
        n = len(forms)
        if n > STATE_CAP:
            raise DomainError(f"state count {n} exceeds the cap {STATE_CAP}")
        for x, (_, scale, scaled) in enumerate(forms):
            if len(scaled) != n:
                raise DomainError(f"row {x} of the transition matrix has {len(scaled)} "
                                  f"entries: a square matrix needs {n}")
            if min(scaled) < 0:
                raise DomainError(f"row {x} of the transition matrix has a negative entry")
            if sum(scaled) != scale:
                raise DomainError(f"row {x} of the transition matrix does not sum to 1")
        self.n = n
        self._rows = None
        self.nonzero = [nonzero for nonzero, _, _ in forms]
        self.integral = [(scale, scaled) for _, scale, scaled in forms]

    @property
    def rows(self) -> list[list[Fraction]]:
        if self._rows is None:
            self._rows = []
            for scale, scaled in self.integral:
                values = {m: Fraction(m, scale) for m in dict.fromkeys(scaled)}
                self._rows.append(list(map(values.__getitem__, scaled)))
        return self._rows

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        """Row vector times matrix."""
        out = [Fraction(0)] * self.n
        for vx, pairs in zip(vec, self.nonzero):
            if vx:
                for y, p in pairs:
                    out[y] = out[y] + vx * p
        return out

    def __eq__(self, other):
        return isinstance(other, TransitionMatrix) and self.rows == other.rows


@dataclass(frozen=True)
class LumpingFunction:
    """Surjection of states onto lumps 0..M-1 with optional labels."""

    lump_of: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = self.n_lumps
        if sorted(set(self.lump_of)) != list(range(m)):
            raise DomainError("lump ids must be exactly 0..M-1")
        if self.labels and len(self.labels) != m:
            raise DomainError("one label per lump required")

    @property
    def n_lumps(self) -> int:
        return max(self.lump_of) + 1

    def lumps(self) -> list[list[int]]:
        out = [[] for _ in range(self.n_lumps)]
        for x, b in enumerate(self.lump_of):
            out[b].append(x)
        return out

    def project(self, vec, b: int) -> list[Fraction]:
        """The projection Pi_b, zeroing coordinates outside lump b."""
        zero = Fraction(0)
        return [x if self.lump_of[i] == b else zero for i, x in enumerate(vec)]

    def apply_F(self, vec) -> list[Fraction]:
        out = [Fraction(0)] * self.n_lumps
        for i, x in enumerate(vec):
            if x:
                out[self.lump_of[i]] += x
        return out


# ---------------------------------------------------------------------------
# construction of chains


def transition_from_weight(G: FiniteGroup, w: AlgebraElement) -> TransitionMatrix:
    """Walk matrix P(x, y) = w(x^-1 y)/w(G) of the left-invariant random walk.

    Row x is given as the integers (D w)(x^-1 y), D the lcm of the
    denominators of w, each distinct one read as a `Fraction` over
    (D w)(G) once: x g runs over distinct y as g runs over supp w.
    """
    support = list(w.require_weight().support())
    _, weights = integral_form(c for _, c in support)
    total = sum(weights)
    rows = []
    for x in range(G.order):
        row = [0] * G.order
        for (g, _), m in zip(support, weights):
            row[G.mul(x, g)] = m
        rows.append(row)
    return TransitionMatrix(rows, lambda m: Fraction(m, total))


# ---------------------------------------------------------------------------
# Gurvits-Ledoux spaces and the generic lumping tests


def minimal_GL_space(f: LumpingFunction, P: TransitionMatrix, alpha: Distribution) -> Subspace:
    """Smallest subspace holding the lump projections of alpha and closed
    under v -> Pi_b(v P) for every lump b."""
    lumps = range(f.n_lumps)
    seed = Subspace(P.n, (f.project(alpha.probs, b) for b in lumps))

    def successors(v):
        vP = P.apply(v)
        return (f.project(vP, b) for b in lumps)

    return closure(seed, successors)


def _cut(f: LumpingFunction, V: Subspace) -> Subspace:
    """V cap ker F, from the block echelon of (v F | v) over a basis of V.

    Its rows are n_lumps + n wide, where those of the Zassenhaus intersection
    `intersect(V, kernel_F(f))`, with the reference `kernel_F` of
    `tests/reference.py`, are 2n wide; the result is the same canonical RREF.
    """
    return kernel_span([f.apply_F(v) for v in V.rows], V.rows, V.ambient)


def test_weak_generic(f: LumpingFunction, P: TransitionMatrix, alpha: Distribution):
    """Weak lumping of MC(alpha, P) under f; certificate is a violating vector."""
    for v in _cut(f, minimal_GL_space(f, P, alpha)).rows:
        image = f.apply_F(P.apply(v))
        if any(image):
            return False, list(v)
    return True, None


def test_strong_generic(f: LumpingFunction, P: TransitionMatrix) -> bool:
    """Dynkin's condition: within every lump, all rows have equal lump sums.

    Read on the integral rows: the lump sums of row x are the integer lump
    sums of M_x over D_x, so two rows agree iff their integer sums do, each
    multiplied by the other row's D.
    """
    lump_of, m = f.lump_of, f.n_lumps

    def lump_sums(x):
        scale, scaled = P.integral[x]
        sums = [0] * m
        for b, c in zip(compress(lump_of, scaled), compress(scaled, scaled)):
            sums[b] += c
        return scale, sums

    for block in f.lumps():
        base_scale, base = lump_sums(block[0])
        for other in block[1:]:
            scale, sums = lump_sums(other)
            if [c * base_scale for c in sums] != [c * scale for c in base]:
                return False
    return True


def test_exact_generic(f: LumpingFunction, P: TransitionMatrix, alpha: Distribution) -> bool:
    """Exact lumping via the per-lump dimension criterion dim(V Pi_b) <= 1,
    for V the minimal stable space (`minimal_GL_space`), decided without
    building V: each lump holds one direction, and the test stops at the
    first lump that meets a second one.

    V is spanned by its seeds Pi_b(alpha) and the successor images
    Pi_b(v P) that grew it, lump projections all, so V is the direct sum of
    the spans V_b of those in each lump b, on disjoint columns, and
    V Pi_b = V_b.  So the chain lumps exactly iff each V_b is at most a line.

    Each lump b with Pi_b(alpha) nonzero is seeded with Pi_b(D alpha), D the
    lcm of the denominators of alpha.  Each held direction v is multiplied
    once by L P, L the lcm of the row denominators D_x, in `int` from the
    integral rows: L P(x, y) = (L / D_x) M_x(y).  Each nonzero projection
    Pi_c of that image becomes the direction of c, divided by the gcd of
    its entries, if c holds none yet; otherwise it is compared with c's
    direction by cross-multiplication.  Every direction and projection is a
    rescaled lump projection of a vector of V, so two that are not
    collinear give dim V_c >= 2: not exact.  If the queue empties first,
    the sum W of the held lines contains every seed, and it holds
    Pi_c(v P) for each of its directions v and each c, so it is closed.  W
    lies in V and V is the least such space, so V = W and each V_b is at
    most a line.

    The entries of alpha and P are nonnegative, so every direction and
    image is positive on its support and no entry cancels.  Each lump's
    direction is multiplied once, so each row of P is read at most once.  A
    start law of the wrong length raises DomainError.
    """
    if alpha.n != P.n:
        raise DomainError(f"start law has {alpha.n} states, the matrix {P.n}")
    lump_of, integral = f.lump_of, P.integral
    scale = lcm(*(weight for weight, _ in integral))

    def lump_parts(vector: dict) -> dict:
        """{lump: {state: entry}} of a vector {state: entry}."""
        parts = {}
        for y, c in vector.items():
            parts.setdefault(lump_of[y], {})[y] = c
        return parts

    _, start = integral_form(alpha.probs)
    lines = lump_parts(dict(zip(compress(range(P.n), start), compress(start, start))))
    queue = list(lines)
    while queue:
        image = {}
        for x, c in lines[queue.pop()].items():
            weight, row = integral[x]
            c *= scale // weight
            for y, _ in P.nonzero[x]:
                image[y] = image.get(y, 0) + c * row[y]
        for b, part in lump_parts(image).items():
            line = lines.get(b)
            if line is None:
                g = gcd(*part.values())
                lines[b] = {y: c // g for y, c in part.items()}
                queue.append(b)
                continue
            y0 = next(iter(line))
            p, q = part.get(y0, 0), line[y0]
            if line.keys() != part.keys() or any(part[y] * q != c * p for y, c in line.items()):
                return False
    return True


# ---------------------------------------------------------------------------
# text formats: `states <N>` then N rows of rationals; `lump <state> <label>`


def _read_states(text: str, what: str) -> tuple[int, list[tuple[int, list[str]]]]:
    """The count N of a `states <N>` header, and the line number and fields
    of each line after it."""
    rows = [(lineno, fields) for lineno, _, fields in content_lines(text)]
    lineno, header = rows[0] if rows else (0, [""])
    if header[0] != "states":  # the keyword is the whole first token
        raise InputFormatError(f"{what} file must start with `states <N>`")
    try:
        _, count = header  # exactly `states <N>`
        n = parse_integer(count)
    except ValueError:
        raise at_line(lineno, InputFormatError("bad states header"))
    if n < 1:
        raise at_line(lineno, InputFormatError(f"{what} file needs at least one state, got {n}"))
    return n, rows[1:]


def parse_matrix_file(text: str) -> TransitionMatrix:
    n, rows = _read_states(text, "matrix")
    if len(rows) != n:
        raise InputFormatError(f"expected {n} matrix rows, found {len(rows)}")
    values = {}  # token -> Fraction: a walk matrix has few distinct entries

    def token_rows():
        """Each row's tokens, once its new tokens are parsed.  A row leaves
        `rows` as it is read, so the tokens of the whole file and the matrix
        built from them are not held at once."""
        for i, (lineno, tokens) in enumerate(rows):
            rows[i] = None
            try:
                for tok in dict.fromkeys(tokens):  # a bad token fails where it first occurs
                    if tok not in values:
                        values[tok] = parse_rational(tok)
                if len(tokens) != n:
                    raise InputFormatError("matrix row with wrong entry count")
            except (InputFormatError, DomainError) as error:
                raise at_line(lineno, error) from error
            yield tokens

    return TransitionMatrix(token_rows(), values.__getitem__)


def parse_distribution_file(text: str) -> Distribution:
    n, rows = _read_states(text, "distribution")
    if len(rows) != 1:
        raise InputFormatError("distribution file needs exactly one row")
    lineno, tokens = rows[0]
    try:
        # each distinct token once, in the order it first occurs, so a bad one fails first
        values = {tok: parse_rational(tok) for tok in dict.fromkeys(tokens)}
        if len(tokens) != n:
            raise InputFormatError("distribution row with wrong entry count")
    except (InputFormatError, DomainError) as error:
        raise at_line(lineno, error) from error
    return Distribution(tuple(map(values.__getitem__, tokens)))


def parse_lump_file(text: str, n_states: int) -> LumpingFunction:
    assignments = {}
    labels = {}
    for lineno, _, parts in content_lines(text):
        try:
            if len(parts) != 3 or parts[0] != "lump":
                raise InputFormatError("expected `lump <state> <label>`")
            try:
                state = parse_integer(parts[1])
            except ValueError:
                raise InputFormatError(f"bad state {parts[1]!r}")
            if not 0 <= state < n_states:
                raise InputFormatError(f"state {state} out of range")
            if state in assignments:
                raise InputFormatError(f"state {state} has a second lump line")
        except (InputFormatError, DomainError) as error:
            raise at_line(lineno, error) from error
        assignments[state] = parts[2]
    if set(assignments) != set(range(n_states)):
        raise InputFormatError("every state needs exactly one lump line")
    order = []
    for s in range(n_states):
        lab = assignments[s]
        if lab not in labels:
            labels[lab] = len(order)
            order.append(lab)
    return LumpingFunction(
        tuple(labels[assignments[s]] for s in range(n_states)), tuple(order)
    )
