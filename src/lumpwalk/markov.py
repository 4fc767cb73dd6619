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
rows under v -> Pi_b(v P).  That space is the direct sum of its lump parts.
So the exact test builds no subspace: it holds one integer direction per
lump and stops at the first lump that meets a second one
(`test_exact_generic`).  And the weak test reads the cut `V ∩ ker F` off the
canonical rows of V in closed form, one combination of two rows per row of
nonzero sum, with no second elimination (`_cut_rows`).

A transition matrix is built from integral rows (D, D P(x, .)) in `int`
and holds each row once, as its nonzero columns and their integers reduced
by their gcd with D: validation, Dynkin's test, the exact test and every
product with a `Fraction` vector read that form.  The matrix parser holds
the fields of one line at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from math import gcd, lcm

from .algebra import AlgebraElement
from .errors import DomainError, InputFormatError
from .groups import FiniteGroup
from .linalg import Subspace, closure
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


class TransitionMatrix:
    """Row-stochastic matrix with exact rational entries acting on row vectors.

    Built from integral rows ``(D_x, M_x)``, M_x a dense list of `int` with
    P(x, .) = M_x / D_x, and validated on them: no entry of M_x is negative
    and M_x sums to D_x > 0; a failing row is named by its index x, the
    state number of a lump file.  Row x is held once, as ``integral[x] =
    (D_x, cols_x, M_x)``: its nonzero columns ascending and their integers,
    divided by the gcd of D_x and M_x, so a matrix has one form.  ``apply``
    reads that form; ``rows``, the dense `Fraction` matrix, is built from it
    when first read.
    """

    __slots__ = ("n", "_rows", "integral")

    def __init__(self, forms):
        forms = list(forms)
        n = len(forms)
        if n > STATE_CAP:
            raise DomainError(f"state count {n} exceeds the cap {STATE_CAP}")
        self.n = n
        self._rows = None
        self.integral = []
        for x, (scale, scaled) in enumerate(forms):
            if len(scaled) != n:
                raise DomainError(f"row {x} of the transition matrix has {len(scaled)} "
                                  f"entries: a square matrix needs {n}")
            if min(scaled) < 0:
                raise DomainError(f"row {x} of the transition matrix has a negative entry")
            if scale < 1 or sum(scaled) != scale:
                raise DomainError(f"row {x} of the transition matrix does not sum to 1")
            values = list(compress(scaled, scaled))
            g = gcd(scale, *values)
            if g > 1:
                scale, values = scale // g, [m // g for m in values]
            self.integral.append((scale, list(compress(range(n), scaled)), values))

    @property
    def rows(self) -> list[list[Fraction]]:
        if self._rows is None:
            zero = Fraction(0)
            self._rows = []
            for scale, cols, scaled in self.integral:
                values = {m: Fraction(m, scale) for m in dict.fromkeys(scaled)}
                row = [zero] * self.n
                for y, m in zip(cols, scaled):
                    row[y] = values[m]
                self._rows.append(row)
        return self._rows

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        """Row vector times matrix."""
        out = [Fraction(0)] * self.n
        for vx, (scale, cols, scaled) in zip(vec, self.integral):
            if vx:
                c = Fraction(vx, scale)
                for y, m in zip(cols, scaled):
                    out[y] = out[y] + c * m
        return out

    def __eq__(self, other):
        return isinstance(other, TransitionMatrix) and self.integral == other.integral


@dataclass(frozen=True)
class LumpingFunction:
    """Surjection of states onto lumps 0..M-1 with optional labels."""

    lump_of: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.lump_of:
            raise DomainError("a lumping function needs at least one state")
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

    Row x is given as the integers (D w)(x^-1 y) over (D w)(G), D the lcm
    of the denominators of w, so no `Fraction` is built: x g runs over
    distinct y as g runs over supp w.
    """
    support = list(w.require_weight().support())
    _, weights = integral_form(c for _, c in support)
    total = sum(weights)
    rows = []
    for x in range(G.order):
        row = [0] * G.order
        for (g, _), m in zip(support, weights):
            row[G.mul(x, g)] = m
        rows.append((total, row))
    return TransitionMatrix(rows)


# ---------------------------------------------------------------------------
# Gurvits-Ledoux spaces and the generic lumping tests


def _check_states(f: LumpingFunction, P: TransitionMatrix, alpha: Distribution | None = None):
    """Refuse a lumping function or start law with another state count."""
    if len(f.lump_of) != P.n:
        raise DomainError(f"lumping function has {len(f.lump_of)} states, the matrix {P.n}")
    if alpha is not None and alpha.n != P.n:
        raise DomainError(f"start law has {alpha.n} states, the matrix {P.n}")


def minimal_GL_space(f: LumpingFunction, P: TransitionMatrix, alpha: Distribution) -> Subspace:
    """Smallest subspace holding the lump projections of alpha and closed
    under v -> Pi_b(v P) for every lump b."""
    lumps = range(f.n_lumps)
    seed = Subspace(P.n, (f.project(alpha.probs, b) for b in lumps))

    def successors(v):
        vP = P.apply(v)
        return (f.project(vP, b) for b in lumps)

    return closure(seed, successors)


def _cut_rows(f: LumpingFunction, V: Subspace):
    """The canonical RREF rows of V cap ker F, in pivot order, read off those
    of V = `minimal_GL_space(f, P, alpha)` with no elimination.

    V is the direct sum of its lump parts V_b on disjoint columns
    (`test_exact_generic`), so each canonical row of V lies in one lump,
    V cap ker F is the direct sum of the V_b cap ker F_b, F_b the entry sum
    over lump b, and the canonical RREF of the cut is the union of those of
    its parts, ordered by pivot.  Let r_1 .. r_k be the rows of V with
    pivots p_1 < .. < p_k in lump b, s_i the entry sum of r_i and j the last
    i with s_i != 0.  The cut rows of lump b are r_i - (s_i / s_j) r_j for
    i < j (r_i when s_i = 0) and r_i for i > j.  Each lies in V_b and sums
    to 0.  It is 0 left of p_i and 1 at p_i, as r_j is 0 left of p_j > p_i,
    and 0 at every other p_l but p_j, which is no pivot of the cut.  So these
    k - 1 rows are independent and canonical, and they span V_b cap ker F_b,
    of dimension k - 1 as F_b(r_j) != 0.  Some s_i is nonzero: V_b is
    spanned by lump projections of nonnegative vectors, the seeds and the
    successor images.  (A lump with every s_i = 0 keeps all its rows, which
    would be its cut.)  The sums and the combination read the supports only.
    """
    lump_of = f.lump_of
    sums = [sum(row[k] for k in cols) for row, cols in zip(V.rows, V.support)]
    last = {lump_of[p]: i for i, (p, s) in enumerate(zip(V.pivots, sums)) if s}
    for i, (row, p, s) in enumerate(zip(V.rows, V.pivots, sums)):
        if s:  # so i <= j
            j = last[lump_of[p]]
            if i == j:
                continue
            c, row, other = s / sums[j], list(row), V.rows[j]
            for k in V.support[j]:
                row[k] -= c * other[k]
        yield row


def test_weak_generic(f: LumpingFunction, P: TransitionMatrix, alpha: Distribution):
    """Weak lumping of MC(alpha, P) under f; certificate is a violating vector:
    the first row of the canonical RREF of V cap ker F (`_cut_rows`), V the
    minimal stable space, with F(v P) != 0."""
    _check_states(f, P, alpha)
    for v in _cut_rows(f, minimal_GL_space(f, P, alpha)):
        if any(f.apply_F(P.apply(v))):
            return False, list(v)
    return True, None


def test_strong_generic(f: LumpingFunction, P: TransitionMatrix) -> bool:
    """Dynkin's condition: within every lump, all rows have equal lump sums.

    Read on the integral rows: the lump sums of row x are the integer lump
    sums of M_x over D_x, so two rows agree iff their integer sums do, each
    multiplied by the other row's D.
    """
    _check_states(f, P)
    lump_of, m = f.lump_of, f.n_lumps

    def lump_sums(x):
        scale, cols, scaled = P.integral[x]
        sums = [0] * m
        for y, c in zip(cols, scaled):
            sums[lump_of[y]] += c
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
    lumping function or start law of the wrong length raises DomainError.
    """
    _check_states(f, P, alpha)
    lump_of, integral = f.lump_of, P.integral
    scale = lcm(*(weight for weight, _, _ in integral))

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
            weight, cols, row = integral[x]
            c *= scale // weight
            for y, m in zip(cols, row):
                image[y] = image.get(y, 0) + c * m
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


def _read_states(text: str, what: str):
    """The count N of a `states <N>` header, the number of lines after it,
    and an iterator of their `content_lines`.  The lines are counted in one
    pass and split again as the iterator is read, so one line's fields are
    held at a time."""
    lines = content_lines(text)
    lineno, _, header = next(lines, (0, "", [""]))
    if header[0] != "states":  # the keyword is the whole first token
        raise InputFormatError(f"{what} file must start with `states <N>`")
    try:
        _, count = header  # exactly `states <N>`
        n = parse_integer(count)
    except ValueError:
        raise at_line(lineno, InputFormatError("bad states header"))
    if n < 1:
        raise at_line(lineno, InputFormatError(f"{what} file needs at least one state, got {n}"))
    return n, sum(1 for _ in lines), islice(content_lines(text), 1, None)


def parse_matrix_file(text: str) -> TransitionMatrix:
    n, count, rows = _read_states(text, "matrix")
    if count != n:
        raise InputFormatError(f"expected {n} matrix rows, found {count}")
    values = {}  # token -> Fraction: a walk matrix has few distinct entries

    def integral_rows():
        """Each row's integral form, from its distinct tokens, each parsed
        once per file and scaled once per row."""
        for lineno, _, tokens in rows:
            distinct = dict.fromkeys(tokens)
            try:
                for tok in distinct:  # a bad token fails where it first occurs
                    if tok not in values:
                        values[tok] = parse_rational(tok)
                if len(tokens) != n:
                    raise InputFormatError("matrix row with wrong entry count")
            except (InputFormatError, DomainError) as error:
                raise at_line(lineno, error) from error
            scale, numerators = integral_form(map(values.__getitem__, distinct))
            yield scale, list(map(dict(zip(distinct, numerators)).__getitem__, tokens))

    return TransitionMatrix(integral_rows())


def parse_distribution_file(text: str) -> Distribution:
    n, count, rows = _read_states(text, "distribution")
    if count != 1:
        raise InputFormatError("distribution file needs exactly one row")
    lineno, _, tokens = next(rows)
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
