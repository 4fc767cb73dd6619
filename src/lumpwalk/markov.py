"""Generic finite Markov-chain machinery over exact rationals.

This module is deliberately group-free: states are abstract indices, so it
serves as the independent oracle for the group-specific decision procedures.
It provides the minimal stable subspace for a start distribution, the
weak/strong/exact lumping tests, the maximal stable subspace, stationary
distributions, lumped transition matrices, exact conditional laws given a
lump history, and time reversal.

Both stable subspaces are fixpoints of `linalg.closure` on `Fraction` rows,
with no group or action table: the minimal one grows rows under
v -> Pi_b(v P), and the maximal one is the nullspace of the columns grown
from PF - FQ under a -> P a and a -> Pi_b a.

A transition matrix keeps each row in its integral form (D, D P(x, .)) in
`int`, beside the dense rows and the nonzero entries of each row: validation
and Dynkin's test read the integral form, every product with a vector the
nonzero entries.  The cut `V ∩ ker F` of a stable subspace is read off one
block echelon of the rows `(v F | v)` over a basis of `V`
(`linalg.kernel_span`), and is computed only by the callers that read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm

from .algebra import AlgebraElement
from .errors import DomainError, InputFormatError, InvariantError
from .groups import FiniteGroup
from .linalg import Subspace, closure, kernel_span, nullspace
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
    integer numerators over one denominator from `transition_from_weight` and
    `time_reversal_matrix`, the tokens of a matrix file from
    `parse_matrix_file`.  Each distinct key is read once, in the order it
    first occurs, so a row of a walk matrix, with few distinct entries, is
    scaled with C-level maps.
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
    out where M_x is nonzero, so ``apply`` and ``apply_column`` touch only
    those entries.  ``rows``, the dense matrix of `Fraction`s, is built from
    the integral form when first read.

    Rows are given as keys mapped to their values by `value`, the entries
    themselves by default (`_integral_row`).
    """

    __slots__ = ("n", "_rows", "nonzero", "integral")

    def __init__(self, rows, value=Fraction):
        forms = [_integral_row(r, value) for r in rows]
        n = len(forms)
        if n > STATE_CAP:
            raise DomainError(f"state count {n} exceeds the cap {STATE_CAP}")
        for _, scale, scaled in forms:
            if len(scaled) != n:
                raise DomainError("transition matrix must be square")
            if min(scaled) < 0:
                raise DomainError("negative transition probability")
            if sum(scaled) != scale:
                raise DomainError("row of transition matrix does not sum to 1")
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

    def apply_column(self, vec: list[Fraction]) -> list[Fraction]:
        """Matrix times column vector."""
        out = []
        for pairs in self.nonzero:
            total = Fraction(0)
            for y, p in pairs:
                if vec[y]:
                    total = total + p * vec[y]
            out.append(total)
        return out

    def is_irreducible(self) -> bool:
        return self._reaches_all(forward=True) and self._reaches_all(forward=False)

    def _reaches_all(self, forward: bool) -> bool:
        """Whether state 0 reaches every state (forward) or every state reaches
        it (backward): a search on the `nonzero` entries, backward on
        predecessor lists built once."""
        if forward:
            neighbours = [[y for y, _ in pairs] for pairs in self.nonzero]
        else:
            neighbours = [[] for _ in range(self.n)]
            for x, pairs in enumerate(self.nonzero):
                for y, _ in pairs:
                    neighbours[y].append(x)
        seen = {0}
        stack = [0]
        while stack:
            for y in neighbours[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

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
    """Exact lumping via the per-lump dimension criterion dim(V Pi_b) <= 1."""
    V = minimal_GL_space(f, P, alpha)
    for b in range(f.n_lumps):
        block = Subspace(P.n)
        for v in V.rows:
            block.insert(f.project(v, b))
            if block.dim > 1:
                return False
    return True


def stationary_distribution(P: TransitionMatrix) -> Distribution:
    """The unique solution of mu P = mu for an irreducible chain."""
    if not P.is_irreducible():
        raise DomainError("transition matrix is not irreducible")
    n = P.n
    # left null space of (P - I): solve v (P - I) = 0 as nullspace of columns
    rows = []
    for y in range(n):
        rows.append([P.rows[x][y] - (1 if x == y else 0) for x in range(n)])
    sols = nullspace(rows, n)
    if sols.dim != 1:
        raise InvariantError("irreducible chain must have a unique stationary law")
    vec = sols.rows[0]
    total = sum(vec)
    mu = [Fraction(x, total) for x in vec]
    if any(x < 0 for x in mu):
        raise DomainError("stationary solution is not a distribution")
    return Distribution(tuple(mu))


def lumped_transition_matrix(f: LumpingFunction, P: TransitionMatrix, mu: Distribution):
    """Aggregated matrix Q(i, j) = mu-weighted mass flow from lump i to lump j.

    Rows of lumps with zero mu-mass are undefined and returned as None.
    """
    m = f.n_lumps
    lumps = f.lumps()
    out = []
    for i in range(m):
        mass = sum(mu.probs[x] for x in lumps[i])
        if mass == 0:
            out.append(None)
            continue
        row = [Fraction(0)] * m
        for x in lumps[i]:
            if mu.probs[x]:
                for y, p in enumerate(P.rows[x]):
                    if p:
                        row[f.lump_of[y]] += mu.probs[x] * p
        out.append([q / mass for q in row])
    return out


def lumped_matrix_from_start(f: LumpingFunction, P: TransitionMatrix, alpha: Distribution):
    """Empirical-free lumped rows observed from a start law: row b is the
    common next-lump law from any reachable conditional supported on lump b.

    Only valid when MC(alpha, P) lumps weakly; rows of unreachable lumps are
    None.
    """
    m = f.n_lumps
    rows = [None] * m
    vec = list(alpha.probs)
    for _ in range(P.n + 1):
        for b in range(m):
            proj = f.project(vec, b)
            total = sum(proj)
            if total and rows[b] is None:
                nxt = f.apply_F(P.apply(proj))
                rows[b] = [x / total for x in nxt]
        vec = P.apply(vec)
    return rows


def compute_Vmax_generic(f: LumpingFunction, P: TransitionMatrix, Q) -> Subspace:
    """Largest subspace V with V P <= V, V Pi_b <= V and V <= ker(PF - FQ).

    Requires an irreducible P whose stationary chain lumps weakly under f with
    lumped matrix Q.  V is the nullspace of its annihilator: the smallest
    space of columns holding the columns of PF - FQ and closed under
    a -> P a and a -> Pi_b a, since v (P a) = (v P) a and v (Pi_b a) = (v Pi_b) a.
    """
    mu = stationary_distribution(P)
    ok, _ = test_weak_generic(f, P, mu)
    if not ok:
        raise DomainError("the stationary chain does not lump weakly under f")
    expected = lumped_transition_matrix(f, P, mu)
    given = [list(map(Fraction, row)) for row in Q]
    if expected != given:
        raise DomainError("Q is not the lumped transition matrix of the stationary chain")

    lumps = range(f.n_lumps)
    # column j of PF - FQ: the mass P(x, lump j) less Q[f(x)][j]
    columns = [[-given[b][j] for b in f.lump_of] for j in lumps]
    for x, pairs in enumerate(P.nonzero):
        for y, p in pairs:
            column = columns[f.lump_of[y]]
            column[x] = column[x] + p

    def successors(a):
        yield P.apply_column(a)
        for b in lumps:
            yield f.project(a, b)

    annihilator = closure(Subspace(P.n, columns), successors)
    return Subspace(P.n, nullspace(annihilator.rows, P.n).rows)


def conditional_distribution(f: LumpingFunction, P: TransitionMatrix,
                             alpha: Distribution, observations) -> Distribution:
    """Exact law of X_t given the lump history f(X_0), ..., f(X_t).

    An empty history imposes no condition and returns alpha.  Raises
    DomainError naming the first impossible prefix when the observed sequence
    has probability zero under MC(alpha, P).
    """
    observations = list(observations)
    if not observations:
        return alpha
    vec = f.project(alpha.probs, observations[0])
    if not any(vec):
        raise DomainError("impossible observation sequence at prefix index 0")
    for t, b in enumerate(observations[1:], start=1):
        vec = f.project(P.apply(vec), b)
        if not any(vec):
            raise DomainError(f"impossible observation sequence at prefix index {t}")
    total = sum(vec)
    return Distribution(tuple(x / total for x in vec))


def time_reversal_matrix(P: TransitionMatrix, alpha: Distribution) -> TransitionMatrix:
    """Reversed chain P*(x, y) = alpha(y) P(y, x) / alpha(x).

    Read off the integral rows: with alpha(y) = a_y / A and
    P(y, x) = M_y[x] / D_y, P*(x, y) = a_y (L / D_y) M_y[x] (K / a_x) / (L K)
    for L the lcm of the D_y and K that of the a_x, so every row is given as
    integers over the one denominator L K.
    """
    if any(p == 0 for p in alpha.probs):
        raise DomainError("time reversal requires a full-support distribution")
    if P.apply(list(alpha.probs)) != list(alpha.probs):
        raise DomainError("time reversal requires a stationary distribution")
    _, weights = integral_form(alpha.probs)
    row_scale = lcm(*(d for d, _ in P.integral))
    weight_scale = lcm(*weights)
    columns = [(a * (row_scale // d), scaled) for a, (d, scaled) in zip(weights, P.integral)]
    rows = []
    for x, a in enumerate(weights):
        k = weight_scale // a
        rows.append([u * scaled[x] * k for u, scaled in columns])
    return TransitionMatrix(rows, lambda m: Fraction(m, row_scale * weight_scale))


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
        """Each row's tokens, once its new tokens are parsed."""
        for lineno, tokens in rows:
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
