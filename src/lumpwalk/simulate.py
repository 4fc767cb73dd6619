"""Monte-Carlo corroboration: sampled walks and an order-2 Markov diagnostic.

The sampler is fully reproducible: randomness comes from an explicit
xoshiro256** generator seeded through splitmix64, and group elements are drawn
by comparing the exact rational cumulative weights against u = k / 2^64 where
k is the raw 64-bit output, in integers: a threshold A / D is held as
A * 2^64 and compared with k * D.  Diagnostics are advisory only; no verdict
anywhere in the package depends on them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .algebra import AlgebraElement
from .errors import InvariantError, ResourceError
from .groups import gather
from .lumping import LumpingProblem
from .scalars import integral_form

_MASK = (1 << 64) - 1
STEP_CAP = 1_000_000  # steps of one walk: a million take seconds and tens of MB


class Xoshiro256StarStar:
    """xoshiro256** 1.0; state initialized from the seed via splitmix64."""

    def __init__(self, seed: int):
        self.state = []
        x = seed & _MASK
        for _ in range(4):
            x = (x + 0x9E3779B97F4A7C15) & _MASK
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            self.state.append(z ^ (z >> 31))

    def next_uint64(self) -> int:
        """The next 64-bit output word; the two rotations are inlined, as the
        sampler draws one word per step."""
        s = self.state
        x = (s[1] * 5) & _MASK
        result = (((x << 7) | (x >> 57)) * 9) & _MASK  # rotl(x, 7) * 9
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        x = s[3]
        s[3] = ((x << 45) | (x >> 19)) & _MASK  # rotl(x, 45)
        return result


def _sampler(entries):
    """Cumulative-threshold sampler over (value, probability) pairs, drawn
    with the raw 64-bit output k of the generator, u = k / 2^64.

    The cumulative thresholds t_i = A_i / D, over the lcm D of the
    denominators (`integral_form`), are held as the integers A_i * 2^64, and
    `draw(k)` bisects on k * D: t <= k / 2^64 iff A * 2^64 <= k * D, so it
    returns the value at the first threshold above u with no `Fraction` per
    draw.  The last
    threshold is D * 2^64 > k * D, so there always is one.
    """
    kept = [(value, p) for value, p in entries if p]
    scale, numerators = integral_form(p for _, p in kept)
    if sum(numerators) != scale:
        raise InvariantError("sampler probabilities must sum to 1")
    values = [value for value, _ in kept]
    thresholds = [acc << 64 for acc in accumulate(numerators)]

    def draw(k: int):
        """The value at the first threshold above k / 2^64, for 0 <= k < 2^64."""
        return values[bisect_right(thresholds, k * scale)]

    return draw


@dataclass(frozen=True)
class Trajectory:
    seed: int
    length: int
    states: tuple[int, ...]
    lumps: tuple[int, ...]


def simulate_walk(problem: LumpingProblem, w: AlgebraElement, alpha: AlgebraElement,
                  seed: int, length: int) -> Trajectory:
    """Sample X_0 ~ alpha then multiply by w-steps; deterministic in the seed.

    A step draws the image tuple of g in supp w, built once, and composes it
    with that of the state."""
    if length > STEP_CAP:
        raise ResourceError(f"walk length {length} exceeds the cap {STEP_CAP}")
    w = w.require_weight().normalized()
    alpha = alpha.require_distribution()
    rng = Xoshiro256StarStar(seed)
    images, index = problem.group.images, problem.group.index
    draw_start = _sampler(list(alpha.support()))
    draw_step = _sampler([(images[g], p) for g, p in w.support()])
    x = draw_start(rng.next_uint64())
    states = [x]
    for _ in range(length):
        x = index[gather(images[x])(draw_step(rng.next_uint64()))]
        states.append(x)
    lumps = tuple(problem.left.coset_of[s] for s in states)
    return Trajectory(seed, length, tuple(states), lumps)


def empirical_lumped_matrix(lumps, n_lumps: int):
    """Observed next-lump frequencies; rows of unvisited lumps are None."""
    counts = [[0] * n_lumps for _ in range(n_lumps)]
    for a, b in zip(lumps, lumps[1:]):
        counts[a][b] += 1
    out = []
    for row in counts:
        total = sum(row)
        out.append(None if total == 0 else [Fraction(c, total) for c in row])
    return out


MIN_TRIPLES = 10_000  # observed (previous, current, next) triples the diagnostic needs
THRESHOLD = 30.0  # statistic above which a context is flagged


@dataclass
class DiagnosticReport:
    """Order-2 vs order-1 homogeneity check of a lump sequence.

    For each current lump b the transition counts are split by the previous
    lump a; each context (a, b) is scored with the chi-square-style statistic
    sum (observed - expected)^2 / expected against the pooled row for b.
    Contexts above `THRESHOLD` are flagged.  With the threshold 30 and at
    most a few thousand contexts a well-mixed order-1 chain of 10^5 steps
    produces no flags in practice (tail mass of chi-square with <= 5 degrees
    of freedom beyond 30 is below 2e-5 per context); the check is advisory
    either way.  Fewer than `MIN_TRIPLES` observed triples give a warning
    and no scores.
    """

    flagged: list = field(default_factory=list)
    warning: str | None = None

    @property
    def clean(self) -> bool:
        return not self.flagged


def markov_diagnostic(lumps, n_lumps: int) -> DiagnosticReport:
    """Accepts one lump sequence or an ensemble of sequences (list of lists)."""
    sequences = [lumps] if lumps and isinstance(lumps[0], int) else list(lumps)
    report = DiagnosticReport()
    observed = sum(max(len(s) - 2, 0) for s in sequences)
    if observed < MIN_TRIPLES:
        report.warning = f"{observed} observed triples below the minimum {MIN_TRIPLES}"
        return report
    # triple counts: previous lump, current lump, next lump
    triples = {}
    for seq in sequences:
        for a, b, c in zip(seq, seq[1:], seq[2:]):
            triples[(a, b, c)] = triples.get((a, b, c), 0) + 1
    for b in range(n_lumps):
        row_totals = [0] * n_lumps  # pooled next-lump counts for current b
        context_totals = {}
        for (a, bb, c), k in triples.items():
            if bb != b:
                continue
            row_totals[c] += k
            context_totals[a] = context_totals.get(a, 0) + k
        pooled = sum(row_totals)
        if pooled == 0:
            continue
        for a, ctx_total in context_totals.items():
            stat = 0.0
            for c in range(n_lumps):
                expected = row_totals[c] * ctx_total / pooled
                if expected == 0:
                    continue
                observed = triples.get((a, b, c), 0)
                stat += (observed - expected) ** 2 / expected
            if stat > THRESHOLD:
                report.flagged.append({"context": (a, b), "statistic": stat})
    return report
