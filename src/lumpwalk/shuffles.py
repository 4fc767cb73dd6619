"""Card-shuffle weight families on the symmetric group of deck positions.

Positions are numbered 1 (top) to n (bottom); a shuffle permutation sends the
card at position j to position j*g, so repeated shuffles multiply on the
right.  Lumping to the point stabilizer of position 1 tracks the value of the
top card.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement
from .errors import DomainError
from .groups import FiniteGroup


def _cycle(n: int, first: int, last: int) -> tuple[int, ...]:
    """The image tuple of the cycle (first, first+1, ..., last) on n points, 0-based."""
    images = list(range(n))
    images[first:last] = range(first + 1, last + 1)
    images[last] = first
    return tuple(images)


def symmetric_group(n: int) -> FiniteGroup:
    """Sym_n on n points with the standard transposition/cycle generators."""
    if n < 1:
        raise DomainError("need at least one point")
    if n == 1:
        return FiniteGroup.generate(1, [])
    return FiniteGroup.generate(n, [_cycle(n, 0, 1), _cycle(n, 0, n - 1)])


def top_stabilizer(G: FiniteGroup):
    """The subgroup fixing position 1 (the shuffles that keep the top card)."""
    n = G.degree
    return G.subgroup([_cycle(n, 1, 2), _cycle(n, 1, n - 1)] if n >= 3 else [])


def random_to_top(G: FiniteGroup) -> AlgebraElement:
    """Move a uniformly chosen card to the top (includes the lazy identity move)."""
    n = G.degree
    w = AlgebraElement.zero(G)
    p = Fraction(1, n)
    for k in range(1, n + 1):
        w.coeffs[G.id_of(_cycle(n, 0, k - 1))] += p
    return w


def top_to_random(G: FiniteGroup) -> AlgebraElement:
    """Move the top card to a uniformly chosen position; reverse of random-to-top."""
    return random_to_top(G).star()


def bottom_card_cycle(G: FiniteGroup) -> AlgebraElement:
    """Remove the bottom card, reinsert it below a uniformly chosen remaining
    card, then move the top card to the bottom.

    Inserting below the card at position k and then rotating the top card away
    sends position 1 to n, position n to k, positions 2..k down by one and
    leaves positions k+1..n-1 fixed.
    """
    n = G.degree
    if n < 3:
        raise DomainError("the two-step shuffle needs at least three cards")
    w = AlgebraElement.zero(G)
    p = Fraction(1, n - 1)
    for k in range(1, n):
        images = [0] * n
        images[0] = n - 1
        images[n - 1] = k - 1
        for j in range(2, k + 1):
            images[j - 1] = j - 2
        for j in range(k + 1, n):
            images[j - 1] = j - 1
        w.coeffs[G.id_of(tuple(images))] += p
    return w
