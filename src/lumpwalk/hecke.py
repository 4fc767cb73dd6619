"""Orbital matrices, bi-invariant weights and achievable lumped matrices.

The 0/1 orbital matrix of a double coset records the orbit of the group acting
diagonally on pairs of left cosets; their span is the commutant of the coset
action and is isomorphic to the algebra of bi-invariant weights.  A
stochastic matrix on cosets arises as a lumped transition matrix exactly when
it is invariant under the diagonal action, i.e. a non-negative combination of
orbital matrices.

Everything here reads double-coset sums of a weight and the table
`LumpingProblem.pair_classes` of the double coset of r_i^-1 r_j; no
group-algebra product is taken.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement
from .errors import DomainError
from .groups import gather, inverse
from .lumping import LumpingProblem


@dataclass(frozen=True)
class OrbitalMatrix:
    class_id: int
    representative: int
    matrix: tuple[tuple[int, ...], ...]


def orbital_matrices(problem: LumpingProblem) -> list[OrbitalMatrix]:
    """One 0/1 matrix per double coset; entry (gH, g'H) is 1 iff g^-1 g' lies in it."""
    table = problem.pair_classes
    return [
        OrbitalMatrix(cid, rep, tuple(tuple(int(c == cid) for c in row) for row in table))
        for cid, rep in enumerate(problem.double.representatives)
    ]


def hecke_project(problem: LumpingProblem, w: AlgebraElement) -> list:
    """eta_H w eta_H, a bi-invariant element, by its constant value on each
    double coset, in class id order: the class weight divided by the class
    size."""
    sizes = problem.double.sizes
    return [v / Fraction(sizes[cid]) for cid, v in enumerate(problem.double_coset_sums(w))]


def check_Q_characterization(problem: LumpingProblem, Q):
    """Decide whether Q is an achievable lumped matrix and realize it.

    Returns (True, coefficients, weight) where ``coefficients`` maps class id
    to the common entry of Q on that orbital and ``weight`` is a bi-invariant
    weight whose lumped matrix is Q; or (False, certificate, None) when Q is
    not invariant under the diagonal coset action.
    """
    m = problem.index
    rows = [list(map(Fraction, row)) for row in Q]
    if len(rows) != m or any(len(r) != m for r in rows):
        raise DomainError("lumped matrix has the wrong shape")
    for r in rows:
        if any(x < 0 for x in r):
            raise DomainError("lumped matrix has a negative entry")
        if sum(r) != 1:
            raise DomainError("lumped matrix row does not sum to 1")
    G = problem.group
    values: dict[int, Fraction] = {}
    for i, row in enumerate(problem.pair_classes):
        for j, cid in enumerate(row):
            if cid in values:
                if values[cid] != rows[i][j]:
                    certificate = {
                        "class": G.cycle_string(problem.double.representatives[cid]),
                        "entries": [str(values[cid]), str(rows[i][j])],
                        "position": [i, j],
                    }
                    return False, certificate, None
            else:
                values[cid] = rows[i][j]
    weight = AlgebraElement.zero(G)
    order_H = problem.subgroup.order
    for cid, q in values.items():
        if q:
            value = q / order_H  # one division per class, shared by its members
            for g in problem.double.classes[cid]:
                weight.coeffs[g] = value
    coefficients = [values[cid] for cid in range(problem.double.n_classes)]
    return True, coefficients, weight


def verify_hecke_isomorphism(problem: LumpingProblem) -> bool:
    """Check the isomorphism from bi-invariant weights to orbital matrices.

    The averaged basis element 1_C / |C| of class C maps to M_C / m_C, where
    m_C = |C| / |H| is the ones-count of a row.  Products of indicators
    expand as 1_A 1_B = sum_C N^C_AB 1_C with the counted structure constants
    N^C_AB = #{x in A : x^-1 r_C in B}, so the map is multiplicative exactly
    when |H| M_A M_B = sum_C N^C_AB M_C.  Entry (i, j) of M_A M_B counts the
    cosets k with (i, k) in orbital A and (k, j) in orbital B, and entry
    (i, j) of the right-hand side is N^C_AB for the orbital C of (i, j).
    """
    images, index, double = problem.group.images, problem.group.index, problem.double
    class_of = double.class_of
    n = double.n_classes
    reps = [images[r] for r in double.representatives]
    # structure[a][c] counts the classes b of x^-1 r_c over x in class a,
    # one gather of x^-1 per x
    structure = []
    for members in double.classes:
        counts = [Counter() for _ in reps]
        for x in members:
            x_inv_times = gather(inverse(images[x]))
            for count, r in zip(counts, reps):
                count[class_of[index[x_inv_times(r)]]] += 1
        structure.append(counts)
    order_H = problem.subgroup.order
    table = problem.pair_classes
    for row in table:
        for j, c in enumerate(row):
            paths = Counter((row[k], table[k][j]) for k in range(len(table)))
            if any(order_H * paths[a, b] != structure[a][c][b]
                   for a in range(n) for b in range(n)):
                return False
    return True
