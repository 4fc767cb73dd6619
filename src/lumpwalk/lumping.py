"""Decision procedures for lumping a left-invariant walk to left cosets.

Everything here is exact.  A `LumpingProblem` builds each coset table once:
the left cosets of H, with the position in H of r^-1 x for each x in a coset
rH, the double cosets HxH as unions of those left cosets, and the right
cosets only when first read (the exact test and `cosets --side right`).
It also keeps the cut of the last L_w it has closed, by the integral form
of the weight (`compute_Lw`), so a request that asks for one L_w twice
closes it, and tests the weight for irreducibility, once.

The two ideal computations follow the product structure of induced ideals:
an induced left ideal is determined by its cut down to the subgroup algebra,
so the fixpoint iterations run on vectors of length |H|.  Right
multiplication by the driving weight is read from a per-weight action table,
built once per ideal computation: for each subgroup element h and each g in
the support of w, the left coset of h g and the position of h g inside it.
So u w is computed as its coset components, never as a product in the group
algebra.

Every criterion here is homogeneous linear in w or e, so no verdict changes
when an element is multiplied by a positive number: every exact kernel reads
the integral form (D, D w) of `_integer_element`, D the lcm of the
denominators of a rational w and 1 for a cyclotomic one, and compares its
results up to D.  The cuts of L_w and L_alpha, and the annihilator of that
of J_w, are all grown by `close_H_ideal` on `linalg.IntegerRows`, seeded
with the all-ones vector |H| eta_H (and the coset components of a start),
and each gets one canonical echelon when its closure ends: the forward one,
or for L_{w*} the one `nullspace` reads.  The cut of J_w is the nullspace
of the cut of L_{w*}, for the reversed weight w*(g) = w(g^-1), plus eta_H,
and the whole subgroup algebra for a weight that lumps strongly (proved at
`compute_Jw`).  A `GurvitsLedouxIdeal` keeps the forward echelon of its
cut: reports, dimensions and membership read those integer rows, and only
the certificate of a false weak verdict, one row, is written over the
rationals.

No command takes a product in the group algebra.  The strong and exact
tests read the coset sums of D w, and the lumped matrix the double-coset
sums of w, the lumped matrix and `hecke` the table `pair_classes` of the
double coset of r_i^-1 r_j, and the abelian test its pairings off D w on
each double coset, summed in integers over an integral power table.
One cut kernel, `_first_cut_violation`, evaluates u z for
z = (1 - eta_H) w eta_H at one representative per left coset: for the weak
verdict, for the cut condition e z = 0 of the stable-ideal check, which
takes any element w, and for condition (b) eta_T z = 0 of the interpolation
test, whose condition (a) is the exact test for (G, T).  It reads |HgH| z,
with no division, from the coset sums of D w.  The E_• check and the ideal
condition e w (1-e) = 0 read the action tables of D e and D w, and
Theta(e) has its dimension as a sum of traces read off e, summed per left
coset of each double coset and per conjugacy class of H, so all
elimination is over Q.  The law of the state given a coset history
(`conditional_law`) is one forward filter on the group, read off the left
coset table: no chain is built.  The dense forms remain as references in
`tests/test_properties.py` and `tests/reference.py`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    AlgebraElement,
    abelian_characters,
    character_idempotent,
    coset_sums,
    eta,
)
from .errors import DomainError, InvariantError
from .groups import FiniteGroup, Subgroup, cosets, double_cosets, gather, inverse
from .linalg import IntegerRows, closure, nullspace
from .scalars import common_field, cyclotomic_field, format_ratio, integral_form


def _integer_element(w: AlgebraElement) -> tuple[int, AlgebraElement]:
    """The integral form (D, D w), the one place where an exact kernel
    scales an element: for a rational w, D is the lcm of the denominators on
    its support, and D w has `int` coefficients, so its action table, coset
    components and coset sums are integers; a cyclotomic w, whose scalars do
    not divide, is (1, w).  D > 0, so D w has the verdicts of w."""
    if w.field.kind != "rational":
        return 1, w
    support = list(w.support())
    scale, numerators = integral_form(c for _, c in support)
    coeffs = [0] * w.group.order
    for (i, _), m in zip(support, numerators):
        coeffs[i] = m
    return scale, AlgebraElement(w.group, coeffs)


class LumpingProblem:
    """A pair (G, H) with its coset geometry and averaging element cached."""

    def __init__(self, G: FiniteGroup, H: Subgroup):
        if H.parent is not G:
            raise DomainError("subgroup does not belong to the group")
        self.group = G
        self.subgroup = H
        self.left = cosets(G, H, "left")
        self.double = double_cosets(G, H, self.left)
        # (the integral form of w, the cut of L_w, its certificate or None), last closed
        self._last_Lw: tuple[tuple, IntegerRows, AlgebraElement | None] | None = None

    @property
    def index(self) -> int:
        return self.left.n_cosets

    @cached_property
    def eta_H(self) -> AlgebraElement:
        """The averaging element of H, dense over G, built when first read."""
        return eta(self.group, self.subgroup)

    @cached_property
    def right(self):
        """The right coset decomposition, built when first read (`test_exact`,
        `cosets --side right`)."""
        return cosets(self.group, self.subgroup, "right")

    @cached_property
    def pair_classes(self) -> tuple[tuple[int, ...], ...]:
        """Entry (i, j) is the double coset of r_i^-1 r_j, for left-coset representatives r."""
        G, class_of = self.group, self.double.class_of
        reps = self.left.representatives
        return tuple(tuple(class_of[G.mul(inv, rj)] for rj in reps) for inv in map(G.inv, reps))

    def double_coset_sums(self, w: AlgebraElement) -> list:
        """The weight w(HxH) of each double coset, by class id."""
        sums = [w.field.zero] * self.double.n_classes
        for i, c in w.support():
            cid = self.double.class_of[i]
            sums[cid] = sums[cid] + c
        return sums

    # -- vectors over the subgroup algebra -------------------------------------

    def from_H_vector(self, vec) -> AlgebraElement:
        out = AlgebraElement.zero(self.group)
        for pos, c in enumerate(vec):
            if c:
                out.coeffs[self.subgroup.members[pos]] = c
        return out

    def coset_components(self, elem: AlgebraElement) -> list[list]:
        """Per left coset bH, the vector of b^-1 pi_bH(elem) over the subgroup."""
        coset_of, position = self.left.coset_of, self.left.position
        out = [[elem.field.zero] * self.subgroup.order for _ in range(self.index)]
        for i, c in elem.support():
            out[coset_of[i]][position[i]] = c
        return out

    def weight_action(self, w: AlgebraElement) -> list[list[tuple]]:
        """Right multiplication by w on the subgroup basis, as a table.

        Entry p lists, for each (g, w(g)) in the support of w, the left coset
        id c of h_p g, the subgroup position of r_c^-1 h_p g and w(g): one
        composition h_p g per entry, and the rest read off the coset table.
        """
        images, index = self.group.images, self.group.index
        coset_of, position = self.left.coset_of, self.left.position
        support = [(images[g], c) for g, c in w.support()]
        table = []
        for h in self.subgroup.members:
            h_times = gather(images[h])
            entries = []
            for g, c in support:
                x = index[h_times(g)]  # h g
                entries.append((coset_of[x], position[x], c))
            table.append(entries)
        return table

    def times_weight(self, action: list[list[tuple]], vec) -> list[list]:
        """The coset components of u w for an H-vector u, from the action table of w.

        The entries are sums of products of those of u and of the table, so
        the same code serves rational and integer vectors and tables.
        """
        out = [[0] * self.subgroup.order for _ in range(self.index)]
        for c, entries in zip(vec, action):
            if c:
                for cid, pos, value in entries:
                    comp = out[cid]
                    comp[pos] = comp[pos] + c * value
        return out

    @cached_property
    def _H_generator_perms(self) -> tuple[tuple[int, ...], ...]:
        """Left multiplication by each subgroup generator as an index map.

        H is the left coset of the identity, its own representative, so the
        coset table gives the position of each member.  One gather per
        generator composes it with every member.
        """
        images, index, position = self.group.images, self.group.index, self.left.position
        members = [images[h] for h in self.subgroup.members]
        return tuple(
            tuple(position[index[g_times(h)]] for h in members)
            for g_times in (gather(images[g]) for g in self.subgroup.generators)
        )

    def close_H_ideal(self, seeds, integral: AlgebraElement, last: bool = False) -> IntegerRows:
        """Smallest left ideal of the subgroup algebra containing the seed
        vectors and closed under u -> each coset component of u w.

        It grows the cut of L_w (seeded with the all-ones vector), of L_alpha
        (and the coset components of alpha) and, as the cut of L_{w*}, the
        annihilator of the cut of J_w.  It is spun on `IntegerRows` under the
        action table of ``integral``, the integral form D w that the caller
        took (`_integer_element`), with each seed in its `integral_form`:
        nonzero multiples of a map or a seed give the same closure.  It
        returns the store's canonical `echelon`: the forward one that reports
        read, or with ``last`` the one `nullspace` reads.

        Left multiplications by the generators of H are the translations of
        `linalg.closure`, and the coset components of u w its successors, so
        a translate k u gets no coset components of its own: if
        k r_c = r_d h_c, the coset-d component of (k u) w is h_c times the
        coset-c component of u w, a translate of a vector the closure holds.
        """
        # k u holds u_p at the position of k h_p: it gathers u by the map of k^-1
        translations = [gather(inverse(perm)) for perm in self._H_generator_perms]
        table = self.weight_action(integral)
        seed_rows = IntegerRows(self.subgroup.order, (integral_form(v)[1] for v in seeds),
                                last=last)
        return closure(seed_rows, lambda u: self.times_weight(table, u),
                       lambda u: (k_inv(u) for k_inv in translations)).echelon()


@dataclass
class GurvitsLedouxIdeal:
    """An induced left ideal described by its cut to the subgroup algebra,
    held as the canonical forward echelon of an `IntegerRows` (`cut`): each
    row the canonical RREF row times the positive integer that makes it
    primitive.  Reports, the dimension and membership read it as it stands.

    The cut and the certificate of an ideal from `compute_Lw` are shared
    with the problem's last kept L_w (and any ideal built from it): treat
    them as read-only."""

    problem: LumpingProblem
    cut: IntegerRows
    weakly_lumping: bool
    cut_violation: AlgebraElement | None = None  # first cut row u with u (1 - eta_H) w eta_H != 0

    @property
    def dim(self) -> int:
        return self.problem.index * self.cut.dim

    def contains(self, elem: AlgebraElement) -> bool:
        """Membership of a rational element of C[G]: each of its coset
        components, in its `integral_form`, has a zero residue by the cut.  A
        canonical echelon is a semi-echelon, so `IntegerRows.reduce` serves."""
        reduce = self.cut.reduce
        return all(not any(reduce(integral_form(comp)[1]))
                   for comp in self.problem.coset_components(elem))


# ---------------------------------------------------------------------------
# strong and exact lumping


def _cosets_by_class(problem: LumpingProblem, decomposition) -> list[list[int]]:
    """The coset ids of one side in each double coset, by class id: every
    coset lies inside one double coset, keyed by its representative."""
    by_class = [[] for _ in range(problem.double.n_classes)]
    for coset_id, rep in enumerate(decomposition.representatives):
        by_class[problem.double.class_of[rep]].append(coset_id)
    return by_class


def _double_coset_constancy(problem: LumpingProblem, sums: list, side: str, scale: int):
    """Check that the coset weights `sums` of one side, those of D w for
    D = `scale`, are constant within each double coset; the certificate
    prints the sums of w itself."""
    decomposition = problem.left if side == "left" else problem.right
    name = problem.group.cycle_string
    for cid, members in enumerate(_cosets_by_class(problem, decomposition)):
        if any(sums[k] != sums[members[0]] for k in members[1:]):
            pair = sorted(members, key=sums.__getitem__)
            ends = (pair[0], pair[-1])
            return False, {
                "double_coset": name(problem.double.representatives[cid]),
                "cosets": [name(decomposition.representatives[k]) for k in ends],
                "sums": [format_ratio(sums[k], scale) for k in ends],
            }
    return True, None


def _one_sided_test(problem: LumpingProblem, w: AlgebraElement, side: str):
    """Coset weights on one side constant within each double coset.

    The coset sums of the integral form (D, D w) are taken once, and both
    criteria read them: the constancy itself, and the equivalent algebraic
    condition that the obstruction of `_cut_coset_values` for the same side
    vanishes.  Neither changes when w is scaled, and D > 0 keeps the order of
    the sums.  The two answers are required to agree.
    """
    scale, w = _integer_element(w.require_weight())
    sums = coset_sums(w, problem.left if side == "left" else problem.right)
    verdict, certificate = _double_coset_constancy(problem, sums, side, scale)
    if any(_cut_coset_values(problem, sums, side)) == verdict:
        kind = "strong" if side == "left" else "exact"
        raise InvariantError(f"{kind}-lumping criteria disagree")
    return verdict, certificate


def test_strong(problem: LumpingProblem, w: AlgebraElement):
    """Strong lumping: left-coset weights constant within each double coset,
    equivalently (1 - eta_H) w eta_H == 0."""
    return _one_sided_test(problem, w, "left")


def test_exact(problem: LumpingProblem, w: AlgebraElement):
    """Exact lumping: right-coset weights constant within each double coset,
    equivalently eta_H w (1 - eta_H) == 0."""
    return _one_sided_test(problem, w, "right")


# ---------------------------------------------------------------------------
# stable ideals from idempotents


def require_E_bullet(problem: LumpingProblem, e: AlgebraElement) -> AlgebraElement:
    """e itself if it lies in E_•: supported on H, idempotent, and eta_H e = eta_H."""
    _E_bullet_action(problem, e)
    return e


def _E_bullet_action(problem: LumpingProblem, e: AlgebraElement) -> tuple[int, list, list]:
    """(D, the action table of D e, the vector D u of e over H) for the
    integral form of e (`_integer_element`), once e is checked to lie in E_•.

    Read off u without a product in the group algebra: e e = u e has the
    coset components `times_weight(weight_action(e), u)`, all zero but that
    of H, which is e e itself; on the integral form, (D u)(D e) = D (D u)
    exactly when e e = e.  eta_H e is the coefficient sum of e times eta_H,
    as eta_H h = eta_H for h in H.
    """
    if not all(i in problem.subgroup for i in e.support_ids()):
        raise DomainError("idempotent is not supported on the subgroup")
    scale, e = _integer_element(e)
    u = problem.coset_components(e)[0]
    action = problem.weight_action(e)
    if problem.times_weight(action, u)[0] != [scale * c for c in u]:
        raise DomainError("element is not idempotent")
    if e.total() != scale:
        raise DomainError("idempotent does not average to eta_H (eta_H e != eta_H)")
    return scale, action, u


def stable_ideal_check(problem: LumpingProblem, w: AlgebraElement, e: AlgebraElement):
    """Whether w lumps stably for the ideal generated by e.

    Returns (verdict, failed) where failed names the violated condition:
    "ideal-not-stable" for e w (1-e) != 0, "cut-not-stable" for
    (e - eta_H) w eta_H != 0.  w may be any element, rational or cyclotomic:
    the w that pass form the linear space Theta(e).

    With u the vector of e over H: (i) right multiplication by C[H] keeps
    each left coset, so e w (1-e) = 0 iff x (1-e) = 0 for every coset
    component x of e w = u w (`times_weight`), with D (x e) read off the
    action table of D e that the E_• check built.  (ii) As e eta_H = eta_H
    (see `theta_dimension`), (e - eta_H) w eta_H = e z for
    z = (1 - eta_H) w eta_H: the cut kernel.  Both conditions keep their
    truth when u or w is scaled, so w is read in its integral form too,
    taken once for both.
    """
    scale, e_action, u = _E_bullet_action(problem, e)
    common_field(w.field, e.field)  # mixed cyclotomic orders are a DomainError
    integral = _integer_element(w)[1]
    w_action = problem.weight_action(integral)
    failed = []
    if any(problem.times_weight(e_action, x)[0] != [scale * c for c in x]
           for x in problem.times_weight(w_action, u) if any(x)):
        failed.append("ideal-not-stable")
    if _first_cut_violation(problem, integral, [u]) is not None:
        failed.append("cut-not-stable")
    return not failed, failed


def time_reversal_dual_idempotent(problem: LumpingProblem, e: AlgebraElement) -> AlgebraElement:
    """The idempotent 1 - e* + eta_H generating the stable ideal of the reversed walk."""
    e = require_E_bullet(problem, e)
    dual = AlgebraElement.one(problem.group, e.field) - e.star() + problem.eta_H.to_field(e.field)
    return require_E_bullet(problem, dual)


# ---------------------------------------------------------------------------
# the minimal ideal and the weight-level weak lumping test


def _cut_coset_values(problem: LumpingProblem, sums: list, side: str = "left") -> list:
    """|HgH| z(g) = k w(gH) - w(HgH) for z = (1 - eta_H) w eta_H on side
    "left", |HgH| z(g) = k w(Hg) - w(HgH) for z = eta_H w (1 - eta_H) on side
    "right", by coset id, from the coset sums `sums` of w on that side
    (`coset_sums`), with k the number of cosets of that side in HgH.

    The left one is the obstruction used by the weak verdicts.  w eta_H
    spreads w(gH) evenly over the coset gH, eta_H w spreads w(Hg) evenly over
    Hg, and eta_H w eta_H spreads w(HgH) evenly over the double coset HgH, so
    z(g) = w(gH)/|H| - w(HgH)/|HgH| on the left and
    z(g) = w(Hg)/|H| - w(HgH)/|HgH| on the right.  A double coset is a union
    of k cosets of either side, so |HgH| = k |H| and w(HgH) is the sum of the
    coset sums inside it.  The factor |HgH| leaves no division, and a
    positive factor per double coset changes no zero pattern (proof at
    `_first_cut_violation`).
    """
    decomposition = problem.left if side == "left" else problem.right
    values = [None] * decomposition.n_cosets
    for members in _cosets_by_class(problem, decomposition):
        total = sum(sums[k] for k in members)
        for k in members:
            values[k] = len(members) * sums[k] - total
    return values


def _first_cut_violation(problem: LumpingProblem, w: AlgebraElement, rows) -> int | None:
    """The index of the first H-vector u of `rows` with u z != 0, for
    z = (1 - eta_H) w eta_H, or None: the one cut kernel, of the weak verdict,
    of `stable_ideal_check` and of condition (b) of `interpolation_test`.

    z is constant on left cosets, so u z vanishes iff
    (u z)(r_j) = sum_p u_p z(h_p^-1 r_j) does at every left-coset
    representative r_j.  z(h^-1 r_j) is the value of z on the left coset
    r_k H with h r_k in r_j H, so one gather of h per member, on the
    representatives, gives the row of h without inverting h.  It reads z
    times |HgH| on each double coset HgH, from `_cut_coset_values` of w.
    As h_p^-1 r_j lies in H r_j H, the sum at r_j reads z only on H r_j H,
    so a positive factor per double coset scales it as a whole and changes
    no zero pattern; so does a positive multiple of w, and each caller hands
    its integral form D w (`_integer_element`), taken once per call, so a
    rational w sums integers.
    """
    values = _cut_coset_values(problem, coset_sums(w, problem.left))
    if not any(values):
        return None
    images, index, coset_of = problem.group.images, problem.group.index, problem.left.coset_of
    reps = [images[r] for r in problem.left.representatives]
    # z(h_p^-1 r_j), per subgroup position p and coset id j
    shifted = []
    for h in problem.subgroup.members:
        h_times, zs = gather(images[h]), [0] * problem.index
        for z, r in zip(values, reps):
            zs[coset_of[index[h_times(r)]]] = z
        shifted.append(zs)
    for i, row in enumerate(rows):
        at_reps = [0] * problem.index
        for c, zs in zip(row, shifted):
            if c:
                for j, z in enumerate(zs):
                    if z:
                        at_reps[j] += c * z
        if any(at_reps):
            return i
    return None


def _irreducible(integral: AlgebraElement) -> AlgebraElement:
    """The integral form D w of a weight, once checked to be irreducible: its
    support, that of w, generates the group."""
    if not integral.is_irreducible_weight():
        raise DomainError("weight is reducible (support does not generate the group); "
                          "use the generic per-start test instead")
    return integral


def _minimal_ideal(problem: LumpingProblem, integral: AlgebraElement,
                   alpha: AlgebraElement | None) -> tuple[IntegerRows, AlgebraElement | None]:
    """The cut of the minimal induced ideal containing eta_G (and alpha, if
    given), stable under w, from the integral form D w, and the certificate of
    a false weak verdict, or None.

    The obstruction is evaluated once per basis row of the cut: the first row u
    with u (1 - eta_H) w eta_H != 0 decides the verdict and is its certificate.
    """
    seeds = [[1] * problem.subgroup.order]  # eta_H, scaled by |H|
    if alpha is not None:
        seeds += problem.coset_components(alpha.require_distribution())
    cut = problem.close_H_ideal(seeds, integral)
    violation = _first_cut_violation(problem, integral, cut.rows)
    if violation is None:
        return cut, None
    row = cut.rows[violation]  # the canonical RREF row, over the rationals
    lead = row[cut.pivots[violation]]
    return cut, problem.from_H_vector([Fraction(c, lead) for c in row])


def compute_Lw(problem: LumpingProblem, w: AlgebraElement) -> GurvitsLedouxIdeal:
    """Minimal induced ideal containing the uniform element and stable under w.

    The problem keeps the cut and certificate of the last weight it has
    closed, by its integral form: a request that asks for the same L_w twice
    in a row (`test-dist`, through `compute_Jw`) closes it and tests its
    irreducibility once, and a problem holds one cut at most.  The kept
    entry holds no `GurvitsLedouxIdeal`, whose ``problem`` field would close
    a reference cycle through the problem, so a problem is freed by
    reference counting as soon as its last user lets go.  The returned cut
    and certificate are the kept ones, shared and read-only.
    """
    integral = _integer_element(w.require_weight())[1]
    key = tuple(integral.coeffs)
    if problem._last_Lw is None or problem._last_Lw[0] != key:
        _irreducible(integral)
        problem._last_Lw = (key, *_minimal_ideal(problem, integral, None))
    _, cut, violation = problem._last_Lw
    return GurvitsLedouxIdeal(problem, cut, violation is None, violation)


def test_weak_weight(problem: LumpingProblem, w: AlgebraElement):
    """Weak lumping of the walk for some start distribution (via the minimal ideal)."""
    ideal = compute_Lw(problem, w)
    if ideal.weakly_lumping:
        return True, ideal, None
    return False, ideal, {"violating_cut_element": repr(ideal.cut_violation)}


def compute_L_alpha_w(problem: LumpingProblem, w: AlgebraElement, alpha: AlgebraElement):
    """Minimal induced ideal containing a start distribution; verdict for that start."""
    integral = _irreducible(_integer_element(w.require_weight())[1])
    cut, violation = _minimal_ideal(problem, integral, alpha)
    return GurvitsLedouxIdeal(problem, cut, violation is None, violation), violation is None


# ---------------------------------------------------------------------------
# the maximal ideal and the distribution-level test


def compute_Jw(problem: LumpingProblem, w: AlgebraElement) -> GurvitsLedouxIdeal:
    """Maximal induced ideal certifying weak lumping; start sets are its simplex.

    Its cut is C + Q eta_H, with C the largest subspace of {u : sum u = 0}
    such that u M_c lies in C for every u in C and every coset id c, where
    u M_c is the coset-c component of u w.  C is the nullspace, under the
    plain dot product, of the cut A of L_{w*}, the minimal ideal of the
    reversed walk w*(g) = w(g^-1): `close_H_ideal` of the all-ones vector.

    Proof.  Write h_p for the subgroup members, r_c for the coset
    representatives, M_x[p][q] = w(h_p^-1 x h_q) for x in G, so that
    M_c = M_{r_c}, and (k a)[p] = a[position of k^-1 h_p] for the left
    translate of a vector a by k in H.  Then
      (1) (M_x a)[p] = sum_q a_q w*(h_q^-1 x^-1 h_p), the coset-c component
          of a w* when x = r_c^-1;
      (2) M_{k x k'} a = k (M_x (k' a)) for k, k' in H, so a space closed
          under translation by H and under a -> M_x a is closed under
          a -> M_y a for every y in HxH.  Both the r_c and the r_c^-1 meet
          every double coset, as inversion permutes the double cosets.
    (i) C^perp is the smallest subspace that contains the all-ones vector
    and is closed under a -> M_c a, since (u M_c) . a = u . (M_c a): the
    annihilator of that subspace is sum-zero and closed under u -> u M_c,
    so lies in C, and C^perp contains the all-ones vector and is closed.
    (ii) C^perp is closed under translation by H.  For u in C and k in H,
    (k u) M_{r_c} = u M_{k^-1 r_c}, and with k^-1 r_c = r_d k' this is
    k'^-1 (u M_{r_d}).  So the span of the translates of C is sum-zero and
    closed under every u -> u M_c: it lies in C by maximality.  As
    (k a) . u = a . (k^-1 u), C^perp is closed under translation too.
    (iii) By (ii) and (2), C^perp is closed under every a -> M_x a, so by
    (1) under the maps of L_{w*}: A lies in C^perp.  A is closed under
    translation and, by (1), under a -> M_x a for x = r_c^-1; by (2) then
    also for x = r_c, so C^perp lies in A by (i).  Hence A = C^perp.

    A is spun with ``last``, so its one canonical echelon, built when the
    closure ends, is the form `nullspace` reads.  Whether an image grows the
    span does not depend on the pivot order, so the worklist, the inserts
    and their yields are those of the forward closure.

    A weight that lumps strongly needs no closure: J_w is all of C[G], and
    its cut the identity.  Strong lumping (`test_strong`) is
    z = (1 - eta_H) w eta_H = 0.  As eta_H* = eta_H, z* =
    eta_H w* (1 - eta_H), so w* lumps exactly: eta_H w* = eta_H w* eta_H is
    constant on each left coset, and every coset component of
    (Q 1) w* = (Q eta_H) w* lies in Q 1, as do the translates of 1.  So
    A = Q 1, C = A^perp is all of {u : sum u = 0}, and C + Q eta_H is the
    whole subgroup algebra.
    """
    weak, _, _ = test_weak_weight(problem, w)
    if not weak:
        raise DomainError("weight does not lump weakly: the maximal ideal is undefined")
    n = problem.subgroup.order
    if test_strong(problem, w)[0]:
        return GurvitsLedouxIdeal(problem, IntegerRows.identity(n), weakly_lumping=True)
    reversed_weight = _integer_element(w.require_weight().star())[1]
    rows = nullspace(problem.close_H_ideal([[1] * n], reversed_weight, last=True), n)
    rows.insert([1] * n)  # eta_H, scaled by |H|
    return GurvitsLedouxIdeal(problem, rows.echelon(), weakly_lumping=True)


def test_weak_distribution(problem: LumpingProblem, w: AlgebraElement, alpha: AlgebraElement):
    """Whether the walk started at alpha lumps weakly: membership in the maximal ideal."""
    alpha = alpha.require_distribution()
    weak, _, _ = test_weak_weight(problem, w)
    if not weak:
        return False, None
    jw = compute_Jw(problem, w)
    return jw.contains(alpha), jw


# ---------------------------------------------------------------------------
# interpolation between the strong and exact criteria


def interpolation_test(problem: LumpingProblem, T: Subgroup, w: AlgebraElement):
    """Stable lumping for the ideal generated by the averaging element of T <= H.

    Condition (a): the walk lumps exactly to left cosets of T, that is
    eta_T w (1 - eta_T) = 0 (`test_exact` for the pair (G, T)).
    Condition (b): w(TgH) is proportional to double-coset size within each
    HgH: eta_T w eta_H is w(TgH)/|TgH| on TgH, eta_H w eta_H is w(HgH)/|HgH|
    on HgH, so (b) is (eta_T - eta_H) w eta_H = 0, or eta_T z = 0 for the
    z of the cut kernel, as eta_T eta_H = eta_H.
    """
    H = problem.subgroup
    if not H.contains_subgroup(T):
        raise DomainError("inner subgroup is not contained in the lumping subgroup")
    w = w.require_weight()
    G = problem.group
    failed = []
    if not test_exact(LumpingProblem(G, T), w)[0]:
        failed.append("not-exact-to-inner-cosets")
    eta_T = problem.coset_components(eta(G, T))[0]  # a vector over the subgroup, as T <= H
    if _first_cut_violation(problem, _integer_element(w)[1], [eta_T]) is not None:
        failed.append("unbalanced-double-coset-mass")
    return not failed, failed


# ---------------------------------------------------------------------------
# dimension of the stable-compatibility algebra of an idempotent


def _conjugacy_classes(H: Subgroup) -> list[list[int]]:
    """The conjugacy classes of H as lists of member ids: the orbits of
    conjugation by the generators of H, in order of their least member."""
    G = H.parent
    conjugations = [(G.inv(s), s) for s in H.generators]
    seen, classes = set(), []
    for h in H.members:
        if h in seen:
            continue
        seen.add(h)
        orbit = [h]
        for x in orbit:  # grows while it is read
            for s_inv, s in conjugations:
                y = G.mul(G.mul(s_inv, x), s)  # s^-1 x s
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        classes.append(orbit)
    return classes


def theta_dimension(problem: LumpingProblem, e: AlgebraElement):
    """Dimension of Theta(e) = {w : e w (1-e) = 0 and (e - eta_H) w eta_H = 0}.

    Returns (dimension, per_class) where per_class lists, by double-coset id,
    the number of independent constraints the class contributes; the
    dimension is |G| minus their sum.  The count of the class HxH is a trace,
    read off the coefficients of e without a product in the group algebra,
    as a sum over the representatives r of the left cosets rH inside HxH and
    the conjugacy classes of H:
      c(HxH) = sum over r and h in supp e with y = r^-1 h^-1 r in H of
               e(h) (|H| delta_{h,1} + 1 - |H| e(cl(y)) / |cl(y)|),  minus 1,
    with cl(y) the conjugacy class of y in H and e(cl) the sum of e over it.
    That is |G:H| |supp e| compositions, not |G| |supp e|.

    Proof.  Write eta = eta_H, A(w) = e w (1-e) and B(w) = (e - eta) w eta.
    As e lies in C[H], eta e = e eta = s eta for the coefficient sum s of e,
    so eta e = eta (`require_E_bullet`) gives e eta = eta.  Hence 1 - e and
    eta are orthogonal idempotents, and e - eta is idempotent.
    (i) e and eta lie in C[H], so A and B map each C[HxH] into itself:
    Theta(e) is the sum of its parts in the C[HxH], and the class counts the
    rank of w -> (A(w), B(w)) on C[HxH].
    (ii) A and B are idempotent maps with A B = B A = 0, as eta (1-e) = 0 and
    (1-e) eta = 0.  So A + B is idempotent, and (A + B) w = 0 gives
    A w = A (A + B) w = 0 and B w = 0: the rank of the pair is that of A + B,
    which, being idempotent, is its trace.
    (iii) In the basis of the elements g of HxH, the coefficient of g in
    A(g) = e g - e g e is e(1) - sum_h e(h) e(h'), and in
    B(g) = e g eta - eta g eta it is sum_h e(h)/|H| - |H n gHg^-1|/|H|^2,
    with h' = g^-1 h^-1 g and h running over the h in H whose h' lies in H.
    As h' = 1 exactly when h = 1, e(1) = sum_h e(h) delta_{h',1}, so the
    trace is the sum over g in HxH and those h of
    e(h) (delta_{h',1} - e(h') + 1/|H|), minus the sum of the last terms.
    For g = a x b with a, b in H, H n gHg^-1 = a (H n xHx^-1) a^-1, and
    |HxH| |H n xHx^-1| = |H|^2 (the counting identity checked by
    `double_cosets`): the last terms sum to 1.
    (iv) Write g = r k with k in H.  Then h' = k^-1 y k, which lies in H
    exactly when y does, so the h that count depend on r alone.  As k runs
    over H, k^-1 y k runs |H| / |cl(y)| times over cl(y), and it is 1 only if
    y = 1, that is h = 1.  Summed over k, the term of (iii) is
    e(h) (|H| delta_{h,1} - |H| e(cl(y)) / |cl(y)| + 1): the formula above.
    The classes are the orbits of conjugation by the generators of H, which
    generate the group of inner automorphisms of H.
    The count is a rank, so a trace that is not an integer is an error of the
    program and raises `InvariantError`.
    """
    e = require_E_bullet(problem, e)
    G, H, left = problem.group, problem.subgroup, problem.left
    field, coeffs, images, index = e.field, e.coeffs, G.images, G.index
    classes = _conjugacy_classes(H)
    class_of = {h: number for number, members in enumerate(classes) for h in members}
    # e(cl) / |cl| per class, times 1/n: a cyclotomic scalar has no division
    averages = [sum(coeffs[h] for h in members) * Fraction(1, len(members)) for members in classes]
    inverses = [(gather(images[G.inv(h)]), h) for h in e.support_ids()]
    per_class = []
    for members in _cosets_by_class(problem, left):
        hits = Counter()  # (h, cl(y)) -> the number of representatives r with that class
        for r in (left.representatives[k] for k in members):
            r_img = images[r]
            r_inv_times = gather(images[G.inv(r)])
            for h_inv_times, h in inverses:
                y = index[r_inv_times(h_inv_times(r_img))]  # r^-1 h^-1 r
                if y in class_of:
                    hits[h, class_of[y]] += 1
        trace = field.zero
        for (h, number), n in hits.items():
            trace = trace + n * coeffs[h] * (H.order * int(h == 0) + 1 - H.order * averages[number])
        count = trace - 1
        if not field.is_rational_value(count) or field.rational_value(count).denominator != 1:
            raise InvariantError(f"theta constraint count {count} is not an integer")
        per_class.append(int(field.rational_value(count)))
    return G.order - sum(per_class), per_class


# ---------------------------------------------------------------------------
# the abelian-subgroup linear-system test


def abelian_weak_test(problem: LumpingProblem, w: AlgebraElement):
    """Certify weak lumping by a subset of characters (abelian H only).

    For characters chi_b, chi_c and a double-coset representative x the
    pairing <e_b x e_c, w> is (1/(|G||H|^2)) sum_{h,h'} zeta^(chi_b(h) + chi_c(h')) w(h x h'),
    so it only reads w on HxH.  A subset P containing the trivial character 0
    certifies weak lumping iff every pairing from b in P to c outside P
    vanishes, and so does every pairing from b != 0 in P to 0.  Write b -> c
    when some pairing for (b, c) is nonzero: the certifying sets are the sets
    closed under -> that avoid the forbidden characters b != 0 with b -> 0.
    They are closed under intersection, so the smallest one is the closure of
    the trivial character under nonzero double-coset pairings, and the walk
    lumps weakly iff that closure avoids the forbidden characters.  For a
    rational weight, conjugating b and c conjugates the pairing, so the closure
    is closed under complex conjugation already: asking for a
    conjugation-closed certificate cannot change the answer.

    Returns (verdict, P, e_P) with P the sorted closure and e_P the sum of
    its character idempotents, or (False, None, None).
    """
    H = problem.subgroup
    m, chars = abelian_characters(H)
    w = w.require_weight()
    if not w.is_irreducible_weight():
        raise DomainError(
            "weight is reducible (support does not generate the group); "
            "the character-subset criterion requires an irreducible weight"
        )
    images, index = problem.group.images, problem.group.index
    field = cyclotomic_field(m)
    exponents = [[chi[h] for h in H.members] for chi in chars]
    # whether a pairing vanishes does not change when w is scaled: read w as integers
    values = _integer_element(w)[1].coeffs
    # per double coset HxH, the nonzero entries (i, j, w(h_i x h_j)) of its |H| x |H| table,
    # one gather per left factor h_i and h_i x
    h_gathers = [gather(images[h]) for h in H.members]
    members = [images[k] for k in H.members]
    tables = []
    for x in problem.double.representatives:
        table = []
        for i, h_times in enumerate(h_gathers):
            hx_times = gather(h_times(images[x]))
            for j, k in enumerate(members):
                value = values[index[hx_times(k)]]
                if value:
                    table.append((i, j, value))
        tables.append(table)

    def pairs_nonzero(b: int, c: int) -> bool:
        """Whether <e_b x e_c, w> != 0 for some double-coset representative x."""
        vb, vc = exponents[b], exponents[c]
        for table in tables:
            buckets = [0] * m
            for i, j, value in table:
                buckets[(vb[i] + vc[j]) % m] += value
            if not field.power_sum(buckets).is_zero():
                return True
        return False

    closure, frontier = {0}, [0]
    while frontier:
        b = frontier.pop()
        if b and pairs_nonzero(b, 0):
            return False, None, None
        for c in range(len(chars)):
            if c not in closure and pairs_nonzero(b, c):
                closure.add(c)
                frontier.append(c)
    P = tuple(sorted(closure))
    e_P = character_idempotent(H, chars[0], m)
    for b in P[1:]:
        e_P = e_P + character_idempotent(H, chars[b], m)
    return True, P, e_P


# ---------------------------------------------------------------------------
# the lumped matrix and the lumping function


def walk_lumped_matrix(problem: LumpingProblem, w: AlgebraElement):
    """Lumped transition matrix of the stationary walk over left cosets.

    Row gH, column g'H holds (eta_H w)(g^-1 g' H) for the normalized weight;
    this is the aggregated matrix of the walk under the uniform law.  The
    cosets hxH, h in H, cover HxH evenly, so (eta_H w)(xH) = |H| w(HxH)/|HxH|.
    The weight is normalized by dividing each double-coset sum by the total,
    their sum, not each coefficient of w.
    """
    sums = problem.double_coset_sums(w.require_weight())
    total, order, sizes = sum(sums), problem.subgroup.order, problem.double.sizes
    per_class = [s * order / (sizes[cid] * total) for cid, s in enumerate(sums)]
    return [[per_class[cid] for cid in row] for row in problem.pair_classes]


def lumping_function(problem: LumpingProblem):
    """The left-coset lumping map as a generic lumping function."""
    from .markov import LumpingFunction

    labels = tuple(problem.group.cycle_string(r) for r in problem.left.representatives)
    return LumpingFunction(tuple(problem.left.coset_of), labels)


# ---------------------------------------------------------------------------
# the law of the state given a coset history


def conditional_law(problem: LumpingProblem, w: AlgebraElement, alpha: AlgebraElement,
                    observations) -> dict[int, Fraction]:
    """The exact law {element id: probability} of X_t, ascending, given the
    coset history X_0 H, ..., X_t H of the walk of w from alpha (alpha for an
    empty one), w and alpha as `require_weight` and `require_distribution`
    return them.  A forward filter on the group: the law starts as alpha on
    the first coset observed, and each further observation maps each state x
    to the x g, g in supp w, by one gather of x (the step of `simulate_walk`),
    and keeps those in that coset.  It is homogeneous in alpha and w, so both
    are read in their integral forms, and it is normalised once, at the end.
    Raises DomainError naming the first impossible prefix.
    """
    coset_of, images, index = problem.left.coset_of, problem.group.images, problem.group.index
    history = iter(observations)
    first = next(history, None)
    start = _integer_element(alpha)[1].support()
    law = {x: m for x, m in start if first is None or coset_of[x] == first}
    if not law:
        raise DomainError("impossible observation sequence at prefix index 0")
    steps = [(images[g], c) for g, c in _integer_element(w)[1].support()]
    for t, b in enumerate(history, start=1):
        image = {}
        for x, m in law.items():
            x_times = gather(images[x])
            for g, c in steps:
                y = index[x_times(g)]  # x g
                if coset_of[y] == b:
                    image[y] = image.get(y, 0) + m * c
        if not image:
            raise DomainError(f"impossible observation sequence at prefix index {t}")
        law = image
    total = sum(law.values())
    return {x: Fraction(m, total) for x, m in sorted(law.items())}
