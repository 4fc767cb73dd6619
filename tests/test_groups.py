"""Permutation groups, subgroups, cosets and double cosets."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumpwalk import (
    FiniteGroup,
    cosets,
    double_cosets,
    parse_cycles,
    parse_group_file,
)
from lumpwalk.errors import DomainError, InputFormatError, InvariantError, ResourceError
from lumpwalk.groups import (
    DEFAULT_ORDER_CAP,
    MAX_GROUP_ENTRIES,
    _closure,
    format_cycles,
    gather,
    parse_generators,
)
from tests.reference import coset_blocks, parse_cycles_findall


def test_group_not_starting_at_the_identity_is_an_invariant_error():
    with pytest.raises(InvariantError, match="identity"):
        FiniteGroup(2, [(1, 0), (0, 1)], [(1, 0)])


def test_generate_sym4():
    G = FiniteGroup.generate(4, [parse_cycles(4, "(1,2)"), parse_cycles(4, "(1,2,3,4)")])
    assert G.order == 24
    assert G.images[0] == (0, 1, 2, 3)


def test_generate_dihedral():
    G = FiniteGroup.generate(5, [parse_cycles(5, "(1,2,3,4,5)"), parse_cycles(5, "(2,5)(3,4)")])
    assert G.order == 10


def test_generate_trivial():
    G = FiniteGroup.generate(4, [])
    assert G.order == 1


def test_order_cap():
    with pytest.raises(ResourceError):
        FiniteGroup.generate(
            4, [parse_cycles(4, "(1,2)"), parse_cycles(4, "(1,2,3,4)")], order_cap=10
        )
    # degree times order is bounded as well: a group of order 2 on more than
    # half the budget of points stops at its second element
    degree = MAX_GROUP_ENTRIES // 2 + 1
    with pytest.raises(ResourceError, match="work budget"):
        FiniteGroup.generate(degree, [parse_cycles(degree, "(1,2)")])
    # and a group file over the budget stops at its degree line
    with pytest.raises(ResourceError, match="work budget"):
        parse_generators(f"degree {MAX_GROUP_ENTRIES + 1}\ngen (1,2)\n")


def test_canonical_ordering_idempotent(sym4):
    regenerated = FiniteGroup.generate(4, list(sym4.elements))
    assert regenerated.images == sym4.images


def test_composition_convention(sym4):
    # j(gh) = (jg)h: apply g first, then h
    gh = sym4.mul(sym4.element_of("(1,2)"), sym4.element_of("(2,3)"))
    assert sym4.images[gh][0] == 2  # 1 -> 2 -> 3 in 1-based points
    assert sym4.cycle_string(gh) == "(1,3,2)"


def test_subgroups(sym4):
    H = sym4.subgroup([parse_cycles(4, "(2,3)"), parse_cycles(4, "(2,3,4)")])
    assert H.order == 6
    C4 = sym4.subgroup([parse_cycles(4, "(1,2,3,4)")])
    assert C4.order == 4
    assert sym4.subgroup([]).order == 1
    with pytest.raises(DomainError):
        # degree-3 permutation is not an element of Sym_4
        sym4.subgroup([parse_cycles(3, "(1,2)")])


def test_left_cosets(sym4, top_prob):
    decomposition = top_prob.left
    assert decomposition.n_cosets == 4
    reps = {sym4.cycle_string(r) for r in decomposition.representatives}
    # the four cosets are H, (1,2)H, (1,3)H, (1,4)H; representatives are the
    # minimal element id in each coset
    coset_of = decomposition.coset_of
    assert coset_of[sym4.element_of("id")] != coset_of[sym4.element_of("(1,2)")]
    for k in (2, 3, 4):
        cid = coset_of[sym4.element_of(f"(1,{k})")]
        members = coset_blocks(decomposition)[cid]
        # gH = permutations sending position k to the top
        assert all(sym4.images[m][k - 1] == 0 for m in members)
    assert "id" in reps


def test_coset_sizes_and_index(sym4):
    C4 = sym4.subgroup([parse_cycles(4, "(1,2,3,4)")])
    decomposition = cosets(sym4, C4, "left")
    assert decomposition.n_cosets == 6
    assert all(len(c) == 4 for c in coset_blocks(decomposition))
    whole = cosets(sym4, sym4.subgroup(sym4.generators), "left")
    assert whole.n_cosets == 1


def test_double_cosets_top(sym4, top_prob):
    assert top_prob.double.n_classes == 2
    assert sorted(top_prob.double.sizes) == [6, 18]


def test_double_cosets_die(die_prob):
    assert die_prob.double.n_classes == 3
    assert sorted(die_prob.double.sizes) == [4, 4, 16]


def test_double_cosets_trivial_left_factor(sym4):
    # with a trivial left factor the classes T x H = {xh} are the one-sided
    # cosets xH of H
    H = sym4.subgroup([parse_cycles(4, "(2,3)"), parse_cycles(4, "(2,3,4)")])
    T = sym4.subgroup([])
    lc = cosets(sym4, H, "left")
    dc = double_cosets(sym4, T, lc)
    assert dc.n_classes == lc.n_cosets
    assert set(dc.classes) == set(coset_blocks(lc))


def test_counting_identity(sym4):
    # |TgH| * |g^-1 T g cap H| == |H| * |T| checked against direct enumeration
    T = sym4.subgroup([parse_cycles(4, "(1,2)"), parse_cycles(4, "(3,4)")])
    H = sym4.subgroup([parse_cycles(4, "(2,3,4)")])
    dc = double_cosets(sym4, T, cosets(sym4, H))
    for cid, x in enumerate(dc.representatives):
        xi = sym4.inv(x)
        conj = {sym4.mul(sym4.mul(xi, t), x) for t in T.members}
        meet = conj & set(H.members)
        assert dc.sizes[cid] * len(meet) == H.order * T.order


def test_left_cosets_refine_double_cosets(top_prob):
    for cid, block in enumerate(coset_blocks(top_prob.left)):
        classes = {top_prob.double.class_of[g] for g in block}
        assert len(classes) == 1
    for cid, block in enumerate(coset_blocks(top_prob.right)):
        classes = {top_prob.double.class_of[g] for g in block}
        assert len(classes) == 1


def test_is_generating(sym4, dihedral10):
    w_support = [sym4.element_of(t) for t in ("id", "(1,4)(2,3)", "(1,4,3)", "(1,4,2,3)")]
    assert sym4.is_generating(w_support)
    G, sigma, tau = dihedral10
    assert not G.is_generating([sigma])
    assert not sym4.is_generating([0])
    with pytest.raises(DomainError):
        sym4.is_generating([])
    trivial = FiniteGroup.generate(3, [])
    assert trivial.is_generating([0])


def test_is_generating_matches_closure_of_whole_support(sym4):
    """Skipping support elements already generated must not change the answer."""
    rng = random.Random(7)
    for size in (1, 2, 3, 5, 24):
        for _ in range(20):
            support = rng.sample(range(24), size)
            whole = _closure(4, [sym4.elements[i] for i in support], 24)
            assert sym4.is_generating(support) == (len(whole) == 24), support


def test_dimino_step_matches_closure_from_scratch_on_pool():
    """Generators joined one at a time onto the subgroup already generated
    (`_closure` with `known`, as `is_generating` does) give the subgroup that
    the reference closes from the identity, on every pool group with random
    supports; so do the whole closure and `is_generating` itself."""
    from tests.oracle_suite import build_pool
    from tests.reference import generated_subgroup, group_tables

    rng = random.Random(11)
    groups = {id(G): G for _, G, _ in build_pool()}
    for G in groups.values():
        mul, _ = group_tables(G)
        for _ in range(40):
            support = rng.sample(range(G.order), rng.randint(1, min(5, G.order)))
            gens, known = [], {G.images[0]}
            for k, i in enumerate(support):
                gens.append(G.images[i])
                known = _closure(G.degree, gens, G.order, known)
                assert {G.index[t] for t in known} == generated_subgroup(mul, 0, support[:k + 1])
            whole = _closure(G.degree, [G.images[i] for i in support], G.order)
            assert whole == known, support
            fresh = FiniteGroup(G.degree, G.images, [])  # no answer kept from another test
            assert fresh.is_generating(support) == (len(known) == G.order), support


def _is_even(images) -> bool:
    """Whether a permutation is even: its degree minus its number of cycles is even."""
    seen, cycles = set(), 0
    for start in range(len(images)):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = images[x]
    return (len(images) - cycles) % 2 == 0


def test_is_generating_stop_past_half_matches_whole_closure(monkeypatch):
    """`is_generating` stops a join once it knows more than |G|/2 elements;
    its answer must still be whether the whole closure of the support is G.
    On every pool group: random supports; supports of even permutations
    where the even ones form a subgroup of index 2 (A_n in S_n among them),
    so a support that generates it makes a closure of exactly |G|/2
    elements and the answer False; and
    supports whose last element is the one that completes G, so the stop
    falls inside the last join, which must then have returned less than G
    at least once."""
    from lumpwalk import groups
    from tests.oracle_suite import build_pool

    returned = []
    real = groups._closure

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        returned.append(len(out))
        return out

    monkeypatch.setattr(groups, "_closure", recorded)
    rng = random.Random(13)
    pool = {id(G): G for _, G, _ in build_pool()}
    index_two = set()
    for G in pool.values():
        def generated(support):
            return real(G.degree, [G.images[i] for i in support], G.order)

        supports = [rng.sample(range(G.order), rng.randint(1, min(6, G.order))) for _ in range(40)]
        even = [i for i in range(G.order) if _is_even(G.images[i])]
        if 2 * len(even) == G.order:
            evens = [rng.sample(even, rng.randint(1, min(4, len(even)))) for _ in range(20)]
            if any(len(generated(s)) == len(even) for s in evens):
                index_two.add(G.order)
            supports += evens
        cut_short = 0
        for _ in range(20):  # a proper subgroup's elements, then one that completes G
            cyclic = sorted(G.index[t] for t in generated([rng.randrange(G.order)]))
            prefix = rng.sample(cyclic, min(2, len(cyclic)))
            last = rng.randrange(G.order)
            if len(generated(prefix)) < G.order == len(generated(prefix + [last])):
                supports.append(prefix + [last])
                fresh = FiniteGroup(G.degree, G.images, [])
                returned.clear()
                assert fresh.is_generating(prefix + [last])
                cut_short += returned[-1] < G.order
        assert cut_short or G.order <= 2, G.order
        for support in supports:
            fresh = FiniteGroup(G.degree, G.images, [])  # no answer kept from another support
            assert fresh.is_generating(support) == (len(generated(support)) == G.order), support
    assert {6, 24, 120} <= index_two  # A_3, A_4 and A_5 among the supports


def test_irreducibility_is_decided_once_per_support(monkeypatch):
    """A second `is_irreducible_weight` call on the same group, for the same
    support, builds no closure; another support still does."""
    from lumpwalk import groups
    from lumpwalk.algebra import parse_element_file
    from lumpwalk.shuffles import random_to_top, symmetric_group

    G = symmetric_group(5)
    w = random_to_top(G)
    calls = []
    real = groups._closure

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "_closure", counted)
    assert w.is_irreducible_weight()
    first = len(calls)
    assert first > 0
    assert w.is_irreducible_weight()
    assert (w + w).is_irreducible_weight()  # same support, other values
    assert len(calls) == first
    swap = parse_element_file("1 (1,2)\n", G)
    assert not swap.is_irreducible_weight()
    assert len(calls) > first


def test_subgroup_from_file_generators_matches_enumerated_file(sym4):
    """Closing a subgroup file's generators inside the group gives the same
    subgroup as enumerating the file as a group of its own first."""
    for text in ("degree 4\ngen (2,3)\ngen (2,3,4)\n", "degree 4\n",
                 "degree 4\ngen id\ngen (1,2)(3,4)\ngen (1,3)(2,4)\ngen (1,2)(3,4)\n"):
        degree, gens = parse_generators(text)
        spec = parse_group_file(text)
        assert degree == spec.degree == 4
        enumerated = sym4.subgroup([spec.elements[g] for g in spec.generators])
        assert sym4.subgroup(gens) == enumerated, text


def test_group_file_roundtrip(sym4):
    text = "degree 4\ngen (1,2)\ngen (1,2,3,4)\n"
    G = parse_group_file(text)
    assert G.order == 24
    written = f"degree {G.degree}\n" + "".join(
        f"gen {G.cycle_string(g)}\n" for g in G.generators)
    assert parse_group_file(written).order == 24
    with pytest.raises(InputFormatError):
        parse_group_file("gen (1,2)")
    with pytest.raises(InputFormatError):
        parse_group_file("degree 4\ngen (1,5)")
    with pytest.raises(InputFormatError):
        parse_group_file("degree x")


def test_group_file_rejects_a_second_degree_line():
    with pytest.raises(InputFormatError, match="line 3: second degree line"):
        parse_generators("degree 3\ngen (1,2)\ndegree 4\ngen (1,2,3,4)\n")
    with pytest.raises(InputFormatError, match="line 2: second degree line"):
        parse_generators("degree 4\ndegree 4\n")


def test_cycle_strings_roundtrip_to_the_one_line_reference():
    """A random permutation of degree 1 to 7, written as a cycle string and
    parsed back, is the same image tuple, and the one-line reference reads
    the string the same way; spaces inside the notation change nothing."""
    from tests.reference import cycles_to_one_line

    rng = random.Random(3)
    for degree in range(1, 8):
        for _ in range(300):
            images = list(range(degree))
            rng.shuffle(images)
            images = tuple(images)
            text = format_cycles(images)
            assert parse_cycles(degree, text) == images, text
            assert cycles_to_one_line(degree, text) == images, text
            assert parse_cycles(degree, " " + text.replace(",", " , ") + " ") == images, text


def test_parse_cycles_rejections_keep_their_messages():
    cases = {
        "(1,2)(2,3)": "point 2 appears in two cycles of '(1,2)(2,3)'",
        "(1,2,3)(1,2,3)": "point 1 appears in two cycles of '(1,2,3)(1,2,3)'",
        "(1,5)": "cycle point outside 1..4 in (1,5)",
        "(0,1)": "cycle point outside 1..4 in (0,1)",
        "(1,2,1)": "repeated point in cycle (1,2,1)",
        "(1,,2)": "bad point in cycle (1,,2)",
        "(1,2,)": "bad point in cycle (1,2,)",
        "(1,2)x": "bad cycle notation '(1,2)x'",
        "((1,2))": "bad cycle notation '((1,2))'",
        "(1 2)": "whitespace between digits in '(1 2)'",
    }
    for text, message in cases.items():
        with pytest.raises(InputFormatError) as caught:
            parse_cycles(4, text)
        assert str(caught.value) == message, text


# every character that str.split() removes: the whitespace of cycle notation
SPLIT_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".split()) == 2)


@st.composite
def cycle_texts(draw):
    """(degree, text) at degrees 1 to 9, with whitespace around the characters
    of the last two forms of text: a string over the characters of cycle
    notation and whitespace; cycles of points 0 to degree + 1 and empty points,
    which reach every rejection; or the cycle string of a permutation of the
    degree."""
    degree = draw(st.integers(1, 9))
    form = draw(st.integers(0, 2))
    if form == 0:
        return degree, draw(st.text(st.sampled_from("()0123456789," + SPLIT_WHITESPACE),
                                    max_size=24))
    if form == 1:
        # mostly points of the degree, so that cycles often meet
        inside = [str(k) for k in range(1, degree + 1)]
        point = st.sampled_from(["", "0", str(degree + 1), *inside * 4])
        cycles = draw(st.lists(st.lists(point, max_size=4), max_size=4))
        text = "".join("(" + ",".join(points) + ")" for points in cycles)
    else:
        text = format_cycles(tuple(draw(st.permutations(range(degree)))))
    whitespace = st.text(st.sampled_from(SPLIT_WHITESPACE), max_size=2)
    return degree, "".join(draw(whitespace) + ch for ch in text) + draw(whitespace)


def parse_outcome(parse, degree, text):
    """The image tuple of a parse, or the message of its `InputFormatError`."""
    try:
        return parse(degree, text)
    except InputFormatError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(cycle_texts())
@example((4, "(1,2,3)(3,2)"))  # two shared points: the message names the least
def test_parse_cycles_matches_its_findall_reference(case):
    """One split after the check gives the tuple, or the message, of the
    reference that finds the cycles by a second scan."""
    degree, text = case
    assert parse_outcome(parse_cycles, degree, text) == parse_outcome(parse_cycles_findall, degree, text)


def test_parse_cycles_removes_all_whitespace_that_split_removes():
    assert len(SPLIT_WHITESPACE) == 29 and all(c in SPLIT_WHITESPACE for c in " \t\n\x85\u3000")
    for c in SPLIT_WHITESPACE:
        assert parse_cycles(4, f"{c}({c}1{c},2,{c}3{c}){c}({c}4){c}") == (1, 2, 0, 3), hex(ord(c))


def test_cycle_string_roundtrip(sym4):
    for i, p in enumerate(sym4.images):
        assert parse_cycles(4, sym4.cycle_string(i)) == p


def test_parse_cycles_rejects_points_shared_between_cycles():
    assert parse_cycles(4, "(1,2)(3,4)") == (1, 0, 3, 2)
    for text in ("(1,2,3)(1,2,3)", "(1,2)(2,1)", "(1,2)(1,3)", "(1)(1,2)", "(1,2)(3,4)(4,1)"):
        with pytest.raises(InputFormatError):
            parse_cycles(4, text)
    with pytest.raises(InputFormatError):
        parse_cycles(4, "(1,2,1)")


def test_permutation_validation(sym4):
    """A permutation a caller passes in as an image tuple is checked."""
    for bad in ((0, 0, 1), (0, 1, 3), (1, 0)):
        with pytest.raises(DomainError):
            FiniteGroup.generate(3, [bad])
    with pytest.raises(DomainError, match="not a permutation"):
        sym4.subgroup([(0, 0, 1, 2)])
    with pytest.raises(DomainError, match="is not in the group"):
        FiniteGroup.generate(4, [(1, 0, 2, 3)]).subgroup([(0, 2, 1, 3)])


def test_coset_invariants(sym4, top_prob):
    H = top_prob.subgroup
    for decomposition in (top_prob.left, top_prob.right):
        blocks = coset_blocks(decomposition)
        assert all(len(c) == H.order for c in blocks)
        for cid, rep in enumerate(decomposition.representatives):
            assert decomposition.coset_of[rep] == cid
            assert rep == min(blocks[cid])
        assert sorted(sum(blocks, ())) == list(range(24))


def test_gather_matches_the_python_product_loop():
    """`gather(g)(h)` is the image tuple of g*h, `tuple([h[x] for x in g])`, at
    degrees 1 to 7; at degree 1 it is a tuple too, not a point."""
    rng = random.Random(2101)
    for degree in range(1, 8):
        for _ in range(50):
            g, h = list(range(degree)), list(range(degree))
            rng.shuffle(g)
            rng.shuffle(h)
            g, h = tuple(g), tuple(h)
            assert gather(g)(h) == tuple([h[x] for x in g]), (g, h)


def test_group_layer_matches_one_line_reference_at_degrees_one_and_two():
    """`mul`, `inv`, both coset decompositions and the double cosets on the
    groups of degree 1 and 2, where a gather has one or two points."""
    from tests.reference import coset_partition, double_coset_partition, group_tables

    for degree, gens in ((1, []), (2, [(0, 1)]), (2, [(1, 0)])):
        G = FiniteGroup.generate(degree, gens)
        mul, inv = group_tables(G)
        assert [[G.mul(i, j) for j in range(G.order)] for i in range(G.order)] == mul
        assert [G.inv(i) for i in range(G.order)] == inv
        for H in (G.subgroup([]), G.subgroup(G.generators)):
            for side in ("left", "right"):
                got = cosets(G, H, side)
                assert (got.coset_of, got.representatives, coset_blocks(got)) == coset_partition(
                    mul, H.members, side), (degree, side)
            got = double_cosets(G, H, cosets(G, H))
            assert (got.class_of, got.representatives, got.sizes, got.classes) == \
                double_coset_partition(mul, H.members, H.members), degree


def test_group_layer_matches_one_line_reference_on_pool():
    """`mul`, `inv` and both coset decompositions agree with the one-line
    reference of `tests/reference.py` on every pair of the pool."""
    from tests.oracle_suite import build_pool
    from tests.reference import coset_partition, group_tables

    tables = {}
    for label, G, hgens in build_pool():
        if id(G) not in tables:
            tables[id(G)] = group_tables(G)
            mul, inv = tables[id(G)]
            assert [[G.mul(i, j) for j in range(G.order)] for i in range(G.order)] == mul, label
            assert [G.inv(i) for i in range(G.order)] == inv, label
        mul, _ = tables[id(G)]
        H = G.subgroup(hgens)
        for side in ("left", "right"):
            got = cosets(G, H, side)
            assert (got.coset_of, got.representatives, coset_blocks(got)) == coset_partition(
                mul, H.members, side), (label, side)


def test_coset_position_table_on_pool():
    """`position` of both coset decompositions on every pair of the pool:
    x = r h on the left and x = h r on the right, for r the representative
    of the coset of x and h the member at position[x]."""
    from tests.oracle_suite import build_pool

    for label, G, hgens in build_pool():
        H = G.subgroup(hgens)
        for side in ("left", "right"):
            got = cosets(G, H, side)
            for x in range(G.order):
                r, h = got.representatives[got.coset_of[x]], H.members[got.position[x]]
                assert x == (G.mul(r, h) if side == "left" else G.mul(h, r)), (label, side, x)


def test_double_cosets_match_brute_force_on_pool():
    """Classes built from the left cosets of the right factor equal the
    reference classes built from all products."""
    from tests.oracle_suite import build_pool
    from tests.reference import double_coset_partition, group_tables

    for label, G, hgens in build_pool():
        mul, _ = group_tables(G)
        H = G.subgroup(hgens)
        inner = G.subgroup(hgens[:1] + [G.elements[0]])
        trivial = G.subgroup([])
        for T, K in ((H, H), (inner, H), (trivial, H), (H, trivial), (G.subgroup(G.generators), H)):
            got = double_cosets(G, T, cosets(G, K))
            assert (got.left_subgroup, got.right_subgroup) == (T, K), label
            assert (got.class_of, got.representatives, got.sizes, got.classes) == \
                double_coset_partition(mul, T.members, K.members), label


def test_double_cosets_check_the_counting_identity(sym4, top_prob):
    """The orbits come from the left factor's generators and the identity's
    stabilisers from its members, so a factor whose generators do not
    generate its members is refused."""
    from lumpwalk.groups import Subgroup

    H = top_prob.subgroup
    for generators in ((), H.generators[:1]):
        corrupt = Subgroup(sym4, H.members, generators)
        with pytest.raises(DomainError, match="counting identity"):
            double_cosets(sym4, corrupt, top_prob.left)


def test_double_cosets_need_the_left_decomposition(sym4, top_prob):
    with pytest.raises(DomainError, match="left cosets"):
        double_cosets(sym4, top_prob.subgroup, top_prob.right)


def symmetric_generators(n: int) -> list[tuple[int, ...]]:
    """(1,2) and (1,2,...,n) as image tuples; none for S_1."""
    if n == 1:
        return []
    return [parse_cycles(n, "(1,2)"), parse_cycles(n, "(" + ",".join(map(str, range(1, n + 1))) + ")")]


def top_stabilizer_generators(n: int) -> list[tuple[int, ...]]:
    """(2,3) and (2,3,...,n) as image tuples: the stabiliser of point 1 in S_n."""
    return [parse_cycles(n, "(2,3)"), parse_cycles(n, "(" + ",".join(map(str, range(2, n + 1))) + ")")]


def test_double_cosets_match_the_per_member_reference():
    """The classes read as orbits on the left cosets equal the classes built
    from every member of the left factor, with their numbering, sizes and
    members: on every pair of the pool with T = H and with each proper
    subgroup T of H that the pool's inner-subgroup draw gives, and on S6 over
    its top-card stabiliser and over C6, and S7 over S6."""
    from tests.oracle_suite import build_pool, random_subgroup_of
    from tests.reference import double_cosets_per_member

    cases = []
    for label, G, hgens in build_pool():
        H = G.subgroup(hgens)
        rng, inner = random.Random(f"double cosets {label}"), {}
        for _ in range(12):
            T = random_subgroup_of(rng, H)
            if T.order < H.order:
                inner.setdefault(T.members, T)
        cases += [(label, G, T, H) for T in [H, *inner.values()]]
    s6 = FiniteGroup.generate(6, symmetric_generators(6))
    s7 = FiniteGroup.generate(7, symmetric_generators(7))
    for label, G, H in (("S6/S5", s6, s6.subgroup(top_stabilizer_generators(6))),
                        ("S6/C6", s6, s6.subgroup([parse_cycles(6, "(1,2,3,4,5,6)")])),
                        ("S7/S6", s7, s7.subgroup(top_stabilizer_generators(7)))):
        cases.append((label, G, H, H))
    for label, G, T, H in cases:
        left = cosets(G, H)
        got = double_cosets(G, T, left)
        assert (got.class_of, got.representatives, got.sizes, got.classes) == \
            double_cosets_per_member(G, T, left), (label, T.members)


NON_SYMMETRIC = [
    ("A4", 4, ["(1,2)(3,4)", "(1,2,3)"]),
    ("D10", 5, ["(1,2,3,4,5)", "(2,5)(3,4)"]),
    ("D12", 6, ["(1,2,3,4,5,6)", "(2,6)(3,5)"]),
    ("C6", 6, ["(1,2,3,4,5,6)"]),
    ("S5 on 6 points", 6, ["(1,2)", "(1,2,3,4,5)"]),
]


def test_generate_lists_the_sorted_closure():
    """`generate` lists the closure of its generators sorted, both where it
    lists S_n in the order of `permutations` (S_1 to S_7, also from other
    generators) and where it sorts (groups of order below degree!)."""
    groups = [(f"S{n}", n, symmetric_generators(n)) for n in range(1, 8)]
    groups.append(("S4 by adjacent transpositions", 4,
                   [parse_cycles(4, c) for c in ("(1,2)", "(2,3)", "(3,4)")]))
    groups += [(label, degree, [parse_cycles(degree, c) for c in gens])
               for label, degree, gens in NON_SYMMETRIC]
    for label, degree, gens in groups:
        closure = _closure(degree, gens, DEFAULT_ORDER_CAP)
        assert FiniteGroup.generate(degree, gens).images == tuple(sorted(closure)), label


GENERATED = [(f"S{n}", n, symmetric_generators(n), top_stabilizer_generators(n))
             for n in (4, 5)]
GENERATED += [(label, degree, [parse_cycles(degree, c) for c in gens],
               [parse_cycles(degree, gens[-1])]) for label, degree, gens in NON_SYMMETRIC]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(GENERATED), st.randoms(use_true_random=False), st.booleans(),
       st.booleans())
def test_generators_in_any_order_give_the_same_group(case, rng, duplicate, identity):
    """The images of a generated group and the members of a subgroup do not
    change when the generators are shuffled, repeated or joined by the
    identity."""
    label, degree, gens, hgens = case
    G = FiniteGroup.generate(degree, gens)
    H = G.subgroup(hgens)

    def variant(generators):
        out = list(generators)
        if duplicate and out:
            out.append(rng.choice(out))
        if identity:
            out.append(tuple(range(degree)))
        rng.shuffle(out)
        return out

    again = FiniteGroup.generate(degree, variant(gens))
    assert (again.images, again.generators) == (G.images, G.generators), label
    assert G.subgroup(variant(hgens)).members == H.members, label
    assert again.subgroup(variant(hgens)).members == H.members, label


def test_order_cap_and_work_budget_keep_their_messages():
    """A group over the order cap or the work budget raises `ResourceError`
    with the same message, whether or not it would be S_n."""
    for n, cap in ((5, 100), (6, 719), (8, DEFAULT_ORDER_CAP)):
        with pytest.raises(ResourceError) as info:
            FiniteGroup.generate(n, symmetric_generators(n), order_cap=cap)
        assert str(info.value) == f"group order exceeds the configured cap {cap}"
    with pytest.raises(ResourceError) as info:
        FiniteGroup.generate(6, [parse_cycles(6, c) for c in NON_SYMMETRIC[-1][2]], order_cap=119)
    assert str(info.value) == "group order exceeds the configured cap 119"
    with pytest.raises(ResourceError) as info:
        FiniteGroup.generate(9, symmetric_generators(9), order_cap=10**6)
    assert str(info.value) == (f"degree 9 times the group order exceeds the work budget of "
                               f"{MAX_GROUP_ENTRIES} permutation entries")
    assert FiniteGroup.generate(8, symmetric_generators(8), order_cap=40320).order == 40320
