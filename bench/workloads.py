"""Seeded inputs and fixed request lists for the benchmark workloads.

Everything here is standard library only and independent of `lumpwalk`: the
groups, weights, distributions, idempotents, walk matrices and lump maps are
built by this module's own permutation and group-algebra code and written as
text files.  The program under test sees only those files, so two commits
measured with the same seed receive byte-identical inputs.

Permutations are tuples of 0-based images.  `compose(p, q)` applies `p` first
and then `q`, matching the walk step `x -> x g` of `lumpwalk`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("weak-s6", "verdict-s6", "sweep-small")

SIM_LENGTH = 2000  # steps per `simulate` request
SIM_EVERY = 4  # every fourth sweep instance also runs `simulate`
SMALL_ORDER = 24  # theta family, `theta-dim` and `stable-check` up to this |G|


# ---------------------------------------------------------------------------
# permutations and enumerated groups


def parse_perm(text: str, degree: int) -> tuple:
    """1-based cycle notation such as `(1,2)(3,4)`, or `id`."""
    images = list(range(degree))
    if text != "id":
        for body in text.strip("()").split(")("):
            points = [int(p) - 1 for p in body.split(",")]
            for a, b in zip(points, points[1:] + points[:1]):
                images[a] = b
    return tuple(images)


def fmt_perm(p: tuple) -> str:
    seen, parts = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cycle, j = [start], p[start]
        seen.add(start)
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = p[j]
        parts.append("(" + ",".join(str(x + 1) for x in cycle) + ")")
    return "".join(parts) or "id"


def compose(p: tuple, q: tuple) -> tuple:
    return tuple(q[i] for i in p)


def closure(gens, degree: int) -> list:
    """All products of the generators, sorted (the identity comes first)."""
    identity = tuple(range(degree))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = compose(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen)


class Group:
    """An enumerated permutation group with integer element ids."""

    def __init__(self, degree: int, gens):
        self.degree = degree
        self.gens = list(gens)
        self.elements = closure(self.gens, degree)
        self.index = {p: i for i, p in enumerate(self.elements)}
        self._table = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def id_of(self, p: tuple) -> int:
        return self.index[p]

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        return self.index[compose(self.elements[i], self.elements[j])]

    def tabulate(self):
        """Cache the multiplication table (only for the small pool groups)."""
        self._table = [[self.mul(i, j) for j in range(self.order)] for i in range(self.order)]
        return self

    def subgroup(self, gens) -> list:
        return sorted(self.index[p] for p in closure(gens, self.degree))

    def generates(self, ids) -> bool:
        return len(closure([self.elements[i] for i in ids], self.degree)) == self.order

    def left_cosets(self, H) -> list:
        """Coset id of every element, numbered by least member."""
        coset_of = [-1] * self.order
        count = 0
        for x in range(self.order):
            if coset_of[x] == -1:
                for h in H:
                    coset_of[self.mul(x, h)] = count
                count += 1
        return coset_of

    def double_cosets(self, H) -> list:
        classes, seen = [], set()
        for x in range(self.order):
            if x not in seen:
                block = sorted({self.mul(self.mul(a, x), b) for a in H for b in H})
                seen.update(block)
                classes.append(block)
        return classes

    def file_text(self) -> str:
        return f"degree {self.degree}\n" + "".join(f"gen {fmt_perm(g)}\n" for g in self.gens)


def subgroup_text(degree: int, gens) -> str:
    return f"degree {degree}\n" + "".join(f"gen {fmt_perm(g)}\n" for g in gens)


# ---------------------------------------------------------------------------
# group-algebra elements as sparse {element id: Fraction} dicts


def product(G: Group, a: dict, b: dict) -> dict:
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            k = G.mul(i, j)
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def combine(a: dict, b: dict, sb=1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sb * c
    return {k: c for k, c in out.items() if c}


def eta(members) -> dict:
    c = Fraction(1, len(members))
    return {m: c for m in members}


def element_text(G: Group, a: dict, rng=None) -> str:
    lines = [f"{c} {fmt_perm(G.elements[i])}" for i, c in sorted(a.items())]
    if rng is not None:
        rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def nullspace(rows: list, n: int) -> list:
    """Basis of {x : row . x = 0 for every row}, in exact rationals."""
    pivots, reduced = [], []
    for row in rows:
        v = list(row)
        for r, p in zip(reduced, pivots):
            if v[p]:
                c = v[p]
                v = [x - c * y for x, y in zip(v, r)]
        lead = next((k for k, x in enumerate(v) if x), None)
        if lead is None:
            continue
        v = [x / v[lead] for x in v]
        for i, r in enumerate(reduced):
            if r[lead]:
                c = r[lead]
                reduced[i] = [x - c * y for x, y in zip(r, v)]
        reduced.append(v)
        pivots.append(lead)
    basis = []
    for free in (k for k in range(n) if k not in pivots):
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for r, p in zip(reduced, pivots):
            x[p] = -r[free]
        basis.append(x)
    return basis


def theta_constraints(G: Group, e: dict, eta_H: dict) -> list:
    """Row k of the map w -> (e w (1-e), (e - eta_H) w eta_H), one column per g."""
    one_minus_e = combine({0: Fraction(1)}, e, -1)
    e_minus_eta = combine(e, eta_H, -1)
    columns = []
    for g in range(G.order):
        basis_g = {g: Fraction(1)}
        img1 = product(G, product(G, e, basis_g), one_minus_e)
        img2 = product(G, product(G, e_minus_eta, basis_g), eta_H)
        columns.append([img1.get(k, 0) for k in range(G.order)]
                       + [img2.get(k, 0) for k in range(G.order)])
    return [[columns[g][k] for g in range(G.order)] for k in range(2 * G.order)]


def is_stable(G: Group, w: dict, e: dict, eta_H: dict) -> bool:
    """The stable-ideal conditions e w (1-e) = 0 and (e - eta_H) w eta_H = 0."""
    one_minus_e = combine({0: Fraction(1)}, e, -1)
    if product(G, product(G, e, w), one_minus_e):
        return False
    return not product(G, product(G, combine(e, eta_H, -1), w), eta_H)


# ---------------------------------------------------------------------------
# requests and their checks


@dataclass
class Request:
    """One `lumpwalk` invocation and what its JSON report must say.

    `expect` maps dotted report paths to required values.  Requests sharing
    an `agree` key must report the same value at their `verdict` path; the
    request with `reference=True` is the one the others are compared to.
    """

    argv: list
    expect: dict = field(default_factory=dict)
    agree: str | None = None
    verdict: str | None = None
    reference: bool = False

    @property
    def command(self) -> str:
        if self.argv[0] == "test":
            return f"test-{self.argv[1]}"
        return self.argv[0]


@dataclass
class Workload:
    name: str
    requests: list
    problems: list  # (group file, subgroup file) of each distinct problem


def lookup(report: dict, path: str):
    value = report
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def check_pass(requests: list, results: list) -> list:
    """Failure messages per request for one pass.

    `results[i]` is `(exit code, report dict or None, error text)`.  A request
    fails on an exception, a nonzero exit, an expectation mismatch, or a
    verdict that differs from its reference request's.
    """
    problems = [[] for _ in requests]
    for req, (code, report, error), out in zip(requests, results, problems):
        if error:
            out.append(error)
        elif code != 0:
            out.append(f"exit code {code}")
        elif report is None:
            out.append("no JSON report")
        else:
            for path, want in req.expect.items():
                got = lookup(report, path)
                if got != want:
                    out.append(f"{path} = {got!r}, expected {want!r}")
    references = {}
    for req, (_, report, _) in zip(requests, results):
        if req.reference and report is not None:
            references[req.agree] = lookup(report, req.verdict)
    for req, (_, report, _), out in zip(requests, results, problems):
        if req.agree and not req.reference and report is not None:
            want = references.get(req.agree)
            got = lookup(report, req.verdict)
            if want is None or got != want:
                out.append(f"{req.verdict} = {got!r} but the oracle says {want!r}")
    return problems


# ---------------------------------------------------------------------------
# the S_n / S_(n-1) workloads


def bottom_card(G: Group) -> dict:
    """Reinsert the bottom card below a uniform card, then move the top card to the bottom."""
    n, w = G.degree, {}
    for k in range(1, n):
        images = list(range(n))
        images[0] = n - 1
        images[n - 1] = k - 1
        for j in range(2, k + 1):
            images[j - 1] = j - 2
        w[G.id_of(tuple(images))] = Fraction(1, n - 1)
    return w


def random_to_top(G: Group) -> dict:
    """Move a uniformly chosen card (possibly the top one) to the top."""
    n, w = G.degree, {}
    for k in range(1, n + 1):
        images = list(range(n))
        for j in range(k):  # the cycle (1,2,...,k)
            images[j] = (j + 1) % k
        w[G.id_of(tuple(images))] = Fraction(1, n)
    return w


def random_symmetric_pair(rng: random.Random, n: int) -> list:
    """A seeded generating pair of S_n; the enumerated group is the same for every pair."""
    target = math.factorial(n)
    while True:
        gens = []
        for _ in range(2):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(tuple(images))
        if len(closure(gens, n)) == target:
            return gens


def top_stabiliser_gens(n: int) -> list:
    return [parse_perm("(2,3)", n), parse_perm("(" + ",".join(str(j) for j in range(2, n + 1)) + ")", n)]


# Verdicts and dimensions recorded per degree.  `run.py --confirm` checks
# the verdicts against the generic chain oracle of `lumpwalk.markov`.
EXPECTED = {
    6: {
        "bottom": {"strong": False, "exact": False, "weak": True, "lw": 30, "lw_cut": 5,
                   "jw": 270, "jw_cut": 45, "achievable": True},
        "rtt": {"strong": True, "exact": False, "weak": True, "lw": 720, "dist_id": True},
        "hecke": True,
        "cyclic": {"biinv_weak": True, "rtt_weak": False},
    },
    4: {
        "bottom": {"strong": False, "exact": False, "weak": True, "lw": 12, "lw_cut": 3,
                   "jw": 12, "jw_cut": 3, "achievable": True},
        "rtt": {"strong": True, "exact": False, "weak": True, "lw": 24, "dist_id": True},
        "hecke": True,
        "cyclic": {"biinv_weak": True, "rtt_weak": False},
    },
}


def _symmetric_files(rng, n: int):
    G = Group(n, random_symmetric_pair(rng, n))
    files = {
        "group": G.file_text(),
        "sub": subgroup_text(n, top_stabiliser_gens(n)),
        "bottom": element_text(G, bottom_card(G), rng),
        "rtt": element_text(G, random_to_top(G), rng),
        "id": "1 id\n",
    }
    return G, files


def _write(workdir: Path, files: dict) -> dict:
    paths = {}
    for key, text in files.items():
        path = workdir / f"{key}.txt"
        path.write_text(text)
        paths[key] = str(path)
    return paths


def build_weak(seed: int, workdir: Path, n: int = 6) -> Workload:
    rng = random.Random(f"weak:{n}:{seed}")
    _, files = _symmetric_files(rng, n)
    p = _write(workdir, files)
    x = EXPECTED[n]
    pair = ["--group", p["group"], "--subgroup", p["sub"]]
    requests = [
        Request(["test", "weak", *pair, "--weight", p["bottom"]],
                {"verdicts.weak": x["bottom"]["weak"],
                 "dimensions.minimal_ideal": x["bottom"]["lw"],
                 "dimensions.minimal_ideal_cut": x["bottom"]["lw_cut"]}),
        Request(["jw", *pair, "--weight", p["bottom"]],
                {"dimensions.ideal": x["bottom"]["jw"], "dimensions.cut": x["bottom"]["jw_cut"]}),
        Request(["test", "weak", *pair, "--weight", p["rtt"]],
                {"verdicts.weak": x["rtt"]["weak"], "dimensions.minimal_ideal": x["rtt"]["lw"]}),
        Request(["test-dist", *pair, "--weight", p["rtt"], "--dist", p["id"]],
                {"verdicts.weak_for_start": x["rtt"]["dist_id"]}),
    ]
    return Workload(f"weak-s{n}", requests, [(p["group"], p["sub"])])


def build_verdict(seed: int, workdir: Path, n: int = 6) -> Workload:
    rng = random.Random(f"verdict:{n}:{seed}")
    G, files = _symmetric_files(rng, n)
    full_cycle = parse_perm("(" + ",".join(str(j) for j in range(1, n + 1)) + ")", n)
    if rng.random() < 0.5:  # either generator of the same cyclic subgroup
        full_cycle = tuple(full_cycle.index(j) for j in range(n))
    files["cyclic"] = subgroup_text(n, [full_cycle])
    C = G.subgroup([full_cycle])
    biinv = {}
    for block in G.double_cosets(C):
        c = Fraction(rng.randint(1, 4))
        biinv.update((g, c) for g in block)
    files["biinv"] = element_text(G, biinv, rng)
    p = _write(workdir, files)
    x = EXPECTED[n]
    pair = ["--group", p["group"], "--subgroup", p["sub"]]
    cyc = ["--group", p["group"], "--subgroup", p["cyclic"]]
    requests = [
        Request(["test", "strong", *pair, "--weight", p["bottom"]],
                {"verdicts.strong": x["bottom"]["strong"]}),
        Request(["test", "exact", *pair, "--weight", p["bottom"]],
                {"verdicts.exact": x["bottom"]["exact"]}),
        Request(["test", "strong", *pair, "--weight", p["rtt"]],
                {"verdicts.strong": x["rtt"]["strong"]}),
        Request(["test", "exact", *pair, "--weight", p["rtt"]],
                {"verdicts.exact": x["rtt"]["exact"]}),
        Request(["lumped-q", *pair, "--weight", p["bottom"]],
                {"verdicts.achievable": x["bottom"]["achievable"]}),
        Request(["orbital", *pair], {"verdicts.hecke_isomorphism": x["hecke"]}),
        Request(["test", "strong", *cyc, "--weight", p["biinv"]], {"verdicts.strong": True}),
        Request(["abelian-test", *cyc, "--weight", p["biinv"]],
                {"verdicts.weak": x["cyclic"]["biinv_weak"]}),
        Request(["abelian-test", *cyc, "--weight", p["rtt"]],
                {"verdicts.weak": x["cyclic"]["rtt_weak"]}),
    ]
    return Workload(f"verdict-s{n}", requests,
                    [(p["group"], p["sub"]), (p["group"], p["cyclic"])])


# ---------------------------------------------------------------------------
# the sweep over small instances


def pool(small_only: bool = False) -> list:
    """(label, degree, group generators, subgroup generators) with |G| <= 120."""
    entries = [
        ("S3/C2", 3, ["(1,2)", "(1,2,3)"], ["(2,3)"]),
        ("S4/S3", 4, ["(1,2)", "(1,2,3,4)"], ["(2,3)", "(2,3,4)"]),
        ("S4/C4-die", 4, ["(1,2)", "(1,2,3,4)"], ["(1,2,3,4)"]),
        ("S4/V4", 4, ["(1,2)", "(1,2,3,4)"], ["(1,2)(3,4)", "(1,3)(2,4)"]),
        ("S4/C2", 4, ["(1,2)", "(1,2,3,4)"], ["(3,4)"]),
        ("A4/C2", 4, ["(1,2)(3,4)", "(1,2,3)"], ["(1,2)(3,4)"]),
        ("D10/C2", 5, ["(1,2,3,4,5)", "(2,5)(3,4)"], ["(2,5)(3,4)"]),
        ("D12/C2", 6, ["(1,2,3,4,5,6)", "(2,6)(3,5)"], ["(2,6)(3,5)"]),
        ("C6/C3", 6, ["(1,2,3,4,5,6)"], ["(1,3,5)(2,4,6)"]),
        ("S5/S4", 5, ["(1,2)", "(1,2,3,4,5)"], ["(2,3)", "(2,3,4,5)"]),
    ]
    if small_only:
        entries = [e for e in entries if e[1] <= 4]
    return entries


FAMILIES = ("random", "biinv", "coset", "theta")
DISTS = ("point", "uniform", "coset", "random")


def _sample_weight(rng, G, H, coset_of, classes, family, theta_dir):
    if family == "biinv" or family == "theta":
        w = {}
        for block in classes:
            c = Fraction(rng.randint(1, 4))
            w.update((g, c) for g in block)
        if family == "theta" and theta_dir is not None:
            negative = [w[g] / -d for g, d in enumerate(theta_dir) if d < 0]
            scale = min(negative) if negative else Fraction(1)
            w = combine(w, {g: d * scale / 2 for g, d in enumerate(theta_dir) if d})
        return w
    gens = [G.id_of(g) for g in G.gens]
    if family == "coset":
        side_right = rng.random() < 0.5
        target = rng.randrange(G.order // len(H))
        x = next(g for g in range(G.order) if coset_of[g] == target)
        block = [G.mul(h, x) for h in H] if side_right else [G.mul(x, h) for h in H]
        w = {g: Fraction(1) for g in block}
        w[0] = w.get(0, 0) + 1
    else:
        w = {g: Fraction(rng.randint(1, 3)) for g in gens}
        for _ in range(rng.randint(1, 4)):
            g = rng.randrange(G.order)
            w[g] = w.get(g, 0) + rng.randint(0, 3)
        w = {g: Fraction(c) for g, c in w.items() if c}
    if not G.generates(list(w)):
        w = combine(w, {g: Fraction(1) for g in gens})
    return w


def _sample_dist(rng, G, H, kind):
    if kind == "point":
        return {rng.randrange(G.order): Fraction(1)}
    if kind == "uniform":
        return eta(range(G.order))
    if kind == "coset":
        b = rng.randrange(G.order)
        return eta([G.mul(b, h) for h in H])
    raw = {g: Fraction(rng.randint(0, 3)) for g in range(G.order)}
    raw = {g: c for g, c in raw.items() if c} or {0: Fraction(1)}
    total = sum(raw.values())
    return {g: c / total for g, c in raw.items()}


def _random_inner(rng, G, H) -> list:
    gens = [G.elements[rng.choice(H)] for _ in range(rng.randint(1, min(3, len(H))))]
    return G.subgroup(gens)


def build_sweep(seed: int, workdir: Path, per_pair: int = 4, small_only: bool = False) -> Workload:
    """`per_pair` instances of every pool pair, one weight family each in a seeded order.

    Stratifying the draw keeps the mix of group sizes and families, and so the
    cost of a pass, the same for every seed; the seed picks the weights,
    distributions, inner subgroups and simulator seeds.
    """
    rng = random.Random(f"sweep:{seed}")
    entries = pool(small_only)
    requests, problems, prepared = [], [], []
    for j, (label, n, ggens, hgens) in enumerate(entries):
        G = Group(n, [parse_perm(g, n) for g in ggens]).tabulate()
        hperms = [parse_perm(h, n) for h in hgens]
        H = G.subgroup(hperms)
        coset_of = G.left_cosets(H)
        files = {
            f"p{j}-group": G.file_text(),
            f"p{j}-sub": subgroup_text(n, hperms),
            f"p{j}-lump": "".join(f"lump {x} c{coset_of[x]}\n" for x in range(G.order)),
        }
        paths = _write(workdir, files)
        problems.append((paths[f"p{j}-group"], paths[f"p{j}-sub"]))
        families = [FAMILIES[k % len(FAMILIES)] for k in range(per_pair)]
        rng.shuffle(families)
        prepared.append((j, label, G, H, coset_of, G.double_cosets(H), paths, families))
    instance = 0
    for slot in range(per_pair):
        for j, label, G, H, coset_of, classes, paths, families in prepared:
            requests.extend(_sweep_instance(rng, instance, j, G, H, coset_of, classes, paths,
                                            families[slot], workdir))
            instance += 1
    return Workload("sweep-small", requests, problems)


def _sweep_instance(rng, k, j, G, H, coset_of, classes, paths, family, workdir):
    small = G.order <= SMALL_ORDER
    eta_H = eta(H)
    theta_dir = None
    if small:
        T = _random_inner(rng, G, H)
        e = eta(T)
        basis = nullspace(theta_constraints(G, e, eta_H), G.order)
        if family == "theta" and basis:
            theta_dir = basis[rng.randrange(len(basis))]
    elif family == "theta":
        family = "biinv"  # the nullspace construction is for small orders
    w = _sample_weight(rng, G, H, coset_of, classes, family, theta_dir)
    alpha = _sample_dist(rng, G, H, DISTS[rng.randrange(len(DISTS))])
    total = sum(w.values())
    rows = []
    for x in range(G.order):
        row = [Fraction(0)] * G.order
        for g, c in w.items():
            row[G.mul(x, g)] += c / total
        rows.append(" ".join(str(v) for v in row))
    files = {
        f"i{k}-w": element_text(G, w),
        f"i{k}-d": element_text(G, alpha),
        f"i{k}-gd": f"states {G.order}\n" + " ".join(str(alpha.get(x, 0)) for x in range(G.order)) + "\n",
        f"i{k}-mat": f"states {G.order}\n" + "\n".join(rows) + "\n",
    }
    if small:
        files[f"i{k}-e"] = element_text(G, e)
    p = _write(workdir, files)
    pair = ["--group", paths[f"p{j}-group"], "--subgroup", paths[f"p{j}-sub"]]
    chain = ["--matrix", p[f"i{k}-mat"], "--lumpmap", paths[f"p{j}-lump"]]
    weight = ["--weight", p[f"i{k}-w"]]
    key = f"i{k}"
    out = [
        Request(["test", "strong", *pair, *weight], agree=f"{key}-strong", verdict="verdicts.strong"),
        Request(["generic-test", "strong", *chain], agree=f"{key}-strong",
                verdict="verdicts.strong", reference=True),
        Request(["test", "exact", *pair, *weight], agree=f"{key}-exact", verdict="verdicts.exact"),
        Request(["generic-test", "exact", *chain], agree=f"{key}-exact",
                verdict="verdicts.exact", reference=True),
        Request(["test", "weak", *pair, *weight], agree=f"{key}-weak", verdict="verdicts.weak"),
        Request(["generic-test", "weak", *chain], agree=f"{key}-weak",
                verdict="verdicts.weak", reference=True),
        Request(["test-dist", *pair, *weight, "--dist", p[f"i{k}-d"]], agree=f"{key}-dist",
                verdict="verdicts.weak_for_start"),
        Request(["generic-test", "weak", *chain, "--dist", p[f"i{k}-gd"]], agree=f"{key}-dist",
                verdict="verdicts.weak", reference=True),
    ]
    if _is_abelian(G, H):
        out.append(Request(["abelian-test", *pair, *weight], agree=f"{key}-weak",
                           verdict="verdicts.weak"))
    if small:
        idem = ["--idempotent", p[f"i{k}-e"]]
        out.append(Request(["theta-dim", *pair, *idem],
                           {"dimensions.theta": len(basis)}))
        out.append(Request(["stable-check", *pair, *weight, *idem],
                           {"verdicts.stable": is_stable(G, w, e, eta_H)}))
    if k % SIM_EVERY == SIM_EVERY - 1:
        sim_seed = rng.randrange(1 << 32)
        out.append(Request(["simulate", *pair, *weight, "--dist", p[f"i{k}-d"],
                            "--seed", str(sim_seed), "--length", str(SIM_LENGTH)],
                           {"verdicts.completed": True, "samples.length": SIM_LENGTH}))
    return out


def _is_abelian(G: Group, H: list) -> bool:
    return all(G.mul(a, b) == G.mul(b, a) for a in H for b in H)


def build(name: str, seed: int, workdir: Path, miniature: bool = False) -> Workload:
    """The named workload; `miniature` keeps its request shapes on groups of degree 4."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "weak-s6":
        return build_weak(seed, workdir, 4 if miniature else 6)
    if name == "verdict-s6":
        return build_verdict(seed, workdir, 4 if miniature else 6)
    if name == "sweep-small":
        return build_sweep(seed, workdir, per_pair=4, small_only=miniature)
    raise ValueError(f"unknown workload {name!r}")
