"""The input parsers against the reference grammar of `tests/grammar.py`.

The golden-fixture inputs of `tests/test_cli.py` and the inputs that
`bench/workloads.py` writes are mutated, with a fixed seed, by hostile
characters and tokens and by dropped, duplicated, truncated and added lines.
Each mutated file is read by the reference grammar and by the library
parser.  Both must reach the same outcome: where the reference rejects the
text, the library raises `InputFormatError` and the command line exits 1
with an input error; where it refuses a precondition, the library raises a
`DomainError` or `ResourceError`; and where both accept it, they read the
same meaning.  The meaning is compared, not only the exit code, because an
input read with a wrong meaning (`1 2 id` read as weight 12) exits 0.
"""

import random
import re
import sys
from pathlib import Path

from lumpwalk.algebra import parse_element_file
from lumpwalk.errors import DomainError, InputFormatError, ResourceError
from lumpwalk.groups import parse_generators, parse_group_file
from lumpwalk.markov import parse_distribution_file, parse_lump_file, parse_matrix_file
from tests import grammar, test_cli
from tests.conftest import run_main
from tests.reference import compose, long_power_table

ROOT = Path(__file__).resolve().parents[1]
SEED = 36
MUTATIONS_PER_FILE = 2

WHITESPACE = ["\t", "\xa0", "\u3000", "\x0b", " "]
HOSTILE = [*WHITESPACE, "  ", "#", "0", "1", "2", "7", "9",
           "gen", "id", "e", "(", ")", ")(", ",", "/", "z", "^", "*", "+", "-", "\n",
           "degree", "scalar cyclotomic 4", "states", "lump", "1 2", "٣", "_"]
# command-line flag -> file kind; `--dist` is a chain law beside `--matrix`
FLAG_KINDS = {"--group": "group", "--subgroup": "group", "--inner-subgroup": "group",
              "--weight": "element", "--dist": "element", "--idempotent": "element",
              "--matrix": "matrix", "--lumpmap": "lump"}


def golden_requests():
    """Requests over the golden fixtures, as argv with a file's text in place of its path."""
    t = test_cli
    problems = [
        ((t.GROUP, t.SUBGROUP), [t.WEIGHT, t.DIST_ID, t.DIST_ETA_T, t.IDEMPOTENT, t.NONWEAK,
                                 t.TOP_TO_RANDOM, t.DIE, t.E_P, t.DIE_STAR, t.TRANSPOSITIONS,
                                 t.ETA_H, t.DUAL_ETA_T, t.SIGNED, t.MIXED_SIGN, t.ROTATED,
                                 t.ROTATED_DIE]),
        ((t.SYM5, t.TOP5), [t.BOTTOM5, t.BOTTOM5_STAR, t.RTT5, t.DIST5_SWAP, t.DIST5_S3]),
        ((t.DIHEDRAL, t.REFLECTION), [t.DIHEDRAL_WEIGHT, t.DIHEDRAL_ROTATIONS]),
    ]
    out = []
    for (group, subgroup), elements in problems:
        pair = ["--group", ("group", group), "--subgroup", ("group", subgroup)]
        out.append(["cosets", *pair])
        out += [["test", "strong", *pair, "--weight", ("element", w)] for w in elements]
    for inner in (t.CYCLIC, t.INNER, t.INNER_34, t.INNER_234):
        out.append(["cosets", "--group", ("group", t.GROUP), "--subgroup", ("group", inner)])
    matrix, lumpmap, dist = t.CHAIN_2
    out.append(["generic-test", "weak", "--matrix", ("matrix", matrix),
                "--lumpmap", ("lump", lumpmap), "--dist", ("dist", dist)])
    return out


def bench_requests(tmp_path):
    """The requests of every benchmark workload at seed 1, files read back as text."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    out = []
    for name in workloads.WORKLOADS:
        for request in workloads.build(name, 1, tmp_path / name).requests:
            argv, chain = [], "--matrix" in request.argv
            for flag, value in zip([None, *request.argv], request.argv):
                if flag in FLAG_KINDS:
                    kind = "dist" if chain and flag == "--dist" else FLAG_KINDS[flag]
                    value = (kind, Path(value).read_text())
                argv.append(value)
            out.append(argv)
    return out


def context(argv):
    """The text of each file kind that another file of the request is read against."""
    files = {flag: value[1] for flag, value in zip([None, *argv], argv) if flag in FLAG_KINDS}
    return files.get("--group"), files.get("--matrix")


def mutate(rng, text: str) -> str:
    """One hostile edit: a hostile token in place of a character or inserted
    anywhere, whitespace inserted inside a field, or a line dropped,
    duplicated, cut short (inside a field or after one) or added."""
    lines = text.splitlines(keepends=True) or [""]
    at = rng.randrange(len(lines))
    line = lines[at]
    fields = list(re.finditer(r"\S+", line))
    op = rng.choice(["replace", "insert", "split", "drop", "duplicate", "truncate", "add"])
    if op in ("replace", "insert"):
        pos = rng.randrange(len(text) + 1)
        return text[:pos] + rng.choice(HOSTILE) + text[pos + (op == "replace"):]
    if op == "split" and fields:
        field = rng.choice(fields)
        pos = rng.randrange(field.start(), field.end() + 1)
        lines[at] = line[:pos] + rng.choice(WHITESPACE) + line[pos:]
    elif op == "drop":
        del lines[at]
    elif op == "duplicate":
        lines.insert(at, line)
    elif op == "truncate":
        pos = rng.choice([rng.randrange(len(line) + 1), *(f.end() for f in fields)])
        lines[at] = line[:pos]
    elif op == "add":
        tokens = [rng.choice(HOSTILE) for _ in range(rng.randint(1, 3))]
        lines.insert(at, " ".join(tokens) + "\n")
    return "".join(lines)


def members_of(degree, generators) -> set:
    """Every product of the generators, by the one-line reference `compose`."""
    reached = frontier = {tuple(range(degree))}
    while frontier:
        frontier = {compose(g, s) for g in frontier for s in generators} - reached
        reached = reached | frontier
    return reached


def cyclotomic_coordinates(order, vector) -> tuple:
    """The reduced coordinates of sum_k vector[k] z^k, by the reference power table."""
    table = long_power_table(order)
    out = [0] * len(table[0])
    for k, c in enumerate(vector):
        out = [a + c * r for a, r in zip(out, table[k])]
    return tuple(out)


class Readers:
    """Library and reference readers of each file kind, with the group or
    matrix a file is read against built once per text."""

    def __init__(self):
        self.groups = {}
        self.matrices = {}

    def group(self, text):
        if text not in self.groups:
            degree, generators = grammar.group_file(text)
            self.groups[text] = parse_group_file(text), degree, members_of(degree, generators)
        return self.groups[text]

    def n_states(self, text):
        if text not in self.matrices:
            self.matrices[text] = parse_matrix_file(text).n
        return self.matrices[text]

    def library(self, kind, text, group_text, matrix_text):
        if kind == "group":
            degree, gens = parse_generators(text)
            return degree, tuple(gens)
        if kind == "element":
            G = self.group(group_text)[0]
            a = parse_element_file(text, G)
            order = a.field.order
            return order, {G.images[g]: tuple(c.coeffs) if order else c for g, c in a.support()}
        if kind == "matrix":
            return tuple(map(tuple, parse_matrix_file(text).rows))
        if kind == "dist":
            return parse_distribution_file(text).probs
        f = parse_lump_file(text, self.n_states(matrix_text))
        return tuple(f.labels[k] for k in f.lump_of)

    def reference(self, kind, text, group_text, matrix_text):
        if kind == "group":
            return grammar.group_file(text)
        if kind == "element":
            _, degree, members = self.group(group_text)
            order, terms = grammar.element_file(text, degree, members)
            if order:
                terms = {g: cyclotomic_coordinates(order, v) for g, v in terms.items()}
            nonzero = any if order else bool
            return order, {g: v for g, v in terms.items() if nonzero(v)}
        if kind == "matrix":
            return grammar.matrix_file(text)
        if kind == "dist":
            return grammar.distribution_file(text)
        return grammar.lump_file(text, self.n_states(matrix_text))


def outcome(read, *args):
    """("ok", meaning), ("input error",) or ("precondition",)."""
    try:
        return "ok", read(*args)
    except (grammar.Rejected, InputFormatError):
        return ("input error",)
    except (grammar.Refused, DomainError, ResourceError):
        return ("precondition",)


def run_request(tmp_path, argv, slot, text):
    """Exit code and standard error of the request with `text` as its file at `slot`."""
    paths = []
    for k, item in enumerate(argv):
        if isinstance(item, tuple):
            path = tmp_path / f"in{k}.txt"
            path.write_text(text if k == slot else item[1])
            item = str(path)
        paths.append(item)
    result = run_main(*paths)
    return result.returncode, result.stderr


def test_parsers_agree_with_the_reference_grammar(tmp_path):
    rng = random.Random(SEED)
    readers = Readers()
    requests = golden_requests() + bench_requests(tmp_path / "bench")
    seen, counts = set(), {"ok": 0, "input error": 0, "precondition": 0}
    for argv in requests:
        group_text, matrix_text = context(argv)
        for slot, value in enumerate(argv):
            if not isinstance(value, tuple) or value in seen:
                continue
            seen.add(value)
            kind, text = value
            for _ in range(MUTATIONS_PER_FILE):
                mutated = text
                for _ in range(rng.randint(1, 2)):
                    mutated = mutate(rng, mutated)
                args = (kind, mutated, group_text, matrix_text)
                expected = outcome(readers.reference, *args)
                assert outcome(readers.library, *args) == expected, (kind, mutated)
                counts[expected[0]] += 1
                if expected[0] == "input error":
                    code, err = run_request(tmp_path, argv, slot, mutated)
                    assert code == 1 and err.startswith("lumpwalk: input error: "), (argv, err)
    assert all(counts.values()), counts  # every outcome is reached
