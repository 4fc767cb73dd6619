"""End-to-end CLI runs: exit codes, report stability, schema validation."""

import json
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import run_main

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "lumpwalk" / "schema" / "report.schema.json"

GROUP = "degree 4\ngen (1,2)\ngen (1,2,3,4)\n"
SUBGROUP = "degree 4\ngen (2,3)\ngen (2,3,4)\n"
CYCLIC = "degree 4\ngen (1,2,3,4)\n"
INNER = "degree 4\ngen (2,3)\n"
WEIGHT = "1/4 id\n1/4 (1,4)(2,3)\n1/4 (1,4,3)\n1/4 (1,4,2,3)\n"
DIST_ID = "1 id\n"
DIST_ETA_T = "1/2 id\n1/2 (2,3)\n"
IDEMPOTENT = "1/2 id\n1/2 (2,3)\n"
NONWEAK = "1/2 (1,2)\n1/2 (1,2,3,4)\n"
TOP_TO_RANDOM = "1/4 id\n1/4 (1,2)\n1/4 (1,3,2)\n1/4 (1,4,3,2)\n"
DIE = "1/4 (3,4)\n1/6 (2,4,3)\n1/6 (1,2)\n1/12 (1,3,4)\n1/4 (1,4,2)\n1/12 (1,4,2,3)\n"
# the witness idempotent e_P of `abelian-test` on the die, in its cyclotomic file form
E_P = "scalar cyclotomic 4\n3/4 id\n1/4 (1,2,3,4)\n-1/4 (1,3)(2,4)\n1/4 (1,4,3,2)\n"
DIE_STAR = "1/4 (3,4)\n1/6 (2,3,4)\n1/6 (1,2)\n1/4 (1,2,4)\n1/12 (1,3,2,4)\n1/12 (1,4,3)\n"
TRANSPOSITIONS = "".join(f"1/6 ({i},{j})\n" for i in range(1, 5) for j in range(i + 1, 5))
DIHEDRAL = "degree 5\ngen (1,2,3,4,5)\ngen (2,5)(3,4)\n"
REFLECTION = "degree 5\ngen (2,5)(3,4)\n"
DIHEDRAL_WEIGHT = "1/2 (1,2,3,4,5)\n1/4 (2,5)(3,4)\n1/4 (1,5,4,3,2)\n"
DIHEDRAL_ROTATIONS = "1/2 (1,2,3,4,5)\n1/2 (1,5,4,3,2)\n"
SYM5 = "degree 5\ngen (1,2)\ngen (1,2,3,4,5)\n"
TOP5 = "degree 5\ngen (2,3)\ngen (2,3,4,5)\n"
BOTTOM5 = "1/4 (1,5,4,3,2)\n1/4 (1,5,3,2)\n1/4 (1,5,2)\n1/4 (1,5)\n"
BOTTOM5_STAR = "1/4 (1,2,3,4,5)\n1/4 (1,2,3,5)\n1/4 (1,2,5)\n1/4 (1,5)\n"
RTT5 = "1/5 id\n1/5 (1,2)\n1/5 (1,2,3)\n1/5 (1,2,3,4)\n1/5 (1,2,3,4,5)\n"
DIST5_SWAP = "1/2 id\n1/2 (1,2)\n"
DIST5_S3 = "".join(f"1/6 {g}\n" for g in ("id", "(2,3)", "(2,4)", "(3,4)", "(2,3,4)", "(2,4,3)"))
# idempotents of the top-card problem: eta_H, and the time-reversal dual of eta_T
ETA_H = "".join(f"1/6 {g}\n" for g in ("id", "(2,3)", "(2,4)", "(3,4)", "(2,3,4)", "(2,4,3)"))
DUAL_ETA_T = "2/3 id\n1/6 (3,4)\n-1/3 (2,3)\n1/6 (2,3,4)\n1/6 (2,4,3)\n1/6 (2,4)\n"
INNER_34 = "degree 4\ngen (3,4)\n"
INNER_234 = "degree 4\ngen (2,3,4)\n"
# elements w that are not weights: `stable-check` takes them all
SIGNED = "-1/4 id\n-1/4 (1,4)(2,3)\n-1/4 (1,4,3)\n-1/4 (1,4,2,3)\n"  # minus the frustrator
MIXED_SIGN = WEIGHT + "-1 (1,2)\n"
ROTATED = "scalar cyclotomic 4\n" + "".join(f"1/4*z {line.split()[1]}\n" for line in WEIGHT.splitlines())
ROTATED_DIE = "scalar cyclotomic 4\n1/4+z (3,4)\n-1/6 (2,4,3)\n1/6*z (1,2)\n1/4 (1,4,2)\n"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_weak_reports.json"
ABELIAN_GOLDEN_PATH = Path(__file__).resolve().parent / "golden_abelian_reports.json"
VERDICT_GOLDEN_PATH = Path(__file__).resolve().parent / "golden_verdict_reports.json"
GENERIC_GOLDEN_PATH = Path(__file__).resolve().parent / "golden_generic_reports.json"
CLI_GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cli_reports.json"
CLI_TEXT_GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cli_text.json"


def write_files(tmp_path):
    paths = {}
    for name, text in [
        ("group", GROUP), ("subgroup", SUBGROUP), ("cyclic", CYCLIC),
        ("inner", INNER), ("weight", WEIGHT), ("dist_id", DIST_ID),
        ("dist_eta_t", DIST_ETA_T), ("idempotent", IDEMPOTENT), ("nonweak", NONWEAK),
        ("top_to_random", TOP_TO_RANDOM),
        ("die", DIE), ("e_p", E_P), ("die_star", DIE_STAR), ("transpositions", TRANSPOSITIONS),
        ("dihedral", DIHEDRAL), ("reflection", REFLECTION),
        ("dihedral_weight", DIHEDRAL_WEIGHT), ("dihedral_rotations", DIHEDRAL_ROTATIONS),
        ("sym5", SYM5), ("top5", TOP5), ("bottom5", BOTTOM5), ("bottom5_star", BOTTOM5_STAR),
        ("rtt5", RTT5),
        ("dist5_swap", DIST5_SWAP), ("dist5_s3", DIST5_S3),
        ("eta_h", ETA_H), ("dual_eta_t", DUAL_ETA_T), ("inner_34", INNER_34),
        ("inner_234", INNER_234),
    ]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


@pytest.fixture()
def files(tmp_path):
    return write_files(tmp_path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lumpwalk.cli", *args],
        capture_output=True, text=True,
    )


def common(files, *extra):
    return ["--group", files["group"], "--subgroup", files["subgroup"], *extra]


def test_weak_verdict_and_dims(files):
    result = run_cli("test", "weak", *common(files, "--weight", files["weight"]), "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["verdicts"]["weak"] is True
    assert report["dimensions"]["minimal_ideal"] == 12


def test_jw_full_algebra_for_averaged_weight(files, tmp_path, sym4, mid_swap_T, frustrator):
    from lumpwalk import eta
    from lumpwalk.algebra import format_element

    averaged = eta(sym4, mid_swap_T) * frustrator
    wfile = tmp_path / "averaged.txt"
    wfile.write_text(format_element(averaged))
    result = run_cli("jw", *common(files, "--weight", str(wfile)), "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["dimensions"]["ideal"] == 24


def test_dist_verdicts(files):
    result = run_cli(
        "test-dist", *common(files, "--weight", files["weight"], "--dist", files["dist_id"]), "--json"
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdicts"]["weak_for_start"] is False
    result = run_cli(
        "test-dist", *common(files, "--weight", files["weight"], "--dist", files["dist_eta_t"]), "--json"
    )
    assert json.loads(result.stdout)["verdicts"]["weak_for_start"] is True


def test_exit_codes(files, tmp_path):
    # usage error, through the module entry point; every other case runs in process
    assert run_cli("test", "weak", "--group", files["group"]).returncode == 1
    # unknown subcommand
    assert run_main("frobnicate").returncode == 1
    # parse error in an input file
    bad = tmp_path / "bad.txt"
    bad.write_text("degree x\n")
    assert run_main("cosets", "--group", str(bad), "--subgroup", files["subgroup"]).returncode == 1
    # precondition violation: reducible weight into lw
    reducible = tmp_path / "reducible.txt"
    reducible.write_text("1 id\n")
    result = run_main("lw", *common(files, "--weight", str(reducible)))
    assert result.returncode == 2
    assert "precondition" in result.stderr
    # subgroup not inside the group
    deg5 = tmp_path / "deg5.txt"
    deg5.write_text("degree 5\ngen (1,2)\n")
    assert run_main("cosets", "--group", files["group"], "--subgroup", str(deg5)).returncode == 2
    # a walk longer than the step cap stops before its first draw
    from lumpwalk.simulate import STEP_CAP
    result = run_main("simulate", *common(files, "--weight", files["weight"], "--dist",
                                          files["dist_eta_t"]), "--length", str(STEP_CAP + 1))
    assert result.returncode == 2
    assert f"walk length {STEP_CAP + 1} exceeds the cap {STEP_CAP}" in result.stderr
    # malformed input files and flag values: exit 1 with a message, no traceback
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    matrix = write("matrix.txt", "states 2\n1/2 1/2\n1/2 1/2\n")
    lumpmap = write("lumps.txt", "lump 0 a\nlump 1 b\n")
    malformed = [
        ["test", "weak", *common(files, "--weight", write("zero_den.txt", "1/0 id\n"))],
        ["test", "weak", *common(files, "--weight", write("zero_den_z.txt", "scalar cyclotomic 4\n1/0*z id\n"))],
        ["test", "weak", *common(files, "--weight", write("bad_order.txt", "scalar cyclotomic x\n1 id\n"))],
        ["generic-test", "weak", "--matrix", write("zero_den_mat.txt", "states 2\n1/0 1\n1/2 1/2\n"),
         "--lumpmap", lumpmap],
        ["generic-test", "weak", "--matrix", matrix, "--lumpmap", write("bad_state.txt", "lump x a\nlump 1 b\n")],
        ["generic-test", "weak", "--matrix", matrix, "--lumpmap", lumpmap,
         "--dist", write("bad_states.txt", "states x\n1/2 1/2\n")],
        ["simulate", *common(files, "--weight", files["weight"], "--dist", files["dist_eta_t"]),
         "--length", "-5"],
        ["test", "weak", *common(files, "--weight", write("overlap.txt", "1 (1,2,3)(1,2,3)\n"))],
        ["cosets", "--group", write("overlap_group.txt", "degree 4\ngen (1,2)(2,1)\n"),
         "--subgroup", files["subgroup"]],
        ["generic-test", "strong", "--matrix", matrix,
         "--lumpmap", write("twice.txt", "lump 0 a\nlump 1 b\nlump 1 a\n")],
        ["cosets", "--group", write("two_degrees.txt", "degree 3\ngen (1,2)\ndegree 4\n"
                                                       "gen (1,2,3,4)\n"),
         "--subgroup", files["subgroup"]],
        # a header keyword is a whole token, and `degree` and `states` take one field
        ["cosets", "--group", write("degrees.txt", "degrees 4\ngen (1,2)\n"),
         "--subgroup", files["subgroup"]],
        ["cosets", "--group", files["group"],
         "--subgroup", write("degree_two_fields.txt", "degree 4 9\ngen (2,3)\n")],
        ["cosets", "--group", write("generate.txt", "degree 4\ngenerate (2,3)\n"),
         "--subgroup", files["subgroup"]],
        ["test", "weak", *common(files, "--weight", write("scalar_x.txt",
                                                          "scalarX cyclotomic 4\n1 id\n"))],
        ["generic-test", "weak", "--matrix", write("statesman.txt", "statesman 2\n1 0\n0 1\n"),
         "--lumpmap", lumpmap],
        ["generic-test", "weak", "--matrix", matrix, "--lumpmap", lumpmap,
         "--dist", write("states_two_fields.txt", "states 2 5\n1/2 1/2\n")],
    ]
    for argv in malformed:
        result = run_main(*argv)
        assert result.returncode == 1, (argv, result.stderr)
        assert "Traceback" not in result.stderr, argv
    # a bare `gen` line, and whitespace between two digits of a literal or of
    # cycle notation: each an input error, never a generator or a number read
    # with another meaning
    deg12 = ["--group", write("deg12.txt", "degree 12\ngen (1 2,3)\n"),
             "--subgroup", write("deg12_sub.txt", "degree 12\ngen (12,3)\n")]
    bare_gen = write("bare_gen.txt", "degree 4\ngen\n")
    cyclotomic = write("spaced_z.txt", "scalar cyclotomic 4\nz^1 2 id\n")
    dist = ["--dist", files["dist_eta_t"]]
    messages = [
        (["cosets", "--group", files["group"], "--subgroup", bare_gen],
         "line 2: gen without cycles or id"),
        (["test", "weak", *common(files, "--weight", write("spaced.txt", "1 2 id\n"))],
         "line 1: whitespace between digits in '1 2'"),
        (["test", "weak", *common(files, "--weight", write("spaced_q.txt", "1/2 3 id\n"))],
         "line 1: whitespace between digits in '1/2 3'"),
        (["test", "weak", *common(files, "--weight", cyclotomic)],
         "line 2: whitespace between digits in 'z^1 2'"),
        (["cosets", *deg12], "line 2: whitespace between digits in '(1 2,3)'"),
        (["conditional", *common(files, "--weight", files["weight"], *dist), "--obs", "(1 2,3)"],
         "whitespace between digits in '(1 2,3)'"),
        # an error of one line names that line: weight, group, subgroup, --dist and matrix files
        (["test", "weak", *common(files, "--weight", write("line5.txt", WEIGHT + "1 2 (1,4)\n"))],
         "line 5: whitespace between digits in '1 2'"),
        (["cosets", "--group", write("open_group.txt", "degree 4\n# S4\ngen (1,2\n"),
          "--subgroup", files["subgroup"]], "line 3: bad cycle notation '(1,2'"),
        (["cosets", "--group", files["group"],
          "--subgroup", write("open_sub.txt", "degree 4\ngen (2,3)\ngen (2,3\n")],
         "line 3: bad cycle notation '(2,3'"),
        (["test-dist", *common(files, "--weight", files["weight"], "--dist",
                               write("dist_zero.txt", "1/2 id\n1/0 (2,3)\n"))],
         "line 2: zero denominator in rational literal '1/0'"),
        (["generic-test", "weak", "--matrix", write("x_row.txt", "states 2\n1/2 1/2\n1 x\n"),
          "--lumpmap", lumpmap], "line 3: bad rational literal 'x'"),
        (["generic-test", "weak", "--matrix", matrix, "--lumpmap", lumpmap,
          "--dist", write("chain_zero.txt", "states 2\n\n1/0 1\n")],
         "line 3: zero denominator in rational literal '1/0'"),
    ]
    for argv, message in messages:
        result = run_main(*argv)
        assert result.returncode == 1, (argv, result.stderr)
        assert result.stderr == f"lumpwalk: input error: {message}\n", argv
    # an element outside the group is a precondition, and names its line too
    result = run_main("test", "weak", "--group", write("c4.txt", CYCLIC),
                      "--subgroup", write("c2.txt", "degree 4\ngen (1,3)(2,4)\n"),
                      "--weight", write("outside.txt", "1/2 (1,2,3,4)\n1/2 (1,2)\n"))
    assert result.returncode == 2
    assert result.stderr == ("lumpwalk: precondition violated: "
                             "line 2: (1,2) is not an element of this group\n")
    # a bad row of a matrix file names its row, the state number of a lump file
    result = run_main("generic-test", "weak",
                      "--matrix", write("row1.txt", "states 3\n1 0 0\n1/2 1/3 0\n0 0 1\n"),
                      "--lumpmap", write("lumps3.txt", "lump 0 a\nlump 1 a\nlump 2 b\n"))
    assert result.returncode == 2
    assert result.stderr == ("lumpwalk: precondition violated: "
                             "row 1 of the transition matrix does not sum to 1\n")
    # verdict false is still exit 0
    result = run_main(
        "test-dist", *common(files, "--weight", files["weight"], "--dist", files["dist_id"])
    )
    assert result.returncode == 0


CHAIN_2 = ("states 2\n1 0\n0 1\n", "lump 0 a\nlump 1 b\n", "states 2\n1/2 1/2\n")
# (role, valid file or flag value, the same with one numeral that `int` or `\d` would read,
#  the message of the exit-1 line)
NUMERAL_CASES = [
    ("group", GROUP, GROUP.replace("4", "٤", 1), "bad degree line"),
    ("group", GROUP, GROUP.replace("4", "0_4", 1), "bad degree line"),
    ("group", GROUP, GROUP.replace("4", "+4", 1), "bad degree line"),
    ("weight", "scalar cyclotomic 4\n" + WEIGHT, "scalar cyclotomic ٣\n" + WEIGHT,
     "bad cyclotomic order"),
    ("weight", "scalar cyclotomic 4\n" + WEIGHT, "scalar cyclotomic 0_4\n" + WEIGHT,
     "bad cyclotomic order"),
    ("weight", WEIGHT, WEIGHT.replace("1/4", "١/4", 1), "bad rational literal"),
    ("weight", WEIGHT, WEIGHT.replace("1/4", "1/４", 1), "bad rational literal"),
    ("weight", "scalar cyclotomic 4\n" + WEIGHT.replace("1/4 id", "1/4*z^4 id"),
     "scalar cyclotomic 4\n" + WEIGHT.replace("1/4 id", "1/4*z^٤ id"),
     "bad cyclotomic term"),
    ("matrix", CHAIN_2[0], CHAIN_2[0].replace("1 0", "١ 0"), "bad rational literal"),
    ("matrix", CHAIN_2[0], CHAIN_2[0].replace("2", "+2"), "bad states header"),
    ("matrix", CHAIN_2[0], CHAIN_2[0].replace("2", "٢"), "bad states header"),
    ("chain_dist", CHAIN_2[2], CHAIN_2[2].replace("2", "+2", 1), "bad states header"),
    ("lumpmap", CHAIN_2[1], CHAIN_2[1].replace("1 b", "+1 b"), "bad state"),
    ("lumpmap", CHAIN_2[1], CHAIN_2[1].replace("0 a", "0_0 a"), "bad state"),
    ("lumpmap", CHAIN_2[1], CHAIN_2[1].replace("0 a", "٠ a"), "bad state"),
    ("--length", "5", "٥", "invalid int value"),
    ("--seed", "3", "+3", "invalid int value"),
    ("--seed", "10", "1_0", "invalid int value"),
]


# (file kind, text, the message of its input error): the header keywords
# `degree`, `gen`, `scalar` and `states` are whole tokens, not prefixes
HEADER_CASES = [
    ("group", "degrees 4\ngen (1,2)\n", "line 1: unrecognized line 'degrees 4'"),
    ("group", "degree 4 9\ngen (1,2)\n", "line 1: bad degree line 'degree 4 9'"),
    ("group", "degree 4\ngenerate (2,3)\n", "line 2: unrecognized line 'generate (2,3)'"),
    ("weight", "scalarX cyclotomic 4\n1 id\n", "line 1: bad rational literal 'scalarXcyclotomic'"),
    ("matrix", "statesman 2\n1 0\n0 1\n", "matrix file must start with `states <N>`"),
    ("chain_dist", "states 2 5\n1/2 1/2\n", "line 1: bad states header"),
]


@pytest.mark.parametrize("kind, text, message", HEADER_CASES)
def test_header_keywords_are_whole_tokens(sym4, kind, text, message):
    from lumpwalk.algebra import parse_element_file
    from lumpwalk.errors import InputFormatError
    from lumpwalk.groups import parse_generators
    from lumpwalk.markov import parse_distribution_file, parse_matrix_file

    parse = {"group": parse_generators, "weight": lambda t: parse_element_file(t, sym4),
             "matrix": parse_matrix_file, "chain_dist": parse_distribution_file}[kind]
    with pytest.raises(InputFormatError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("role, valid, bad, message", NUMERAL_CASES)
def test_numeric_fields_read_ascii_digits_only(tmp_path, role, valid, bad, message):
    """Every numeric field, in a file or a flag, is ASCII digits: another
    Unicode digit, a `_` separator or a `+` sign that `int` or the regular
    expression `\\d` would read exits 1 with the field's message, while the
    same input with ASCII digits exits 0."""
    texts = {"group": GROUP, "subgroup": SUBGROUP, "weight": WEIGHT, "dist": DIST_ETA_T,
             "matrix": CHAIN_2[0], "lumpmap": CHAIN_2[1], "chain_dist": CHAIN_2[2]}
    chain = role in ("matrix", "lumpmap", "chain_dist")

    def run(value):
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(value if name == role else text, encoding="utf-8")
        if chain:
            argv = ["generic-test", "weak", "--matrix", paths["matrix"], "--lumpmap",
                    paths["lumpmap"], "--dist", paths["chain_dist"]]
        else:
            argv = ["simulate", "--group", paths["group"], "--subgroup", paths["subgroup"],
                    "--weight", paths["weight"], "--dist", paths["dist"], "--length", "5"]
        if role.startswith("--"):
            argv += [role, value]
        result = run_main(*argv)
        return result.returncode, result.stderr

    assert run(valid) == (0, "")
    code, err = run(bad)
    assert code == 1 and message in err and "Traceback" not in err, (bad, err)


CHAIN_MATRIX = "states 4\n1/2 1/2 0 0\n0 1/2 1/2 0\n0 0 1/2 1/2\n1/2 0 0 1/2\n"
CHAIN_LUMPMAP = "lump 0 a\nlump 1 a\nlump 2 b\nlump 3 b\n"
CHAIN_DIST = "states 4\n1/2 0 1/2 0\n"
# every input-file role with a valid file, and the command that reads it
FUZZ_ROLES = {
    "group": (GROUP, "test weak"),
    "subgroup": (SUBGROUP, "test weak"),
    "weight": (WEIGHT, "test weak"),
    "dist": (DIST_ETA_T, "test-dist"),
    "idempotent": (IDEMPOTENT, "stable-check"),
    "inner_subgroup": (INNER, "interpolate"),
    "matrix": (CHAIN_MATRIX, "generic-test weak"),
    "lumpmap": (CHAIN_LUMPMAP, "generic-test weak"),
    "chain_dist": (CHAIN_DIST, "generic-test weak"),
}
FUZZ_COMMANDS = {
    "test weak": "test weak --group {group} --subgroup {subgroup} --weight {weight}",
    "test-dist": "test-dist --group {group} --subgroup {subgroup} --weight {weight} --dist {dist}",
    "stable-check": "stable-check --group {group} --subgroup {subgroup} --weight {weight} "
                    "--idempotent {idempotent}",
    "interpolate": "interpolate --group {group} --subgroup {subgroup} --weight {weight} "
                   "--inner-subgroup {inner_subgroup}",
    "generic-test weak": "generic-test weak --matrix {matrix} --lumpmap {lumpmap} --dist {chain_dist}",
    "simulate": "simulate --group {group} --subgroup {subgroup} --weight {weight} --dist {dist} "
                "--length 20 --trajectory-out {trajectory}/lumps.txt",
}
FUZZ_TOKENS = [b"0", b"1", b"2", b"5", b"-", b"/", b",", b"(", b")", b" ", b"\n", b"#",
               b"x", b"\xff", b"id", b"-1", b"1/0", b"gen ", b"degree ", b"states ", b"lump "]


@st.composite
def mutated_input(draw):
    """(command, {role: bytes}, expected exit code): one valid file with a few edits."""
    role = draw(st.sampled_from(sorted(FUZZ_ROLES)))
    text, command = FUZZ_ROLES[role]
    data = text.encode()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "delete", "replace", "drop line", "repeat line"]))
        if kind in ("insert", "replace"):
            token = draw(st.sampled_from(FUZZ_TOKENS))
            data = data[:at] + token + data[at + (kind == "replace"):]
        elif kind == "delete":
            data = data[:at] + data[at + 1:]
        else:
            lines = data.splitlines(keepends=True)
            if lines:
                k = at % len(lines)
                lines[k:k + 1] = [] if kind == "drop line" else [lines[k]] * 2
                data = b"".join(lines)
    return command, {role: data}, None


@settings(max_examples=200, deadline=None, derandomize=True)
@example(("test weak", {"group": b"degree 4\ngen (1,2,)\ngen (1,2,3,4)\n"}, 1))
@example(("test weak", {"weight": b"1 (,4,2,3)\n"}, 1))
@example(("test weak", {"weight": b"1/4 id\n1/4 (1,4)(2,3)\xff\n"}, 1))
@example(("test weak", {"group": b"degree -1\n"}, 1))
@example(("test weak", {"group": b"degree 1000000\ngen (1,2)\n"}, 2))
@example(("test weak", {"subgroup": b"degree 1000000\ngen (1,2)\n"}, 2))
@example(("generic-test weak", {"matrix": b"states 0\n", "lumpmap": b""}, 1))
@example(("generic-test weak", {"chain_dist": b"states 5\n1/5 1/5 1/5 1/5 1/5\n"}, 2))
@example(("simulate", {"trajectory": b"a file where a directory should be\n"}, 1))
@given(mutated_input())
def test_mutated_inputs_exit_cleanly(case):
    """A mutated input file of any role ends in exit 0, 1 or 2, never in an
    exception; a nonzero exit prints one `lumpwalk:` line and nothing else.

    Each file is the valid one of its role unless the case replaces it; the
    trajectory role is the directory `simulate` writes into, a plain file
    when replaced.
    """
    command, replaced, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"trajectory": str(Path(tmp) / "trajectory")}
        for role, (text, _) in FUZZ_ROLES.items():
            paths[role] = str(Path(tmp) / f"{role}.txt")
            Path(paths[role]).write_bytes(text.encode())
        for role, data in replaced.items():
            Path(paths[role]).write_bytes(data)
        if "trajectory" not in replaced:
            Path(paths["trajectory"]).mkdir()
        result = run_main(*FUZZ_COMMANDS[command].format(**paths).split())
    code, out, err = result.returncode, result.stdout, result.stderr
    assert "Traceback" not in err, (case, err)
    assert code in (0, 1, 2), (case, code)
    if expected is not None:
        assert code == expected, (case, err)
    if code:
        assert err.startswith("lumpwalk: ") and err.count("\n") == 1, case
        assert not out, case


def test_internal_error_exits_2_without_traceback(files, monkeypatch, capsys):
    from lumpwalk import cli
    from lumpwalk.errors import InvariantError

    def broken(*args, **kwargs):
        raise InvariantError("conjugate character missing")

    monkeypatch.setattr(cli, "abelian_weak_test", broken)
    argv = ["abelian-test", "--group", files["group"], "--subgroup", files["cyclic"],
            "--weight", files["die"]]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "lumpwalk: error: conjugate character missing\n"


def golden_cases(files):
    """The weak-path requests whose reports are pinned in GOLDEN_PATH.

    The S4 top-card problem with the frustrator, and the larger cut of S5 over
    its top-card stabilizer S4 with bottom-card and random-to-top.
    """
    weight = common(files, "--weight", files["weight"])
    out = {
        "test-weak": ["test", "weak", *weight],
        "test-weak-nonweak": ["test", "weak", *common(files, "--weight", files["nonweak"])],
        "lw": ["lw", *weight],
        "jw": ["jw", *weight],
        "l-alpha-eta-t": ["l-alpha", *weight, "--dist", files["dist_eta_t"]],
        "l-alpha-id": ["l-alpha", *weight, "--dist", files["dist_id"]],
        "test-dist-eta-t": ["test-dist", *weight, "--dist", files["dist_eta_t"]],
        "test-dist-id": ["test-dist", *weight, "--dist", files["dist_id"]],
    }
    for name in ("bottom5", "rtt5"):
        s5 = ["--group", files["sym5"], "--subgroup", files["top5"], "--weight", files[name]]
        out[f"s5-test-weak-{name}"] = ["test", "weak", *s5]
        out[f"s5-jw-{name}"] = ["jw", *s5]
        for dist in ("dist_id", "dist5_swap", "dist5_s3"):
            out[f"s5-test-dist-{name}-{dist}"] = ["test-dist", *s5, "--dist", files[dist]]
    # the reversed bottom-card weight: weak, neither strong nor exact, and its
    # maximal ideal lies strictly between the minimal one and the whole algebra
    s5 = ["--group", files["sym5"], "--subgroup", files["top5"], "--weight", files["bottom5_star"]]
    out["s5-test-weak-bottom5_star"] = ["test", "weak", *s5]
    out["s5-jw-bottom5_star"] = ["jw", *s5]
    for dist in ("dist_id", "dist5_swap"):
        out[f"s5-test-dist-bottom5_star-{dist}"] = ["test-dist", *s5, "--dist", files[dist]]
    return out


def golden_report(capsys, argv):
    """The --json report of a request, run through `cli.main` in this process,
    with the machine-specific input paths removed."""
    code, out, err = run_in_process(capsys, [*argv, "--json"])
    assert (code, err) == (0, ""), (argv, err)
    report = json.loads(out)
    for entry in report["inputs"].values():
        del entry["path"]
    return report


def test_golden_weak_reports(files, capsys):
    expected = json.loads(GOLDEN_PATH.read_text())
    cases = golden_cases(files)
    assert set(cases) == set(expected)
    for name, argv in cases.items():
        assert golden_report(capsys, argv) == expected[name], name


def test_request_frees_its_problem_without_the_cycle_collector(files, capsys, monkeypatch):
    """The `LumpingProblem` of a request is freed by reference counting once
    the request returns: with the cycle collector off, a weak reference to it
    is dead after every weak command, so what a problem keeps (the cuts of
    L_w) holds no reference back to it."""
    import gc
    import weakref

    from lumpwalk import cli

    problems = []

    class Recorded(cli.LumpingProblem):
        def __init__(self, G, H):
            super().__init__(G, H)
            problems.append(weakref.ref(self))

    monkeypatch.setattr(cli, "LumpingProblem", Recorded)
    weak = common(files, "--weight", files["weight"])
    strong = ["--group", files["sym5"], "--subgroup", files["top5"], "--weight", files["rtt5"]]
    requests = [["test", "weak", *weak], ["lw", *weak], ["jw", *weak],
                ["test-dist", *weak, "--dist", files["dist_eta_t"]],
                ["test-dist", *weak, "--dist", files["dist_id"]],
                ["l-alpha", *weak, "--dist", files["dist_eta_t"]],
                ["test-dist", *common(files, "--weight", files["nonweak"]),
                 "--dist", files["dist_id"]],
                ["test", "weak", *common(files, "--weight", files["nonweak"])],
                ["jw", *strong], ["test-dist", *strong, "--dist", files["dist5_swap"]]]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv in requests:
            problems.clear()
            assert cli.main(argv + ["--json"]) == 0, argv
            assert len(problems) == 1 and problems[0]() is None, argv
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_weak_commands_build_no_fraction_rows(files, capsys, monkeypatch):
    """The weak commands read the integer echelon of each cut: every golden
    `test weak`, `lw`, `l-alpha`, `jw` and `test-dist` request on S4 and S5,
    a false `test weak` among them, gives its pinned report with no
    `Subspace` built or copied."""
    from lumpwalk.linalg import IntegerRows, Subspace, _RowStore
    from tests.reference import to_subspace

    built = Counter()

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            if isinstance(self, Subspace):
                built[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(_RowStore, "__init__", counted("Subspace", _RowStore.__init__))
    monkeypatch.setattr(_RowStore, "copy", counted("Subspace.copy", _RowStore.copy))
    expected = json.loads(GOLDEN_PATH.read_text())
    commands = Counter()
    for name, argv in golden_cases(files).items():
        report = golden_report(capsys, argv)
        assert report == expected[name], name
        assert not built, (name, built)
        commands[" ".join(argv[:2]) if argv[0] == "test" else argv[0], report["verdicts"].get("weak")] += 1
    assert set(commands) == {("test weak", True), ("test weak", False), ("lw", None),
                             ("l-alpha", None), ("jw", None), ("test-dist", None)}, commands
    to_subspace(IntegerRows(2, [[1, 2]]).echelon()).copy()  # the counters count
    assert built == Counter({"Subspace": 1, "Subspace.copy": 1})


def abelian_golden_cases(files):
    """The abelian-test requests whose reports are pinned in ABELIAN_GOLDEN_PATH."""
    out = {}
    for weight in ("weight", "nonweak", "die", "die_star"):
        argv = ["abelian-test", "--group", files["group"], "--subgroup", files["cyclic"],
                "--weight", files[weight]]
        out[f"abelian-{weight}"] = argv
        out[f"abelian-{weight}-real-only"] = [*argv, "--real-only"]
    return out


def test_golden_abelian_reports(files, sym4, capsys):
    from lumpwalk.algebra import parse_element_file

    assert parse_element_file(DIE_STAR, sym4) == parse_element_file(DIE, sym4).star()
    expected = json.loads(ABELIAN_GOLDEN_PATH.read_text())
    cases = abelian_golden_cases(files)
    assert set(cases) == set(expected)
    for name, argv in cases.items():
        assert golden_report(capsys, argv) == expected[name], name


def verdict_golden_cases(files):
    """The strong, exact, lumped-q and orbital requests pinned in VERDICT_GOLDEN_PATH.

    Top-card S4/S{2,3,4}, the die S4/C4 and the dihedral D10/<(2,5)(3,4)>; all
    three have commutative Hecke algebras.
    """
    problems = {
        "top": ["--group", files["group"], "--subgroup", files["subgroup"]],
        "die": ["--group", files["group"], "--subgroup", files["cyclic"]],
        "dihedral": ["--group", files["dihedral"], "--subgroup", files["reflection"]],
    }
    weights = {
        "top": ["weight", "nonweak", "transpositions"],
        "die": ["die", "transpositions"],
        "dihedral": ["dihedral_weight", "dihedral_rotations"],
    }
    out = {}
    for name, problem in problems.items():
        for weight in weights[name]:
            for kind in ("strong", "exact"):
                out[f"{kind}-{name}-{weight}"] = ["test", kind, *problem, "--weight", files[weight]]
            out[f"lumped-q-{name}-{weight}"] = ["lumped-q", *problem, "--weight", files[weight]]
        out[f"orbital-{name}"] = ["orbital", *problem]
    return out


def test_golden_verdict_reports(files, capsys):
    expected = json.loads(VERDICT_GOLDEN_PATH.read_text())
    cases = verdict_golden_cases(files)
    assert set(cases) == set(expected)
    for name, argv in cases.items():
        assert golden_report(capsys, argv) == expected[name], name


def write_chain(files, tmp_path, name, group, subgroup, weight, starts):
    """Matrix and lump-map files of the walk of a weight file, lumped to left cosets.

    Also writes one distribution file per entry of `starts` that lists
    elements, uniform on them (`None` stands for the default start).  Rows are built here from the group's multiplication, not
    by `lumpwalk.markov`, whose parsing is under test.
    """
    from lumpwalk import LumpingProblem
    from lumpwalk.algebra import parse_element_file
    from lumpwalk.groups import parse_group_file

    G = parse_group_file(Path(files[group]).read_text())
    spec = parse_group_file(Path(files[subgroup]).read_text())
    H = G.subgroup([spec.elements[g] for g in spec.generators])
    w = parse_element_file(Path(files[weight]).read_text(), G)
    support = [(g, c / w.total()) for g, c in w.support()]
    rows = []
    for x in range(G.order):
        row = [Fraction(0)] * G.order
        for g, p in support:
            row[G.mul(x, g)] += p
        rows.append(" ".join(str(p) for p in row))
    coset_of = LumpingProblem(G, H).left.coset_of
    texts = {
        "matrix": f"states {G.order}\n" + "\n".join(rows) + "\n",
        "lumpmap": "".join(f"lump {x} c{c}\n" for x, c in enumerate(coset_of)),
    }
    for start, elements in starts.items():
        if elements is None:
            continue
        ids = {G.element_of(e) for e in elements}
        row = [str(Fraction(1, len(ids))) if x in ids else "0" for x in range(G.order)]
        texts[start] = f"states {G.order}\n" + " ".join(row) + "\n"
    out = {}
    for role, text in texts.items():
        path = tmp_path / f"{name}-{role}.txt"
        path.write_text(text)
        out[role] = str(path)
    return out


def generic_golden_cases(files, tmp_path):
    """The generic-test requests whose reports are pinned in GENERIC_GOLDEN_PATH.

    Walk matrices of the S4 fixtures (top-card with the frustrator, with the
    non-weak weight and with top-to-random, which lumps exactly; the die over
    C4) and of S5 over its top-card stabiliser.
    Starts: the uniform default, a point at the identity and, on the top-card
    chain, `eta_T` of the middle swap.  The point start and the non-weak weight
    pin `violating_vector` certificates.
    """
    uniform, point = {"uniform": None}, {"point": ["id"]}
    both = {**uniform, **point}
    chains = {
        "top": ("group", "subgroup", "weight", {**both, "eta-t": ["id", "(2,3)"]}),
        "top-nonweak": ("group", "subgroup", "nonweak", both),
        "top-to-random": ("group", "subgroup", "top_to_random", both),
        "die": ("group", "cyclic", "die", both),
        "s5-bottom5": ("sym5", "top5", "bottom5", uniform),
        "s5-rtt5": ("sym5", "top5", "rtt5", point),
    }
    out = {}
    for name, (group, subgroup, weight, starts) in chains.items():
        chain = write_chain(files, tmp_path, name, group, subgroup, weight, starts)
        argv = ["--matrix", chain["matrix"], "--lumpmap", chain["lumpmap"]]
        out[f"generic-strong-{name}"] = ["generic-test", "strong", *argv]
        for start, elements in starts.items():
            dist = [] if elements is None else ["--dist", chain[start]]
            for kind in ("exact", "weak"):
                out[f"generic-{kind}-{name}-{start}"] = ["generic-test", kind, *argv, *dist]
    return out


def test_golden_generic_reports(files, tmp_path, capsys):
    expected = json.loads(GENERIC_GOLDEN_PATH.read_text())
    cases = generic_golden_cases(files, tmp_path)
    assert set(cases) == set(expected)
    assert any("certificates" in report for report in expected.values())
    for name, argv in cases.items():
        assert golden_report(capsys, argv) == expected[name], name


def cli_golden_cases(files):
    """The requests of the subcommands that no other golden file pins, by name.

    On the S4 top-card problem with the frustrator: `stable-check` with a
    stable idempotent and with one that fails each condition and both,
    `interpolate` passing and failing each condition and both.  On the die
    S4/C4: `theta-dim` with the witness idempotent e_P of `abelian-test`, read
    from a cyclotomic file.
    """
    top = common(files)
    weight = common(files, "--weight", files["weight"])
    out = {
        "cosets-left": ["cosets", *top],
        "cosets-right": ["cosets", *top, "--side", "right"],
        "double-cosets": ["double-cosets", *top],
        "double-cosets-inner": ["double-cosets", *top, "--inner-subgroup", files["inner"]],
        "dual": ["dual", *top, "--idempotent", files["idempotent"]],
        "theta-dim": ["theta-dim", *top, "--idempotent", files["idempotent"]],
        "theta-dim-cyclotomic": ["theta-dim", "--group", files["group"], "--subgroup",
                                 files["cyclic"], "--idempotent", files["e_p"]],
        "conditional-ids": ["conditional", *weight, "--dist", files["dist_eta_t"], "--obs", "0,0,1"],
        "conditional-representatives": ["conditional", *weight, "--dist", files["dist_id"],
                                        "--obs", "id;(1,2,3,4)"],
        "simulate-diagnose": ["simulate", *weight, "--dist", files["dist_eta_t"],
                              "--seed", "3", "--length", "2000", "--diagnose"],
    }
    for name, idempotent in (("stable", "idempotent"), ("ideal", "eta_h"),
                             ("cut", "dist_id"), ("both", "dual_eta_t")):
        out[f"stable-check-{name}"] = ["stable-check", *weight, "--idempotent", files[idempotent]]
    for name, w, inner in (("pass", "weight", "inner"), ("both", "nonweak", "inner"),
                           ("exact", "weight", "inner_234"), ("mass", "top_to_random", "inner_34")):
        out[f"interpolate-{name}"] = ["interpolate", *common(files, "--weight", files[w]),
                                      "--inner-subgroup", files[inner]]
    return out


# the requests whose text report is pinned
CLI_TEXT_CASES = ("cosets-right", "stable-check-both", "simulate-diagnose")


def run_in_process(capsys, argv):
    """(exit code, stdout, stderr) of one `cli.main` call in this process."""
    from lumpwalk import cli

    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_golden_cli_reports(files, capsys):
    expected = json.loads(CLI_GOLDEN_PATH.read_text())
    cases = cli_golden_cases(files)
    assert set(cases) == set(expected)
    for name, argv in cases.items():
        assert golden_report(capsys, argv) == expected[name], name


def cli_text_cases(files):
    """Text reports and the `--help` of the program and of every subcommand of
    the command table, by name, as argument lists."""
    from lumpwalk import cli

    cases = cli_golden_cases(files)
    out = {f"text-{name}": cases[name] for name in CLI_TEXT_CASES}
    out["help"] = ["--help"]
    for command in cli.COMMANDS:
        out[f"help-{command.name}"] = [command.name, "--help"]
    return out


def test_golden_cli_text_and_help(files, tmp_path, capsys, monkeypatch):
    """Text reports (input paths relative to the test directory) and `--help`
    at 80 columns are byte-identical to the recorded ones."""
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(CLI_TEXT_GOLDEN_PATH.read_text())
    cases = cli_text_cases(files)
    assert set(cases) == set(expected)
    for name, argv in cases.items():
        code, out, err = run_in_process(capsys, argv)
        assert (code, err) == (0, ""), (name, err)
        assert out.replace(str(tmp_path), "<tmp>") == expected[name], name


def test_every_subcommand_has_a_golden_report(files, tmp_path):
    """A subcommand added to the command table needs a pinned report."""
    from lumpwalk import cli

    cases = [*golden_cases(files).values(), *abelian_golden_cases(files).values(),
             *verdict_golden_cases(files).values(),
             *generic_golden_cases(files, tmp_path).values(), *cli_golden_cases(files).values()]
    assert {argv[0] for argv in cases} == {command.name for command in cli.COMMANDS}


def test_no_command_takes_a_group_algebra_product(files, tmp_path, sym4, capsys, monkeypatch):
    """Every golden request, JSON and text, gives its pinned report with
    `AlgebraElement.__mul__` made to raise: no command path takes a product in
    the group algebra."""
    from lumpwalk.algebra import AlgebraElement

    def refuse(self, other):
        raise AssertionError("a group-algebra product on a command path")

    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    test_golden_weak_reports(files, capsys)
    test_golden_abelian_reports(files, sym4, capsys)
    test_golden_verdict_reports(files, capsys)
    test_golden_generic_reports(files, tmp_path, capsys)
    test_golden_cli_reports(files, capsys)
    test_golden_cli_text_and_help(files, tmp_path, capsys, monkeypatch)


def test_no_group_command_builds_a_chain(files, tmp_path, sym4, capsys, monkeypatch):
    """Every golden request but those of `generic-test`, JSON and text, gives
    its pinned report with `TransitionMatrix` and `Distribution` made to
    refuse construction: no group command builds a chain."""
    from lumpwalk.markov import Distribution, TransitionMatrix

    def refuse(self, *args, **kwargs):
        raise AssertionError("a chain built on a group command path")

    monkeypatch.setattr(TransitionMatrix, "__init__", refuse)
    monkeypatch.setattr(Distribution, "__post_init__", refuse)
    test_golden_weak_reports(files, capsys)
    test_golden_abelian_reports(files, sym4, capsys)
    test_golden_verdict_reports(files, capsys)
    test_golden_cli_reports(files, capsys)
    test_golden_cli_text_and_help(files, tmp_path, capsys, monkeypatch)


def test_test_dist_decides_irreducibility_once(files, monkeypatch):
    """A `test-dist` request asks for L_w twice, for its verdict and inside
    `compute_Jw`, and the second reads the problem's kept cut: the support of
    the weight is closed once to decide that it generates the group."""
    from lumpwalk.groups import FiniteGroup

    calls = []
    is_generating = FiniteGroup.is_generating

    def counted(self, support):
        calls.append(support)
        return is_generating(self, support)

    monkeypatch.setattr(FiniteGroup, "is_generating", counted)
    s5 = ["--group", files["sym5"], "--subgroup", files["top5"], "--dist", files["dist5_swap"]]
    for argv in (["test-dist", *common(files, "--weight", files["weight"]),
                  "--dist", files["dist_eta_t"]],
                 ["test-dist", *s5, "--weight", files["bottom5_star"]],
                 ["test-dist", *s5, "--weight", files["rtt5"]]):
        calls.clear()
        result = run_main(*argv, "--json")
        assert result.returncode == 0, result.stderr
        assert "maximal_ideal" in json.loads(result.stdout)["dimensions"], argv
        assert len(calls) == 1, argv


def test_conditional_refuses_a_group_over_the_state_cap_first(tmp_path, monkeypatch):
    """S7/S6 has 5040 states, over the cap of a chain file: `conditional`
    exits 2 before it parses `--obs` or filters, and builds no chain.  The
    start and the weight are checked before the cap."""
    from lumpwalk import cli
    from lumpwalk.markov import TransitionMatrix

    def refuse(*args, **kwargs):
        raise AssertionError("work past the state cap")

    monkeypatch.setattr(TransitionMatrix, "__init__", refuse)
    monkeypatch.setattr(cli, "conditional_law", refuse)
    paths = {}
    for name, text in (("group", "degree 7\ngen (1,2)\ngen (1,2,3,4,5,6,7)\n"),
                       ("subgroup", "degree 7\ngen (2,3)\ngen (2,3,4,5,6,7)\n"),
                       ("weight", "1/2 (1,2)\n1/2 (1,2,3,4,5,6,7)\n"),
                       ("dist", "1 id\n"), ("half", "1/2 id\n"), ("signed", "-1 (1,2)\n")):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    capped = "lumpwalk: precondition violated: state count 5040 exceeds the cap 5000\n"
    for weight, dist, obs, message in (
            ("weight", "dist", "0,0,1", capped),
            ("weight", "dist", "0,99", capped),
            ("signed", "dist", "0", "non-negative with positive total"),
            ("signed", "half", "0", "distribution must sum to 1, got 1/2")):
        result = run_main("conditional", "--group", paths["group"], "--subgroup",
                          paths["subgroup"], "--weight", paths[weight], "--dist",
                          paths[dist], "--obs", obs)
        assert result.returncode == 2 and message in result.stderr, (weight, dist, obs)
        assert result.stderr.count("\n") == 1 and not result.stdout


def test_closed_form_commands_do_not_normalize_the_weight(files, sym4, capsys, monkeypatch):
    """The goldens of `test strong`, `test exact`, `lumped-q`, `theta-dim` and
    `abelian-test` give their pinned reports with `AlgebraElement.normalized`
    made to raise: these commands divide sums of the weight by its total, not
    each of its coefficients.  `simulate` normalizes its weight to sample
    from it, so its goldens are left out."""
    from lumpwalk.algebra import AlgebraElement

    def refuse(self):
        raise AssertionError("a weight normalized coefficient by coefficient")

    monkeypatch.setattr(AlgebraElement, "normalized", refuse)
    goldens = [(VERDICT_GOLDEN_PATH, verdict_golden_cases(files)),
               (ABELIAN_GOLDEN_PATH, abelian_golden_cases(files)),
               (CLI_GOLDEN_PATH, cli_golden_cases(files))]
    checked = Counter()
    for path, cases in goldens:
        expected = json.loads(path.read_text())
        for name, argv in cases.items():
            if argv[:2] in (["test", "strong"], ["test", "exact"]) or argv[0] in (
                    "lumped-q", "theta-dim", "abelian-test"):
                assert golden_report(capsys, argv) == expected[name], name
                checked[" ".join(argv[:2]) if argv[0] == "test" else argv[0]] += 1
    assert set(checked) == {"test strong", "test exact", "lumped-q", "theta-dim", "abelian-test"}


# Runs each argument list of a JSON list on standard input through `cli.main`
# in one interpreter and prints the optimize flag and each (exit code, stdout).
OPTIMIZED_RUNNER = """
import contextlib, io, json, sys
from lumpwalk import cli
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
json.dump({"optimize": sys.flags.optimize, "results": results}, sys.stdout)
"""


def test_reports_do_not_depend_on_asserts(files, tmp_path, capsys):
    """`python -O` strips assert statements; no verdict or report may change.
    The plain side runs in this process, the whole `-O` side in one interpreter."""
    abelian = ["abelian-test", "--group", files["group"], "--subgroup", files["cyclic"]]
    chains = {}
    for name, weight in (("weak", "weight"), ("nonweak", "nonweak")):
        chain = write_chain(files, tmp_path, name, "group", "subgroup", weight, {})
        chains[name] = ["--matrix", chain["matrix"], "--lumpmap", chain["lumpmap"]]
    requests = [
        [*abelian, "--weight", files["die"]],
        [*abelian, "--weight", files["die"], "--real-only"],
        [*abelian, "--weight", files["nonweak"], "--real-only"],
        ["test", "strong", *common(files, "--weight", files["weight"])],
        ["test", "exact", *common(files, "--weight", files["weight"])],
        ["lumped-q", *common(files, "--weight", files["weight"])],
        ["orbital", *common(files)],
        ["theta-dim", "--group", files["group"], "--subgroup", files["cyclic"],
         "--idempotent", files["e_p"]],
        ["test", "weak", *common(files, "--weight", files["weight"])],
        ["test", "weak", *common(files, "--weight", files["nonweak"])],
        ["jw", *common(files, "--weight", files["weight"])],
        ["test-dist", *common(files, "--weight", files["weight"], "--dist", files["dist_eta_t"])],
        ["generic-test", "weak", *chains["weak"]],
        ["generic-test", "weak", *chains["nonweak"]],
        ["generic-test", "exact", *chains["weak"]],
        ["simulate", *common(files, "--weight", files["weight"], "--dist", files["dist_eta_t"]),
         "--seed", "3", "--length", "500", "--diagnose"],
    ]
    requests = [[*argv, "--json"] for argv in requests]
    optimized = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUNNER],
        input=json.dumps(requests), capture_output=True, text=True,
    )
    assert optimized.returncode == 0, optimized.stderr
    optimized = json.loads(optimized.stdout)
    assert optimized["optimize"] == 1
    assert len(optimized["results"]) == len(requests)
    for argv, (code, out) in zip(requests, optimized["results"]):
        plain_code, plain_out, plain_err = run_in_process(capsys, argv)
        assert plain_code == 0, (argv, plain_err)
        assert (code, out) == (plain_code, plain_out), argv


def test_reused_parser_matches_fresh_processes(files, tmp_path, capsys, monkeypatch):
    """`cli.main` keeps one parser per process; no call may see an earlier call's options."""
    from lumpwalk import cli

    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both
    chain = write_chain(files, tmp_path, "top", "group", "subgroup", "weight", {"point": ["id"]})
    generic = ["generic-test", "weak", "--matrix", chain["matrix"], "--lumpmap", chain["lumpmap"]]
    bad = tmp_path / "bad.txt"
    bad.write_text("degree x\n")
    sequence = [
        (["cosets", "--group", str(bad), "--subgroup", files["subgroup"]], 1),
        (["test", "weak", "--group", files["group"]], 1),
        ([*generic, "--dist", chain["point"], "--json"], 0),
        ([*generic, "--json"], 0),
        (["test", "weak", *common(files, "--weight", files["weight"]), "--json"], 0),
        (["--version"], 0),
        (["--help"], 0),
    ]
    parser = cli._parser()
    for argv, code in sequence:
        assert cli.main(argv) == code, argv
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._parser() is parser
    # the run without --dist took the uniform default, not the previous run's file
    assert cli.main([*generic, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["inputs"]) == {"matrix", "lumpmap"}
    assert report["verdicts"]["weak"] is True


def test_orbital_hecke_isomorphism_noncommutative(files, tmp_path):
    # the Hecke algebra of S4/V4 is not commutative
    klein = tmp_path / "klein.txt"
    klein.write_text("degree 4\ngen (1,2)(3,4)\ngen (1,3)(2,4)\n")
    result = run_cli("orbital", "--group", files["group"], "--subgroup", str(klein), "--json")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert len(report["labels"]) == 6
    assert report["verdicts"]["hecke_isomorphism"] is True


def test_byte_stable_reports(files):
    args = ["lw", *common(files, "--weight", files["weight"]), "--json"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    text1 = run_cli("lw", *common(files, "--weight", files["weight"]))
    text2 = run_cli("lw", *common(files, "--weight", files["weight"]))
    assert text1.stdout == text2.stdout


# arguments beyond the input files that a subcommand needs for a valid request
SCHEMA_EXTRA = {
    "conditional": ["--obs", "0,0"],
    "simulate": ["--seed", "3", "--length", "2000", "--diagnose"],
}


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_reports_validate_against_schema(files, tmp_path, capsys):
    """The JSON report of every subcommand of the command table, and of each
    kind of those that take one, validates against the schema."""
    from lumpwalk import cli

    schema = json.loads(SCHEMA_PATH.read_text())
    validator = jsonschema.Draft202012Validator(schema)
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("states 2\n1/2 1/2\n1/2 1/2\n")
    lumpmap = tmp_path / "lumps.txt"
    lumpmap.write_text("lump 0 a\nlump 1 b\n")
    paths = {**files, "dist": files["dist_eta_t"], "inner_subgroup": files["inner"],
             "matrix": str(matrix), "lumpmap": str(lumpmap)}
    for command in cli.COMMANDS:
        role_paths = dict(paths)
        if command.name == "abelian-test":
            role_paths["subgroup"] = files["cyclic"]  # the test needs an abelian subgroup
        argv = [command.name, *SCHEMA_EXTRA.get(command.name, [])]
        for role in command.roles:
            argv += ["--" + role.replace("_", "-"), role_paths[role]]
        kinds = [kwargs["choices"] for flags, kwargs in command.options if flags == ("kind",)]
        for kind in kinds[0] if kinds else [None]:
            request = argv if kind is None else [*argv, kind]
            code, out, err = run_in_process(capsys, [*request, "--json"])
            assert code == 0, (request, err)
            validator.validate(json.loads(out))


def test_dual_command_output(files):
    result = run_cli("dual", *common(files, "--idempotent", files["idempotent"]), "--json")
    report = json.loads(result.stdout)
    # 1 - eta_T + eta_H, support listed in canonical element order
    assert report["bases"]["dual_idempotent"] == [
        "2/3 id; 1/6 (3,4); -1/3 (2,3); 1/6 (2,3,4); 1/6 (2,4,3); 1/6 (2,4)"
    ]


def test_theta_dim_command(files):
    result = run_cli("theta-dim", *common(files, "--idempotent", files["idempotent"]), "--json")
    report = json.loads(result.stdout)
    assert report["dimensions"]["theta"] == 18


def test_conditional_impossible_prefix(files):
    result = run_cli(
        "conditional", *common(files, "--weight", files["weight"], "--dist", files["dist_id"]),
        "--obs", "0,1",
    )
    assert result.returncode == 2
    assert "prefix index 1" in result.stderr


def test_conditional_rejects_malformed_observations(files):
    """An empty token or a coset id at or above the index is bad input (exit 1),
    not the identity coset or an impossible history.  Digits outside ASCII
    are no coset id: the token is bad cycle notation, not a traceback from
    `int` or a coset read from another script's digit."""
    for obs, message in (("", "empty observation at index 0"),
                         ("0,,0", "empty observation at index 1"),
                         ("0,99", "coset id 99 at index 1 is not below the index 4"),
                         ("\u00b2", "bad cycle notation '\u00b2'"),
                         ("0,\u00b9", "bad cycle notation '\u00b9'"),
                         ("\u0662", "bad cycle notation '\u0662'")):
        result = run_cli(
            "conditional", *common(files, "--weight", files["weight"], "--dist", files["dist_id"]),
            "--obs", obs,
        )
        assert result.returncode == 1, obs
        assert message in result.stderr and "Traceback" not in result.stderr, obs


def test_conditional_single_representative(files, tmp_path, capsys):
    """One observation in cycle notation is one representative, not a list
    split at its commas: `(1,2)` gives the law of the id of its coset."""
    dist = tmp_path / "dist_swap.txt"
    dist.write_text("1/2 id\n1/2 (1,2)\n")
    argv = ["conditional", *common(files, "--weight", files["weight"], "--dist", str(dist)),
            "--json", "--obs"]
    code, out, err = run_in_process(capsys, [*argv, "(1,2)"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["certificates"] == {"conditional_law": {"(1,2)": "1"}}
    code, out, err = run_in_process(capsys, [*argv, str(report["labels"].index("(1,2)"))])
    assert (code, err) == (0, "")
    assert json.loads(out)["certificates"] == report["certificates"]
    code, out, err = run_in_process(capsys, [*argv, "(1,2);"])
    assert (code, out) == (1, "") and "empty observation at index 1" in err


def test_stable_check_takes_any_element(files, tmp_path, capsys):
    """`stable-check` takes any element w, negative or cyclotomic, as the w
    that pass form the linear space Theta(e): exit 0 and the verdict of the
    dense products, with no traceback."""
    from lumpwalk import LumpingProblem
    from lumpwalk.algebra import parse_element_file
    from lumpwalk.groups import parse_group_file
    from tests.reference import stable_ideal_check_dense

    G = parse_group_file(GROUP)
    verdicts = set()
    for name, text in (("signed", SIGNED), ("mixed", MIXED_SIGN), ("rotated", ROTATED),
                       ("rotated-die", ROTATED_DIE)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        w = parse_element_file(text, G)
        for subgroup, idempotent in (("subgroup", "idempotent"), ("subgroup", "eta_h"),
                                     ("cyclic", "e_p")):
            spec = parse_group_file(Path(files[subgroup]).read_text())
            problem = LumpingProblem(G, G.subgroup([spec.elements[g] for g in spec.generators]))
            e = parse_element_file(Path(files[idempotent]).read_text(), G)
            verdict, failed = stable_ideal_check_dense(problem, w, e)
            code, out, err = run_in_process(capsys, [
                "stable-check", "--group", files["group"], "--subgroup", files[subgroup],
                "--weight", str(path), "--idempotent", files[idempotent], "--json"])
            assert (code, err) == (0, ""), (name, idempotent)
            report = json.loads(out)
            assert report["verdicts"]["stable"] is verdict, (name, idempotent)
            assert report.get("certificates", {}).get("failed_conditions", []) == failed
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_generic_test_cli(files, tmp_path):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("states 4\n0 0 2/3 1/3\n0 0 1/3 2/3\n0 0 1 0\n0 0 0 1\n")
    lumpmap = tmp_path / "lumps.txt"
    lumpmap.write_text("lump 0 a\nlump 1 a\nlump 2 c\nlump 3 d\n")
    dist = tmp_path / "dist.txt"
    dist.write_text("states 4\n1/2 1/2 0 0\n")
    result = run_cli("generic-test", "weak", "--matrix", str(matrix),
                     "--lumpmap", str(lumpmap), "--dist", str(dist), "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdicts"]["weak"] is True
    result = run_cli("generic-test", "strong", "--matrix", str(matrix),
                     "--lumpmap", str(lumpmap), "--json")
    assert json.loads(result.stdout)["verdicts"]["strong"] is False


def test_generic_strong_reads_and_checks_the_start_law(tmp_path, capsys):
    """`generic-test strong` ignores the law in its verdict, but reads,
    fingerprints and validates `--dist` as `weak` and `exact` do."""
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("states 2\n1/2 1/2\n1/3 2/3\n")
    lumpmap = tmp_path / "lumps.txt"
    lumpmap.write_text("lump 0 a\nlump 1 b\n")
    chain = ["--matrix", str(matrix), "--lumpmap", str(lumpmap)]
    too_long = tmp_path / "dist3.txt"
    too_long.write_text("states 3\n1/3 1/3 1/3\n")
    point = tmp_path / "dist2.txt"
    point.write_text("states 2\n1 0\n")
    for kind in ("strong", "weak", "exact"):
        code, out, err = run_in_process(capsys, ["generic-test", kind, *chain, "--dist", str(too_long)])
        assert (code, out) == (2, ""), kind
        assert err == "lumpwalk: precondition violated: start law has 3 states, the matrix 2\n"
        code, out, err = run_in_process(capsys, ["generic-test", kind, *chain, "--dist", "/nonexistent"])
        assert (code, out) == (1, ""), kind
        assert err.startswith("lumpwalk: input error: cannot read /nonexistent") and "\n" == err[-1]
    code, out, err = run_in_process(capsys, ["generic-test", "strong", *chain, "--dist", str(point),
                                             "--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert set(report["inputs"]) == {"matrix", "lumpmap", "dist"}
    assert report["verdicts"] == {"strong": True}


def test_closed_pipe_exits_1_without_traceback(tmp_path):
    """A reader that closes the pipe before the report is written: exit 1 and
    one message, no traceback, also at interpreter shutdown."""
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("states 2\n1/2 1/2\n1/3 2/3\n")
    lumpmap = tmp_path / "lumps.txt"
    lumpmap.write_text("lump 0 a\nlump 1 b\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "lumpwalk.cli", "generic-test", "strong", "--matrix", str(matrix),
         "--lumpmap", str(lumpmap), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # before the interpreter has even started the request
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "lumpwalk: output error: the report could not be written (broken pipe)\n"


def test_simulate_trajectory_export(files, tmp_path):
    out = tmp_path / "lumps.out"
    result = run_cli(
        "simulate", *common(files, "--weight", files["weight"], "--dist", files["dist_eta_t"]),
        "--seed", "5", "--length", "50", "--trajectory-out", str(out),
    )
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 51
    assert set(lines) <= {"id", "(1,2)", "(1,2,3)", "(1,2,3,4)"}


def test_cut_strings_match_widened_elements(top_prob, die_prob, frustrator, die_weight):
    """A cut basis formatted from its |H| positions reads as each row widened
    to an element of the whole group algebra and formatted there."""
    from lumpwalk import cli, compute_Jw, compute_Lw
    from tests.reference import to_subspace

    def widened(ideal):
        rows = to_subspace(ideal.cut).rows
        return cli._element_strings([ideal.problem.from_H_vector(row) for row in rows])

    ideals = [compute(problem, w) for problem, w in ((top_prob, frustrator), (die_prob, die_weight))
              for compute in (compute_Lw, compute_Jw)]
    for ideal in ideals:
        assert cli._cut_strings(ideal) == widened(ideal)


def test_degree_one_group_through_the_weak_and_verdict_commands(tmp_path, capsys):
    """The trivial group of degree 1, where `operator.itemgetter` of one index
    would give a point instead of an image tuple: `test weak`, `jw`,
    `test exact` and `abelian-test` exit 0 with the pinned report bytes."""
    import hashlib

    group, weight = tmp_path / "trivial.txt", tmp_path / "weight.txt"
    group.write_text("degree 1\ngen id\n")
    weight.write_text("1 id\n")
    inputs = {role: {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
              for role, path in (("group", group), ("subgroup", group), ("weight", weight))}
    common_fields = {"group": {"degree": 1, "order": 1}, "inputs": inputs,
                     "subgroup": {"index": 1, "order": 1}, "timing": None}
    expected = {
        ("test", "weak"): {"bases": {"minimal_ideal_cut": ["1 id"]}, "command": "test weak",
                           "dimensions": {"minimal_ideal": 1, "minimal_ideal_cut": 1},
                           "verdicts": {"weak": True}},
        ("jw",): {"bases": {"cut": ["1 id"]}, "command": "jw",
                  "dimensions": {"cut": 1, "ideal": 1}, "verdicts": {"weakly_lumping": True}},
        ("test", "exact"): {"command": "test exact", "verdicts": {"exact": True}},
        ("abelian-test",): {"bases": {"witness_idempotent": ["scalar cyclotomic 1; 1 id"]},
                            "command": "abelian-test", "verdicts": {"weak": True}, "witness": [0]},
    }
    for command, fields in expected.items():
        argv = [*command, "--group", str(group), "--subgroup", str(group),
                "--weight", str(weight), "--json"]
        report = json.dumps({**common_fields, **fields}, sort_keys=True, indent=2) + "\n"
        assert run_in_process(capsys, argv) == (0, report, ""), command
