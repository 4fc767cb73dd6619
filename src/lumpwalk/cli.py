"""Command-line front end.

Exit codes: 0 = analysis completed (the verdict, true or false, is in the
report); 1 = usage or input-parse error; 2 = violated precondition (for
example a reducible weight passed to `lw`).  Reports are byte-identical
across runs for identical inputs unless `--timing` is requested.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
from .algebra import format_element, parse_element_file
from .errors import DomainError, InputFormatError, LumpwalkError, ResourceError
from .groups import double_cosets, parse_generators, parse_group_file
from .hecke import check_Q_characterization, orbital_matrices, verify_hecke_isomorphism
from .lumping import (
    LumpingProblem,
    abelian_weak_test,
    compute_Jw,
    compute_L_alpha_w,
    compute_Lw,
    conditional_law,
    interpolation_test,
    stable_ideal_check,
    test_exact,
    test_strong,
    test_weak_distribution,
    test_weak_weight,
    theta_dimension,
    time_reversal_dual_idempotent,
    walk_lumped_matrix,
)
from .markov import (
    STATE_CAP,
    Distribution,
    parse_distribution_file,
    parse_lump_file,
    parse_matrix_file,
    test_exact_generic,
    test_strong_generic,
    test_weak_generic,
)
from .scalars import format_ratio, parse_integer
from .simulate import empirical_lumped_matrix, markov_diagnostic, simulate_walk


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _subgroup(inputs, role: str, text: str):
    """A subgroup file is read for its generators only; the subgroup is their
    closure inside the group."""
    degree, gens = parse_generators(text)
    if degree != inputs.group.degree:
        raise DomainError(f"{role.replace('_', ' ')} file degree differs from the group degree")
    return inputs.group.subgroup(gens)


def _element(inputs, role: str, text: str):
    return parse_element_file(text, inputs.group)


# input-file role -> (help text, parser of the file's text); the flag is the
# role with dashes, and each parser looks up the library function when called
ROLES = {
    "group": ("group file (degree + gen lines)", lambda inputs, role, text: parse_group_file(text)),
    "subgroup": ("subgroup file; generators must lie in the group", _subgroup),
    "weight": ("weight file (scalar element lines)", _element),
    "dist": ("start distribution file (sums to 1)", _element),
    "idempotent": ("idempotent element file", _element),
    "inner_subgroup": ("subgroup of the lumping subgroup", _subgroup),
    "matrix": ("`states N` + N rational rows", lambda inputs, role, text: parse_matrix_file(text)),
    "lumpmap": ("`lump <state> <label>` lines",
                lambda inputs, role, text: parse_lump_file(text, inputs.matrix.n)),
}


class Inputs:
    """Reads, fingerprints and parses the input files of one request."""

    def __init__(self, args):
        self.args = args
        self.digests = {}
        self.group = None
        self.subgroup = None

    def read(self, role: str) -> str:
        path = getattr(self.args, role)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputFormatError(f"cannot read {path}: {exc}")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path} is not UTF-8 text: {exc}")
        self.digests[role] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
        return text

    def load(self, role: str):
        """Parse the file of a role and keep it as the attribute of that name."""
        value = ROLES[role][1](self, role, self.read(role))
        setattr(self, role, value)
        if role == "subgroup":
            self.problem = LumpingProblem(self.group, value)
        return value


def _integer_flag(text: str) -> int:
    """An integer flag value in ASCII digits (`scalars.parse_integer`), with
    the message argparse gives for `type=int`."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _arg(*flags, **kwargs) -> tuple:
    """One `add_argument` call, as data."""
    return flags, kwargs


OUTPUT = (
    _arg("--json", action="store_true", help="emit a JSON report"),
    _arg("--text", action="store_true", help="emit the flat text report (default)"),
    _arg("--timing", action="store_true", help="include wall-clock timing in the report"),
)


class Command(NamedTuple):
    """One row of the command table: a subcommand's arguments and its body."""

    name: str
    help: str
    roles: tuple[str, ...]  # input files, all required, in load order
    body: Callable  # (inputs, args, report) -> None; fills in the command's fields
    options: tuple  # the other arguments, in help order


COMMANDS: list[Command] = []  # the command table, in help order


def _command(name: str, help_text: str, roles: str, *options, output=OUTPUT):
    """Add the decorated body to COMMANDS, with the output flags before `options`."""
    def register(body):
        COMMANDS.append(Command(name, help_text, tuple(roles.split()), body, (*output, *options)))
        return body
    return register


def _mat_str(rows):
    return [[None if q is None else str(q) for q in row] if row is not None else None
            for row in rows]


def _element_strings(elements) -> list[str]:
    return ["; ".join(format_element(e).strip().splitlines()) for e in elements]


def _labels(group, ids) -> list[str]:
    return [group.cycle_string(i) for i in ids]


def _cut_strings(ideal) -> list[str]:
    """The cut basis rows in the form of `_element_strings`, each formatted from
    the positions of its support list; the subgroup members are sorted, so the
    terms come in element order, as they do for an element of the whole group
    algebra.  A row of the integer echelon over its positive pivot entry is
    the canonical RREF row, each entry written as its `Fraction` is."""
    labels = _labels(ideal.problem.group, ideal.problem.subgroup.members)
    cut = ideal.cut
    return ["; ".join(f"{format_ratio(row[k], row[p])} {labels[k]}" for k in cols)
            for row, p, cols in zip(cut.rows, cut.pivots, cut.support)]


def _ideal_fields(report: dict, verdict_key: str, verdict, ideal) -> None:
    report["verdicts"][verdict_key] = verdict
    report["dimensions"] = {"ideal": ideal.dim, "cut": ideal.cut.dim}
    report["bases"] = {"cut": _cut_strings(ideal)}


def _failed_conditions(report: dict, verdict_key: str, result) -> None:
    verdict, failed = result
    report["verdicts"][verdict_key] = verdict
    if failed:
        report["certificates"] = {"failed_conditions": failed}


# ---------------------------------------------------------------------------
# subcommands


@_command("cosets", "coset decomposition and representatives", "group subgroup",
          _arg("--side", choices=["left", "right"], default="left"))
def _cosets(inputs: Inputs, args, report: dict) -> None:
    decomposition = inputs.problem.left if args.side == "left" else inputs.problem.right
    report["labels"] = _labels(inputs.group, decomposition.representatives)
    report["dimensions"] = {"cosets": decomposition.n_cosets}
    report["verdicts"]["completed"] = True


@_command("double-cosets", "double-coset classes and sizes", "group subgroup",
          _arg("--inner-subgroup", dest="inner_subgroup", default=None,
               help="optional left factor (defaults to the subgroup itself)"))
def _double_cosets(inputs: Inputs, args, report: dict) -> None:
    if args.inner_subgroup:
        inner = inputs.load("inner_subgroup")
        decomposition = double_cosets(inputs.group, inner, inputs.problem.left)
    else:
        decomposition = inputs.problem.double
    report["labels"] = _labels(inputs.group, decomposition.representatives)
    report["dimensions"] = {"classes": decomposition.n_classes}
    report["certificates"] = {"sizes": list(decomposition.sizes)}
    report["verdicts"]["completed"] = True


@_command("test", "strong / exact / weak lumping verdict", "group subgroup weight",
          _arg("kind", choices=["strong", "exact", "weak"]))
def _test(inputs: Inputs, args, report: dict) -> None:
    if args.kind == "weak":
        verdict, ideal, cert = test_weak_weight(inputs.problem, inputs.weight)
        report["dimensions"] = {"minimal_ideal": ideal.dim, "minimal_ideal_cut": ideal.cut.dim}
        report["bases"] = {"minimal_ideal_cut": _cut_strings(ideal)}
    else:
        test = test_strong if args.kind == "strong" else test_exact
        verdict, cert = test(inputs.problem, inputs.weight)
    report["verdicts"][args.kind] = verdict
    if cert:
        report["certificates"] = {args.kind: cert}


@_command("lw", "minimal stable induced ideal of the weight", "group subgroup weight")
def _lw(inputs: Inputs, args, report: dict) -> None:
    ideal = compute_Lw(inputs.problem, inputs.weight)
    _ideal_fields(report, "weakly_lumping", ideal.weakly_lumping, ideal)


@_command("jw", "maximal stable induced ideal (admissible starts)", "group subgroup weight")
def _jw(inputs: Inputs, args, report: dict) -> None:
    _ideal_fields(report, "weakly_lumping", True, compute_Jw(inputs.problem, inputs.weight))


@_command("l-alpha", "minimal stable ideal containing a start", "group subgroup weight dist")
def _l_alpha(inputs: Inputs, args, report: dict) -> None:
    ideal, verdict = compute_L_alpha_w(inputs.problem, inputs.weight, inputs.dist)
    _ideal_fields(report, "weak_for_start", verdict, ideal)


@_command("test-dist", "weak lumping verdict for one start", "group subgroup weight dist")
def _test_dist(inputs: Inputs, args, report: dict) -> None:
    verdict, jw = test_weak_distribution(inputs.problem, inputs.weight, inputs.dist)
    report["verdicts"]["weak_for_start"] = verdict
    if jw is not None:
        report["dimensions"] = {"maximal_ideal": jw.dim}
    else:
        report["certificates"] = {
            "weak_for_start": {"reason": "the weight itself does not lump weakly"}
        }


@_command("stable-check", "verify a stable-ideal certificate",
          "group subgroup weight idempotent")
def _stable_check(inputs: Inputs, args, report: dict) -> None:
    result = stable_ideal_check(inputs.problem, inputs.weight, inputs.idempotent)
    _failed_conditions(report, "stable", result)


@_command("dual", "time-reversal dual of an idempotent", "group subgroup idempotent")
def _dual(inputs: Inputs, args, report: dict) -> None:
    dual = time_reversal_dual_idempotent(inputs.problem, inputs.idempotent)
    report["verdicts"]["completed"] = True
    report["bases"] = {"dual_idempotent": _element_strings([dual])}


@_command("interpolate", "inner-subgroup averaging certificate",
          "group subgroup weight inner_subgroup")
def _interpolate(inputs: Inputs, args, report: dict) -> None:
    result = interpolation_test(inputs.problem, inputs.inner_subgroup, inputs.weight)
    _failed_conditions(report, "stable_for_inner_averaging", result)


@_command("theta-dim", "dimension of the compatibility algebra", "group subgroup idempotent")
def _theta_dim(inputs: Inputs, args, report: dict) -> None:
    dim, per_class = theta_dimension(inputs.problem, inputs.idempotent)
    report["verdicts"]["completed"] = True
    report["dimensions"] = {"theta": dim}
    report["certificates"] = {"constraints_per_class": per_class}


@_command("abelian-test",
          "closure of the trivial character under nonzero double-coset pairings "
          "(abelian subgroup)", "group subgroup weight",
          _arg("--real-only", action="store_true",
               help="ask for a conjugation-closed witness; accepted, but it cannot "
                    "change the result: for a rational weight the closure of the "
                    "trivial character is conjugation-closed already"))
def _abelian_test(inputs: Inputs, args, report: dict) -> None:
    verdict, witness, idem = abelian_weak_test(inputs.problem, inputs.weight)
    report["verdicts"]["weak"] = verdict
    if verdict:
        report["witness"] = list(witness)
        report["bases"] = {"witness_idempotent": _element_strings([idem])}


@_command("lumped-q", "aggregated coset matrix and its orbital decomposition",
          "group subgroup weight")
def _lumped_q(inputs: Inputs, args, report: dict) -> None:
    problem = inputs.problem
    rows = walk_lumped_matrix(problem, inputs.weight)
    achievable, coefficients, realizing = check_Q_characterization(problem, rows)
    report["labels"] = _labels(inputs.group, problem.left.representatives)
    report["matrices"] = {"lumped": _mat_str(rows)}
    report["verdicts"]["achievable"] = achievable
    if achievable:
        report["certificates"] = {"orbital_coefficients": [str(c) for c in coefficients]}
        report["bases"] = {"realizing_weight": _element_strings([realizing])}


@_command("orbital", "orbital matrices of the coset action", "group subgroup")
def _orbital(inputs: Inputs, args, report: dict) -> None:
    mats = orbital_matrices(inputs.problem)
    report["labels"] = _labels(inputs.group, [o.representative for o in mats])
    report["matrices"] = {f"orbital_{o.class_id}": [list(row) for row in o.matrix] for o in mats}
    report["verdicts"]["hecke_isomorphism"] = verify_hecke_isomorphism(inputs.problem)


# generic-test's optional --dist precedes its output flags, which have no help text
@_command("generic-test", "oracle tests on an arbitrary finite chain", "matrix lumpmap",
          _arg("kind", choices=["weak", "strong", "exact"]),
          _arg("--dist", default=None, help="start law (`states N` + one row); default uniform"),
          _arg("--json", action="store_true"), _arg("--text", action="store_true"),
          _arg("--timing", action="store_true"), output=())
def _generic_test(inputs: Inputs, args, report: dict) -> None:
    f, P = inputs.lumpmap, inputs.matrix
    alpha = parse_distribution_file(inputs.read("dist")) if args.dist else None
    if alpha is not None and alpha.n != P.n:
        raise DomainError(f"start law has {alpha.n} states, the matrix {P.n}")
    if args.kind == "strong":  # read and checked all the same, the law does not enter
        report["verdicts"]["strong"] = test_strong_generic(f, P)
        return
    if alpha is None:
        alpha = Distribution.uniform(P.n)
    if args.kind == "weak":
        verdict, certificate = test_weak_generic(f, P, alpha)
        report["verdicts"]["weak"] = verdict
        if certificate is not None:
            report["certificates"] = {"violating_vector": [str(x) for x in certificate]}
    else:
        report["verdicts"]["exact"] = test_exact_generic(f, P, alpha)


def _parse_observations(problem, text: str):
    """Coset ids or coset-representative cycle strings; `;`-separated when
    cycle notation (which contains commas) is used, even for one observation.
    A coset id is ASCII digits; any other token is read as cycle notation."""
    tokens = [token.strip() for token in text.split(";" if ";" in text or "(" in text else ",")]
    coset_of, element_of = problem.left.coset_of, problem.group.element_of
    observations = []
    for t, token in enumerate(tokens):
        if not token:
            raise InputFormatError(f"--obs: empty observation at index {t}")
        if not (token.isascii() and token.isdigit()):
            observations.append(coset_of[element_of(token)])
        elif int(token) < problem.index:
            observations.append(int(token))
        else:
            raise InputFormatError(f"--obs: coset id {token} at index {t} is not below "
                                   f"the index {problem.index}")
    return observations


@_command("conditional", "exact law of the state given a lump history",
          "group subgroup weight dist",
          _arg("--obs", required=True,
               help="observed lumps: coset ids `0,0,1` or representatives `id;(1,2)`"))
def _conditional(inputs: Inputs, args, report: dict) -> None:
    problem = inputs.problem
    alpha = inputs.dist.require_distribution()
    w = inputs.weight.require_weight()
    if problem.group.order > STATE_CAP:  # the cap of a chain file, before any work
        raise DomainError(f"state count {problem.group.order} exceeds the cap {STATE_CAP}")
    law = conditional_law(problem, w, alpha, _parse_observations(problem, args.obs))
    report["verdicts"]["completed"] = True
    report["labels"] = _labels(inputs.group, problem.left.representatives)
    report["certificates"] = {"conditional_law": {
        inputs.group.cycle_string(x): str(p) for x, p in law.items()}}


@_command("simulate", "sample the walk and report empirical lump statistics",
          "group subgroup weight dist",
          _arg("--seed", type=_integer_flag, default=1),
          _arg("--length", type=_integer_flag, default=10_000),
          _arg("--diagnose", action="store_true",
               help="run the advisory order-2 Markov diagnostic"),
          _arg("--trajectory-out", dest="trajectory_out", default=None,
               help="write one lump label per line to this file"))
def _simulate(inputs: Inputs, args, report: dict) -> None:
    if args.length < 0:
        raise InputFormatError(f"--length must be non-negative, got {args.length}")
    problem = inputs.problem
    trajectory = simulate_walk(problem, inputs.weight, inputs.dist, args.seed, args.length)
    labels = _labels(inputs.group, problem.left.representatives)
    report["verdicts"]["completed"] = True
    report["labels"] = labels
    empirical = empirical_lumped_matrix(trajectory.lumps, problem.index)
    report["matrices"] = {"empirical_lumped": _mat_str(empirical)}
    counts = [0] * problem.index
    for b in trajectory.lumps:
        counts[b] += 1
    report["samples"] = {"seed": args.seed, "length": args.length, "lump_counts": counts}
    if args.diagnose:
        diag = markov_diagnostic(trajectory.lumps, problem.index)
        report["verdicts"]["diagnostic_clean"] = diag.clean
        flagged = [{"context": list(item["context"]), "statistic": round(item["statistic"], 3)}
                   for item in diag.flagged]
        report["certificates"] = {"flagged_contexts": flagged}
        if diag.warning:
            report["certificates"]["warning"] = diag.warning
    if args.trajectory_out:
        try:
            with open(args.trajectory_out, "w") as fh:
                for b in trajectory.lumps:
                    fh.write(labels[b] + "\n")
        except OSError as exc:
            raise InputFormatError(f"cannot write {args.trajectory_out}: {exc}")


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="lumpwalk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lumpwalk {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        p.set_defaults(command=command)
        for role in command.roles:
            p.add_argument("--" + role.replace("_", "-"), dest=role, required=True,
                           help=ROLES[role][0])
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
    return parser


def _run(command: Command, args) -> dict:
    """Load the command's inputs in order, build the base report, run the body."""
    inputs = Inputs(args)
    for role in command.roles:
        inputs.load(role)
    name = f"{command.name} {args.kind}" if "kind" in vars(args) else command.name
    report = {"command": name, "inputs": inputs.digests, "verdicts": {}}
    if inputs.group is not None:
        report["group"] = {"degree": inputs.group.degree, "order": inputs.group.order}
    if inputs.subgroup is not None:
        H = inputs.subgroup
        report["subgroup"] = {"order": H.order, "index": H.index_in_parent}
    command.body(inputs, args, report)
    return report


@functools.cache
def _parser() -> _Parser:
    """The parser of this process, built on first use; `parse_args` returns a
    fresh namespace on every call, so requests share nothing through it."""
    return _build_parser()


def _render_text(report: dict, out) -> None:
    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value, key=str):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            out.write(f"{prefix}: {json.dumps(value)}\n")
        else:
            out.write(f"{prefix}: {value}\n")

    walk("", report)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    start = time.monotonic()
    try:
        report = _run(args.command, args)
    except InputFormatError as exc:
        print(f"lumpwalk: input error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ResourceError) as exc:
        print(f"lumpwalk: precondition violated: {exc}", file=sys.stderr)
        return 2
    except LumpwalkError as exc:
        print(f"lumpwalk: error: {exc}", file=sys.stderr)
        return 2
    report["timing"] = {"seconds": round(time.monotonic() - start, 6)} if args.timing else None
    try:
        if args.json and not args.text:
            json.dump(report, sys.stdout, sort_keys=True, indent=2)
            sys.stdout.write("\n")
        else:
            _render_text(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; what is left in the buffer goes to the null
        # device, so the flush at interpreter shutdown does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("lumpwalk: output error: the report could not be written (broken pipe)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
