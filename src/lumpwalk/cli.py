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
import sys
import time

from . import __version__
from .algebra import format_element, parse_element_file
from .errors import DomainError, InputFormatError, LumpwalkError, ResourceError
from .groups import parse_group_file
from .hecke import check_Q_characterization, orbital_matrices, verify_hecke_isomorphism
from .lumping import (
    LumpingProblem,
    abelian_weak_test,
    compute_Jw,
    compute_L_alpha_w,
    compute_Lw,
    interpolation_test,
    lumping_function,
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
    Distribution,
    conditional_distribution,
    parse_distribution_file,
    parse_lump_file,
    parse_matrix_file,
    test_exact_generic,
    test_strong_generic,
    test_weak_generic,
    transition_from_weight,
)
from .simulate import empirical_lumped_matrix, markov_diagnostic, simulate_walk


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read(path: str) -> tuple[str, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc}")
    return text, hashlib.sha256(raw).hexdigest()


class Inputs:
    """Loads and fingerprints the referenced files."""

    def __init__(self, args):
        self.args = args
        self.digests = {}
        self.group = None
        self.subgroup = None
        self.problem = None

    def record(self, role: str, path: str) -> str:
        text, digest = _read(path)
        self.digests[role] = {"path": path, "sha256": digest}
        return text

    def load_problem(self):
        gtext = self.record("group", self.args.group)
        stext = self.record("subgroup", self.args.subgroup)
        self.group = parse_group_file(gtext)
        sub_spec = parse_group_file(stext)
        if sub_spec.degree != self.group.degree:
            raise DomainError("subgroup file degree differs from the group degree")
        gens = [sub_spec.elements[g] for g in sub_spec.generators]
        self.subgroup = self.group.subgroup(gens)
        self.problem = LumpingProblem(self.group, self.subgroup)
        return self.problem

    def load_group_only(self):
        gtext = self.record("group", self.args.group)
        self.group = parse_group_file(gtext)
        return self.group

    def load_weight(self, role="weight", attr="weight"):
        text = self.record(role, getattr(self.args, attr))
        return parse_element_file(text, self.group)

    def load_inner_subgroup(self):
        text = self.record("inner_subgroup", self.args.inner_subgroup)
        spec = parse_group_file(text)
        if spec.degree != self.group.degree:
            raise DomainError("inner subgroup file degree differs from the group degree")
        return self.group.subgroup([spec.elements[g] for g in spec.generators])


def _report_base(command: str, inputs: Inputs) -> dict:
    out = {"command": command, "inputs": inputs.digests, "verdicts": {}}
    if inputs.group is not None:
        out["group"] = {"degree": inputs.group.degree, "order": inputs.group.order}
    if inputs.subgroup is not None:
        out["subgroup"] = {
            "order": inputs.subgroup.order,
            "index": inputs.subgroup.index_in_parent,
        }
    return out


def _mat_str(rows):
    return [[None if q is None else str(q) for q in row] if row is not None else None
            for row in rows]


def _element_strings(elements) -> list[str]:
    return ["; ".join(format_element(e).strip().splitlines()) for e in elements]


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_cosets(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    decomposition = problem.left if args.side == "left" else problem.right
    report = _report_base("cosets", inputs)
    report["labels"] = [
        inputs.group.elements[r].cycle_string() for r in decomposition.representatives
    ]
    report["dimensions"] = {"cosets": decomposition.n_cosets}
    report["verdicts"]["completed"] = True
    return report


def _cmd_double_cosets(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    if args.inner_subgroup:
        T = inputs.load_inner_subgroup()
        from .groups import double_cosets as dc

        decomposition = dc(inputs.group, T, inputs.subgroup)
    else:
        decomposition = problem.double
    report = _report_base("double-cosets", inputs)
    report["labels"] = [
        inputs.group.elements[r].cycle_string() for r in decomposition.representatives
    ]
    report["dimensions"] = {"classes": decomposition.n_classes}
    report["certificates"] = {"sizes": list(decomposition.sizes)}
    report["verdicts"]["completed"] = True
    return report


def _cmd_test(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    report = _report_base(f"test {args.kind}", inputs)
    if args.kind == "strong":
        verdict, cert = test_strong(problem, w)
        report["verdicts"]["strong"] = verdict
        if cert:
            report["certificates"] = {"strong": cert}
    elif args.kind == "exact":
        verdict, cert = test_exact(problem, w)
        report["verdicts"]["exact"] = verdict
        if cert:
            report["certificates"] = {"exact": cert}
    else:
        verdict, ideal, cert = test_weak_weight(problem, w)
        report["verdicts"]["weak"] = verdict
        report["dimensions"] = {
            "minimal_ideal": ideal.dim,
            "minimal_ideal_cut": ideal.pi_H.dim,
        }
        report["bases"] = {"minimal_ideal_cut": _element_strings(ideal.basis_elements())}
        if cert:
            report["certificates"] = {"weak": cert}
    return report


def _cmd_lw(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    ideal = compute_Lw(problem, w)
    report = _report_base("lw", inputs)
    report["verdicts"]["weakly_lumping"] = ideal.weakly_lumping
    report["dimensions"] = {"ideal": ideal.dim, "cut": ideal.pi_H.dim}
    report["bases"] = {"cut": _element_strings(ideal.basis_elements())}
    return report


def _cmd_jw(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    ideal = compute_Jw(problem, w)
    report = _report_base("jw", inputs)
    report["verdicts"]["weakly_lumping"] = True
    report["dimensions"] = {"ideal": ideal.dim, "cut": ideal.pi_H.dim}
    report["bases"] = {"cut": _element_strings(ideal.basis_elements())}
    return report


def _cmd_l_alpha(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    alpha = inputs.load_weight("dist", "dist")
    ideal, verdict = compute_L_alpha_w(problem, w, alpha)
    report = _report_base("l-alpha", inputs)
    report["verdicts"]["weak_for_start"] = verdict
    report["dimensions"] = {"ideal": ideal.dim, "cut": ideal.pi_H.dim}
    report["bases"] = {"cut": _element_strings(ideal.basis_elements())}
    return report


def _cmd_test_dist(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    alpha = inputs.load_weight("dist", "dist")
    verdict, jw = test_weak_distribution(problem, w, alpha)
    report = _report_base("test-dist", inputs)
    report["verdicts"]["weak_for_start"] = verdict
    if jw is not None:
        report["dimensions"] = {"maximal_ideal": jw.dim}
    else:
        report["certificates"] = {
            "weak_for_start": {"reason": "the weight itself does not lump weakly"}
        }
    return report


def _cmd_stable_check(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    e = parse_element_file(inputs.record("idempotent", args.idempotent), inputs.group)
    verdict, failed = stable_ideal_check(problem, w, e)
    report = _report_base("stable-check", inputs)
    report["verdicts"]["stable"] = verdict
    if failed:
        report["certificates"] = {"failed_conditions": failed}
    return report


def _cmd_dual(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    e = parse_element_file(inputs.record("idempotent", args.idempotent), inputs.group)
    dual = time_reversal_dual_idempotent(problem, e)
    report = _report_base("dual", inputs)
    report["verdicts"]["completed"] = True
    report["bases"] = {"dual_idempotent": _element_strings([dual])}
    return report


def _cmd_interpolate(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    T = inputs.load_inner_subgroup()
    verdict, failed = interpolation_test(problem, T, w)
    report = _report_base("interpolate", inputs)
    report["verdicts"]["stable_for_inner_averaging"] = verdict
    if failed:
        report["certificates"] = {"failed_conditions": failed}
    return report


def _cmd_theta_dim(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    e = parse_element_file(inputs.record("idempotent", args.idempotent), inputs.group)
    dim, per_class = theta_dimension(problem, e)
    report = _report_base("theta-dim", inputs)
    report["verdicts"]["completed"] = True
    report["dimensions"] = {"theta": dim}
    report["certificates"] = {"constraints_per_class": per_class}
    return report


def _cmd_abelian_test(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    verdict, witness, idem = abelian_weak_test(problem, w)
    report = _report_base("abelian-test", inputs)
    report["verdicts"]["weak"] = verdict
    if verdict:
        report["witness"] = list(witness)
        report["bases"] = {"witness_idempotent": _element_strings([idem])}
    return report


def _cmd_lumped_q(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    rows = walk_lumped_matrix(problem, w)
    achievable, coefficients, realizing = check_Q_characterization(problem, rows)
    report = _report_base("lumped-q", inputs)
    report["labels"] = [
        inputs.group.elements[r].cycle_string() for r in problem.left.representatives
    ]
    report["matrices"] = {"lumped": _mat_str(rows)}
    report["verdicts"]["achievable"] = achievable
    if achievable:
        report["certificates"] = {"orbital_coefficients": [str(c) for c in coefficients]}
        report["bases"] = {"realizing_weight": _element_strings([realizing])}
    return report


def _cmd_orbital(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    mats = orbital_matrices(problem)
    report = _report_base("orbital", inputs)
    report["labels"] = [
        inputs.group.elements[o.representative].cycle_string() for o in mats
    ]
    report["matrices"] = {
        f"orbital_{o.class_id}": [list(row) for row in o.matrix] for o in mats
    }
    report["verdicts"]["hecke_isomorphism"] = verify_hecke_isomorphism(problem)
    return report


def _cmd_generic_test(inputs: Inputs, args) -> dict:
    P = parse_matrix_file(inputs.record("matrix", args.matrix))
    f = parse_lump_file(inputs.record("lumpmap", args.lumpmap), P.n)
    report = {"command": f"generic-test {args.kind}", "inputs": inputs.digests, "verdicts": {}}
    if args.kind == "strong":
        report["verdicts"]["strong"] = test_strong_generic(f, P)
        return report
    if args.dist:
        alpha = parse_distribution_file(inputs.record("dist", args.dist))
        if alpha.n != P.n:
            raise DomainError(f"start law has {alpha.n} states, the matrix {P.n}")
    else:
        alpha = Distribution.uniform(P.n)
    if args.kind == "weak":
        verdict, certificate = test_weak_generic(f, P, alpha)
        report["verdicts"]["weak"] = verdict
        if certificate is not None:
            report["certificates"] = {"violating_vector": [str(x) for x in certificate]}
    else:
        report["verdicts"]["exact"] = test_exact_generic(f, P, alpha)
    return report


def _parse_observations(problem, text: str):
    """Coset ids or coset-representative cycle strings; `;`-separated when
    cycle notation (which contains commas) is used."""
    separator = ";" if ";" in text else ","
    out = []
    for token in text.split(separator):
        token = token.strip()
        if token.isdigit():
            out.append(int(token))
        else:
            gid = problem.group.element_of(token)
            out.append(problem.left.coset_of[gid])
    return out


def _cmd_conditional(inputs: Inputs, args) -> dict:
    problem = inputs.load_problem()
    w = inputs.load_weight()
    alpha = inputs.load_weight("dist", "dist").require_distribution()
    f = lumping_function(problem)
    P = transition_from_weight(inputs.group, w)
    observations = _parse_observations(problem, args.obs)
    law = conditional_distribution(
        f, P, Distribution(tuple(alpha.coeffs)), observations
    )
    report = _report_base("conditional", inputs)
    report["verdicts"]["completed"] = True
    report["labels"] = list(f.labels)
    support = {
        inputs.group.elements[i].cycle_string(): str(p)
        for i, p in enumerate(law.probs)
        if p
    }
    report["certificates"] = {"conditional_law": support}
    return report


def _cmd_simulate(inputs: Inputs, args) -> dict:
    if args.length < 0:
        raise InputFormatError(f"--length must be non-negative, got {args.length}")
    problem = inputs.load_problem()
    w = inputs.load_weight()
    alpha = inputs.load_weight("dist", "dist")
    trajectory = simulate_walk(problem, w, alpha, args.seed, args.length)
    f = lumping_function(problem)
    report = _report_base("simulate", inputs)
    report["verdicts"]["completed"] = True
    report["labels"] = list(f.labels)
    empirical = empirical_lumped_matrix(trajectory.lumps, f.n_lumps)
    report["matrices"] = {"empirical_lumped": _mat_str(empirical)}
    counts = [0] * f.n_lumps
    for b in trajectory.lumps:
        counts[b] += 1
    report["samples"] = {"seed": args.seed, "length": args.length, "lump_counts": counts}
    if args.diagnose:
        diag = markov_diagnostic(trajectory.lumps, f.n_lumps)
        report["verdicts"]["diagnostic_clean"] = diag.clean
        report["certificates"] = {
            "flagged_contexts": [
                {"context": list(item["context"]), "statistic": round(item["statistic"], 3)}
                for item in diag.flagged
            ]
        }
        if diag.warning:
            report["certificates"]["warning"] = diag.warning
    if args.trajectory_out:
        try:
            with open(args.trajectory_out, "w") as fh:
                for b in trajectory.lumps:
                    fh.write(f.labels[b] + "\n")
        except OSError as exc:
            raise InputFormatError(f"cannot write {args.trajectory_out}: {exc}")
    return report


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="lumpwalk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lumpwalk {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_text, *, weight=False, dist=False, idempotent=False, inner=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=fn)
        p.add_argument("--group", required=True, help="group file (degree + gen lines)")
        p.add_argument("--subgroup", required=True, help="subgroup file; generators must lie in the group")
        if weight:
            p.add_argument("--weight", required=True, help="weight file (scalar element lines)")
        if dist:
            p.add_argument("--dist", required=True, help="start distribution file (sums to 1)")
        if idempotent:
            p.add_argument("--idempotent", required=True, help="idempotent element file")
        if inner:
            p.add_argument("--inner-subgroup", dest="inner_subgroup", required=True,
                           help="subgroup of the lumping subgroup")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--text", action="store_true", help="emit the flat text report (default)")
        p.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
        return p

    p = add("cosets", _cmd_cosets, "coset decomposition and representatives")
    p.add_argument("--side", choices=["left", "right"], default="left")

    p = add("double-cosets", _cmd_double_cosets, "double-coset classes and sizes")
    p.add_argument("--inner-subgroup", dest="inner_subgroup", default=None,
                   help="optional left factor (defaults to the subgroup itself)")

    p = add("test", _cmd_test, "strong / exact / weak lumping verdict", weight=True)
    p.add_argument("kind", choices=["strong", "exact", "weak"])

    add("lw", _cmd_lw, "minimal stable induced ideal of the weight", weight=True)
    add("jw", _cmd_jw, "maximal stable induced ideal (admissible starts)", weight=True)
    add("l-alpha", _cmd_l_alpha, "minimal stable ideal containing a start", weight=True, dist=True)
    add("test-dist", _cmd_test_dist, "weak lumping verdict for one start", weight=True, dist=True)
    add("stable-check", _cmd_stable_check, "verify a stable-ideal certificate", weight=True, idempotent=True)
    add("dual", _cmd_dual, "time-reversal dual of an idempotent", idempotent=True)
    add("interpolate", _cmd_interpolate, "inner-subgroup averaging certificate", weight=True, inner=True)
    add("theta-dim", _cmd_theta_dim, "dimension of the compatibility algebra", idempotent=True)

    p = add("abelian-test", _cmd_abelian_test,
            "closure of the trivial character under nonzero double-coset pairings (abelian subgroup)",
            weight=True)
    p.add_argument("--real-only", action="store_true",
                   help="ask for a conjugation-closed witness; accepted, but it cannot "
                        "change the result: for a rational weight the closure of the "
                        "trivial character is conjugation-closed already")

    add("lumped-q", _cmd_lumped_q, "aggregated coset matrix and its orbital decomposition", weight=True)
    add("orbital", _cmd_orbital, "orbital matrices of the coset action")

    p = sub.add_parser("generic-test", help="oracle tests on an arbitrary finite chain")
    p.set_defaults(handler=_cmd_generic_test)
    p.add_argument("kind", choices=["weak", "strong", "exact"])
    p.add_argument("--matrix", required=True, help="`states N` + N rational rows")
    p.add_argument("--lumpmap", required=True, help="`lump <state> <label>` lines")
    p.add_argument("--dist", default=None, help="start law (`states N` + one row); default uniform")
    p.add_argument("--json", action="store_true")
    p.add_argument("--text", action="store_true")
    p.add_argument("--timing", action="store_true")

    p = add("conditional", _cmd_conditional, "exact law of the state given a lump history",
            weight=True, dist=True)
    p.add_argument("--obs", required=True,
                   help="observed lumps: coset ids `0,0,1` or representatives `id;(1,2)`")

    p = add("simulate", _cmd_simulate, "sample the walk and report empirical lump statistics",
            weight=True, dist=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--length", type=int, default=10_000)
    p.add_argument("--diagnose", action="store_true",
                   help="run the advisory order-2 Markov diagnostic")
    p.add_argument("--trajectory-out", dest="trajectory_out", default=None,
                   help="write one lump label per line to this file")

    return parser


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
    inputs = Inputs(args)
    start = time.monotonic()
    try:
        report = args.handler(inputs, args)
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
    if args.json and not args.text:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        _render_text(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
