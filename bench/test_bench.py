"""Tests of the benchmark itself (standard library only).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

run.load_program()
import lumpwalk.cli  # noqa: E402
import lumpwalk.groups  # noqa: E402
import lumpwalk.linalg  # noqa: E402
import lumpwalk.lumping  # noqa: E402


def snapshot(workdir: Path, spec) -> tuple:
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argvs = [[a.replace(str(workdir), "<dir>") for a in req.argv] for req in spec.requests]
    return files, argvs


def declared_metrics() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def failures(spec, records) -> list:
    problems, _ = run.check_records(spec.requests, records)
    return [(i, msgs) for i, msgs in enumerate(problems) if msgs]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b, tempfile.TemporaryDirectory() as c:
                first = snapshot(Path(a), workloads.build(name, 7, Path(a)))
                again = snapshot(Path(b), workloads.build(name, 7, Path(b)))
                other = snapshot(Path(c), workloads.build(name, 8, Path(c)))
                self.assertEqual(first, again)
                self.assertNotEqual(first[0], other[0])
                self.assertEqual([argv[:2] for argv in first[1]], [argv[:2] for argv in other[1]])

    def test_walk_matrix_matches_the_program(self):
        from lumpwalk.algebra import parse_element_file
        from lumpwalk.groups import parse_group_file
        from lumpwalk.markov import parse_matrix_file, transition_from_weight

        with tempfile.TemporaryDirectory() as tmp:
            workloads.build("sweep-small", 3, Path(tmp), miniature=True)
            G = parse_group_file((Path(tmp) / "p1-group.txt").read_text())
            w = parse_element_file((Path(tmp) / "i1-w.txt").read_text(), G)
            P = parse_matrix_file((Path(tmp) / "i1-mat.txt").read_text())
            self.assertEqual(P.rows, transition_from_weight(G, w).rows)


class TracerTest(unittest.TestCase):
    def test_wrappers_removed_after_traced_pass(self):
        originals = {
            "cli.compute_Jw": lumpwalk.cli.compute_Jw,
            "lumping.compute_Jw": lumpwalk.lumping.compute_Jw,
            "cli.parse_group_file": lumpwalk.cli.parse_group_file,
            "Subspace.insert": lumpwalk.linalg.Subspace.__dict__["insert"],
            "FiniteGroup.generate": lumpwalk.groups.FiniteGroup.__dict__["generate"],
        }
        with tempfile.TemporaryDirectory() as tmp:
            spec = workloads.build("weak-s6", 1, Path(tmp), miniature=True)
            with Tracer() as tracer:
                self.assertIsNot(lumpwalk.cli.compute_Jw, originals["cli.compute_Jw"])
                _, records = run.run_pass(lumpwalk.cli, spec.requests, tracer)
        self.assertEqual(tracer.leftovers(), [])
        self.assertIs(lumpwalk.cli.compute_Jw, originals["cli.compute_Jw"])
        self.assertIs(lumpwalk.lumping.compute_Jw, originals["lumping.compute_Jw"])
        self.assertIs(lumpwalk.cli.parse_group_file, originals["cli.parse_group_file"])
        self.assertIs(lumpwalk.linalg.Subspace.__dict__["insert"], originals["Subspace.insert"])
        self.assertIs(lumpwalk.groups.FiniteGroup.__dict__["generate"],
                      originals["FiniteGroup.generate"])
        self.assertEqual(failures(spec, records), [])
        layers = tracer.layer_metrics()
        # test weak twice and jw once each; test-dist twice (ROADMAP item 2)
        self.assertEqual(layers["lumping.Lw_calls"], 5)
        self.assertGreater(layers["lumping.Jw_s"], 0)
        self.assertGreater(layers["cli.self_s"], 0)
        self.assertEqual(layers["cli.nonzero_exits"], 0)
        declared = {m["name"] for m in declared_metrics()["per_layer"]}
        self.assertEqual(set(layers) | {"trace.overhead"}, declared)


class MiniatureTest(unittest.TestCase):
    """Each workload's request shapes on degree-4 groups pass their checks."""

    def test_miniature_passes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                spec = workloads.build(name, 5, Path(tmp), miniature=True)
                _, first = run.run_pass(lumpwalk.cli, spec.requests)
                _, second = run.run_pass(lumpwalk.cli, spec.requests)
                self.assertEqual(failures(spec, first), [])
                metrics, _, _ = run.end_to_end([(1.0, first), (1.0, second)], 0.1, spec.requests)
                declared = {m["name"] for m in declared_metrics()["end_to_end"]}
                self.assertEqual(set(metrics), declared)
                self.assertEqual(run.check_records(spec.requests, first)[1],
                                 run.check_records(spec.requests, second)[1])

    def test_wrong_verdict_is_a_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = workloads.build("verdict-s6", 5, Path(tmp), miniature=True)
            spec.requests[0].expect["verdicts.strong"] = True
            _, records = run.run_pass(lumpwalk.cli, spec.requests[:1])
            self.assertEqual(len(failures(spec, records)), 1)

    def test_degree_4_expectations_match_the_oracle(self):
        self.assertEqual(run.confirm(2, degrees=(4,)), 0)


if __name__ == "__main__":
    unittest.main()
