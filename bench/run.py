"""Benchmark of the `lumpwalk` command line, end to end and per layer.

    python3 bench/run.py --workload weak-s6 --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of requests generated from `--seed` into
`.bench_work/<workload>/` before any timing starts.  The requests are issued
as in-process calls to `lumpwalk.cli.main(argv + ["--json"])` in a closed
loop: one client on one thread, each request sent after the previous one
returned.  Every report is checked (exit code, expected verdicts and
dimensions, agreement with the generic chain oracle) and its sha256 must be
the same in every pass.

`--trace 0` repeats passes while the next one is predicted to end within
`--seconds` (at least two, so reports can be compared across passes) and
reports the end-to-end metrics.  `--trace 1` runs one untraced and one traced
pass and reports the per-layer metrics of the traced one; their ratio is the
tracing overhead.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`.

`--confirm` instead checks the recorded S6 expectations against the generic
chain oracle of `lumpwalk.markov` (slow; not part of a timed run).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = {"weak-s6": 7, "verdict-s6": 7, "sweep-small": 15}
# the single-run S6/S5 bottom-card CLI times of the ROADMAP baseline, seconds
ROADMAP_S6 = {"test-weak": 1.0, "jw": 7.1, "test-strong": 0.5, "orbital": 4.3}
CMD_METRICS = ("test-weak", "jw", "test-dist", "test-strong", "orbital", "abelian-test",
               "generic-test")


def load_program():
    """Import `lumpwalk` from the `src/` tree next to this benchmark, and only from there."""
    src = ROOT / "src"
    if not (src / "lumpwalk" / "cli.py").is_file():
        raise SystemExit(f"bench: no lumpwalk sources under {src}")
    sys.path.insert(0, str(src))
    import lumpwalk
    import lumpwalk.cli

    if Path(lumpwalk.__file__).resolve().parent != src / "lumpwalk":
        raise SystemExit(f"bench: imported lumpwalk from {lumpwalk.__file__}, not {src}")
    return lumpwalk


CAL_STEPS = 300  # Fraction additions in one sample of the speed probe
CAL_REF_S = 0.001  # sample time that defines reference speed
PROBE_INTERVAL_S = 0.05  # time between two samples of the speed probe
PROBE_PAD_S = 0.1  # samples this soon before a call also describe its speed


def _calibration_loop():
    # Fraction arithmetic, like the program's hot loops: an integer-only loop
    # tracked the machine's speed changes less closely
    total = Fraction(0)
    for i in range(1, CAL_STEPS):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedProbe:
    """Samples how fast the interpreter runs while the workload runs.

    On a shared machine the same fixed loop can take up to twice as long from
    one second to the next, which would hide any change in the program.  A
    timer signal runs a fixed loop of `Fraction` additions every
    `PROBE_INTERVAL_S` seconds.  `measure` subtracts the probe's own time from
    a call and scales the rest to seconds at the reference speed (the loop
    taking `CAL_REF_S`), using the samples from `PROBE_PAD_S` before the call
    to its end.
    """

    def __init__(self):
        self.stamps: list = []  # when each sample ended
        self.speeds: list = []  # CAL_REF_S / loop time
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        _calibration_loop()
        end = time.perf_counter()
        self.stamps.append(end)
        self.speeds.append(CAL_REF_S / (end - start))
        self.spent += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn, *args):
        """(seconds at reference speed, result) of one call."""
        start, spent = time.perf_counter(), self.spent
        result = fn(*args)
        end, spent = time.perf_counter(), self.spent - spent
        first = bisect.bisect_left(self.stamps, start - PROBE_PAD_S)
        window = self.speeds[first:] or self.speeds[-1:]
        return (end - start - spent) * sum(window) / len(window), result


def _call_cli(cli, argv, out, err):
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv + ["--json"])


def run_request(cli, argv, probe=None):
    """Returns (seconds, exit code, report text, error text).

    Seconds are at reference speed with a probe, wall seconds without.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        if probe is None:
            code = _call_cli(cli, argv, out, err)
            seconds = time.perf_counter() - start
        else:
            seconds, code = probe.measure(_call_cli, cli, argv, out, err)
    except Exception as exc:  # a traceback is a failed request, not a crash of the benchmark
        return time.perf_counter() - start, None, "", f"{type(exc).__name__}: {exc}"
    return seconds, code, out.getvalue(), err.getvalue().strip()


def run_pass(cli, requests, tracer=None, probe=None):
    """One closed-loop pass; returns its duration and per-request records.

    With a probe the duration is the sum of the scaled request times.
    """
    records = []
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        records.append(run_request(cli, req.argv, probe))
    if probe is not None:
        return sum(rec[0] for rec in records), records
    return time.perf_counter() - start, records


def check_records(requests, records):
    """Failure messages per request, and the sha256 of each report."""
    results, digests = [], []
    for _, code, text, error in records:
        report = None
        if code == 0:
            try:
                report = json.loads(text)
            except ValueError:
                report = None
        results.append((code, report, error if code is None else ""))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return workloads.check_pass(requests, results), digests


def measure_setup(problems, repeats, probe):
    """Median over repeats of group/subgroup text -> parse + subgroup + LumpingProblem."""
    from lumpwalk.groups import parse_group_file
    from lumpwalk.lumping import LumpingProblem

    texts = [(Path(g).read_text(), Path(s).read_text()) for g, s in problems]

    def set_up():
        for gtext, stext in texts:
            G = parse_group_file(gtext)
            spec = parse_group_file(stext)
            H = G.subgroup([spec.elements[g] for g in spec.generators])
            LumpingProblem(G, H)

    return statistics.median(probe.measure(set_up)[0] for _ in range(repeats))


def tail(latencies):
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = int(n * p / 100)
        if n - rank >= 10 and rank >= 1:
            return p, ordered[rank - 1]
    return None, None


class Outcome:
    """Failures and report digests accumulated over the passes of a run."""

    def __init__(self, requests):
        self.requests = requests
        self.attempted = 0
        self.failures = {}  # (pass, request index) -> messages
        self.digests = None

    def add(self, label, records):
        problems, digests = check_records(self.requests, records)
        if self.digests is None:
            self.digests = digests
        for i, (msgs, digest) in enumerate(zip(problems, digests)):
            if digest != self.digests[i]:
                msgs = msgs + [f"report differs from the first pass (sha256 {digest[:12]})"]
            if msgs:
                self.failures[(label, i)] = msgs
        self.attempted += len(records)

    @property
    def failed(self) -> int:
        return len(self.failures)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_s, requests):
    """Metrics from untraced passes: scaled times per pass and per request."""
    latencies = [rec[0] for _, records in passes for rec in records]
    by_cmd = {}
    for _, records in passes:
        for req, rec in zip(requests, records):
            by_cmd.setdefault(req.command, []).append(rec[0])
    p_tail, v_tail = tail(latencies)
    metrics = {
        "pass_s": metric(statistics.median(wall for wall, _ in passes), "s"),
        "req_p50_s": metric(statistics.median(latencies), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "req_tail_s": (v_tail, f"p{p_tail:g} of {len(latencies)}" if p_tail else
                       f"n/a: {len(latencies)} requests, fewer than 11"),
        "requests_per_pass": (len(requests), "count"),
        "passes": (len(passes), "count"),
    }
    for cmd in CMD_METRICS:
        if cmd in by_cmd:
            samples = by_cmd[cmd]
            extra[f"cmd.{cmd}_s"] = (statistics.median(samples), f"s, median of {len(samples)}")
    first = {}
    for req, rec in zip(requests, passes[0][1]):
        first.setdefault(req.command, rec[0])
    return metrics, extra, first


def print_summary(name, seed, outcome, metrics, extra):
    print(f"workload {name}  seed {seed}  closed loop, 1 client, 1 thread")
    for key, entry in metrics.items():
        print(f"  {key:<28} {entry['value']:.6g} {entry['unit']}")
    for key, (value, unit) in extra.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {key:<28} {shown} {unit}")
    ratio = outcome.failed / outcome.attempted
    print(f"  {'fail_ratio':<28} {ratio:.6g} ({outcome.failed} of {outcome.attempted} requests)")
    for (label, i), msgs in sorted(outcome.failures.items()):
        print(f"  FAIL pass {label} request {i} ({' '.join(outcome.requests[i].argv[:2])}): "
              + "; ".join(msgs))


def print_baseline(first):
    shown = [(cmd, ROADMAP_S6[cmd], first[cmd]) for cmd in ROADMAP_S6 if cmd in first]
    if not shown:
        return
    print("  first-pass times against the ROADMAP single-run S6/S5 bottom-card CLI table:")
    for cmd, baseline, here in shown:
        print(f"    cmd.{cmd}_s  ROADMAP {baseline:.1f} s  here {here:.3f} s")
    print("    (the ROADMAP figures time a fresh `lumpwalk` process, including interpreter"
          " start and imports; here the call is in-process and scaled to the reference speed)")


def run(args) -> int:
    load_program()
    import lumpwalk.cli as cli

    os.chdir(ROOT)  # reports record the relative input paths
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.build(args.workload, args.seed, work.relative_to(ROOT))
    outcome = Outcome(spec.requests)

    if args.trace:
        untraced_wall, untraced = run_pass(cli, spec.requests)
        outcome.add("untraced", untraced)
        with Tracer() as tracer:
            traced_wall, traced = run_pass(cli, spec.requests, tracer)
        outcome.add("traced", traced)
        leftovers = tracer.leftovers()
        if leftovers:
            raise SystemExit(f"bench: wrappers left behind: {leftovers}")
        tracer.write(work / "spans.jsonl")
        layers = tracer.layer_metrics()
        layers["trace.overhead"] = traced_wall / untraced_wall
        metrics = {key: metric(value, unit_of(key)) for key, value in layers.items()}
        print(f"workload {args.workload}  seed {args.seed}  traced pass {traced_wall:.3f} s,"
              f" untraced pass {untraced_wall:.3f} s (wall)")
        for key, entry in metrics.items():
            print(f"  {key:<28} {entry['value']:.6g} {entry['unit']}")
        print("  single-threaded: no layer waits on a queue, so no wait time is reported")
        for (label, i), msgs in sorted(outcome.failures.items()):
            print(f"  FAIL pass {label} request {i}: " + "; ".join(msgs))
    else:
        passes, walls = [], []
        with SpeedProbe() as probe:
            setup_s = measure_setup(spec.problems, SETUP_REPEATS[args.workload], probe)
            start = time.perf_counter()
            while len(passes) < 2 or (time.perf_counter() - start
                                      + statistics.median(walls) <= args.seconds):
                pass_start = time.perf_counter()
                seconds, records = run_pass(cli, spec.requests, probe=probe)
                walls.append(time.perf_counter() - pass_start)
                outcome.add(len(passes), records)
                passes.append((seconds, records))
        speeds = probe.speeds
        metrics, extra, first = end_to_end(passes, setup_s, spec.requests)
        extra["wall_pass_s"] = (statistics.median(walls), "s, unscaled")
        extra["probe_speed"] = (statistics.median(speeds),
                                f"of reference, median of {len(speeds)} samples")
        print_summary(args.workload, args.seed, outcome, metrics, extra)
        if args.workload in ("weak-s6", "verdict-s6"):
            print_baseline(first)

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key in ("linalg.insert_yield", "trace.overhead"):
        return "ratio"
    return "count"


def confirm(seed: int, degrees=(4, 6)) -> int:
    """Check the recorded S_n expectations against the generic chain oracle."""
    load_program()
    from lumpwalk import Distribution, LumpingProblem, lumping_function, parse_cycles
    from lumpwalk.algebra import parse_element_file
    from lumpwalk.groups import parse_group_file
    from lumpwalk.markov import (test_exact_generic, test_strong_generic, test_weak_generic,
                                 transition_from_weight)

    failures = 0
    for n in degrees:
        work = ROOT / ".bench_work" / f"confirm-s{n}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workloads.build_verdict(seed, work, n)
        x = workloads.EXPECTED[n]
        G = parse_group_file((work / "group.txt").read_text())

        def problem_for(name):
            spec = parse_group_file((work / name).read_text())
            return LumpingProblem(G, G.subgroup([spec.elements[g] for g in spec.generators]))

        top, cyclic = problem_for("sub.txt"), problem_for("cyclic.txt")
        uniform = Distribution.uniform(G.order)
        identity = Distribution.point(G.order, G.element_of("id"))
        checks = []
        for key in ("bottom", "rtt"):
            w = parse_element_file((work / f"{key}.txt").read_text(), G)
            P = transition_from_weight(G, w)
            f = lumping_function(top)
            checks += [
                (f"S{n} {key} strong", test_strong_generic(f, P), x[key]["strong"]),
                (f"S{n} {key} exact", test_exact_generic(f, P, uniform), x[key]["exact"]),
                (f"S{n} {key} weak", test_weak_generic(f, P, uniform)[0], x[key]["weak"]),
            ]
            if key == "rtt":
                checks.append((f"S{n} rtt weak from id", test_weak_generic(f, P, identity)[0],
                               x["rtt"]["dist_id"]))
                fc = lumping_function(cyclic)
                checks.append((f"S{n}/C{n} rtt weak", test_weak_generic(fc, P, uniform)[0],
                               x["cyclic"]["rtt_weak"]))
        w = parse_element_file((work / "biinv.txt").read_text(), G)
        P = transition_from_weight(G, w)
        checks.append((f"S{n}/C{n} bi-invariant weak",
                       test_weak_generic(lumping_function(cyclic), P, uniform)[0],
                       x["cyclic"]["biinv_weak"]))
        for label, got, want in checks:
            status = "ok" if got == want else "MISMATCH"
            failures += got != want
            print(f"{status:<8} {label}: oracle {got}, recorded {want}")
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--confirm", action="store_true",
                        help="check the recorded S6 expectations against the generic oracle")
    args = parser.parse_args(argv)
    if args.confirm:
        return confirm(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
