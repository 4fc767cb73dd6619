"""Shared groups, subgroups and weights used across the suite, and the
in-process command-line runner."""

import contextlib
import io
import subprocess
import traceback
from collections import Counter
from fractions import Fraction

import pytest

from lumpwalk import (
    AlgebraElement,
    FiniteGroup,
    LumpingProblem,
    Trajectory,
    Xoshiro256StarStar,
    parse_cycles,
    simulate_walk,
)
from lumpwalk.shuffles import symmetric_group, top_stabilizer


def run_main(*args):
    """`cli.main` in process with its streams captured, as a subprocess run
    reports it: an exception that escapes `main` is written to stderr as a
    traceback with exit code 1, as the interpreter would."""
    from lumpwalk import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in args])
        except Exception:
            traceback.print_exc()
            code = 1
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def sym4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def top_prob(sym4):
    """Sym_4 lumped to the stabilizer of the top position."""
    return LumpingProblem(sym4, top_stabilizer(sym4))


@pytest.fixture(scope="session")
def mid_swap_T(sym4):
    """The order-2 subgroup swapping the middle positions."""
    return sym4.subgroup([parse_cycles(4, "(2,3)")])


def lazy_frustrator(G, lam):
    """Lazy shuffle that lumps weakly (compatible with averaging over the
    middle swap) but not strongly or exactly for 0 < lam <= 1."""
    lam = Fraction(lam)
    return AlgebraElement.from_pairs(G, [
        (G.element_of("id"), 1 - lam),
        (G.element_of("(1,4)(2,3)"), lam / 3),
        (G.element_of("(1,4,3)"), lam / 3),
        (G.element_of("(1,4,2,3)"), lam / 3),
    ])


@pytest.fixture(scope="session")
def frustrator(sym4):
    return lazy_frustrator(sym4, Fraction(3, 4))


@pytest.fixture(scope="session")
def die_prob(sym4):
    """Sym_4 acting as die rotations, lumped to the top-face stabilizer C_4."""
    return LumpingProblem(sym4, sym4.subgroup([parse_cycles(4, "(1,2,3,4)")]))


@pytest.fixture(scope="session")
def die_weight(sym4):
    return AlgebraElement.from_pairs(sym4, [
        (sym4.element_of("(1,2)"), Fraction(2, 12)),
        (sym4.element_of("(1,4,2,3)"), Fraction(1, 12)),
        (sym4.element_of("(1,3,4)"), Fraction(1, 12)),
        (sym4.element_of("(2,4,3)"), Fraction(2, 12)),
        (sym4.element_of("(3,4)"), Fraction(3, 12)),
        (sym4.element_of("(1,4,2)"), Fraction(3, 12)),
    ])


@pytest.fixture(scope="session")
def dihedral10():
    G = FiniteGroup.generate(
        5, [parse_cycles(5, "(1,2,3,4,5)"), parse_cycles(5, "(2,5)(3,4)")]
    )
    sigma = G.element_of("(1,2,3,4,5)")
    tau = G.element_of("(2,5)(3,4)")
    return G, sigma, tau


@pytest.fixture(scope="session")
def dihedral_prob(dihedral10):
    G, sigma, tau = dihedral10
    return LumpingProblem(G, G.subgroup([G.elements[tau]]))


def uniform_on(G, ids):
    ids = list(ids)
    return AlgebraElement.from_pairs(G, [(i, Fraction(1, len(ids))) for i in ids])


def simulate_ensemble(problem: LumpingProblem, w: AlgebraElement, alpha: AlgebraElement,
                      seed: int, replicas: int, length: int) -> list[Trajectory]:
    """Independent restarts; replica r is seeded with splitmix64(seed) xor r.

    Aggregate statistics over an ensemble of short runs expose start-dependent
    violations of the Markov property that wash out of one long trajectory of
    an aperiodic walk (whose late-time triple counts follow the stationary
    lumped chain).
    """
    base = Xoshiro256StarStar(seed).next_uint64()
    return [
        simulate_walk(problem, w, alpha, base ^ r, length) for r in range(replicas)
    ]


def counted_closures(patch) -> list:
    """Patch `LumpingProblem.close_H_ideal` through ``patch`` (a monkeypatch
    or one of its contexts) to record the ``last`` flag of each call."""
    calls = []
    close = LumpingProblem.close_H_ideal

    def counted(self, seeds, integral, last=False):
        calls.append(last)
        return close(self, seeds, integral, last)

    patch.setattr(LumpingProblem, "close_H_ideal", counted)
    return calls


@pytest.fixture
def fraction_work(monkeypatch):
    """A Counter of the `Fraction`s built and of the numerators, denominators
    and truth values of `Fraction`s read while the test runs; clear it just
    before the call to measure."""
    work = Counter()
    build = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        work["new"] += 1
        return build(cls, *args, **kwargs)

    def counted(name, read):
        def wrapper(self):
            work[name] += 1
            return read(self)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Fraction, "__bool__", counted("bool", Fraction.__bool__))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(Fraction, name, property(counted(name, getattr(Fraction, name).fget)))
    return work
