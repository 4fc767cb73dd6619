"""Median library set-up of S_n over its top-card stabiliser, at n = 6, 7 and 8.

    python3 tests/setup_scale.py

For each degree n the script times, in process, the three set-up steps a
request takes before any verdict: `FiniteGroup.generate` of S_n from
(1,2) and (1,2,...,n), `FiniteGroup.subgroup` of the stabiliser of point 1
from (2,3) and (2,3,...,n), and `LumpingProblem` (the left cosets and the
double cosets).  It prints one line per degree with the median of each step
and of their sum over nine repeats, in seconds.  S8 has 40 320 elements, over
the default order cap, so its group is generated with `order_cap=40320`.

It imports `lumpwalk` from the `src/` next to it and writes nothing.  Copy it
into the `tests/` of another checkout to time that one the same way; run the
two copies alternately to compare them.  pytest does not collect it (the
file name does not start with `test_`).
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lumpwalk.groups import FiniteGroup, parse_cycles  # noqa: E402
from lumpwalk.lumping import LumpingProblem  # noqa: E402

REPEATS = 9
DEGREES = (6, 7, 8)


def cycle(degree: int, first: int) -> tuple[int, ...]:
    """The image tuple of (first, first+1, ..., degree), points 1-based."""
    return parse_cycles(degree, "(" + ",".join(map(str, range(first, degree + 1))) + ")")


def set_up(n: int) -> tuple[float, float, float]:
    """Seconds of generate, subgroup and LumpingProblem for S_n over S_{n-1}."""
    gens = [parse_cycles(n, "(1,2)"), cycle(n, 1)]
    hgens = [parse_cycles(n, "(2,3)"), cycle(n, 2)]
    t0 = time.perf_counter()
    G = FiniteGroup.generate(n, gens, order_cap=40320)
    t1 = time.perf_counter()
    H = G.subgroup(hgens)
    t2 = time.perf_counter()
    LumpingProblem(G, H)
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def main() -> int:
    for n in DEGREES:
        runs = [set_up(n) for _ in range(REPEATS)]
        steps = [statistics.median(step) for step in zip(*runs)]
        total = statistics.median(map(sum, runs))
        print(f"S{n}/S{n - 1} generate {steps[0]:.5f} subgroup {steps[1]:.5f} "
              f"problem {steps[2]:.5f} total {total:.5f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
