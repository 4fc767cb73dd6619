"""The benchmark's tracer must find every boundary it wraps in `lumpwalk`.

`bench/tracing.py` names functions and methods by string; a rename in the
package would otherwise only show up as a failed `bench/run.py --trace 1`.
This test only reads `bench/`.
"""

import importlib.util
import sys
from pathlib import Path

import lumpwalk.cli  # noqa: F401  (imports every layer the tracer wraps)

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_boundaries_resolve():
    tracing = load_tracing()
    resolved = set()
    for layers in (tracing.BOUNDARIES, tracing.COUNTED_ONLY):
        for layer, specs in layers.items():
            module = sys.modules[f"{tracing.PACKAGE}.{layer}"]
            targets = tracing._targets(module, specs)
            assert targets, layer
            for owner, attr, qualname in targets:
                raw = vars(owner).get(attr)
                assert raw is not None, f"{layer}:{qualname}"
                assert callable(getattr(raw, "__func__", raw)), f"{layer}:{qualname}"
                resolved.add(f"{layer}:{qualname}")
    named = set(tracing.COUNTERS)
    for names in tracing.INCLUSIVE.values():
        named.update(names)
    assert named <= resolved, sorted(named - resolved)


def test_tracer_restores_every_boundary():
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert tracer._patches
    assert tracer.leftovers() == []
