"""Spans and counters recorded from outside the `lumpwalk` layers.

`Tracer` replaces the boundary functions and methods of each module with
wrappers that record a span (name, start, end, parent span, request id) and
update counters, and puts every original back on exit, including the copies
other modules bound with `from .module import name`.  Spans are kept in
memory and written out by the caller.

`FiniteGroup.mul` and `Fraction` arithmetic are not wrapped: a wrapper would
cost more than the call.  `algebra.mul_terms` (the group multiplications a
product performs) stands in for them, and `Cyclo.__mul__` is only counted.
The program is single threaded, so no layer waits on a queue and no wait time
is reported.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "lumpwalk"
MARK = "__bench_traced__"

# layer -> boundaries as "function" or "Class.method"; "*" adds every public
# module-level function the module defines.
BOUNDARIES = {
    "groups": ["parse_group_file", "FiniteGroup.generate", "FiniteGroup.subgroup",
               "cosets", "double_cosets"],
    "algebra": ["AlgebraElement.__mul__", "parse_element_file"],
    "linalg": ["Subspace.insert", "Subspace.reduce", "Subspace.contains",
               "kernel_coefficients", "nullspace", "intersect"],
    "lumping": ["*", "LumpingProblem.__init__", "LumpingProblem.close_H_ideal"],
    "hecke": ["orbital_matrices", "verify_hecke_isomorphism", "check_Q_characterization",
              "hecke_project"],
    "markov": ["*", "TransitionMatrix.apply"],
    "simulate": ["simulate_walk"],
    "cli": ["main"],
}
COUNTED_ONLY = {"scalars": ["Cyclo.__mul__"]}


def _support_size(element) -> int:
    return sum(1 for c in element.coeffs if c)


def _count_mul(counters, args, kwargs, result):
    a, b = args
    if result is not NotImplemented:
        counters["algebra.mul_calls"] += 1
        counters["algebra.mul_terms"] += _support_size(a) * _support_size(b)


def _count_insert(counters, args, kwargs, result):
    counters["linalg.insert_calls"] += 1
    counters["linalg.insert_grew"] += bool(result)


def _count_enumerated(counters, args, kwargs, result):
    counters["groups.elements_enumerated"] += result.order


def _count_steps(counters, args, kwargs, result):
    counters["simulate.steps"] += result.length


def _count_exit(counters, args, kwargs, result):
    counters["cli.nonzero_exits"] += result != 0


def _counter(name):
    def count(counters, args, kwargs, result):
        counters[name] += 1
    return count


COUNTERS = {
    "algebra:AlgebraElement.__mul__": _count_mul,
    "linalg:Subspace.insert": _count_insert,
    "linalg:kernel_coefficients": _counter("linalg.kernel_calls"),
    "linalg:nullspace": _counter("linalg.kernel_calls"),
    "lumping:compute_Lw": _counter("lumping.Lw_calls"),
    "lumping:LumpingProblem.close_H_ideal": _counter("lumping.close_calls"),
    "markov:TransitionMatrix.apply": _counter("markov.apply_calls"),
    "groups:FiniteGroup.generate": _count_enumerated,
    "groups:FiniteGroup.subgroup": _count_enumerated,
    "simulate:simulate_walk": _count_steps,
    "cli:main": _count_exit,
    "scalars:Cyclo.__mul__": _counter("scalars.cyclo_mul_calls"),
}

# per-layer metric -> span names whose outermost inclusive time it sums
INCLUSIVE = {
    "algebra.mul_s": ["algebra:AlgebraElement.__mul__"],
    "lumping.Lw_s": ["lumping:compute_Lw"],
    "lumping.Jw_s": ["lumping:compute_Jw"],
    "lumping.strong_s": ["lumping:test_strong"],
    "lumping.exact_s": ["lumping:test_exact"],
    "lumping.abelian_s": ["lumping:abelian_weak_test"],
    "lumping.theta_s": ["lumping:theta_dimension"],
    "lumping.problem_init_s": ["lumping:LumpingProblem.__init__"],
    "hecke.verify_s": ["hecke:verify_hecke_isomorphism"],
    "markov.transition_s": ["markov:parse_matrix_file", "markov:transition_from_weight"],
    "markov.gl_space_s": ["markov:minimal_GL_space"],
}
SELF_LAYERS = ("groups", "algebra", "linalg", "lumping", "hecke", "markov", "simulate", "cli")


def _targets(module, specs):
    """(owner, attribute, qualified name) for each boundary of a module."""
    out = []
    for spec in specs:
        if spec == "*":
            for name, value in sorted(vars(module).items()):
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not name.startswith("_")):
                    out.append((module, name, name))
        elif "." in spec:
            cls_name, attr = spec.split(".")
            out.append((getattr(module, cls_name), attr, spec))
        else:
            out.append((module, spec, spec))
    return out


class Tracer:
    """Context manager that wraps the layer boundaries of an imported package."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, request id)
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, name, fn, record_span):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        count = COUNTERS.get(name)
        tracer = self

        if not record_span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                count(counters, args, kwargs, None)
                return fn(*args, **kwargs)
            setattr(counted, MARK, True)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request)
        setattr(traced, MARK, True)
        return traced

    def __enter__(self):
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        plan = [(layer, specs, True) for layer, specs in BOUNDARIES.items()]
        plan += [(layer, specs, False) for layer, specs in COUNTED_ONLY.items()]
        try:
            for layer, specs, record_span in plan:
                for owner, attr, qualname in _targets(modules[layer], specs):
                    self._patch(owner, attr, f"{layer}:{qualname}", record_span)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner, attr, name, record_span):
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__, record_span))
            else:
                wrapped = self._wrap(name, raw, record_span)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = self._wrap(name, original, record_span)
        # every module that bound the same function object by name
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False

    def leftovers(self) -> list:
        """Names still bound to a wrapper; empty once the tracer has exited."""
        out = []
        for module in self._modules():
            for key, value in vars(module).items():
                if getattr(value, MARK, False):
                    out.append(f"{module.__name__}.{key}")
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, raw in vars(value).items():
                        if getattr(getattr(raw, "__func__", raw), MARK, False):
                            out.append(f"{module.__name__}.{key}.{attr}")
        return out

    # -- analysis --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer self time, outermost inclusive times and counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name.split(":", 1)[0]] += (end - start) - child_time[k]
        out = {f"{layer}.self_s": self_time[layer] for layer in SELF_LAYERS}
        for metric, names in INCLUSIVE.items():
            out[metric] = self._outermost_time(set(names))
        counters = dict(self.counters)
        calls = counters.pop("linalg.insert_calls", 0)
        grew = counters.pop("linalg.insert_grew", 0)
        out["linalg.insert_calls"] = calls
        out["linalg.insert_yield"] = grew / calls if calls else 0.0
        for key in ("algebra.mul_calls", "algebra.mul_terms", "linalg.kernel_calls",
                    "lumping.Lw_calls", "lumping.close_calls", "scalars.cyclo_mul_calls",
                    "markov.apply_calls", "groups.elements_enumerated", "simulate.steps",
                    "cli.nonzero_exits"):
            out[key] = counters.get(key, 0)
        out["trace.spans"] = len(self.spans)
        return out

    def _outermost_time(self, names: set) -> float:
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, request id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
