"""Outside-in trace of the locind layers.

``Tracer.install`` wraps the public entry points of each locind module
at every name a caller looks them up under (``locind.cohind.homology_dim``,
``locind.harness.delta_module``, ...) and methods on their class
(``SparseMatrix.rref``, ``UElt.__mul__``).  Each wrapped call records one
span (name, start, end, parent span, case id) in memory; ``summary``
turns the spans into calls, busy time and self time per span name, where
self time is busy time minus the time of wrapped child calls.  A few
deterministic counters are read from arguments and results after the
span has closed, so their cost is charged to the caller's self time.

Only traced repetitions import this module; untraced ones run the
program unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# span name -> the callables it covers, as (defining module, attribute).
SPANS = {
    "harness.run_case": [("locind.harness", "run_case")],
    "harness.selftest": [("locind.harness", "selftest")],
    "liealg.pair_by_name": [("locind.liealg", "pair_by_name")],
    "pbw.mul": [("locind.pbw", "UElt.__mul__")],
    "cohind.build": [("locind.cohind", "build_standard_complex")],
    "exactla.homology": [("locind.exactla", "homology_dim")],
    "exactla.rref": [("locind.exactla", "SparseMatrix.rref")],
    "exactla.mul": [("locind.exactla", "SparseMatrix.mul")],
    "hecke.rep_of_vec": [("locind.hecke", "rep_of_vec")],
    "hecke.rgk_mul": [("locind.hecke", "rgk_mul")],
    "hecke.oracle": [("locind.hecke", "p_deg0_oracle")],
    "locp1.geo": [("locind.locp1", n) for n in
                  ("delta_module", "laurent_module", "cech_cohomology_On")],
    "locp1.twisted_rep": [("locind.locp1", "twisted_rep")],
    "locp1.jets": [("locind.locp1", n) for n in
                   ("jet_associated_module", "jet_conformance")],
    "gkmod": [("locind.gkmod", n) for n in
              ("one_dim_module", "tensor_onedim", "lambda_top",
               "check_module_compatible")],
}

# Called too often inside straightening for a span each; only counted.
COUNTED = {"liealg.bracket_basis": ("locind.liealg", "LieAlg.bracket_basis")}

# Metric names that are not "<span>.<stat>".
ALIASES = {"cohind.assembly_self_s": "cohind.build.self_s"}


def _mul_counts(counts, args, result) -> None:
    counts["pbw.mul.terms_out"] += len(result.terms)


def _rref_counts(counts, args, result) -> None:
    counts["exactla.rref.nnz_in"] += len(args[0]._data)
    counts["exactla.rref.pivots"] += len(result[1])


def _complex_counts(counts, args, cx) -> None:
    counts["cohind.blocks"] += len(cx.blocks)
    for blk in cx.blocks.values():
        counts["cohind.basis_total"] += sum(blk.dims)
        counts["cohind.block_dim_max"] = max(counts["cohind.block_dim_max"],
                                             max(blk.dims))
        for bnd in blk.boundaries:
            for _, _, v in bnd.entries():
                counts["cohind.boundary_nnz"] += 1
                if v.denominator != 1:
                    counts["cohind.boundary_nonint"] += 1
    if cx.cut is not None:
        counts["cohind.cut_max"] = max(counts["cohind.cut_max"], cx.cut)


_HOOKS = {"pbw.mul": _mul_counts, "exactla.rref": _rref_counts,
          "cohind.build": _complex_counts}

# Counters that exist even when their layer never runs.
_ZERO_COUNTS = ("pbw.mul.terms_out", "exactla.rref.nnz_in", "exactla.rref.pivots",
                "cohind.blocks", "cohind.basis_total", "cohind.block_dim_max",
                "cohind.boundary_nnz", "cohind.boundary_nonint", "cohind.cut_max")


class Tracer:
    """In-memory span recorder for one traced repetition."""

    def __init__(self) -> None:
        self.spans: list = []          # (name, start, end, parent index, case)
        self.counts: defaultdict = defaultdict(int, {k: 0 for k in _ZERO_COUNTS})
        self.case = ""
        self.bindings: list[str] = []  # every "module.name" that was wrapped
        self._stack: list[int] = []

    def _span(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.case)
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    def _counter(self, name: str, fn):
        counts, key = self.counts, name + ".calls"
        counts[key] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        if "." in attr:                      # a method: wrap it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            self.bindings.append(f"{module}.{attr}")
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for name, loaded in sorted(sys.modules.items()):
            if name != "locind" and not name.startswith("locind."):
                continue
            for key, val in list(vars(loaded).items()):
                if val is orig:
                    setattr(loaded, key, wrapped)
                    self.bindings.append(f"{name}.{key}")

    def install(self) -> None:
        """Wrap every listed callable wherever locind binds it."""
        for name, specs in SPANS.items():
            for module, attr in specs:
                self._rebind(module, attr,
                             lambda fn: self._span(name, fn, _HOOKS.get(name)))
        for name, (module, attr) in COUNTED.items():
            self._rebind(module, attr, lambda fn: self._counter(name, fn))

    def summary(self, wall_s: float) -> tuple[dict, dict]:
        """(deterministic counts, times) for this repetition."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        counts = dict(self.counts)
        times: dict = defaultdict(float)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            self_s = dur[i] - child[i]
            times[name + ".self_s"] += self_s
            if "." in name:
                times[name.split(".")[0] + ".self_s"] += self_s
            times["trace.self_total_s"] += self_s
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:      # outermost span of its name: busy time
                times[name + ".busy_s"] += dur[i]
        for name in SPANS:
            counts.setdefault(name + ".calls", 0)
            for key in (name + ".busy_s", name + ".self_s",
                        name.split(".")[0] + ".self_s"):
                times.setdefault(key, 0.0)
        for alias, source in ALIASES.items():
            times[alias] = times[source]
        times["trace.coverage"] = times["trace.self_total_s"] / wall_s
        return dict(sorted(counts.items())), dict(sorted(times.items()))

    def write_spans(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7),
                                     parent, case]) + "\n")
