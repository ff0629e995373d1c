"""Spans around the package's public functions, installed from outside.

The tracer replaces each traced function object wherever a ``bibennett``
module binds it (modules import functions by name, so ``families.frame`` is
``bennett.frame``), records one span per call in memory, and restores the
originals on :meth:`Tracer.uninstall`.  Per-layer metrics are computed from
the spans after the run, and the spans are written out at the end.  Span
times come from the clock the operations are timed with (CPU time).
"""

from __future__ import annotations

import gzip
import sys
import time
from fractions import Fraction

# Traced functions per layer (package module).
LAYERS = {
    "algebra": ("mat_mul", "fit_rational", "interpolate_polynomial",
                "resultant_tau_bar", "sylvester_resultant", "solve_linear",
                "sqrt_scalar"),
    "bennett": ("frame", "planar_frame", "loop_closure_residual",
                "planar_loop_closure_residual"),
    "families": ("coupled_pose", "solve_bar_tau", "planar_bar_tau",
                 "align_isometry", "diagonal_rational", "necessary_conditions",
                 "family_c", "make_family_a", "make_family_b"),
    "properties": ("isogonal_certificate", "deltoidal_certificate",
                   "halfturn_certificate"),
    "limits": ("verify_labels", "prismatic_limit_AB", "prismatic_limit_C",
               "pyramidal_limit"),
    "appendix": ("verify_nonexistence", "coplanarity_coeffs",
                 "count_real_roots", "constrained_case_polynomials"),
    "io_export": ("parse_config", "serialize_config", "build_structure",
                  "sweep_report", "export_obj_text"),
    "cli": ("main",),
}

# Functions whose calls are also counted by distinct argument tuple.
DISTINCT_ARGS = ("bennett.frame", "families.coupled_pose",
                 "families.diagonal_rational")

OP_SPAN = "bench.op"


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Records [name id, start ns, end ns, parent span, op] per traced call
    while :attr:`active` is set."""

    def __init__(self, clock=time.thread_time_ns):
        """Builds the wrappers; the package must be imported already.
        ``clock`` gives span times in nanoseconds."""
        self.clock = clock
        self.names = [OP_SPAN]
        self.modules = ["bench"]
        self.spans = []
        self.stack = []
        self.active = False
        self.op = -1
        self.distinct = {name: set() for name in DISTINCT_ARGS}
        self.sqrt_float_results = 0
        self.errors = {module: 0 for module in LAYERS}
        self._wrappers = []
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"bibennett.{module_name}"]
            for fn in functions:
                original = getattr(home, fn)
                self._wrappers.append((original, self._wrap(
                    f"{module_name}.{fn}", module_name, original)))
        self._patched = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Bind every wrapper wherever a package module binds its original."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "bibennett" or name.startswith("bibennett.")]
        originals = {id(original): wrapper for original, wrapper in self._wrappers}
        for module in package:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, module_name, original):
        fid = len(self.names)
        self.names.append(name)
        self.modules.append(module_name)
        distinct = self.distinct.get(name)
        is_sqrt = name == "algebra.sqrt_scalar"
        spans, stack, modules = self.spans, self.stack, self.modules
        clock = self.clock

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            record = [fid, 0, 0, parent, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                if parent < 0 or modules[spans[parent][0]] != module_name:
                    self.errors[module_name] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if distinct is not None:
                distinct.add(_arg_key(args, kwargs))
            if is_sqrt and isinstance(result, float) and isinstance(
                    args[0], (int, Fraction)):
                self.sqrt_float_results += 1
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    # -- operation spans ---------------------------------------------------

    def begin_op(self, op_index: int) -> None:
        """Open the root span of one operation (spans of an op share its
        index) and start recording."""
        self.op = op_index
        self.stack.append(len(self.spans))
        self.spans.append([0, self.clock(), 0, -1, op_index])
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.spans[self.stack.pop()][2] = self.clock()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Per-op calls and self time of every traced function, waste ratios,
        float square roots of exact input, and escaped errors per module."""
        child = [0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for (fid, start, end, _, _), inner in zip(self.spans, child):
            calls[fid] += 1
            self_ns[fid] += end - start - inner
        per_op = max(ops, 1)
        out = {}
        for fid, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = (calls[fid] / per_op, "calls/op")
            out[f"{name}.self_ms"] = (self_ns[fid] / 1e6 / per_op, "ms/op")
        for name, keys in self.distinct.items():
            total = calls[self.names.index(name)]
            out[f"{name}.useful_ratio"] = (len(keys) / total if total else 1.0,
                                           "ratio")
        out["algebra.sqrt_scalar.float_results"] = (
            self.sqrt_float_results / per_op, "count/op")
        for module, count in self.errors.items():
            out[f"{module}.errors"] = (count / per_op, "count/op")
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped CSV: name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent,op\n")
            for fid, start, end, parent, op in self.spans:
                handle.write(f"{self.names[fid]},{start},{end},{parent},{op}\n")
