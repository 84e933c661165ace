"""Per-layer tracing of homsplit from outside the program.

The tracer wraps public functions and methods of the homsplit modules for the
length of one traced pass and restores them afterwards.  Two kinds of wrapper
exist:

* spans, for calls that run at most thousands of times per pass (CLI
  operations, corpus entries, template evaluation, operator verification,
  searches, file loads).  Each span records its operation id, its own id, its
  parent's id, start, end and self time, and is kept in memory;
* kernels, for calls that run up to millions of times (polynomial arithmetic,
  BilinearOp.apply, LinearMap.apply, linalg routines, report building and
  serialisation).  They are aggregated as call count, busy time and self time.

Self time is a call's duration minus the part its traced children cover.  A
call nested inside a call of the same key (for example ``p - q``, which runs
``p + (-q)``) is not timed again, so busy times never count an interval twice.

A function imported with ``from .x import y`` is looked up in the importing
module, so the tracer patches every homsplit module whose namespace holds the
function object, not only the defining module.  Methods are patched on their
class.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


class _Key:
    """Shared state of every wrapper that reports under one key."""

    __slots__ = ("name", "active", "calls", "busy", "self_time")

    def __init__(self, name: str):
        self.name = name
        self.active = False
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.keys: dict[str, _Key] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        # every open frame is [child seconds]; span frames add span id, op id
        self._stack: list[list] = [[0.0, None, None]]
        self._span_stack: list[list] = [self._stack[0]]
        self._next_span = 0
        self._next_op = 0
        self._patches: list[tuple] = []

    # -- state queries used by hooks ------------------------------------------

    def key(self, name: str) -> _Key:
        if name not in self.keys:
            self.keys[name] = _Key(name)
        return self.keys[name]

    def active(self, name: str) -> bool:
        key = self.keys.get(name)
        return key is not None and key.active

    # -- wrappers ---------------------------------------------------------------

    def kernel(self, name: str, fn, after=None):
        key = self.key(name)
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if key.active:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            key.active = True
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                key.active = False
                stack[-1][0] += elapsed
                key.calls += 1
                key.busy += elapsed
                key.self_time += elapsed - frame[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def span(self, name: str, fn, after=None, new_op: bool = False):
        key = self.key(name)
        stack = self._stack
        span_stack = self._span_stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if key.active:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            parent = span_stack[-1]
            span_id = self._next_span
            self._next_span += 1
            if new_op or parent[2] is None:
                op_id = self._next_op
                self._next_op += 1
            else:
                op_id = parent[2]
            frame = [0.0, span_id, op_id]
            key.active = True
            stack.append(frame)
            span_stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                span_stack.pop()
                key.active = False
                stack[-1][0] += elapsed
                key.calls += 1
                key.busy += elapsed
                key.self_time += elapsed - frame[0]
                self.spans.append(
                    (op_id, span_id, parent[1], name, start, end, elapsed - frame[0])
                )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch_function(self, fn, wrapper) -> None:
        """Replace `fn` wherever a homsplit module namespace refers to it."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "homsplit" or mod_name.startswith("homsplit.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for op_id, span_id, parent, name, start, end, self_s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "op": op_id,
                            "span": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# the homsplit layer map


def _violating_tuples(report) -> int:
    return len({(v.template, v.witness[:-1]) for v in report.entries})


def _template_tuples(templates, dims) -> int:
    total = 0
    for template in templates:
        count = 1
        for _, space in template.variables:
            count *= dims[space]
        total += count
    return total


def _has_parameters(ops: dict, maps: dict) -> bool:
    return any(op.parameters() for op in ops.values()) or any(
        m.parameters() for m in maps.values()
    )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every homsplit layer."""
    from homsplit import axioms, cli, corpus, files, linalg, model, morphisms, operators, poly
    from homsplit import report as report_mod

    counters = tracer.counters
    Polynomial = poly.Polynomial

    # poly: arithmetic, parsing and formatting are kernels
    for attr in ("__add__", "__sub__", "__mul__", "__neg__"):
        tracer.patch_method(Polynomial, attr, lambda fn: tracer.kernel("poly.arith", fn))
    tracer.patch_method(Polynomial, "parse", lambda fn: tracer.kernel("poly.parse", fn))
    tracer.patch_method(Polynomial, "__str__", lambda fn: tracer.kernel("poly.format", fn))

    # model: the tensor and matrix kernels
    tracer.patch_method(
        model.BilinearOp, "apply", lambda fn: tracer.kernel("model.bilinear_apply", fn)
    )
    tracer.patch_method(
        model.LinearMap, "apply", lambda fn: tracer.kernel("model.linear_apply", fn)
    )
    tracer.patch_method(
        model.LinearMap, "compose", lambda fn: tracer.kernel("model.linear_compose", fn)
    )

    # linalg: exact rational kernels; determinant calls inside an isomorphism
    # search count its grid candidates
    def count_candidate(args, result):
        if tracer.active("morphisms.iso_search"):
            counters["morphisms.iso_candidates"] += 1

    tracer.patch_function(linalg.rref, tracer.kernel("linalg.rref", linalg.rref))
    tracer.patch_function(
        linalg.determinant,
        tracer.kernel("linalg.determinant", linalg.determinant, after=count_candidate),
    )
    tracer.patch_function(linalg.matmul, tracer.kernel("linalg.matmul", linalg.matmul))

    # axioms: template evaluation and homomorphism checks
    def after_evaluate(args, result):
        templates, dims, ops, maps = args[:4]
        counters["axioms.tuples"] += _template_tuples(templates, dims)
        counters["axioms.violations"] += len(result.entries)
        counters["axioms.violating_tuples"] += _violating_tuples(result)

    evaluate = axioms.evaluate_templates
    evaluate_span = tracer.span("axioms.evaluate", evaluate, after=after_evaluate)
    numeric = tracer.key("axioms.evaluate.numeric")
    symbolic = tracer.key("axioms.evaluate.symbolic")

    def evaluate_split(templates, dims, ops, maps):
        split = symbolic if _has_parameters(ops, maps) else numeric
        start = time.perf_counter()
        try:
            return evaluate_span(templates, dims, ops, maps)
        finally:
            split.calls += 1
            split.busy += time.perf_counter() - start

    tracer.patch_function(evaluate, evaluate_split)
    tracer.patch_function(
        axioms.check_homomorphism,
        tracer.span("axioms.homomorphism", axioms.check_homomorphism),
    )

    # operators: verification and grid solving
    def after_verify(args, result):
        if tracer.active("operators.solve"):
            counters["operators.candidates"] += 1

    def after_solve(args, result):
        counters["operators.solutions"] += len(result)

    tracer.patch_function(
        operators.verify_operator,
        tracer.span("operators.verify", operators.verify_operator, after=after_verify),
    )
    tracer.patch_function(
        operators.solve_operators_grid,
        tracer.span("operators.solve", operators.solve_operators_grid, after=after_solve),
    )

    # morphisms: fingerprints, the grid search and its candidate verifications
    def after_verify_iso(args, result):
        if tracer.active("morphisms.iso_search"):
            counters["morphisms.iso_verified"] += 1

    tracer.patch_function(
        morphisms.fingerprint, tracer.span("morphisms.fingerprint", morphisms.fingerprint)
    )
    tracer.patch_function(
        morphisms.brute_force_iso_search,
        tracer.span("morphisms.iso_search", morphisms.brute_force_iso_search),
    )
    tracer.patch_function(
        morphisms.verify_isomorphism,
        tracer.span(
            "morphisms.verify_isomorphism", morphisms.verify_isomorphism, after=after_verify_iso
        ),
    )

    # files and corpus loading
    def after_read(args, result):
        counters["files.bytes_read"] += os.path.getsize(args[0])

    tracer.patch_function(
        files.read_json, tracer.span("files.read_json", files.read_json, after=after_read)
    )
    for loader in (
        corpus.load_algebra,
        corpus.load_representation,
        corpus.load_action,
        corpus.load_operator,
    ):
        tracer.patch_function(loader, tracer.span("corpus.load", loader))

    # report: construction (including the sort) and serialisation
    tracer.patch_method(
        report_mod.Report, "__init__", lambda fn: tracer.kernel("report.build", fn)
    )

    def count_bytes(args, result):
        counters["report.bytes"] += len(result.encode("utf-8"))

    for cls in (report_mod.Report, report_mod.Violation):
        tracer.patch_method(cls, "to_dict", lambda fn: tracer.kernel("report.serialize", fn))
    tracer.patch_function(
        cli._dump, tracer.kernel("report.serialize", cli._dump, after=count_bytes)
    )
    tracer.patch_function(
        cli._write_report, tracer.kernel("report.serialize", cli._write_report)
    )
    for fn in (corpus.report_to_json, corpus.discrepancies_markdown):
        tracer.patch_function(fn, tracer.kernel("report.serialize", fn, after=count_bytes))

    # corpus entries and CLI calls are operations
    tracer.patch_function(
        corpus.verify_entry, tracer.span("corpus.entry", corpus.verify_entry, new_op=True)
    )
    tracer.patch_function(cli.main, tracer.span("cli.op", cli.main, new_op=True))


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name."""
    k = tracer.key
    c = tracer.counters
    out = {
        "poly.arith.calls": k("poly.arith").calls,
        "poly.arith.s": k("poly.arith").busy,
        "poly.parse.calls": k("poly.parse").calls,
        "poly.parse.s": k("poly.parse").busy,
        "poly.format.calls": k("poly.format").calls,
        "poly.format.s": k("poly.format").busy,
        "model.bilinear_apply.calls": k("model.bilinear_apply").calls,
        "model.bilinear_apply.self_s": k("model.bilinear_apply").self_time,
        "model.linear_apply.calls": k("model.linear_apply").calls,
        "model.linear_apply.self_s": k("model.linear_apply").self_time,
        "model.linear_compose.calls": k("model.linear_compose").calls,
        "model.linear_compose.self_s": k("model.linear_compose").self_time,
        "axioms.evaluate.calls": k("axioms.evaluate").calls,
        "axioms.evaluate.self_s": k("axioms.evaluate").self_time,
        "axioms.evaluate.numeric_s": k("axioms.evaluate.numeric").busy,
        "axioms.evaluate.symbolic_s": k("axioms.evaluate.symbolic").busy,
        "axioms.tuples": c["axioms.tuples"],
        "axioms.violations": c["axioms.violations"],
        "axioms.violation_ratio": _ratio(c["axioms.violating_tuples"], c["axioms.tuples"]),
        "axioms.homomorphism.calls": k("axioms.homomorphism").calls,
        "axioms.homomorphism.s": k("axioms.homomorphism").busy,
        "operators.verify.calls": k("operators.verify").calls,
        "operators.verify.s": k("operators.verify").busy,
        "operators.solve.s": k("operators.solve").busy,
        "operators.candidates": c["operators.candidates"],
        "operators.solutions": c["operators.solutions"],
        "operators.solution_ratio": _ratio(c["operators.solutions"], c["operators.candidates"]),
        "morphisms.fingerprint.calls": k("morphisms.fingerprint").calls,
        "morphisms.fingerprint.s": k("morphisms.fingerprint").busy,
        "morphisms.iso_search.s": k("morphisms.iso_search").busy,
        "morphisms.iso_candidates": c["morphisms.iso_candidates"],
        "morphisms.iso_verified": c["morphisms.iso_verified"],
        "morphisms.prefilter_pass_ratio": _ratio(
            c["morphisms.iso_verified"], c["morphisms.iso_candidates"]
        ),
        "linalg.rref.calls": k("linalg.rref").calls,
        "linalg.rref.s": k("linalg.rref").busy,
        "linalg.determinant.calls": k("linalg.determinant").calls,
        "linalg.determinant.s": k("linalg.determinant").busy,
        "linalg.matmul.calls": k("linalg.matmul").calls,
        "linalg.matmul.s": k("linalg.matmul").busy,
        "files.read_json.calls": k("files.read_json").calls,
        "files.read_json.s": k("files.read_json").busy,
        "files.bytes_read": c["files.bytes_read"],
        "corpus.load.calls": k("corpus.load").calls,
        "corpus.load.s": k("corpus.load").busy,
        "report.build.calls": k("report.build").calls,
        "report.build.s": k("report.build").busy,
        "report.serialize.s": k("report.serialize").busy,
        "report.bytes": c["report.bytes"],
        "cli.op.self_s": k("cli.op").self_time,
    }
    return out
