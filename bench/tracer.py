"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces trigvee's public functions, in every trigvee
module namespace where they are looked up, with wrappers that record a span
(name, start, end, parent, task) or, for functions called tens of thousands
of times, only a call count and a time sum.  `uninstall()` puts the
originals back.  Spans stay in memory; the harness writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

from trigvee.errors import NonScalarAction

# (metric prefix, module, attribute path) of functions traced with spans.
SPANS = (
    ("configuration.build_configuration", "configuration", "build_configuration"),
    ("exactnum.hnf_basis", "exactnum", "hnf_basis"),
    ("exactnum.mat_inverse", "exactnum", "mat_inverse"),
    ("configuration.alpha_series", "configuration", "alpha_series"),
    ("configuration.decompose_components", "configuration", "decompose_components"),
    ("veecheck.full_check", "veecheck", "full_check"),
    ("veecheck.check_series_condition", "veecheck", "check_series_condition"),
    ("veecheck.solve_lambda_squared", "veecheck", "solve_lambda_squared"),
    ("wdvv.sample_points", "wdvv", "sample_points"),
    ("wdvv.wdvv_residual", "wdvv", "wdvv_residual"),
    ("cms.cms_identity_residual", "cms", "cms_identity_residual"),
    ("cms.check_series_with_metric", "cms", "check_series_with_metric"),
    ("cms.cms_to_vee", "cms", "cms_to_vee"),
    ("constraints.series_constraints", "constraints", "series_constraints"),
    ("constraints.verify_family", "constraints", "verify_family"),
    ("constraints.find_multiplicities", "constraints", "find_multiplicities"),
    ("multipoly.substitute", "multipoly", "MultiPoly.substitute"),
    ("veefile.parse_config_file", "veefile", "parse_config_file"),
    ("cli.main", "cli", "main"),
)
# Called ~70k times per search: timed and counted, but no span per call.
LEAVES = (("multipoly.evaluate_float", "multipoly", "MultiPoly.evaluate_float"),)
# Called once per covector pair: counted only.
COUNTERS = (("configuration.vee_product", "configuration", "vee_product"),)


def _bits(q) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def _on_alpha_series(tr, result, bound):
    tr.counts["configuration.series"] += len(result)


def _on_decompose(tr, result, bound):
    tr.counts["configuration.components"] += len(result)


def _on_series_check(tr, result, bound):
    tr.counts["veecheck.residuals"] += len(result.residuals)
    tr.counts["veecheck.residuals_nonzero"] += len(result.failures())


def _on_lambda(tr, result, bound):
    if result.lambda2 is not None:
        tr.maxima["veecheck.lambda2_bits"] = max(
            tr.maxima["veecheck.lambda2_bits"], _bits(result.lambda2)
        )


def _on_sample_points(tr, result, bound):
    tr.counts["wdvv.points"] += len(result)


def _on_constraints(tr, result, bound):
    tr.counts["constraints.polys"] += len(result.polynomials)
    tr.counts["constraints.terms"] += sum(len(c.poly.terms) for c in result.polynomials)


def _on_search(tr, result, bound):
    tr.counts["constraints.starts"] += bound().arguments["starts"]
    tr.counts["constraints.certified"] += len(result)


def _on_cms_to_vee_error(tr, exc):
    if isinstance(exc, NonScalarAction):
        tr.counts["cms.cms_to_vee.nonscalar"] += 1


ON_RESULT = {
    "configuration.alpha_series": _on_alpha_series,
    "configuration.decompose_components": _on_decompose,
    "veecheck.check_series_condition": _on_series_check,
    "veecheck.solve_lambda_squared": _on_lambda,
    "wdvv.sample_points": _on_sample_points,
    "constraints.series_constraints": _on_constraints,
    "constraints.find_multiplicities": _on_search,
}
ON_ERROR = {"cms.cms_to_vee": _on_cms_to_vee_error}


class Tracer:
    """Collects spans, per-name totals and counters while `active`."""

    def __init__(self):
        self.active = False
        self.task = ""
        self.spans: list[tuple] = []  # (id, parent id or -1, name, task, start ns, end ns)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.task_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.task_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open frames: [id, name, start ns, child ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [len(self.spans) + len(self._stack), name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((span_id, parent, name, self.task, start, end))
        self._add(name, dur, dur - child)

    def _add(self, name: str, dur: int, self_dur: int) -> None:
        self.total_ns[name] += dur
        self.self_ns[name] += self_dur
        self.calls[name] += 1
        self.task_ns[(self.task, name)] += dur
        self.task_calls[(self.task, name)] += 1

    def _leaf(self, name: str, dur: int) -> None:
        if self._stack:
            self._stack[-1][3] += dur
        self._add(name, dur, dur)

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, name, fn):
        on_result = ON_RESULT.get(name)
        on_error = ON_ERROR.get(name)
        signature = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(self, exc)
                raise
            finally:
                self._close(frame)
            if on_result:
                on_result(self, result, lambda: _bound(signature, args, kwargs))
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(name, time.perf_counter_ns() - start)

        return wrapper

    def _count_wrapper(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        for targets, make in (
            (SPANS, self._span_wrapper),
            (LEAVES, self._leaf_wrapper),
            (COUNTERS, self._count_wrapper),
        ):
            for name, module, path in targets:
                mod = importlib.import_module(f"trigvee.{module}")
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, make(name, orig))
                    self._patched.append((cls, attr, orig))
                    continue
                orig = getattr(mod, path)
                wrapper = make(name, orig)
                for other in list(sys.modules.values()):
                    other_name = getattr(other, "__name__", "")
                    if other_name != "trigvee" and not other_name.startswith("trigvee."):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, attr, wrapper)
                            self._patched.append((other, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- export -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "spans": self.spans,
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "task_ns": [[t, n, v] for (t, n), v in self.task_ns.items()],
            "task_calls": [[t, n, v] for (t, n), v in self.task_calls.items()],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def merge(self, snap: dict, task: str) -> None:
        """Add a snapshot taken in a child process, attributing it to `task`."""
        offset = len(self.spans)
        for span_id, parent, name, _task, start, end in snap["spans"]:
            self.spans.append(
                (span_id + offset, parent + offset if parent >= 0 else -1, name, task, start, end)
            )
        for field in ("total_ns", "self_ns", "calls", "counts"):
            mine = getattr(self, field)
            for key, value in snap[field].items():
                mine[key] += value
        for key, value in snap["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        for _task, name, value in snap["task_ns"]:
            self.task_ns[(task, name)] += value
        for _task, name, value in snap["task_calls"]:
            self.task_calls[(task, name)] += value


def _bound(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound
