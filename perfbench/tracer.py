"""Span tracer that wraps relufem's public functions from the outside.

Every wrapped call records a span (name, start, end, parent, thread,
phase) plus optional counts. Spans stay in memory and are written once,
when the benchmark ends. A span's parent is the innermost open span of
the same thread; a span opened on a worker thread with nothing open on
it (the compiler's bump thread pool) takes the innermost open span of
the main thread as its parent, so pool work is attributed to the call
that started it.

Nothing inside the program is changed: the wrapper replaces the
function object in every loaded `relufem` module (and class) that holds
it, so both `module.f(...)` and `from module import f` call sites see it.
A target that no longer exists is reported as skipped, not fatal.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


def _rows(args, result):
    return {"points": int(len(args[1]))}


def _sample_points(args, result):
    return {"points": int(result[0].shape[0])}


def _registry_size(args, result):
    return {"size": int(result.size)}


def _cp_rank(args, result):
    return {"rank": int(result.rank)}


# (module, attribute path, span name, counter): the counter, when given,
# maps (args, result) to counts stored on the span. Methods get self/cls
# as args[0].
TARGETS = [
    ("relufem.meshgen", "random_simplex_mesh", "meshgen.generate", None),
    ("relufem.meshgen", "voronoi_polygon_mesh", "meshgen.generate", None),
    ("relufem.docio", "load", "docio.io", None),
    ("relufem.docio", "loads", "docio.io", None),
    ("relufem.docio", "dumps", "docio.io", None),
    ("relufem.mesh", "PolytopeMesh.from_doc", "mesh.parse", None),
    ("relufem.mesh", "validate_mesh", "mesh.validate_mesh", None),
    ("relufem.mesh", "DirectedHyperplaneRegistry.build", "mesh.registry",
     _registry_size),
    ("relufem.mesh", "sample_cells", "mesh.sample_cells", _sample_points),
    ("relufem.pwl", "PiecewiseLinear.from_doc", "pwl.parse", None),
    ("relufem.pwl", "PiecewiseLinear.sup_norm", "pwl.sup_norm", None),
    ("relufem.compiler", "compile_weak_representation", "compiler.compile",
     None),
    ("relufem.compiler", "compile_compact_support", "compiler.compile", None),
    ("relufem.compiler", "compile_cell_bump", "compiler.cell_bump", None),
    ("relufem.compiler", "positive_normal_combination",
     "compiler.positive_normal_combination", None),
    ("relufem.compiler", "merge_duplicate_neurons", "compiler.merge", None),
    ("relufem.verify", "check_weak_representation",
     "verify.check_weak_representation", None),
    ("relufem.verify", "sample_exterior", "verify.sample_exterior", None),
    ("relufem.verify", "check_counts", "verify.check_counts", None),
    ("relufem.networks", "ReluNet2.from_doc", "networks.parse", None),
    ("relufem.networks", "TensorNet.from_doc", "networks.parse", None),
    ("relufem.networks", "ReluNet2.forward_batch", "networks.fnn_forward",
     _rows),
    ("relufem.networks", "TensorNet.forward_batch", "networks.tnn_forward",
     _rows),
    ("relufem.networks", "save", "networks.save", None),
    ("relufem.networks", "load", "networks.load", None),
    ("relufem.tensorfe", "TensorFE.from_doc", "tensorfe.parse", None),
    ("relufem.tensorfe", "cp_decompose", "tensorfe.cp_decompose", _cp_rank),
    ("relufem.tensorfe", "compile_1d_hat", "tensorfe.compile_1d_hat", None),
    ("relufem.tensorfe", "compile_tnn", "tensorfe.compile_tnn", None),
    ("relufem.tensorfe", "TensorFE.eval_batch", "tensorfe.eval", _rows),
]

# scipy's linprog as imported by name into relufem modules (lp, compiler)
LINPROG = ("scipy.optimize", "linprog", "lp.linprog")


class Tracer:
    """In-memory span recorder; `phase` tags spans for later grouping."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.skipped: list[str] = []
        self.phase = "setup"
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not self._main and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = {"name": name, "start": time.perf_counter() - self.t0,
                "end": None, "parent": parent,
                "thread": threading.current_thread().name,
                "phase": self.phase}
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        return sid

    def close(self, sid: int, counts: dict | None = None):
        span = self.spans[sid]
        span["end"] = time.perf_counter() - self.t0
        if counts:
            span.update(counts)
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, result)
                return result
            finally:
                self.close(sid, counts)
        return traced

    def install(self):
        """Wrap every target; returns the list of span names installed."""
        installed = []
        for module_name, path, name, counter in TARGETS:
            if self._install_one(module_name, path, name, counter):
                installed.append(name)
        mod_name, attr, name = LINPROG
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is not None and self._replace_everywhere(
                original, self.wrap(original, name)):
            installed.append(name)
        else:
            self.skipped.append(f"{mod_name}.{attr}")
        return installed

    def _install_one(self, module_name, path, name, counter) -> bool:
        module = sys.modules.get(module_name)
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        if owner is None or attr not in vars(owner):
            self.skipped.append(f"{module_name}.{path}")
            return False
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name,
                                                       counter)))
            return True
        if owner is not module:
            setattr(owner, attr, self.wrap(raw, name, counter))
            return True
        return self._replace_everywhere(raw, self.wrap(raw, name, counter))

    @staticmethod
    def _replace_everywhere(original, wrapped) -> bool:
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "relufem"
                                   or mod_name.startswith("relufem.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    found = True
        return found


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.sid = None

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


class NullTracer:
    """Stand-in used for untraced runs: spans cost one method call."""

    phase = "setup"

    def span(self, name):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def outermost(spans):
    """Spans with no ancestor of the same name (so nested or recursive
    calls of one layer are not counted twice)."""
    out = []
    for span in spans:
        parent = span["parent"]
        nested = False
        while parent is not None:
            if spans[parent]["name"] == span["name"]:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            out.append(span)
    return out


def coverage(spans, name):
    """For every span called `name`, the share of its wall time covered by
    its direct children on the same thread; returns the list of shares."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None and spans[parent]["name"] == name \
                and spans[parent]["thread"] == span["thread"]:
            children.setdefault(parent, []).append(
                (span["start"], span["end"]))
    shares = []
    for sid, span in enumerate(spans):
        if span["name"] != name:
            continue
        total = span["end"] - span["start"]
        covered = 0.0
        cursor = span["start"]
        for lo, hi in sorted(children.get(sid, [])):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        shares.append(covered / total if total > 0 else 1.0)
    return shares


def self_times(spans):
    """Total and self time per span name (self = duration minus the part
    covered by direct children on the same thread)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None and spans[parent]["thread"] == span["thread"]:
            child_time[parent] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    for sid, span in enumerate(spans):
        dur = span["end"] - span["start"]
        row = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[sid]
    return out
