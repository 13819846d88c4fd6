"""Outside-in tracer for the layer modules of zetalab.

``Tracer.install`` replaces every public function of the six layer modules
with a wrapper that records one span (function, start, end, parent span) and
call counts, and rebinds every other module attribute that held the original
function, so calls made inside the package (``zero_analysis.eta``,
``zero_analysis.f_shifted``, ``zero_analysis.m_star``, ``strip_map.f_shifted``,
the ``zetalab`` re-exports) are traced too.  The argument validators
``ensure_*`` are left alone: they are checks, not work, and wrapping them
would only add overhead.

A call of a function made directly from its own body (gamma's reflection
formula) is counted without opening a nested span.  Spans stay in memory in
flat arrays and are written out with ``Tracer.dump``; the per-layer counters
are derived from spans, from values the library returns (``n_evals``, the
zero lists, the audit report) and from the winding rectangles.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("special_functions", "quadrature", "strip_map", "zero_analysis", "claim_audit", "cli")


def _winding_initial_samples(rect, samples_per_side) -> int:
    """Boundary samples winding_count takes before any refinement."""
    corners = rect.corners
    total = 0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = samples_per_side
        if n is None:
            n = max(8, int(math.ceil(64.0 * abs(b - a))))
        total += n
    return total


_WINDING_SIG = inspect.Signature([
    inspect.Parameter("fn", inspect.Parameter.POSITIONAL_OR_KEYWORD),
    inspect.Parameter("rect", inspect.Parameter.POSITIONAL_OR_KEYWORD),
    inspect.Parameter("samples_per_side", inspect.Parameter.POSITIONAL_OR_KEYWORD, default=None),
    inspect.Parameter("options", inspect.Parameter.VAR_KEYWORD),
])


class Tracer:
    def __init__(self):
        self.names: list[str] = []        # "layer.function", indexed by span name id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []        # open span ids
        self.open_names: list[int] = []   # name id of each open span
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.exceptions: dict[str, int] = {}
        self._bindings: list[tuple[object, str, object, object]] = []  # module, name, original, wrapper

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Put the wrappers in place; the first call builds them."""
        if not self._bindings:
            self._bind(package)
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _bind(self, package) -> None:
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not fname.startswith("ensure_")):
                    replacements[id(fn)] = self._wrap(layer, fname, fn)
        self._zeros_id = self.names.index("zero_analysis.critical_line_zeros")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for mod in modules:
            for attr, value in vars(mod).items():
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._bindings.append((mod, attr, value, wrapper))

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, layer: str, fname: str, fn):
        qual = f"{layer}.{fname}"
        name_id = len(self.names)
        self.names.append(qual)
        self.calls[qual] = 0
        calls = self.calls
        stack, open_names = self.stack, self.open_names
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        before = {
            "special_functions.eta": self._before_eta,
            "zero_analysis.winding_count": self._before_winding,
        }.get(qual)
        after = {
            "quadrature.fermi_mellin": lambda r: self._count("integrand_evals", r.n_evals),
            "zero_analysis.critical_line_zeros": lambda r: self._count("zeros_found", len(r)),
            "claim_audit.run_audit": lambda r: self._count("claims", len(r.claims)),
        }.get(qual)

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if open_names and open_names[-1] == name_id:
                return fn(*args, **kwargs)          # self-recursion: count only
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(math.nan)
            stack.append(span)
            open_names.append(name_id)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not getattr(exc, "_traced", False):   # count where it was raised
                    exc._traced = True
                    key = f"{qual}:{type(exc).__name__}"
                    self.exceptions[key] = self.exceptions.get(key, 0) + 1
                raise
            finally:
                span_end[span] = clock()
                stack.pop()
                open_names.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _before_eta(self, args, kwargs):
        if self._zeros_id in self.open_names:
            self._count("eta_in_zeros")
        return args, kwargs

    def _before_winding(self, args, kwargs):
        bound = _WINDING_SIG.bind(*args, **kwargs)
        fn = bound.arguments["fn"]
        self._count("winding_initial_samples",
                    _winding_initial_samples(bound.arguments["rect"],
                                             bound.arguments.get("samples_per_side")))

        def counted(p):
            self._count("winding_fn_evals")
            return fn(p)

        bound.arguments["fn"] = counted
        return bound.args, bound.kwargs

    # -- results ----------------------------------------------------------

    def mark(self) -> int:
        """Current span count; spans between two marks belong to one pass."""
        return len(self.span_start)

    def snapshot(self) -> dict:
        """Counter values, for differencing around a pass."""
        return {"calls": dict(self.calls), "counts": dict(self.counts),
                "exceptions": dict(self.exceptions)}

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Self time per function for the spans lo..hi-1 (one or more passes).

        A span's self time is its duration minus the durations of its direct
        children; children of a span always lie inside the same pass.
        """
        # Slicing copies the arrays, so no NumPy view pins their buffers and
        # tracing can go on appending afterwards.
        name = np.frombuffer(self.span_name[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.span_parent[lo:hi], dtype=np.int32)
        dur = (np.frombuffer(self.span_end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.span_start[lo:hi], dtype=np.float64))
        has_parent = parent >= lo
        child = np.bincount(parent[has_parent] - lo, weights=dur[has_parent],
                            minlength=hi - lo)
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {qual: float(own[i]) for i, qual in enumerate(self.names)}

    def dump(self, path) -> int:
        """Write the spans: a header line with the function names (tab
        separated), then little-endian records (name id i32, parent span i32,
        start f64, end f64) in span order."""
        rec = np.empty(len(self.span_start), dtype=[
            ("name", "<i4"), ("parent", "<i4"), ("start", "<f8"), ("end", "<f8")])
        rec["name"] = np.frombuffer(self.span_name, dtype=np.int32)
        rec["parent"] = np.frombuffer(self.span_parent, dtype=np.int32)
        rec["start"] = np.frombuffer(self.span_start, dtype=np.float64)
        rec["end"] = np.frombuffer(self.span_end, dtype=np.float64)
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            rec.tofile(fh)
        return len(rec)
