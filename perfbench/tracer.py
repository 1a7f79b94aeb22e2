"""Outside-in tracer for hidra's public functions.

The tracer replaces public hidra functions by timing wrappers in every
hidra module namespace that binds them (``from .flips import
make_weighted_delaunay`` binds it in ``solver`` and ``cli`` too), and
puts the originals back on ``uninstall``.  Private aliases such as
``solver.dense_solve`` are never wrapped, so renaming internals cannot
make a layer disappear.  Spans (name, start, end, parent span, job id)
stay in memory until ``write``.  Per-face and per-hinge kernels get
count-only wrappers, attributed to the innermost open span.

Layers are named after the module that defines the function.  The
``hyptrig`` and ``ptolemy`` kernels run inside ``geometry`` per corner
or hinge, so their cost shows in the ``geometry`` counts.
"""

import functools
import json
import math
import sys
import time

# (layer, function): timed spans.
SPANNED = (
    ("cli", "main"),
    ("meshio", "parse_mesh"),
    ("meshio", "build_report"),
    ("solver", "newton_solve"),
    ("solver", "ricci_flow"),
    ("solver", "segment_potential"),
    ("solver", "curvatures"),
    ("solver", "hessian"),
    ("solver", "hessian_spectrum_sign"),
    ("flips", "make_weighted_delaunay"),
    ("flips", "surface_delaunay_margins"),
    ("flips", "flip_edge"),
    ("surface", "build_surface"),
)
# (layer, function): count-only, called per face or per hinge.
COUNTED = (
    ("geometry", "face_metrics"),
    ("geometry", "hinge_delaunay_margin"),
)

ROOT_SPAN = -1


def matrix_nbytes(matrix):
    """Bytes held by a dense array or by the arrays of a scipy sparse
    matrix (data, indices, indptr, row, col or coords)."""
    if not hasattr(matrix, "toarray"):
        return int(matrix.nbytes)
    total = 0
    for value in vars(matrix).values():
        for item in value if isinstance(value, tuple) else (value,):
            if hasattr(item, "nbytes") and hasattr(item, "dtype"):
                total += int(item.nbytes)
    return total


def _newton_attrs(state):
    # Each trace record holds the accepted step 2**-k, reached after
    # k halvings, so the line search evaluated k + 1 trial points.
    evals = sum(1 + round(-math.log2(rec["step"])) for rec in state.trace)
    return {"iterations": state.iterations, "line_search_evals": evals}


RETURN_HOOKS = {
    "solver.newton_solve": _newton_attrs,
    "solver.ricci_flow": lambda state: {"steps": state.iterations},
    "solver.hessian": lambda matrix: {"out_bytes": matrix_nbytes(matrix)},
}


class Tracer:
    """Span and count recorder; ``install`` / ``uninstall`` patch hidra."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, job]
        self.attrs = {}      # span id -> values read from the return value
        self.counts = {}     # (innermost span id, name) -> calls
        self.missing = []    # targets not found in this hidra
        self.job = None
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def _span_wrapper(self, name, func):
        spans, stack, attrs = self.spans, self._stack, self.attrs
        hook = RETURN_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else ROOT_SPAN, self.job]
            spans.append(record)
            stack.append(sid)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                attrs[sid] = hook(result)
            return result

        return wrapper

    def _count_wrapper(self, name, func):
        counts, stack = self.counts, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            key = (stack[-1] if stack else ROOT_SPAN, name)
            counts[key] = counts.get(key, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "hidra" or n.startswith("hidra."))
        ]
        self.missing = []
        for targets, make in ((SPANNED, self._span_wrapper),
                              (COUNTED, self._count_wrapper)):
            for layer, func_name in targets:
                home = sys.modules.get(f"hidra.{layer}")
                original = getattr(home, func_name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{func_name}")
                    continue
                wrapper = make(f"{layer}.{func_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def write(self, path):
        """Spans as JSON lines, one object per span."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "job": job}
                row.update(self.attrs.get(sid, {}))
                fh.write(json.dumps(row) + "\n")


def _ancestors(spans, sid):
    while sid != ROOT_SPAN:
        yield spans[sid][0]
        sid = spans[sid][3]


def layer_metrics(tracer, batches):
    """Per-layer metrics, averaged over ``batches`` traced job batches.

    Returns {metric name: (value, unit)}.
    """
    spans = tracer.spans
    calls, self_s = {}, {}
    for name, start, end, parent, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start)
        if parent != ROOT_SPAN:
            pname = spans[parent][0]
            self_s[pname] = self_s.get(pname, 0.0) - (end - start)

    def attr_sum(name, key):
        return sum(a[key] for sid, a in tracer.attrs.items() if spans[sid][0] == name)

    def spans_under(name, ancestor, direct=False):
        total = 0
        for sid, (n, _, _, parent, _) in enumerate(spans):
            if n != name or parent == ROOT_SPAN:
                continue
            if (spans[parent][0] == ancestor if direct
                    else ancestor in _ancestors(spans, parent)):
                total += 1
        return total

    def counted(name, ancestor=None):
        return sum(
            c for (sid, n), c in tracer.counts.items()
            if n == name and (ancestor is None or (
                sid != ROOT_SPAN and ancestor in _ancestors(spans, sid)))
        )

    flips = calls.get("flips.flip_edge", 0)
    margin_evals = counted("geometry.hinge_delaunay_margin",
                           "flips.make_weighted_delaunay")
    flow_steps = attr_sum("solver.ricci_flow", "steps")
    flow_segments = spans_under("solver.segment_potential", "solver.ricci_flow",
                                direct=True)
    out_bytes = [a["out_bytes"] for a in tracer.attrs.values() if "out_bytes" in a]

    per_batch = {
        "solver.newton_solve.iterations": (attr_sum("solver.newton_solve", "iterations"), "count"),
        "solver.newton_solve.line_search_evals": (
            attr_sum("solver.newton_solve", "line_search_evals"), "count"),
        "solver.segment_potential.margin_scans": (
            spans_under("flips.surface_delaunay_margins", "solver.segment_potential"), "count"),
        "solver.segment_potential.integrand_evals": (
            spans_under("solver.curvatures", "solver.segment_potential"), "count"),
        "solver.ricci_flow.steps": (flow_steps, "count"),
        "flips.make_weighted_delaunay.margin_evals": (margin_evals, "count"),
        "geometry.face_metrics.calls": (counted("geometry.face_metrics"), "count"),
        "geometry.hinge_delaunay_margin.calls": (
            counted("geometry.hinge_delaunay_margin"), "count"),
    }
    for layer, func_name in SPANNED:
        name = f"{layer}.{func_name}"
        per_batch[f"{name}.calls"] = (calls.get(name, 0), "count")
        per_batch[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    out = {k: (v / batches, unit) for k, (v, unit) in per_batch.items()}
    out["solver.hessian.out_bytes"] = (max(out_bytes, default=0), "B")
    out["solver.ricci_flow.accept_ratio"] = (
        flow_steps / flow_segments if flow_segments else 0.0, "ratio")
    out["flips.margin_evals_per_flip"] = (margin_evals / flips if flips else 0.0, "ratio")
    return out
