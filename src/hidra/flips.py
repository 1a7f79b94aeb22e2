"""Metric edge flips and the flip-to-weighted-Delaunay loop.

A metric flip exchanges the diagonal of a hinge combinatorially and
assigns the new diagonal the generalized Ptolemy value of the five
inversive distances around the hinge; radii and all other inversive
distances are untouched, so the discrete conformal class is preserved.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SurgeryDiverged
from .geometry import (TOL_DELAUNAY, Packing, SolveState, SurfaceMetrics, _coshm1_length, _delaunay_margin,
                       _radius_functions, _xi_numerator)
from .ptolemy import ptolemy_flip_value
from .surface import TriSurface, hinge_from_slots, rewrite_hinge

DEFAULT_FLIP_BUDGET_FACTOR = 100


@dataclass(frozen=True)
class FlipEvent:
    """One executed flip: hinge labels before, diagonal value after.

    ``margin_before`` is the Delaunay margin by which the flip loop
    picked the edge; NaN for a flip made outside the loop.
    """

    edge: int
    labels: tuple       # (a, b, c, d, e) inversive distances pre-flip
    new_value: float    # inversive distance f of the new diagonal
    iteration: int
    margin_before: float


class HeldTriangulation:
    """A triangulation and packing held for flips in place, on plain
    Python rows: the edge end pairs, the flat corners and sides (slot
    3 * face + m), each edge's two face slots in ascending order, and the
    inversive distances and the tanh, sinh and cosh - 1 of the radii as
    floats, which flips keep.  ``flip_edge`` rewrites it; ``freeze``
    builds the arrays once, as a TriSurface and a Packing."""

    def __init__(self, surface, packing):
        self.vertex_count, self.radii, self.inv = surface.vertex_count, packing.radii, packing.inv.tolist()
        self.rows = [surface.edges.tolist(), *(rows.ravel().tolist() for rows in (surface.corners, surface.sides))]
        self.slots = np.argsort(surface.sides.ravel(), kind="stable").reshape(-1, 2).tolist()
        self.tanh_r, _, self.sinh_r, self.coshm1_r = (x.tolist() for x in _radius_functions(packing.radii))

    def hinge(self, edge):
        return hinge_from_slots(edge, *self.slots[edge], *self.rows[1:])

    def labels(self, h):
        """The labels (a, b, c, d, e) of the hinge ``h``."""
        return [self.inv[eid] for eid in (h.e_a, h.e_b, h.e_c, h.e_d, h.edge)]

    def margin(self, edge):
        """Delaunay margin of ``edge``, by the kernel's own formula."""
        h, t = self.hinge(edge), self.tanh_r
        return _delaunay_margin(self.labels(h), t[h.v_i], t[h.v_j], t[h.v_k], t[h.v_l])

    def check(self, edge):
        """The kernel's checks of the two faces of ``edge``, where every
        other side passed them: its inversive distance above 1, its length
        finite (the kernel's law, the same bits in either order of its ends)
        and Xi > 0.  A failure raises the kernel's own fault, which names
        the face.  Returns the edges of the two faces."""
        h, k, s, t, inv, f = self.hinge(edge), self.coshm1_r, self.sinh_r, self.tanh_r, self.inv, self.inv[edge]
        i, j, (_, corners, sides) = h.v_i, h.v_j, self.rows
        faces = [range(3 * face, 3 * face + 3) for face in (h.face_k, h.face_l)]
        if not (f > 1.0 and math.isfinite(_coshm1_length(k[i], s[i], k[j], s[j], f))
                and all(_xi_numerator(*[t[corners[m]] for m in face], *[inv[sides[m]] for m in face]) > 0.0
                        for face in faces)):
            SurfaceMetrics(*self.freeze()).margins  # raises
        return {sides[m] for face in faces for m in face}

    def freeze(self):
        """The held triangulation as a TriSurface and a Packing, their
        arrays built from the held rows."""
        arrays = (np.array(row, dtype=np.intp).reshape(-1, width) for row, width in zip(self.rows, (2, 3, 3)))
        return TriSurface(self.vertex_count, *arrays), Packing(np.array(self.inv), self.radii.copy())


def flip_edge(held, edge, iteration=0, margin_before=math.nan):
    """Flip one edge of the HeldTriangulation ``held`` in place and
    return its FlipEvent.

    The hinge's rows are rewritten by ``rewrite_hinge``, and the slots of
    the edges on the two new faces are re-filed.  The edge keeps its id;
    its inversive distance becomes the Ptolemy value of the hinge labels.
    ``margin_before`` is logged as given: ``make_weighted_delaunay`` logs
    the margin it picked the edge by, and a flip outside that loop logs
    NaN.  FlipIllegal leaves ``held`` as it was.
    """
    h = held.hinge(edge)
    rewrite_hinge(h, *held.rows)
    labels = held.labels(h)
    f = held.inv[edge] = ptolemy_flip_value(*labels)
    faces, sides = [h.face_k, h.face_l], held.rows[2]
    fresh = [3 * face + m for face in faces for m in range(3)]
    for eid in {sides[slot] for slot in fresh}:
        kept = [slot for slot in held.slots[eid] if slot // 3 not in faces]
        held.slots[eid] = sorted(kept + [slot for slot in fresh if sides[slot] == eid])
    return FlipEvent(edge, tuple(labels), f, iteration, float(margin_before))


def surface_delaunay_margins(surface, packing):
    """(E,) array of every edge's Delaunay margin, from the array kernel
    (raises NonCompactOrthocircle naming the first non-compact face)."""
    return SurfaceMetrics(surface, packing).margins


def check_flip_settings(tol, flip_budget):
    """DomainError on a NaN Delaunay tolerance or a NaN or negative flip
    budget.  A negative tolerance stays legal: it flips edges that are
    Delaunay."""
    if math.isnan(tol):
        raise DomainError(f"tol_delaunay = {tol} must be a number")
    if flip_budget is not None and not flip_budget >= 0:
        raise DomainError(f"flip_budget = {flip_budget} must be non-negative")


def make_weighted_delaunay(
    surface,
    packing,
    tol=TOL_DELAUNAY,
    flip_budget=None,
    iteration=0,
    flip_log=None,
):
    """Flip until every edge is local weighted Delaunay.

    Scheduling is greedy worst-first: each round flips the edge with the
    most negative margin, ties broken by lowest edge id.  Edges within
    the tolerance band are treated as Delaunay and never flipped, which
    prevents two-cycles at degenerate hinges.  One array kernel scans
    every margin at entry; a call without flips returns its inputs.  At
    its first flip the loop takes a HeldTriangulation, and each flip is
    local: ``flip_edge`` rewrites the hinge in place, and the edges on
    the two new faces are checked and re-scored by the kernel's own
    formulas (a new face outside the domain or non-compact raises the
    kernel's error).  The surface and packing are built once, at the end,
    at a budget overrun or at a fault.  Flips are appended to the
    caller's ``flip_log`` (a new list when None), and the flip budget
    (None: DEFAULT_FLIP_BUDGET_FACTOR times the edge count, its one
    default) bounds that log's length, its entries at the call included.
    Returns the new surface, packing and the log.  Past the budget it
    raises SurgeryDiverged carrying the partial SolveState: the surface,
    packing and whole log reached so far.  Settings that
    ``check_flip_settings`` rejects raise DomainError.
    """
    check_flip_settings(tol, flip_budget)
    margins = surface_delaunay_margins(surface, packing)
    if flip_budget is None:
        flip_budget = DEFAULT_FLIP_BUDGET_FACTOR * len(surface.edges)
    events, held = ([] if flip_log is None else flip_log), None
    while True:
        worst = int(np.argmin(margins))  # first minimum: lowest edge id
        if margins[worst] >= -tol:
            return (*held.freeze(), events) if held else (surface, packing, events)
        if len(events) >= flip_budget:
            state = SolveState(*(held.freeze() if held else (surface, packing)),
                               status="surgery_diverged", flip_log=events)
            raise SurgeryDiverged(f"exceeded flip budget of {flip_budget} flips", state=state)
        held = held or HeldTriangulation(surface, packing)
        events.append(flip_edge(held, worst, iteration, margins[worst]))
        for edge in held.check(worst):
            margins[edge] = held.margin(edge)
