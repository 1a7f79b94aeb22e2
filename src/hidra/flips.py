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
from .geometry import TOL_DELAUNAY, Packing, SurfaceMetrics
from .ptolemy import (
    delta_identity_residuals,
    ptolemy_flip_value,
    ptolemy_residual,
    ptolemy_residual_scale,
)
from .surface import flip_combinatorial, hinge

__all__ = [
    "FlipEvent",
    "delta_identity_residuals",
    "flip_edge",
    "make_weighted_delaunay",
    "ptolemy_flip_value",
    "ptolemy_residual",
    "ptolemy_residual_scale",
    "surface_delaunay_margins",
]

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


def flip_edge(surface, packing, edge, iteration=0, margin_before=math.nan):
    """Flip one edge, returning (surface', packing', FlipEvent).

    The edge keeps its id; its inversive distance becomes the Ptolemy
    value of the hinge labels.  ``margin_before`` is logged as given:
    ``make_weighted_delaunay`` passes the margin it picked the edge by,
    and a flip outside that loop logs NaN.
    """
    hv = hinge(surface, edge)
    labels = tuple(float(packing.inv[eid]) for eid in hv.boundary_edges) + (
        float(packing.inv[edge]),
    )
    new_surface = flip_combinatorial(surface, hv)
    f = float(ptolemy_flip_value(*labels))
    new_inv = packing.inv.copy()
    new_inv[edge] = f
    return (
        new_surface,
        Packing(new_inv, packing.radii.copy()),
        FlipEvent(edge, labels, f, iteration, float(margin_before)),
    )


def surface_delaunay_margins(surface, packing):
    """(E,) array of every edge's Delaunay margin, from the array kernel
    (raises NonCompactOrthocircle naming the first non-compact face)."""
    return SurfaceMetrics(surface, packing).margins


def check_flip_settings(tol, flip_budget):
    """DomainError on a NaN Delaunay tolerance or a negative flip budget.
    A negative tolerance stays legal: it flips edges that are Delaunay."""
    if math.isnan(tol):
        raise DomainError(f"tol_delaunay = {tol} must be a number")
    if flip_budget is not None and flip_budget < 0:
        raise DomainError(f"flip_budget = {flip_budget} must be non-negative")


def make_weighted_delaunay(
    surface,
    packing,
    tol=TOL_DELAUNAY,
    flip_budget=None,
    iteration=0,
):
    """Flip until every edge is local weighted Delaunay.

    Scheduling is greedy worst-first: each round flips the edge with the
    most negative margin, ties broken by lowest edge id.  Edges within
    the tolerance band are treated as Delaunay and never flipped, which
    prevents two-cycles at degenerate hinges.  After one full margin scan
    at entry, each flip re-checks only its two rewritten faces and
    re-evaluates the five edges on them.  Returns the new surface,
    packing, and the ordered flip log.  Past the budget it raises
    SurgeryDiverged carrying the partial SolveState: the surface,
    packing and flip log reached so far.  Settings that
    ``check_flip_settings`` rejects raise DomainError.
    """
    check_flip_settings(tol, flip_budget)
    margins = surface_delaunay_margins(surface, packing)
    if flip_budget is None:
        flip_budget = DEFAULT_FLIP_BUDGET_FACTOR * len(surface.edges)
    events = []
    while True:
        worst = int(np.argmin(margins))  # first minimum: lowest edge id
        if margins[worst] >= -tol:
            return surface, packing, events
        if len(events) >= flip_budget:
            from .solver import SolveState, u_from_r  # solver imports this module

            raise SurgeryDiverged(
                f"exceeded flip budget of {flip_budget} flips",
                state=SolveState(
                    surface, packing, u_from_r(packing.radii), None, None, None,
                    "surgery_diverged", 0, events,
                ),
            )
        surface, packing, event = flip_edge(
            surface, packing, worst, iteration, margins[worst]
        )
        events.append(event)
        slots = surface.hinge_slots
        faces = [slots.face_k[worst], slots.face_l[worst]]  # ascending
        edges = surface.sides[faces]
        margins[edges] = SurfaceMetrics(surface, packing, faces, edges).margins
