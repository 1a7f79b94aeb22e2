"""Curvature prescription on inversive-distance circle packings.

The solver works in the coordinates u_i = log tanh(r_i / 2), in which
the normalized Ricci potential (the path integral of (K - Kbar) . du)
is convex and the flow is linear.  Radii are materialized only when the
geometry is evaluated.  Every step walks its u-segment, flipping at each
wall to keep the triangulation weighted Delaunay, and every flip is
logged so the discrete conformal class can be audited afterwards.
"""

import itertools
import math
from collections import namedtuple

import numpy as np

from .errors import (
    DegenerateTriangle, DomainError, FlowStalled, MaxIterationsExceeded, NonCompactOrthocircle,
    SolverStalled, SurgeryDiverged, TargetOutOfRange,
)
from .flips import check_flip_settings, make_weighted_delaunay, surface_delaunay_margins
from .geometry import (  # curvatures and the Gauss-Bonnet residuals: still bound here for callers
    STATUS_CONVERGED, TOL_DELAUNAY, Packing, SolveState, SurfaceMetrics, _cosh_forms, _domain_bound,
    _gauss_bonnet_residual, _scan_bounds, _x_range, curvatures, gauss_bonnet_residual, r_from_u,
    u_from_r, validate_packing,
)
from .surface import euler_characteristic

DEFAULT_TOL_K = 1e-10
DEFAULT_MAX_ITERATIONS = 100
DEFAULT_FLOW_DT = 0.2
DEFAULT_FLOW_T_MAX = math.inf
MIN_LINE_SEARCH_STEP = 1e-12
MIN_FLOW_DT = 1e-12

# The wall scan of a potential segment: the grid k / SCAN_GRID its bounds
# certify, the points of an uncertified grid interval (its nested dyadic
# midpoints and right end) that one kernel batch probes for the
# interval's first wall, the rounding allowance of the bounds relative
# to the size of their terms, and the halvings of a grid interval that
# locate a wall.
SCAN_GRID = 64
SCAN_POINTS = 16
SCAN_ROUNDING = 1e-12
WALL_BISECTIONS = 40
# QUADPACK's qk15 rule (Piessens et al. 1983), symmetric about 0: on
# [-1, 0], the 15-point Kronrod nodes and weights and the weights of its
# embedded 7-point Gauss rule (zero at the Kronrod-only nodes); and the
# tolerances and subinterval cap of the bisection.
_QK15 = np.array([
    [-0.991455371120812639, -0.949107912342758525, -0.864864423359769073,
     -0.741531185599394440, -0.586087235467691130, -0.405845151377397167,
     -0.207784955007898468, 0.0],
    [0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
     0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
     0.204432940075298892, 0.209482141084727828],
    [0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
     0.0, 0.381830050505118945, 0.0, 0.417959183673469388],
])
KRONROD_NODES, KRONROD_WEIGHTS, GAUSS7_WEIGHTS = np.c_[_QK15, [[-1], [1], [1]] * _QK15[:, -2::-1]]
QUAD_EPSABS, QUAD_EPSREL, QUAD_LIMIT = 1e-10, 1e-11, 100

STATUS_MAX_ITERATIONS = "max_iterations"


def hessian(surface, packing, metrics=None):
    """Jacobian dK/du as a sparse ``scipy.sparse.csc_array``, the
    compressed-column form the symmetric factorization takes.

    The per-face angle derivatives of the array kernel (``metrics`` if
    given) are summed into ``surface.hessian_pattern``, cached per
    triangulation, so entries lie only on the diagonal and at adjacent
    vertex pairs.  The analytic matrix is symmetric up to roundoff and
    is averaged with its transpose.
    """
    return _Plan().fill(surface, metrics or SurfaceMetrics(surface, packing))


def _hessian_values(surface, metrics):
    """The data of ``hessian`` on ``surface.hessian_pattern``, from the kernel ``metrics``."""
    _, indices, slot = surface.hessian_pattern
    # dK_m/du_n = -(d angle_m / d r_n) dr_n/du_n, and dr/du = sinh r;
    # a face's entries (m, n) and (n, m) are transposes.
    data = -metrics.angle_radius_jacobian() * metrics.sinh_r[surface.corners][:, None, :]
    data = 0.5 * (data + data.transpose(0, 2, 1))
    return np.bincount(slot, data.ravel(), len(indices))


class _Plan:
    """A run's plan for the Hessians of its triangulation: ``fill`` writes
    one into ``matrix``, its diagonal at ``diagonal``.  Their first
    factorization orders them (``order``) and permutes ``matrix``, its data
    then gathered by ``gather`` from H's, so each later one is numeric only."""

    order = None

    def fill(self, surface, metrics):
        """``matrix`` holding the Hessian at ``metrics``; a new one until the plan is ordered."""
        from scipy.sparse import csc_array  # imported on use: the CLI loads without scipy

        values = _hessian_values(surface, metrics)
        if self.order is not None:
            np.take(values, self.gather, out=self.matrix.data)
            return self.matrix
        (indptr, indices, _), n = surface.hessian_pattern, surface.vertex_count
        self.diagonal = np.flatnonzero(indices == np.repeat(np.arange(n), np.diff(indptr)))
        self.matrix = csc_array((values, indices, indptr), shape=(n, n))
        return self.matrix


class _Factor(namedtuple("_Factor", "lu order")):
    """SuperLU's factor ``lu`` of H[order][:, order]; ``solve(b)`` is x with H x = b."""

    def solve(self, b):
        x = np.empty(len(b))
        x[self.order] = self.lu.solve(b[self.order])
        return x


def _factor(H, plan=None):
    """Symmetric sparse LU of H in a fill-reducing order, with diagonal
    pivots: when no row is swapped it is P H P^T = L D L^T with D the
    diagonal of U.  The first factorization on ``plan``, the _Plan of H's
    pattern (a new one when None), orders and fills it; later ones refactor
    in its order, from H's values unless H is its ``matrix``.  SuperLU's
    supernode relaxation and panel size are fixed by measurement.  None
    when SuperLU finds H exactly singular."""
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    plan = plan or _Plan()
    if fresh := plan.order is None:
        H = csc_array(H)
    elif H is not plan.matrix:
        np.take(H.data, plan.gather, out=plan.matrix.data)
    try:
        lu = splu(H if fresh else plan.matrix, permc_spec="MMD_AT_PLUS_A" if fresh else "NATURAL",
                  diag_pivot_thresh=0.0, relax=1, panel_size=1, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return None
    n = H.shape[0]
    if fresh:  # the k-th entry of H[order][:, order], by column * n + row, is H.data[gather[k]]
        keys = lu.perm_c[np.repeat(np.arange(n), np.diff(H.indptr))] * n + lu.perm_c[H.indices]
        plan.gather = np.argsort(keys)
        keys = keys[plan.gather]
        plan.matrix = csc_array((H.data[plan.gather], (keys % n).astype(np.intc),
                                 np.searchsorted(keys, np.arange(n + 1) * n).astype(np.intc)), shape=(n, n))
        plan.diagonal = np.flatnonzero(keys % n == keys // n)
        plan.order = np.argsort(lu.perm_c)
    return _Factor(lu, np.arange(n) if fresh else plan.order)


def hessian_spectrum_sign(H, plan=None):
    """+1 / -1 when all eigenvalues of the symmetric H (sparse or dense)
    share that sign, else 0.

    The sign is read from the pivots of one symmetric sparse
    factorization, ``_factor``'s on ``plan`` (if given, the _Plan of H's
    pattern), the one ``newton_solve`` steps on (Sylvester's law of
    inertia); no dense matrix is built.  A row swap (a zero diagonal
    pivot) or an exactly singular H gives 0.
    """
    factor = _factor(H, plan)
    if factor is None or np.any(factor.lu.perm_r != factor.lu.perm_c):
        return 0
    pivots = factor.lu.U.diagonal()
    if np.all(pivots > 0.0):
        return 1
    if np.all(pivots < 0.0):
        return -1
    return 0


def validate_target(surface, target):
    """Admissibility of a target curvature: every component below 2*pi
    and the total above 2*pi*chi.  Raises TargetOutOfRange otherwise."""
    target = np.asarray(target, dtype=float)
    if len(target) != surface.vertex_count:
        raise TargetOutOfRange("target length does not match vertex count")
    if not np.all(np.isfinite(target)):
        raise TargetOutOfRange("target curvature must be finite")
    if np.any(target >= 2.0 * math.pi):
        raise TargetOutOfRange("every target curvature must be below 2*pi")
    bound = 2.0 * math.pi * euler_characteristic(surface)
    if target.sum() <= bound:
        raise TargetOutOfRange(
            f"target curvature sum {target.sum():.6f} must exceed "
            f"2*pi*chi = {bound:.6f}"
        )
    return target


def _integrate(f, a, b):
    """Integral of f over [a, b] by Gauss-Kronrod G7/K15 with bisection.

    ``f`` maps an ascending array of points to the array of its values.
    Each piece's K15 value is checked against its embedded G7 value.
    Pieces whose discrepancy exceeds their length's share of
    max(QUAD_EPSABS, QUAD_EPSREL * |integral|) are bisected, one call of f
    per level at the nodes of all pieces (disjoint and sorted, so
    ascending), while at most QUAD_LIMIT subintervals are used.
    """
    lo, hi = np.array([a]), np.array([b])
    total = error = 0.0  # over the accepted pieces
    pieces = 1
    while True:
        half = 0.5 * (hi - lo)
        nodes = (lo + half)[:, None] + half[:, None] * KRONROD_NODES
        values = f(nodes.ravel()).reshape(nodes.shape)
        kronrod = half * (values @ KRONROD_WEIGHTS)
        err = np.abs(half * (values @ (KRONROD_WEIGHTS - GAUSS7_WEIGHTS)))
        estimate = total + float(kronrod.sum())
        tol = max(QUAD_EPSABS, QUAD_EPSREL * abs(estimate))
        split = err > tol * (hi - lo) / (b - a)
        pieces += int(split.sum())
        if error + err.sum() <= tol or not split.any() or pieces > QUAD_LIMIT:
            return estimate
        total += float(kronrod[~split].sum())
        error += float(err[~split].sum())
        mid = 0.5 * (lo + hi)[split]
        lo, hi = np.c_[lo[split], mid].ravel(), np.c_[mid, hi[split]].ravel()


def segment_potential(
    surface,
    packing,
    target,
    u_start,
    u_end,
    tol_delaunay=TOL_DELAUNAY,
    flip_budget=None,
    iteration=0,
    forms=None,
    metrics=None,
):
    """Integral of (K - Kbar) . du over the straight u-segment.

    The carried triangulation is followed along the segment by a
    certified wall scan.  With x = cosh u, every Delaunay margin and the
    sign of every face's Xi are forms in x with constant coefficients
    between flips (``_cosh_forms``), and u stays negative, so each x is
    monotone in s and interval arithmetic bounds every margin and every
    Xi over a whole s-interval.  An interval whose bounds keep each
    margin at least SCAN_ROUNDING (relative) above -tol, each Xi that
    much above 0 and each length finite is certified to lie in the cell
    without a kernel call.  The scan certifies s = 0 (else the entry
    flips run), then the rest of the segment, else each interval of the
    fixed grid k/SCAN_GRID from there on.  The kernel decides only in the
    uncertified grid intervals, in s order: one batch at an interval's
    SCAN_POINTS nested dyadic midpoints (the last its right end) finds
    the first point outside the cell, and one-point bisection locates
    the wall to WALL_BISECTIONS halvings of the interval.  The smooth
    piece up to it is integrated by Gauss-Kronrod with bisection, and
    flip surgery moves the scan into the next cell.  The integrand is
    continuous across walls, so the piecewise sum is the path integral.
    A probe whose first exit is undefined (domain, or some Xi <= 0), and
    any such quadrature node, raises the single-packing kernel's
    exception there.  ``forms`` are the caller's ``_cosh_forms`` of the
    start triangulation, built here when None.  s = 0 is ``packing``'s
    own radii, where a zero-length segment ends after its entry flips, at
    ``metrics`` (the caller's kernel of ``packing``) if it flips nothing.

    Returns (value, end_surface, end_packing, wall_flip_events,
    end_forms, end_metrics, end_curvature, end_area): the end packing
    carries the radii of u_end; its kernel, curvatures and area are the
    extra row that the first quadrature batch of the last piece (which
    ends at s = 1) carries, else built here.  A target of None walks the
    segment, flips and all, without quadrature, and the value is 0.  The
    segment's flips go to one log, which each wall's
    ``make_weighted_delaunay`` extends and whose length the flip budget
    bounds: an overrun is that loop's SurgeryDiverged, carrying every
    flip of the segment so far.
    """
    u_start = np.asarray(u_start, dtype=float)
    u_end = np.asarray(u_end, dtype=float)
    du = u_end - u_start

    surf = surface
    inv = packing.inv.copy()
    events = []

    def packing_at(s):
        """Packing at s, or a batch of them for an array of s."""
        return Packing(inv, r_from_u(u_start + np.multiply.outer(s, du)))

    end = []  # the end's kernel, curvatures and area

    def integrand(s, carry):
        """(K - Kbar) . du at the points s; ``carry`` adds u_end's row to the batch, kept in ``end``."""
        u = u_start + np.multiply.outer(s, du)
        m = SurfaceMetrics(surf, Packing(inv, r_from_u(np.vstack([u, u_end]) if carry else u)))
        K, area = curvatures(surf, m.packing, m)
        if carry:
            end[:] = m.row(-1), K[-1].copy(), float(area[-1])
        return (K[:len(s)] - target) @ du

    def piece(a, b):
        return 0.0 if target is None or b - a < 1e-14 else _integrate(
            lambda s: integrand(s, b == 1.0 and not end), a, b)

    def finish(value):
        """The walk's result; the end's kernel unless a batch carried it."""
        if not end:
            m = metrics if metrics and not (du.any() or events) else SurfaceMetrics(
                surf, Packing(inv, r_from_u(u_end) if du.any() else packing.radii))
            end[:] = m, *curvatures(surf, m.packing, m)
        return value, surf, end[0].packing, events, forms, *end

    def flip_to_delaunay(pk):
        nonlocal surf, inv, forms
        surf, pk, _ = make_weighted_delaunay(
            surf, pk, tol=tol_delaunay, flip_budget=flip_budget, iteration=iteration, flip_log=events,
        )
        inv = pk.inv
        forms = _cosh_forms(surf, inv)

    def certified(lo, hi):
        """Per interval [lo_b, hi_b]: whether its bounds put every point
        of it inside the cell."""
        u_a, u_b, x_lo, x_hi = _x_range(u_start, du, lo, hi)
        m, m_size, q, q_size = _scan_bounds(forms, x_lo, x_hi)
        return (
            (m >= -tol_delaunay + SCAN_ROUNDING * m_size).all(axis=-1)
            & (q > SCAN_ROUNDING * q_size).all(axis=-1)
            & _domain_bound(surf, inv, u_a, u_b)
        )

    def first_outside(s):
        """Index of the first ascending point ``s`` outside the cell or
        undefined (then raised by the single-packing kernel), or None."""
        metrics = SurfaceMetrics(surf, packing_at(s))
        defined = (metrics.domain_ok & (metrics.xi > 0.0)).all(axis=-1)
        inside = defined & (metrics.unchecked_margins >= -tol_delaunay).all(axis=-1)
        if inside.all():
            return None
        k = int(inside.argmin())
        if not defined[k]:
            surface_delaunay_margins(surf, packing_at(s[k]))
        return k

    def wall(lo, hi):
        """Bracket (inside, outside) of the first wall in the grid
        interval (lo, hi], or None; midpoints nest as in bisection."""
        s = np.array([lo, hi])
        while len(s) <= SCAN_POINTS:
            s = np.insert(s, range(1, len(s)), 0.5 * (s[:-1] + s[1:]))
        k = first_outside(s[1:])
        if k is None:
            return None
        lo, hi = s[k], s[k + 1]
        for _ in range(WALL_BISECTIONS - int(math.log2(SCAN_POINTS))):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if first_outside([mid]) is None else (lo, mid)
        return lo, hi

    forms = _cosh_forms(surf, inv) if forms is None else forms
    clear = certified([0.0], [1.0])[0]
    if not clear and not certified([0.0], [0.0])[0]:
        flip_to_delaunay(packing)
        clear = certified([0.0], [1.0])[0]
    if not du.any():
        return finish(0.0)
    total = piece_start = s_pos = 0.0
    while not clear:
        grid = np.r_[s_pos, np.arange(int(s_pos * SCAN_GRID) + 1, SCAN_GRID + 1) / SCAN_GRID]
        walls = (wall(grid[k], grid[k + 1])
                 for k in np.flatnonzero(~certified(grid[:-1], grid[1:])))
        if (bracket := next(filter(None, walls), None)) is None:
            break
        lo, hi = bracket
        total += piece(piece_start, lo)
        flip_to_delaunay(packing_at(hi))
        piece_start, s_pos = lo, hi
        clear = certified([hi], [1.0])[0]
    total += piece(piece_start, 1.0)
    return finish(total)


def _clamped_step(u, delta):
    """Take u + delta in (-inf, 0)^V: any component that would reach 0
    is reflected back to the half-way point u/2 instead."""
    out = u + delta
    bad = out >= 0.0
    if np.any(bad):
        out = out.copy()
        out[bad] = 0.5 * u[bad]
    return out


_Trial = namedtuple("_Trial", "d_pot surface packing flips forms metrics curvature total_area u")


class _Run:
    """What Newton and the flow share: the start (the inputs validated,
    the packing flipped to weighted Delaunay by a zero-length step, its
    flips logged under iteration 0), a trial point, its accept, and the
    SolveState of every exit.  ``steps`` counts accepted steps (-1
    during the start); the next step's flips are logged under
    steps + 1; ``metrics`` is the array kernel at the run's point;
    ``forms``, the cosh forms of its triangulation, are built by the
    start and then taken from each step's segment; ``plan``, the _Plan
    of its Hessians, is new at the start and after each step that
    flips."""

    def __init__(self, surface, packing, target, tol, tol_delaunay, flip_budget, max_iterations):
        if not tol >= 0.0:
            raise DomainError(f"tol = {tol} must be a non-negative number")
        if not max_iterations >= 0:
            raise DomainError(f"max_iterations = {max_iterations} must be non-negative")
        check_flip_settings(tol_delaunay, flip_budget)
        self.target = validate_target(surface, target)
        self.metrics = validate_packing(surface, packing)
        self.tol_delaunay, self.flip_budget = tol_delaunay, flip_budget
        self.surface, self.packing, self.u = surface, packing, u_from_r(packing.radii)
        if (self.u >= 0.0).any():  # tanh(r/2) rounds to 1
            v = int(np.argmax(self.u >= 0.0))
            raise DomainError(
                f"vertex {v} has radius {packing.radii[v]}, where u = log tanh(r/2) rounds to 0"
            )
        self.flip_log, self.trace, self.potential, self.steps, self.forms = [], [], 0.0, -1, None
        try:  # flips keep the radii, so u stays
            (_, self.surface, self.packing, self.flip_log, self.forms, self.metrics, self.curvature,
             self.total_area) = self.step(self.u, False, 0)
        except NonCompactOrthocircle as exc:
            self.curvature, self.total_area = curvatures(surface, packing, self.metrics)
            raise SurgeryDiverged(str(exc), state=self.state("surgery_diverged", 0)) from exc
        self.steps, self.plan = 0, _Plan()

    error = SolveState.max_error  # read on the run's own curvature and target

    def step(self, u_try, track_potential, iterations):
        """``segment_potential``'s walk of the segment from the run's point
        to u_try, flipping at each wall: its values at the end, weighted
        Delaunay; untracked, the walk has no quadrature and d_pot is 0.  A
        flip-budget overrun raises SurgeryDiverged with the run so far,
        where the flips stopped, reporting ``iterations``."""
        try:
            return segment_potential(
                self.surface, self.packing, self.target if track_potential else None,
                self.u, u_try, self.tol_delaunay, self.flip_budget, self.steps + 1, self.forms,
                self.metrics,
            )
        except SurgeryDiverged as exc:
            raise SurgeryDiverged(
                str(exc), state=self.state("surgery_diverged", iterations, stop=exc.state)
            ) from exc

    def trial(self, u_try, track_potential, iterations):
        """The _Trial at the end of the step to u_try: the step's values
        and u_try; None when the walk, its end kernel included, meets a
        point outside the domain or a non-compact face."""
        try:
            return _Trial(*self.step(u_try, track_potential, iterations), u_try)
        except (DegenerateTriangle, DomainError, NonCompactOrthocircle):
            return None

    def accept(self, trial, row):
        """Move the run to a trial point and append its trace row:
        ``row`` with max_error, potential and flips set, keeping the
        place of the keys it already holds."""
        if trial.surface is not self.surface:  # flipped: a new Hessian pattern
            self.plan = _Plan()
        (d_pot, self.surface, self.packing, flips, self.forms, self.metrics, self.curvature,
         self.total_area, self.u) = trial
        self.potential += d_pot
        self.steps += 1
        self.flip_log += flips
        row.update(max_error=self.error, potential=self.potential, flips=len(flips))
        self.trace.append(row)

    def state(self, status, iterations, sign=0, stop=None):
        """The SolveState of an exit at the run's point, with its kernel, or
        for a flip-budget overrun at ``stop``, where the flips stopped: its
        curvature taken there, its flips following the run's."""
        at = stop or self
        K, area = curvatures(at.surface, at.packing) if stop else (at.curvature, at.total_area)
        return SolveState(
            at.surface, at.packing, at.u, self.target, K, area, status, iterations,
            self.flip_log + (stop.flip_log if stop else []), self.trace, self.potential, sign,
            None if stop else self.metrics,
        )


def newton_solve(
    surface,
    packing,
    target,
    tol=DEFAULT_TOL_K,
    max_iterations=DEFAULT_MAX_ITERATIONS,
    tol_delaunay=TOL_DELAUNAY,
    flip_budget=None,
    track_potential=True,
):
    """Newton descent for the packing realizing the target curvature.

    Each point factors the analytic curvature Jacobian H once, by a
    symmetric sparse LU with diagonal pivots: for the exit's spectrum
    sign if converged or after max_iterations steps; else to stall on
    an exactly singular H, or to step H . delta = -(K - Kbar), clamped
    to keep u negative and backtracked on the Euclidean norm of the
    curvature error.  DomainError unless tol and max_iterations are
    non-negative numbers, tol_delaunay is a number, any flip budget is
    non-negative and no radius is so large that its u rounds to 0.
    Each trial point is where its segment's walk ends, carried there by
    the walk's logged wall flips, and is judged by the one kernel there,
    which also gives the accepted curvature and the next Hessian; a
    trial whose walk meets a point outside the domain or a non-compact
    face is halved like one that does not lower the error.
    ``track_potential`` decides only whether the segment is integrated.
    A face non-compact at the start raises SurgeryDiverged at the input.
    The Hessian's spectrum sign, at the state returned or carried by the
    raised SolverFailure, is hessian_spectrum_sign's (a line-search stall
    factors its H once more for it; an exactly singular H gives 0).  The
    flip budget (None: DEFAULT_FLIP_BUDGET_FACTOR times the edge count)
    bounds the flips of the start and of each step; an overrun raises
    SurgeryDiverged with the solve's target, flip log and trace at the
    state where the flips stopped (spectrum sign 0, not taken), counting
    the iteration in progress (0 at the start).
    """
    run = _Run(surface, packing, target, tol, tol_delaunay, flip_budget, max_iterations)
    for iteration in itertools.count(1):
        H = run.plan.fill(run.surface, run.metrics)
        if run.error <= tol:
            return run.state(STATUS_CONVERGED, iteration - 1, hessian_spectrum_sign(H, run.plan))
        if iteration > max_iterations:
            raise MaxIterationsExceeded(
                f"no convergence within {max_iterations} Newton iterations",
                state=run.state(STATUS_MAX_ITERATIONS, max_iterations, hessian_spectrum_sign(H, run.plan)),
            )
        if (lu := _factor(H, run.plan)) is None:
            raise SolverStalled(
                "Hessian is exactly singular", state=run.state("stalled", iteration)
            )

        residual = run.curvature - run.target
        delta = lu.solve(-residual)
        del lu  # the line search takes no factor: its L and U are freed before the trials' kernels
        sup = float(np.max(np.abs(delta)))
        if sup > 1.0:
            delta *= 1.0 / sup

        base_norm = float(np.linalg.norm(residual))
        step = 1.0
        while True:
            trial = run.trial(_clamped_step(run.u, step * delta), track_potential, iteration)
            if trial is not None and np.linalg.norm(trial.curvature - run.target) < base_norm:
                break
            step *= 0.5
            if step < MIN_LINE_SEARCH_STEP:
                raise SolverStalled(
                    "line search step underflow",
                    state=run.state("stalled", iteration, hessian_spectrum_sign(H, run.plan)),
                )
        # Newton's rows put the step length after the potential.
        run.accept(trial, dict(iteration=iteration, max_error=None, potential=None, step=step))


def ricci_flow(
    surface,
    packing,
    target,
    dt=DEFAULT_FLOW_DT,
    t_max=DEFAULT_FLOW_T_MAX,
    tol=1e-8,
    tol_delaunay=TOL_DELAUNAY,
    flip_budget=None,
    max_iterations=DEFAULT_MAX_ITERATIONS,
):
    """Discrete Ricci flow du/dt = -(K - Kbar) with flip surgery.

    Linearly implicit steps (I/dt + H) . delta = -(K - Kbar) on Newton's
    sparse LU of H, the positive definite curvature Jacobian: stable for
    any dt, Newton's step as dt grows.  A step is accepted, and dt
    doubled, if it moves u and the potential along its segment does not
    rise (so the trace's potential never does); it ends where the
    segment ends, carried there by its wall flips.  A failed step (also
    an exactly singular I/dt + H, or a face outside the domain or non-compact)
    halves dt (FlowStalled below MIN_FLOW_DT).  Stops at max|K - Kbar| <= tol,
    after ``max_iterations`` steps, or once t, the sum of accepted dt,
    reaches t_max (none by default).  DomainError unless dt is positive
    and finite, t_max is a non-negative number and the other settings
    are as ``newton_solve`` takes them.  The flip budget bounds
    the start's flips and each step's; an overrun raises SurgeryDiverged
    with the flow's target, flip log and trace where the flips stopped,
    counting the steps completed.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"flow step dt = {dt} must be positive and finite")
    if not t_max >= 0.0:
        raise DomainError(f"t_max = {t_max} must be a non-negative number")
    run = _Run(surface, packing, target, tol, tol_delaunay, flip_budget, max_iterations)
    t = 0.0
    while not (run.error <= tol or t >= t_max or run.steps >= max_iterations):
        H = run.plan.fill(run.surface, run.metrics)
        on_diagonal = run.plan.diagonal  # H's own, kept when a first factorization permutes the plan
        diagonal = H.data[on_diagonal]
        while True:
            H.data[on_diagonal] = diagonal + 1.0 / dt
            lu = _factor(H, run.plan)  # None, exactly singular: the trial fails
            u_try = run.u if lu is None else _clamped_step(run.u, lu.solve(run.target - run.curvature))
            if not np.array_equal(u_try, run.u):
                trial = run.trial(u_try, True, run.steps)
                if trial is not None and trial.d_pot <= 0.0:
                    break
            dt *= 0.5
            if not dt >= MIN_FLOW_DT:
                raise FlowStalled(
                    "flow step size underflow", state=run.state("stalled", run.steps)
                )
        t += dt
        run.accept(trial, dict(step=run.steps + 1, t=t, dt=dt))
        dt *= 2.0

    return run.state(
        STATUS_CONVERGED if run.error <= tol else STATUS_MAX_ITERATIONS, run.steps,
        hessian_spectrum_sign(run.plan.fill(run.surface, run.metrics), run.plan),
    )
