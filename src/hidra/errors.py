"""Exception hierarchy shared by every hidra module."""


class HidraError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HidraError, ValueError):
    """A numeric argument lies outside the domain of a formula."""

    def __init__(self, message, face=None):
        super().__init__(message)
        self.face = face  # set by the array kernel


class DegenerateTriangle(DomainError):
    """Hyperbolic triangle inequalities fail, or a cosine left [-1, 1]."""


class MeshError(HidraError, ValueError):
    """A combinatorial invariant of the surface complex is violated."""


class NotClosed(MeshError):
    """Some edge is not incident to exactly two face sides."""


class NotOrientable(MeshError):
    """The two face slots of an edge traverse it in the same direction."""


class InconsistentIncidence(MeshError):
    """Face corner labels disagree with the endpoints of its side edges."""


class NotTriangulable(MeshError):
    """The punctured surface has non-negative Euler characteristic."""


class FlipIllegal(MeshError):
    """Flipping this edge would not produce a valid complex."""


class NonCompactOrthocircle(HidraError):
    """A face's orthogonal circle fails the compactness test (Xi <= 0)."""

    def __init__(self, message, face=None, xi=None):
        super().__init__(message)
        self.face = face
        self.xi = xi


class SolverFailure(HidraError):
    """Base for solver termination failures; carries the partial state."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class SurgeryDiverged(SolverFailure):
    """The flip loop exceeded its budget without reaching Delaunay."""


class SolverStalled(SolverFailure):
    """Newton line search underflowed without improvement."""


class MaxIterationsExceeded(SolverFailure):
    """Newton iteration limit hit before the curvature tolerance."""


class FlowStalled(SolverFailure):
    """Ricci-flow step size underflowed without potential decrease."""


class TargetOutOfRange(HidraError, ValueError):
    """A target curvature violates the admissibility bounds."""


class ConstructionInvalid(HidraError, ValueError):
    """A constructive oracle received parameters it cannot realize."""


class ParseError(HidraError, ValueError):
    """Input bytes are not a well-formed mesh document."""


class ValidationError(HidraError, ValueError):
    """A mesh document is well-formed but violates a schema invariant."""
