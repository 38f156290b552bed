"""Exception types shared across the package."""


class CurvexError(Exception):
    """Base class for all curvex errors."""


class EmptyIntersection(CurvexError):
    """A set/window intersection needed by an extremum query is empty."""


class IdenticallyZero(CurvexError):
    """A scalar series is numerically zero everywhere; roots are undefined."""


class SingularSystem(CurvexError):
    """An osculating-function jet solve came out singular or non-finite."""


class DegeneratePoint(CurvexError):
    """|F(t)| fell below the norm floor; the projective lift is undefined."""


class LineCurve(CurvexError):
    """The curve lies on a single line/great circle; censuses are undefined."""


class NotAntiConvex(CurvexError):
    """No admissible transversal line exists at some parameter."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"no admissible line at t={t!r}")


class AxiomViolation(CurvexError):
    """A contact-family axiom failed where an operation relied on it."""

    def __init__(self, axiom: str, message: str = ""):
        self.axiom = axiom
        super().__init__(message or f"axiom {axiom} violated")


class PreconditionFailed(CurvexError):
    """An operation's documented precondition does not hold."""


class NoConvergence(CurvexError):
    """An iterative search lost its invariants mid-run."""


class SearchFailed(CurvexError):
    """No valid clean triple: none placed among the points given, no
    non-clean start or witness for the search, halving past its cap, or
    clean points misplaced or with overlapping contact sets."""


class EmptyY(CurvexError):
    """Y+(p) is empty for an interior point of a supposedly admissible interval."""


class DegenerateChord(CurvexError):
    """Chord endpoints coincide (or are antipodal) within tolerance."""


class SelfIntersection(CurvexError):
    """A reduced curve failed the grid self-intersection test."""


class NotConvex(CurvexError):
    """h + h'' <= 0 somewhere; the support function is not strictly convex."""


class CertificateFailed(CurvexError):
    """An osculating-circle certificate clause failed."""

    def __init__(self, clause: str, message: str = ""):
        self.clause = clause
        super().__init__(message or f"certificate clause failed: {clause}")
