"""Exception types shared across the package.

Every error raised on purpose derives from ZetaLabError so callers (and the
CLI) can distinguish numerical/domain failures from genuine bugs.
"""


class ZetaLabError(Exception):
    """Base class for all domain and numerical errors raised by zetalab."""


class DomainError(ZetaLabError):
    """An argument lies outside the documented domain of an operation."""


class PoleError(ZetaLabError):
    """Gamma evaluated within tolerance of a non-positive integer pole."""


class ToleranceNotMet(ZetaLabError):
    """Adaptive quadrature exhausted its evaluation budget before reaching tol."""


class BoundaryZeroError(ZetaLabError):
    """A zero lies on a contour: a winding boundary, a Jensen circle or a Rouche scan edge."""


class NonConvergence(ZetaLabError):
    """A numerical procedure did not settle: phase tracking that outgrew its budget,
    never settled or leaked; a zero search whose Z sign, split height or sign
    change count stays in doubt; or a Rouche scan margin below -1e-10."""


class MultiplicityAmbiguity(ZetaLabError):
    """A zero-search cell at minimum size still contains more than one zero."""


class ZeroAtCenter(ZetaLabError):
    """Jensen check requires f(0) != 0."""


class PoleProximity(ZetaLabError):
    """Blaschke product evaluated at one of its poles."""
