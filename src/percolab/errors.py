"""Exception and warning types shared across the package."""


class PercolabError(Exception):
    """Base class for all package-specific errors."""


class UsageError(PercolabError):
    """Bad command line invocation (exit code 1)."""


class ConfigError(PercolabError):
    """Malformed or inconsistent configuration (exit code 2)."""


class ResourceLimitError(PercolabError):
    """Requested geometry or enumeration exceeds the supported range."""


class GeometryError(PercolabError):
    """Vertices, windows, regions or edge indexes fall outside the sample box."""


class ContaminatedBallError(PercolabError):
    """A ball touched the box face, so the requested answer is unknowable."""


class UnreachableVertexError(PercolabError):
    """Geodesic requested to a vertex at infinite distance."""


class PreconditionError(PercolabError):
    """Stated hypotheses of a constructive routine are not met."""


class RoutingError(PercolabError):
    """Macroscopic routing failed (bad site, endpoint not in cluster)."""


class ProjectionBoundError(PercolabError):
    """No axis achieves the projection size bound (possible only for d=2)."""


class MatchingInvariantError(PercolabError):
    """A separated matching failed its certified separation bound."""


class BundleInvariantError(PercolabError):
    """A path bundle violated a declared length/multiplicity invariant."""


class GridCoverageError(PercolabError):
    """Rate surface grid does not cover the restricted search box."""


class EmptyEndpointWarning(UserWarning):
    """Constrained distance queried with an empty endpoint set."""
