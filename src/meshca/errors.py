"""Exception types raised across the library."""


class MeshcaError(Exception):
    """Base class for all meshca errors."""


class InvalidConfig(MeshcaError):
    """A scenario, radio, or GA configuration failed validation."""


class ConnectivityUnreachable(MeshcaError):
    """No connected node placement was found within the attempt budget."""


class NoGateway(MeshcaError):
    """The topology has an empty gateway set, or a node with no path to
    any gateway."""


class InvalidRequiredRate(MeshcaError):
    """A link's required data rate is zero, negative or not finite."""


class AllZeroValues(MeshcaError):
    """Jain's index is undefined for an all-zero allocation vector."""


class SearchSpaceTooLarge(MeshcaError):
    """Exhaustive enumeration would exceed the search-space guard."""


class ParseError(MeshcaError):
    """A topology or assignment file is malformed."""


class InconsistentInputs(MeshcaError):
    """Topology and assignment files do not describe the same network,
    or the assignment gives a node more channels than radios."""


class InvalidAssignment(MeshcaError):
    """A chromosome has a gene outside ``[0, channel_count)`` or breaks a
    node's radio budget."""


class NonFiniteMetric(MeshcaError):
    """A computed metric is NaN or infinite, so no row or fitness is
    reported."""
