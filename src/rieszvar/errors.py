"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class EmptyDomain(ToolkitError):
    """No grid node is masked into the domain."""


class BadShape(ToolkitError):
    """Grid shape has a component below the minimum of 2 nodes per axis."""


class UnknownCatalogEntry(ToolkitError):
    """Requested catalog family does not exist."""


class BadParams(ToolkitError):
    """Catalog parameters are invalid for the requested family."""


class EmptyRegion(ToolkitError):
    """A region (ball, cube, or whole domain) contains no masked-in node."""


class IsolatedNode(ToolkitError):
    """A masked-in node has no masked-in neighbor along some axis."""


class NoCubes(ToolkitError):
    """Every candidate cube was clipped away or empty."""


class ZeroWeightOnCube(ToolkitError):
    """Weight integrates to zero on a cube, making an average undefined."""


class WeightOverflow(ToolkitError):
    """A weight sum exceeds the float range: a cube average (or one of a power of the
    weight), a ball mass, the total weight or a weighted L^p sum."""


class ScoreOverflow(ToolkitError):
    """A ball score (osc/r)^p * w(B) exceeds the float range."""


class ZeroWeightOnBall(ToolkitError):
    """Weight integrates to zero on a ball of a doubling family."""


class InfiniteDual(ToolkitError):
    """Dual weight w^{1/(1-q)} is infinite at one or more nodes.

    ``flagged`` holds the flat indices of the offending (zero-weight) nodes.
    """

    def __init__(self, message, flagged=()):
        super().__init__(message)
        self.flagged = list(flagged)


class NoCandidates(ToolkitError):
    """No candidate ball fits inside the domain."""


class BadPartition(ToolkitError):
    """1D partition is not a strictly increasing node subsequence."""


class ZeroVariation(ToolkitError):
    """Variation is zero while a superlevel set is nonempty."""


class UnboundedSupport(ToolkitError):
    """Function is nonzero next to the domain boundary."""


class ErodedEmpty(ToolkitError):
    """No node keeps a full mollification ball inside the domain."""


class DegenerateGradient(ToolkitError):
    """Gradient norm vanished although the samples are not constant."""


class PreconditionError(ToolkitError):
    """An operation's stated precondition does not hold."""


class ConfigError(ToolkitError):
    """Experiment configuration is invalid.

    ``field`` is the dotted path of the offending entry.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
