"""Exception taxonomy shared by all modules."""


class ToolkitError(Exception):
    """Base class for all cuspmap errors."""


class DomainError(ToolkitError):
    """Input outside the mathematical domain of an operation."""


class RangeError(ToolkitError):
    """Requested value lies outside the attainable range of a map."""


class ConvergenceError(ToolkitError):
    """An iterative solve exceeded its iteration budget."""


class SeamError(ToolkitError):
    """Finite-difference stencil would straddle a sector seam."""


class NodeError(ToolkitError):
    """A quadrature node produced a non-finite field value."""


class MaskError(ToolkitError):
    """Condenser masks are empty, overlapping, or escape the domain."""


class InsufficientData(ToolkitError):
    """Not enough samples to run a classifier."""
