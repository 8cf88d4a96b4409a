"""Exception types shared across the package."""


class DomainError(ValueError):
    """A precondition on the mathematical input was violated."""


class InternalInconsistency(RuntimeError):
    """The computation reached a state the theory says is unreachable."""
