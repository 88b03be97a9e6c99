"""Exception hierarchy shared by the whole workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class MalformedInputError(WorkbenchError):
    """Structurally invalid data: bad shapes, missing keys, out-of-range indices."""


class PreconditionError(WorkbenchError):
    """An operation was called on inputs that fail its stated precondition."""


class InternalCheckError(WorkbenchError):
    """A runtime consistency assertion failed.

    These guard facts the theory promises (images staying in the equivariant
    subspace, coboundaries squaring to zero).  A failure indicates either a
    bug or an input outside the theory's guarantees; it is never silently
    repaired.
    """


class ParseError(MalformedInputError):
    """Input file rejected; ``path`` locates the offending node."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
