"""Exception types shared across the package.

Every rejection that has a finite cause carries a machine-readable witness,
so callers (and the CLI) can report exactly which pair of objects broke a
hypothesis instead of a bare boolean.
"""


class DomainMismatch(ValueError):
    """Two objects that must share a domain do not."""


class GuardExceeded(RuntimeError):
    """An exhaustive enumeration would exceed its size guard."""


class ValueMapMiss(ValueError):
    """An explicit-table value map was applied to a value it does not cover."""


class NotOperation(ValueError):
    """A point map fails to preserve the measurement set."""

    def __init__(self, op, measurement, message=None):
        self.op = op
        self.measurement = measurement
        super().__init__(message or f"{op!r} does not preserve {measurement!r}")


class EquivarianceError(ValueError):
    """An operator pair violates equivariance; witness is (measurement, op)."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"equivariance fails at {witness!r}")


class HypothesisViolation(ValueError):
    """An extension hypothesis fails; witness identifies the bad coincidence."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"extension hypothesis fails: {witness!r}")


class NotInvariant(ValueError):
    """A vertex subset is not closed under the acting operations."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"subset not invariant: {witness!r}")


class SimplicialMapError(ValueError):
    """A vertex map does not send simplices to simplices."""


class VerificationError(AssertionError):
    """An internal certificate fails; witness names where.

    The certificates are commuting grid squares, functoriality over composite
    edges and interleaving triangles and squares.  They are checked
    explicitly, so they still run under python -O.
    """

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"verification fails at {witness!r}")
