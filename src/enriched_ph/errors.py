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


class WitnessedError(Exception):
    """An error that carries its witness; without a message, the class's
    default one names the witness in place of {!r}."""

    default = "{!r}"

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or self.default.format(witness))


class EquivarianceError(WitnessedError, ValueError):
    """An operator pair violates equivariance; witness is (measurement, op)."""

    default = "equivariance fails at {!r}"


class HypothesisViolation(WitnessedError, ValueError):
    """An extension hypothesis fails; witness identifies the bad coincidence."""

    default = "extension hypothesis fails: {!r}"


class NotInvariant(WitnessedError, ValueError):
    """A vertex subset is not closed under the acting operations."""

    default = "subset not invariant: {!r}"


class SimplicialMapError(ValueError):
    """A vertex map does not send simplices to simplices."""


class VerificationError(WitnessedError, AssertionError):
    """An internal certificate fails; witness names where.

    The certificates are commuting grid squares, functoriality over composite
    edges and interleaving triangles and squares.  They are checked
    explicitly, so they still run under python -O.
    """

    default = "verification fails at {!r}"
