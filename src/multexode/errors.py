"""Exception types shared across the package."""


class MultexodeError(Exception):
    """Base class for all multexode errors."""


class GridMismatch(MultexodeError):
    """Two grid functions do not share the same grid."""


class DivisorTooSmall(MultexodeError):
    """A pointwise division hit a divisor below the configured floor.

    Attributes:
        x: abscissa of the first offending node.
        magnitude: |divisor| at that node.
    """

    def __init__(self, x, magnitude, floor):
        self.x = x
        self.magnitude = magnitude
        self.floor = floor
        super().__init__(
            f"divisor magnitude {magnitude:.3e} below floor {floor:.3e} at x = {x:.6g}"
        )


class Overflow(MultexodeError):
    """An exponential or a series term overflowed; carries the first offending node."""

    def __init__(self, x):
        self.x = x
        super().__init__(f"overflow first occurred at x = {x:.6g}")


class UnboundCoefficient(MultexodeError):
    """A coefficient reference could not be resolved in the environment."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"coefficient {name!r} is not bound in the environment")


class NonDifferentiable(MultexodeError):
    """Symbolic differentiation requested on sampled data without opt-in."""


class ExpressionSyntaxError(MultexodeError):
    """Parse failure with byte offset and the set of expected tokens."""

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(self.expected))
        super().__init__(f"syntax error at offset {offset}: found {found!r}, expected {exp}")


class NotConverged(MultexodeError):
    """A series did not reach tolerance within the term budget."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)


class DegenerateLeading(MultexodeError):
    """The leading coefficient of an extracted auxiliary equation vanishes at 0."""


class ValidityCollapsed(MultexodeError):
    """The validity interval shrank below the minimum usable width."""


class NonMonotoneAbscissae(MultexodeError):
    """Sample table abscissae are not strictly increasing."""


class CoverageGap(MultexodeError):
    """Sample table does not cover the requested computation interval."""


class ConfigError(MultexodeError):
    """Problem configuration is malformed; message names the offending field."""
