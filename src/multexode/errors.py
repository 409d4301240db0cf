"""Exception types shared across the package."""


class MultexodeError(Exception):
    """Base class for all multexode errors."""


class DivisorTooSmall(MultexodeError):
    """A pointwise division hit a divisor not above the configured floor.

    Attributes:
        x: abscissa of the first offending node.
        magnitude: |divisor| at that node.
    """

    def __init__(self, x, magnitude, floor):
        self.x = x
        self.magnitude = magnitude
        self.floor = floor
        super().__init__(
            f"divisor magnitude {magnitude:.3e} not above floor {floor:.3e} at x = {x:.6g}"
        )


class Overflow(MultexodeError):
    """An exponential or a series term overflowed; carries the first offending node."""

    def __init__(self, x):
        self.x = x
        super().__init__(f"overflow first occurred at x = {x:.6g}")


class NonDifferentiable(MultexodeError):
    """Symbolic differentiation reached a sampled table, which has no derivative."""


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
    """An extracted auxiliary equation's order is below what its vector promises."""


class ValidityCollapsed(MultexodeError):
    """The validity interval shrank below the minimum usable width."""


class NonMonotoneAbscissae(MultexodeError):
    """Sample table abscissae are not strictly increasing."""


class CoverageGap(MultexodeError):
    """Sample table does not cover the requested computation interval."""


class ConfigError(MultexodeError):
    """Problem configuration is malformed; message names the offending field."""
