"""Exception types shared across the package.

Every error raised on bad input or an impossible computation derives from
PochexError, so callers (notably the CLI) can distinguish domain problems
from programming bugs.
"""

from __future__ import annotations


class PochexError(Exception):
    """Base class for all errors this package raises deliberately."""


class DomainError(PochexError):
    """An argument lies outside the operation's domain."""


class ParseError(PochexError):
    """A textual input does not match its grammar."""


class ZeroSeries(PochexError):
    """A series with no known nonzero coefficient cannot be inverted."""


class PoleError(PochexError):
    """Evaluation hit a pole of the expression.

    `index` identifies the offending linear factor (the shift l or j whose
    factor vanished) when a single symbol is involved; `lattice_point` and
    `factor` locate the failure inside a double-series expansion.
    """

    def __init__(self, message: str, *, index=None, lattice_point=None, factor=None):
        super().__init__(message)
        self.index = index
        self.lattice_point = lattice_point
        self.factor = factor


class DegreeError(PochexError):
    """Numerator degree exceeds what the decomposition admits."""


class RepeatedRoot(PochexError):
    """Two denominator factors share a pole location.

    `collisions` lists ((factor_index, shift), (factor_index, shift), location)
    triples for every colliding pair.
    """

    def __init__(self, message: str, *, collisions=()):
        super().__init__(message)
        self.collisions = tuple(collisions)


class MissingParameter(PochexError):
    """A built-in example needs a named extra parameter that was not given."""
