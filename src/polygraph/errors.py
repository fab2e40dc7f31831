"""Exception hierarchy shared by all polygraph modules.

Every error carries a machine-readable ``payload`` dict so the CLI can emit
structured JSON instead of a bare traceback.
"""

from __future__ import annotations


class PolygraphError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.payload = payload

    def as_json(self) -> dict:
        return {
            "type": type(self).__name__,
            "message": str(self),
            **{k: v for k, v in self.payload.items() if _jsonable(v)},
        }


def _jsonable(v) -> bool:
    return isinstance(v, (str, int, float, bool, list, dict, type(None)))


class ParseError(PolygraphError):
    """Syntax error in polynomial text; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})", position=position)
        self.position = position


class ExactArithmeticRequired(PolygraphError):
    """An operation that is only well posed over exact scalars got floats."""


class EvaluationOverflow(PolygraphError):
    """A floating evaluation produced a non-finite value."""


class ZeroPolynomialError(PolygraphError):
    """The zero polynomial was passed where it has no meaning."""


class RootFindingError(PolygraphError):
    """A row's roots failed the residual check; carries its root estimates."""

    def __init__(self, message: str, best=None, **payload):
        super().__init__(message, **payload)
        self.best = best


class UniversalVertexError(PolygraphError):
    """A vertex where the substituted polynomial vanishes identically."""


class NotStandardError(PolygraphError):
    """A polynomial failed the standardness preconditions; carries reasons."""

    def __init__(self, message: str, reasons=(), **payload):
        super().__init__(message, reasons=[str(r) for r in reasons], **payload)
        self.reasons = tuple(reasons)


class RegularityError(PolygraphError):
    """A digraph is not d-regular; names the offending vertex."""


class SynthesisError(PolygraphError):
    """Invalid synthesis input (repeated vertex values, bad generators...)."""


class AmbiguousOrderError(PolygraphError):
    """Near-parabolic matrix: the projective order cannot be trusted."""


class SizeLimitError(PolygraphError):
    """Input too large for the exact backtracking matcher."""


class ExplorationError(PolygraphError):
    """Exploration aborted; carries the partial graph built so far."""

    def __init__(self, message: str, partial=None, **payload):
        super().__init__(message, **payload)
        self.partial = partial


class DomainError(PolygraphError):
    """Generic violation of an operation's input domain."""
