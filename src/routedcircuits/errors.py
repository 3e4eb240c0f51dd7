"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class RoutedError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatch(RoutedError):
    """Interface index sets (or spaces) of two composed objects differ."""


class ShapeMismatch(RoutedError):
    """An array does not have the shape demanded by its context."""


class UnknownLabel(RoutedError):
    """A sector label is not part of the index set it was looked up in."""


class InvariantViolation(RoutedError):
    """A structural invariant failed at construction or load time."""


class RouteViolation(InvariantViolation):
    """A matrix (or Kraus set) has weight on a block its route forbids."""


class ImproperComposition(RoutedError):
    """A gated composition failed its route-level properness condition.

    ``witness`` holds the labels that escape the downstream practical set,
    ``side`` says whether the input-side or output-side condition broke.
    """

    def __init__(self, message: str, *, side: str = "input", witness: tuple = ()):
        super().__init__(message)
        self.side = side
        self.witness = tuple(witness)


class TypeMismatch(RoutedError):
    """Wire spaces disagree at a circuit interface."""


class InvalidSlice(RoutedError):
    """A set of wires is not an antichain of the circuit (or unknown)."""


class NotFullDecoherence(RoutedError):
    """An operation requiring a fully decohering route got something else."""


class LengthMismatch(RoutedError):
    """A corelation relates two index names of different lengths."""


class IncompatibleRestrictions(RoutedError):
    """Two equivalence relations disagree on their shared middle set."""


class InterfaceMismatch(RoutedError):
    """Sequential composition of indexed graphs with unequal interfaces."""


class UnknownNode(RoutedError):
    """A node id is not part of the graph it was looked up in."""


class LintFailure(RoutedError):
    """An indexed graph failed well-indexedness linting for a mode."""


class NotPracticalIsometry(RoutedError):
    """A supplied map does not satisfy the mode it was declared under."""


class ParseError(RoutedError):
    """Input text is not valid JSON."""


class UsageError(RoutedError):
    """A setting such as the ROUTED_TOLERANCE environment variable is invalid."""


class SchemaError(RoutedError):
    """A JSON document does not match the expected document structure.

    ``location`` is a JSON-pointer-style path to the offending element.
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
