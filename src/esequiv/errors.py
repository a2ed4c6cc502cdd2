"""Exception hierarchy shared by all modules."""


class EsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EsError):
    """A structure or transition-system description violates one of its
    defining axioms."""


class DanglingId(ValidationError):
    """A relation pair or label refers to an event id outside 0..n-1."""


class InvalidLabel(ValidationError):
    """A label is not non-empty printable text without space or ``#``."""


class CycleInCausality(ValidationError):
    """The transitive closure of the causes relation is reflexive somewhere."""


class SelfConflict(ValidationError):
    """Inheritance closure forces some event into conflict with itself.

    Signals a description that has no prime event structure semantics.
    """


class CausalityConflictOverlap(ValidationError):
    """Some pair of events is both causally ordered and in conflict."""


class NotPrime(SelfConflict):
    """An algebra term denotes a structure that is not prime."""


class ExprSyntaxError(EsError):
    """Malformed algebra expression; carries the character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(EsError):
    """Malformed .es file; carries the offending line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotAConfiguration(EsError):
    """The given event set is not conflict-free and predecessor-closed."""


class ModeMismatch(EsError):
    """Two transition systems built under different modes were compared."""


class SizeLimit(EsError):
    """Input exceeds the declared desk-scale bound of the operation."""


class NotAnEes(EsError):
    """Operation requires a conflict-free structure."""


class InvalidCorpusSpec(EsError):
    """A corpus recipe asks for a class, size, alphabet or count outside
    what the generator supports; the message names the bound."""


class UnsatisfiableSpec(EsError):
    """Random generation kept producing invalid structures; densities too hostile."""


class SpectrumViolation(EsError):
    """Internal bug trap: computed verdicts contradict a proven inclusion."""


class NoPairFound(EsError):
    """Exhaustive search completed without finding a separating pair."""

    def __init__(self, max_events, certificate):
        super().__init__(f"no separating pair with up to {max_events} events")
        self.max_events = max_events
        self.certificate = certificate
