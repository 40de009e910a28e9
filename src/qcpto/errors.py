"""Exception types shared across the package."""


class ParseError(Exception):
    """Malformed row in a trace file."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvariantError(Exception):
    """A structural invariant of a loaded or constructed object is violated."""


class ConfigError(Exception):
    """Bad configuration value or unknown configuration key."""


class SingularInnovation(Exception):
    """Innovation covariance is numerically singular in a filter update."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class EmptyRun(Exception):
    """Aggregation requested over zero epochs."""


class MissingResults(Exception):
    """Results directory does not contain the expected artifacts."""
