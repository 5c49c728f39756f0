"""Exception hierarchy shared across the package.

Every error raised on purpose derives from ReduxPllError so callers (and the
CLI) can map failures to exit codes without matching on message text.
"""


class ReduxPllError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(ReduxPllError):
    """Bad command-line flag or flag combination."""


class DimensionError(ReduxPllError):
    """Shape mismatch between arrays that must be conformable."""


class ContractViolation(ReduxPllError):
    """A caller-supplied value breaks a documented precondition."""


class ConfigError(ReduxPllError):
    """Invalid configuration value (in a config object or config file)."""


class DataError(ReduxPllError):
    """A dataset violates its invariants; carries the offending row indices."""

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = list(rows) if rows is not None else []


class ParseError(ReduxPllError):
    """Malformed input file; message includes the path/line."""


class NumericError(ReduxPllError):
    """Non-finite value produced where finiteness is guaranteed.

    `lanes` holds the indices, in a lane stack, of the runs that produced it;
    it is empty when the computation had no lane axis.
    """

    def __init__(self, message, lanes=None):
        super().__init__(message)
        self.lanes = list(lanes) if lanes is not None else []


class ScenarioError(ReduxPllError):
    """A theory scenario is degenerate for the requested verification."""


class AssumptionError(ReduxPllError):
    """A theory verification was invoked with assumptions that do not hold."""
