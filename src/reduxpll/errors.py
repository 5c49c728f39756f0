"""Exception hierarchy shared across the package, and the JSON file readers.

Every error raised on purpose derives from ReduxPllError so callers (and the
CLI) can map failures to exit codes without matching on message text.
`read_text` and `parse_object` word every fault of a JSON input file (a
config, a manifest, a run file, a scenario) as one ParseError.
"""

import json
from pathlib import Path


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
    """A dataset violates its invariants; carries the offending row indices
    and `reason`, the invariant they break (the message without the rows)."""

    def __init__(self, message, rows=None, reason=None):
        super().__init__(message)
        self.rows = list(rows) if rows is not None else []
        self.reason = message if reason is None else reason


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


def read_text(path: Path) -> str:
    """The file's text; a file that cannot be read or is not UTF-8 is a ParseError."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read the file ({exc})") from None


def parse_object(text: str, where) -> dict:
    """The JSON object in `text`; anything else is a ParseError naming `where`."""
    def constant(token):
        raise ParseError(f"{where}: {token} is not a JSON number")
    try:
        doc = json.loads(text, parse_constant=constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object")
    return doc
