"""Exception hierarchy shared across the package, and the JSON file readers.

Every error raised on purpose derives from ReduxPllError so callers (and the
CLI) can map failures to exit codes without matching on message text.
`read_text`, `parse_object` and `check` word every fault of a JSON input
file, or of a document against its schema, as one ParseError (or ConfigError).
"""

import json
import sys
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


def parse_object(text, where, schema=None, error=ParseError) -> dict:
    """The JSON object in `text` (str or UTF-8 bytes), checked against `schema` if given."""
    def constant(token):
        raise error(f"{where}: {token} is not a JSON number")
    try:
        doc = json.loads(text, parse_constant=constant)
    except (ValueError, RecursionError) as exc:  # also an int of too many digits
        raise error(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object")
    return doc if schema is None else check(doc, schema, where, error)


_NOUNS = {float: "a number", int: "an integer", str: "a string", None: "null",
          dict: "an object", list: "a list"}


def _fits(value, kind) -> bool:
    """Whether `value` is of `kind`, not looking inside an object or a list."""
    if isinstance(kind, (dict, list)):
        return type(value) is type(kind)
    if kind is float:  # an int too, if a float can hold it
        return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    return value is None if kind is None else type(value) is kind


def check(doc, schema, where, error=ParseError, path: str = ""):
    """`doc` if it fits `schema`, else `error` naming `where` and the key at `path`.

    A schema maps each key, suffixed "?" if it may be absent, to its kind:
    `float` (a number; a bool is not one), `int`, `str`, `None` (null), `dict`
    (any object), a schema (an object that fits it), `[kind]` (a list of that
    kind) or a tuple of kinds (any one of them). Any other key is refused.
    """
    kinds = schema if isinstance(schema, tuple) else (schema,)
    fits = [kind for kind in kinds if _fits(doc, kind)]
    if not fits:
        noun = " or ".join(_NOUNS[type(k) if isinstance(k, (dict, list)) else k] for k in kinds)
        raise error(f"{where}: {path or 'the document'} must be {noun}, got {doc!r}")
    prefix = f"{path}." if path else ""
    if isinstance(fits[0], dict):
        names = {key.removesuffix("?"): key for key in fits[0]}
        for name, key in names.items():
            if name in doc:
                check(doc[name], fits[0][key], where, error, prefix + name)
            elif name == key:
                raise error(f"{where}: no {prefix}{name} field")
        unknown = [key for key in doc if key not in names]
        if unknown:
            raise error(f"{where}: unknown key {prefix}{unknown[0]}")
    elif isinstance(fits[0], list):
        for i, item in enumerate(doc):
            check(item, fits[0][0], where, error, f"{path}[{i}]")
    return doc
