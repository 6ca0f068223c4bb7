"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/validation problems exit 1,
file/parse problems exit 2, non-finite numerics exit 3.
"""


class FocusError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FocusError):
    """Invalid parameter, flag, or configuration value."""


class ParseError(FocusError):
    """Malformed input file (CSV or config); the message names the file
    and, where there is one, the line and column."""


class ContainerError(FocusError):
    """Corrupt or inconsistent binary container file."""


class ShapeError(FocusError):
    """Operands violate a shape contract."""


class NumericalError(FocusError):
    """A non-finite value was produced where finiteness is required."""
