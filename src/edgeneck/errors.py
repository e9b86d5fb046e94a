"""Exception types shared by the library and the CLI.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
file-format and I/O problems exit 3, verification failures exit 1.
"""


class ContractError(ValueError):
    """An argument violates an operation's contract (dims, channels)."""


class ShapeError(ContractError):
    """A required or computed shape is impossible (negative or odd dim, ...)."""


class DomainError(ValueError):
    """A value lies outside an operation's mathematical domain."""


class UsageError(RuntimeError):
    """An API was driven in an unsupported way (bad scope, root not on tape)."""


class ConfigError(ValueError):
    """A config file or CLI parameter is invalid; the message names the key."""


class FormatError(ValueError):
    """A file (netpbm image or weights container) is malformed."""


class LoadError(FormatError):
    """A weights container does not match the constructed model."""
