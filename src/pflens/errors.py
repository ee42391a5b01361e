"""Exception hierarchy.

Two broad classes matter to callers: input/validation problems
(DomainError and subclasses, CLI exit code 2) and numerical failures
(NumericalError and subclasses, CLI exit code 3).
"""

import math
from dataclasses import fields


class PflensError(Exception):
    """Base class for all package errors."""


class DomainError(PflensError, ValueError):
    """An input violates a documented precondition or invariant."""


class ConfigError(DomainError):
    """A configuration file failed validation.

    Carries the offending key and line number when known.
    """

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)


def require(condition, name: str, rule: str, value) -> None:
    """Raise DomainError "<name> must be <rule>, got <value>" unless condition holds.

    The one form of a refusal that names its input. The message is built
    only when the check fails.
    """
    if not condition:
        raise DomainError(f"{name} must be {rule}, got {value}")


def require_finite_fields(instance) -> None:
    """Raise DomainError naming the first float field of a dataclass that is inf or nan."""
    for spec in fields(instance):
        if spec.type in ("float", float):
            value = getattr(instance, spec.name)
            require(math.isfinite(value), spec.name, "finite", value)


class SchemaError(DomainError):
    """A data file does not match the expected CSV schema."""


class NumericalError(PflensError, RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class FitError(NumericalError):
    """A least-squares fit did not converge or is degenerate.

    The final residual (when available) is attached for diagnosis.
    """

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (final residual {residual:.3e})"
        super().__init__(message)


class ResolutionError(NumericalError):
    """A numerical grid is too coarse for the requested computation, or too large for memory."""
