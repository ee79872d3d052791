"""Exception types shared across the package."""

from __future__ import annotations


class FelabError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class InputError(FelabError):
    """A parameter violates an operation's precondition."""

    exit_code = 3


class ParseError(FelabError):
    """Set-expression text failed to parse; carries a position."""

    exit_code = 3

    def __init__(self, message: str, pos: int | None = None, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None and col is not None:
            loc = f"line {line}, col {col}: "
        super().__init__(loc + message)
        self.pos = pos
        self.line = line
        self.col = col


class ResourceError(FelabError):
    """A cap (memory, element count, combination count, search steps) was exceeded."""

    exit_code = 4


class PrecisionError(FelabError):
    """Membership was unknown at a point a decision needed; names a horizon that would
    settle it, or says that none the CLI accepts (above `horizon`, the one used, and
    up to the sieve cap) is known to."""

    exit_code = 5

    def __init__(self, message: str, required_horizon: int | None = None, horizon: int = 0):
        if required_horizon is not None:
            from .arith import DEFAULT_SIEVE_CAP as cap  # arith imports this module

            if not horizon < required_horizon <= cap:
                required_horizon = None
                message = f"{message} (no horizon up to the cap {cap} is known to settle it)"
            else:
                message = f"{message} (rerun with horizon >= {required_horizon})"
        super().__init__(message)
        self.required_horizon = required_horizon


class InapplicableError(FelabError):
    """A refuter's structural precondition is unmet (distinct from refutation failure)."""

    exit_code = 3
