"""Exception types shared across the package, and the one check of the
integer arguments (counts, budgets, seeds) that every entry point makes."""

import numpy as np


class CogRelayError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CogRelayError, ValueError):
    """Invalid parameter values (simplex/box/probability violations)."""


def check_integer(name: str, value, least: int) -> None:
    """Raise ConfigError unless `value` is an integer (a bool is not one)
    no smaller than `least`."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < least):
        raise ConfigError(f"{name} must be an integer >= {least}, "
                          f"got {value!r}")


class TimingOverflowError(CogRelayError, ValueError):
    """Sensing plus feedback time does not leave room for data transmission."""


class UnstableQueueError(CogRelayError, RuntimeError):
    """An operation required a stable queue (arrival rate below service rate).

    `queue` identifies the offending queue: "primary", "secondary",
    "primary-relay-3", "secondary-relay-1", ...
    """

    def __init__(self, queue: str, message: str = ""):
        self.queue = queue
        super().__init__(message or f"queue '{queue}' is not stable")


class NoFeasibleRelayCount(CogRelayError, RuntimeError):
    """No relay count up to the search limit satisfies the QoS targets."""


class SpecParseError(CogRelayError, ValueError):
    """Experiment spec file could not be parsed.

    `line` is the 1-based offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
