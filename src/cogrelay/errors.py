"""Exception types shared across the package."""


class CogRelayError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CogRelayError, ValueError):
    """Invalid parameter values (simplex/box/probability violations)."""


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
