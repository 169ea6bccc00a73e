"""Exception hierarchy shared across the package."""


class NoisyFedError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(NoisyFedError):
    """Invalid configuration value or mismatched dimensions."""


class TaskError(NoisyFedError):
    """Synthetic task could not be constructed or is degenerate."""


class PolicyError(NoisyFedError):
    """An SNR-control policy received or produced an invalid value."""


class ScheduleError(PolicyError):
    """A noise or power schedule was evaluated outside its domain."""


class ChannelError(NoisyFedError):
    """Channel simulation failure (e.g. deep fades exhausted all retries)."""


class AggregationError(NoisyFedError):
    """Server-side aggregation received an empty or inconsistent model set."""


class StatisticalPowerError(NoisyFedError):
    """Replica count too small for the requested statistical tolerance."""


class DivergenceError(NoisyFedError):
    """A run blew past its divergence guard or a local iterate became
    non-finite; ``trace`` holds the rounds the run completed, the round that
    tripped the guard included, or None when local training raised."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
