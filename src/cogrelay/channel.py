"""Physical-layer model: transmission rates, feedback overhead and
Rayleigh-fading outage probabilities.

A transmitter that starts later in the slot (after sensing) and loses time
to the ACK/NACK feedback phase must signal at a higher rate to fit the same
packet, which raises its outage probability.  All functions here are pure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError, TimingOverflowError


class StrategyKind(str, enum.Enum):
    """Relay decoding strategy: ordered acceptance, random assignment,
    or round robin (random assignment with a uniform schedule)."""

    ORDERED = "od"
    RANDOM = "rd"
    ROUND_ROBIN = "rr"


class SensingStage(enum.IntEnum):
    """How many sensing sub-intervals precede the node's transmission:
    the primary transmits immediately, the secondary after one interval,
    relays after two."""

    PRIMARY = 0
    SECONDARY = 1
    RELAY = 2


@dataclass(frozen=True)
class SlotTiming:
    """Slot structure: total duration, sensing sub-interval, per-node
    feedback time, packet size and channel bandwidth."""

    slot_seconds: float          # T
    sensing_seconds: float       # tau
    feedback_seconds: float      # tau_f, per ACK/NACK sender
    packet_bits: float           # b
    bandwidth_hz: float          # W

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.slot_seconds > 0:
            raise ConfigError("slot_seconds must be > 0")
        if not (self.sensing_seconds >= 0 and self.feedback_seconds >= 0):
            raise ConfigError("sensing/feedback durations must be >= 0")
        if not (self.packet_bits > 0 and self.bandwidth_hz > 0):
            raise ConfigError("packet_bits and bandwidth_hz must be > 0")


@dataclass(frozen=True)
class LinkParams:
    """Rayleigh-fading link statistics: mean SNR at unit gain and mean
    channel power gain."""

    gamma: float
    sigma: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.sigma > 0):
            raise ConfigError("gamma and sigma must be > 0")


def feedback_duration(strategy: StrategyKind, n_relays: int,
                      feedback_seconds: float) -> float:
    """Total feedback time per slot.

    Ordered acceptance needs one ACK opportunity per relay plus the
    destination's; the assignment strategies need only the destination's
    and the single assigned relay's.  With no relays only the destination
    acknowledges.
    """
    if n_relays < 0:
        raise ConfigError("n_relays must be >= 0")
    if feedback_seconds < 0:
        raise ConfigError("feedback_seconds must be >= 0")
    if n_relays == 0:
        return feedback_seconds
    if strategy is StrategyKind.ORDERED:
        return (n_relays + 1) * feedback_seconds
    return 2.0 * feedback_seconds


def transmission_rate(timing: SlotTiming, stage: SensingStage,
                      strategy: StrategyKind, n_relays: int) -> float:
    """Rate (bit/s) needed to deliver one packet in the residual slot time.

    Raises TimingOverflowError when sensing plus feedback consume the
    whole slot.
    """
    overhead = (int(stage) * timing.sensing_seconds
                + feedback_duration(strategy, n_relays,
                                    timing.feedback_seconds))
    residual = timing.slot_seconds - overhead
    if residual <= 0:
        raise TimingOverflowError(
            f"sensing+feedback {overhead:g}s >= slot {timing.slot_seconds:g}s")
    return timing.packet_bits / residual


def success_probability(link: LinkParams, timing: SlotTiming,
                        stage: SensingStage, strategy: StrategyKind,
                        n_relays: int) -> float:
    """Probability that the receiver decodes the packet (no outage).

    Rayleigh fading: the channel power gain is exponential with mean
    sigma, so P(success) = exp(-(2^(r/W) - 1) / (gamma * sigma)).
    """
    rate = transmission_rate(timing, stage, strategy, n_relays)
    snr_threshold = 2.0 ** (rate / timing.bandwidth_hz) - 1.0
    return math.exp(-snr_threshold / (link.gamma * link.sigma))


def outage_probability(link: LinkParams, timing: SlotTiming,
                       stage: SensingStage, strategy: StrategyKind,
                       n_relays: int) -> float:
    """Complement of success_probability."""
    return 1.0 - success_probability(link, timing, stage, strategy, n_relays)
