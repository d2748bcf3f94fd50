"""Static network description: traffic, sensing-error statistics and the
per-link channel quality, given either as physical fading parameters or
directly as an outage matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (LinkParams, SensingStage, SlotTiming, StrategyKind,
                      outage_probability)
from .errors import ConfigError


def _prob_vector(values, n: int, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ConfigError(f"{name} must have length {n}, got shape {v.shape}")
    if not (np.all(v >= 0) and np.all(v <= 1)):  # NaN fails too
        raise ConfigError(f"{name} entries must lie in [0, 1]")
    return v


@dataclass(frozen=True)
class TrafficParams:
    """Mean Bernoulli arrival rates (packets/slot) of the two users."""

    lambda_p: float
    lambda_s: float

    def __post_init__(self):
        for name, v in (("lambda_p", self.lambda_p), ("lambda_s", self.lambda_s)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class SensingErrorParams:
    """Per-relay misdetection and false-alarm probabilities.

    `p_md_primary[k]` / `p_md_secondary[k]`: relay k declares a busy sensing
    interval idle while the primary / secondary user transmits.
    `p_false_alarm[k]`: relay k declares an idle interval busy.
    """

    p_md_primary: np.ndarray
    p_md_secondary: np.ndarray
    p_false_alarm: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.p_md_primary).size
        object.__setattr__(self, "p_md_primary",
                           _prob_vector(self.p_md_primary, n, "p_md_primary"))
        object.__setattr__(self, "p_md_secondary",
                           _prob_vector(self.p_md_secondary, n, "p_md_secondary"))
        object.__setattr__(self, "p_false_alarm",
                           _prob_vector(self.p_false_alarm, n, "p_false_alarm"))

    @property
    def n_relays(self) -> int:
        return self.p_false_alarm.size

    def take(self, n: int) -> "SensingErrorParams":
        return SensingErrorParams(self.p_md_primary[:n],
                                  self.p_md_secondary[:n],
                                  self.p_false_alarm[:n])


@dataclass(frozen=True)
class OutageTable:
    """Outage probability of every link, as used by the rate formulas.

    Scalars: primary->its destination, secondary->its destination.
    Vectors (length N): primary->relay k, secondary->relay k,
    relay k->primary destination, relay k->secondary destination.
    """

    pu_pd: float
    su_sd: float
    pu_relay: np.ndarray
    su_relay: np.ndarray
    relay_pd: np.ndarray
    relay_sd: np.ndarray

    def __post_init__(self):
        for name, v in (("pu_pd", self.pu_pd), ("su_sd", self.su_sd)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        n = np.asarray(self.pu_relay).size
        for name in ("pu_relay", "su_relay", "relay_pd", "relay_sd"):
            object.__setattr__(self, name,
                               _prob_vector(getattr(self, name), n, name))

    @property
    def n_relays(self) -> int:
        return self.pu_relay.size

    def take(self, n: int) -> "OutageTable":
        """Restrict to the first n relays."""
        if n > self.n_relays:
            raise ConfigError(f"cannot take {n} relays from {self.n_relays}")
        return OutageTable(self.pu_pd, self.su_sd,
                           self.pu_relay[:n], self.su_relay[:n],
                           self.relay_pd[:n], self.relay_sd[:n])


@dataclass(frozen=True)
class PhysicalChannels:
    """Per-link fading statistics plus slot timing; the outage matrix is
    derived per strategy because the feedback phase length differs."""

    timing: SlotTiming
    pu_pd: LinkParams
    su_sd: LinkParams
    pu_relay: tuple[LinkParams, ...]
    su_relay: tuple[LinkParams, ...]
    relay_pd: tuple[LinkParams, ...]
    relay_sd: tuple[LinkParams, ...]

    def __post_init__(self):
        n = len(self.pu_relay)
        for name in ("su_relay", "relay_pd", "relay_sd"):
            if len(getattr(self, name)) != n:
                raise ConfigError(f"{name} must list {n} relay links")

    @property
    def n_relays(self) -> int:
        return len(self.pu_relay)

    def take(self, n: int) -> "PhysicalChannels":
        if n > self.n_relays:
            raise ConfigError(f"cannot take {n} relays from {self.n_relays}")
        return PhysicalChannels(self.timing, self.pu_pd, self.su_sd,
                                self.pu_relay[:n], self.su_relay[:n],
                                self.relay_pd[:n], self.relay_sd[:n])

    def outages(self, strategy: StrategyKind) -> OutageTable:
        n = self.n_relays

        def out(link, stage):
            return outage_probability(link, self.timing, stage, strategy, n)

        return OutageTable(
            pu_pd=out(self.pu_pd, SensingStage.PRIMARY),
            su_sd=out(self.su_sd, SensingStage.SECONDARY),
            pu_relay=np.array([out(l, SensingStage.PRIMARY)
                               for l in self.pu_relay]),
            su_relay=np.array([out(l, SensingStage.SECONDARY)
                               for l in self.su_relay]),
            relay_pd=np.array([out(l, SensingStage.RELAY)
                               for l in self.relay_pd]),
            relay_sd=np.array([out(l, SensingStage.RELAY)
                               for l in self.relay_sd]),
        )


@dataclass(frozen=True)
class NetworkConfig:
    """Everything static about the scenario: channels (physical parameters
    or a direct outage matrix), user traffic, and optional sensing-error
    statistics."""

    channels: OutageTable | PhysicalChannels
    traffic: TrafficParams
    sensing: SensingErrorParams | None = None

    def __post_init__(self):
        if self.sensing is not None and \
                self.sensing.n_relays != self.channels.n_relays:
            raise ConfigError("sensing-error vectors must match n_relays")

    @property
    def n_relays(self) -> int:
        return self.channels.n_relays

    def outages(self, strategy: StrategyKind) -> OutageTable:
        """Outage matrix under `strategy`.  A directly specified table is
        strategy-independent (it already prices in the feedback overhead,
        or there is none)."""
        if isinstance(self.channels, OutageTable):
            return self.channels
        return self.channels.outages(strategy)

    def take(self, n: int) -> "NetworkConfig":
        """Scenario restricted to the first n relays."""
        return NetworkConfig(
            self.channels.take(n), self.traffic,
            None if self.sensing is None else self.sensing.take(n))
