import math

import numpy as np
import pytest

from cogrelay.channel import (LinkParams, SensingStage, SlotTiming,
                              StrategyKind, feedback_duration,
                              outage_probability, success_probability,
                              transmission_rate)
from cogrelay.errors import ConfigError, TimingOverflowError

T = 1e-3
BASE = SlotTiming(slot_seconds=T, sensing_seconds=0.0, feedback_seconds=0.0,
                  packet_bits=1000, bandwidth_hz=1e7)


def test_rate_no_overhead():
    assert transmission_rate(BASE, SensingStage.PRIMARY,
                             StrategyKind.ORDERED, 2) == pytest.approx(1e6)


def test_rate_relay_with_sensing():
    timing = SlotTiming(T, 0.1 * T, 0.0, 1000, 1e7)
    r = transmission_rate(timing, SensingStage.RELAY, StrategyKind.ORDERED, 2)
    assert r == pytest.approx(1000 / (0.8 * T))


def test_rate_overflow():
    # feedback alone fills the slot: (N+1) tau_f = T for ordered acceptance
    timing = SlotTiming(T, 0.0, T / 3, 1000, 1e7)
    for stage in SensingStage:
        with pytest.raises(TimingOverflowError):
            transmission_rate(timing, stage, StrategyKind.ORDERED, 2)


def test_feedback_durations():
    tau_f = 0.24 * T
    assert feedback_duration(StrategyKind.ORDERED, 2, tau_f) == pytest.approx(0.72 * T)
    assert feedback_duration(StrategyKind.RANDOM, 2, tau_f) == pytest.approx(0.48 * T)
    assert feedback_duration(StrategyKind.ROUND_ROBIN, 2, tau_f) == pytest.approx(0.48 * T)
    for kind in StrategyKind:
        assert feedback_duration(kind, 3, 0.0) == 0.0
    with pytest.raises(ConfigError):
        feedback_duration(StrategyKind.ORDERED, -1, tau_f)


def test_success_probability_value():
    # PU -> relay 1 link: gamma=3, sigma=0.82, rate 1e6 over 10 MHz
    link = LinkParams(gamma=3.0, sigma=0.82)
    got = success_probability(link, BASE, SensingStage.PRIMARY,
                              StrategyKind.ORDERED, 2)
    assert got == pytest.approx(math.exp(-(2 ** 0.1 - 1) / 2.46), abs=1e-12)


def test_success_outage_complement():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        link = LinkParams(rng.uniform(0.5, 5), rng.uniform(0.2, 2))
        timing = SlotTiming(T, rng.uniform(0, 0.2) * T, rng.uniform(0, 0.1) * T,
                            rng.uniform(100, 5000), rng.uniform(1e6, 1e8))
        stage = SensingStage(rng.integers(0, 3))
        kind = list(StrategyKind)[rng.integers(0, 3)]
        n = int(rng.integers(1, 5))
        s = success_probability(link, timing, stage, kind, n)
        o = outage_probability(link, timing, stage, kind, n)
        assert 0.0 <= s <= 1.0 and 0.0 <= o <= 1.0
        assert s + o == pytest.approx(1.0, abs=1e-15)


def test_success_monotone_in_stage_and_snr():
    link = LinkParams(2.0, 0.8)
    timing = SlotTiming(T, 0.1 * T, 0.01 * T, 1000, 1e7)
    succ = [success_probability(link, timing, stage, StrategyKind.ORDERED, 2)
            for stage in SensingStage]
    assert succ[0] > succ[1] > succ[2]  # later start, less capacity margin
    gains = np.linspace(0.5, 20, 30)
    vals = [success_probability(LinkParams(g, 1.0), BASE,
                                SensingStage.PRIMARY, StrategyKind.ORDERED, 1)
            for g in gains]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert success_probability(LinkParams(1e9, 1e3), BASE,
                               SensingStage.PRIMARY, StrategyKind.ORDERED,
                               1) == pytest.approx(1.0)


def test_ordered_feedback_costs_outage():
    # with tau_f > 0 the ordered strategy's longer feedback phase makes
    # every link worse than under random assignment
    link = LinkParams(2.5, 0.9)
    timing = SlotTiming(T, 0.05 * T, 0.05 * T, 1000, 1e7)
    for stage in SensingStage:
        s_od = success_probability(link, timing, stage, StrategyKind.ORDERED, 3)
        s_rd = success_probability(link, timing, stage, StrategyKind.RANDOM, 3)
        assert s_od <= s_rd


def test_timing_validation():
    with pytest.raises(ConfigError):
        SlotTiming(0.0, 0.0, 0.0, 1000, 1e7)
    with pytest.raises(ConfigError):
        SlotTiming(T, -1e-5, 0.0, 1000, 1e7)
    with pytest.raises(ConfigError):
        LinkParams(0.0, 1.0)


@pytest.mark.parametrize("field", ["slot_seconds", "sensing_seconds",
                                   "feedback_seconds", "packet_bits",
                                   "bandwidth_hz"])
def test_timing_rejects_nan(field):
    kw = dict(slot_seconds=T, sensing_seconds=0.0, feedback_seconds=0.0,
              packet_bits=1000, bandwidth_hz=1e7)
    kw[field] = math.nan
    with pytest.raises(ConfigError):
        SlotTiming(**kw)


@pytest.mark.parametrize("gamma, sigma", [(math.nan, 1.0), (1.0, math.nan)])
def test_link_rejects_nan(gamma, sigma):
    with pytest.raises(ConfigError):
        LinkParams(gamma, sigma)
