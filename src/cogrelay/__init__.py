"""Throughput, delay and QoS analysis of a relay-assisted
primary/secondary network, cross-checked by a slot-level simulator."""

__version__ = "0.1.0"

from .channel import (LinkParams, SensingStage, SlotTiming, StrategyKind,
                      feedback_duration, outage_probability,
                      success_probability, transmission_rate)
from .errors import (CogRelayError, ConfigError, NoFeasibleRelayCount,
                     SpecParseError, TimingOverflowError,
                     UnstableQueueError)
from .network import (NetworkConfig, OutageTable, PhysicalChannels,
                      SensingErrorParams, TrafficParams)
from .orders import OrderDistribution, is_doubly_stochastic
from .qos import (OptResult, QosSpec, maximize_secondary_throughput,
                  minimize_relay_count, secondary_rate_ceiling)
from .rates import (EPS_STAB, Evaluation, RateReport, StrategyParams,
                    apply_sensing_errors, end_to_end_delays, evaluate,
                    max_service_rates, queue_delay, rate_report,
                    relay_service_rates, secondary_rate_cap)
from .sim import (SimEstimate, SlotOutcome, conditional_service,
                  derive_replication_seed, run, run_replicated)

__all__ = [name for name in dir() if not name.startswith("_")]
