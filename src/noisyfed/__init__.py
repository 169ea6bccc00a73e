"""Federated averaging over noisy uplink and downlink channels.

A simulator and analysis toolkit for studying how much communication noise
federated averaging tolerates: scheduled effective-noise channels, an analog
over-the-air layer with fading and diversity combining, SNR-control policies
(inverse-quadratic noise decay for model upload, constant receive SNR for
differential upload, quadratically growing transmit power, integer diversity
orders), and the statistical oracles that verify the convergence claims on
strongly convex synthetic tasks.
"""

from .analysis import (OracleReport, RateFit, bound_formula,
                       convergence_bound, fit_rate, induction_constant,
                       rate_constant, recursion_envelope)
from .channel import (NoiseSpec, SnrMeasurement, add_effective_noise,
                      analog_downlink_receive, analog_uplink_aggregate,
                      measure_global_snr)
from .engine import (RoundTrace, RunConfig, RunResult, aggregate,
                     downlink_broadcast, family_inputs, local_steps,
                     local_train, run, sample_clients, uplink_transmit)
from .errors import (AggregationError, ChannelError, ConfigError,
                     DivergenceError, NoisyFedError, PolicyError,
                     ScheduleError, StatisticalPowerError, TaskError)
from .policies import (LearningRateSchedule, RoundPolicy, budget_split,
                       build_policy, diversity_orders, downlink_power,
                       equal_power_variance, mdt_downlink_noise,
                       mdt_uplink_variance, mt_full_noise, mt_partial_noise,
                       reference_diversity_schedule, uplink_power)
from .tasks import (QuadraticTask, TaskConstants, derive_constants, load_task,
                    make_task, save_task, stochastic_gradient)
from .vectors import mean_of, squared_distance

__version__ = "0.1.0"
