"""Relay selection and secrecy-rate simulation for two-hop multiuser MIMO
wiretap networks."""

from .criteria import (
    CRITERION_NAMES,
    CandidateSet,
    CriterionKind,
    CriterionScore,
    NoViableCandidateError,
    NotSingleAntennaError,
    SingularGramError,
    SingularInterferenceError,
    channel_gain_select,
    combine_metrics,
    enumerate_combinations,
    gamma_rate_bits,
    max_ratio_select,
    prepare_candidates,
    score_candidates,
    secrecy_gamma,
    select,
    sinr_relay_metric,
    sinr_select,
    sinr_user_metric,
    sr_select,
    ssinr_metric,
    ssinr_select,
    ssr_eve_term,
    ssr_select,
)
from .model import (
    ChannelRealization,
    ConfigError,
    EveChannelsUnavailableError,
    Precoder,
    SingularChannelError,
    SystemConfig,
    complex_normal,
    desired_covariance,
    generate_realization,
    interference_covariance,
    relay_precoder,
    relay_rx_signal,
    user_rx_signal,
    zf_precoder,
)
from .montecarlo import SweepResult, SweepSpec, compare_criteria, run_sweep
from .secrecy import SecrecySample, secrecy_rate

__version__ = "0.1.0"
