"""Relay selection and secrecy-rate simulation for two-hop multiuser MIMO
wiretap networks."""

from .criteria import (
    CRITERION_NAMES,
    CandidateSet,
    CriterionKind,
    CriterionScore,
    NotSingleAntennaError,
    prepare_candidates,
    select,
)
from .model import (
    ChannelRealization,
    ConfigError,
    EveChannelsUnavailableError,
    SingularChannelError,
    SystemConfig,
    generate_realization,
)
from .montecarlo import SweepResult, SweepSpec, compare_criteria, run_sweep
from .secrecy import SecrecySample, secrecy_rate

__version__ = "0.1.0"
