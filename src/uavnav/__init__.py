"""Dual Q-learning UAV navigation: shortest-path planning fused with
cellular-coverage keeping over a deterministic 3D grid world."""

__version__ = "0.1.0"

from .agents import (
    EpisodeLog,
    EpisodeLogs,
    RewardParams,
    reward_adaptive,
    reward_strategic,
    train_adaptive,
    train_strategic,
)
from .arbiter import FlightOutcome, FlightRecord, TieMasks, execute_flight
from .config import ConfigError, TrainConfig, load_config, seed_stream, stream_rng
from .gridworld import (
    ACTIONS,
    Action,
    Cell,
    GridSpec,
    GridWorld,
    StepEvent,
    build,
    cell_center_m,
    default_step_cap,
    random_free_cell,
)
from .harness import (
    ArtifactError,
    EvalReport,
    Flights,
    TrainingError,
    build_world,
    cmd_coverage,
    cmd_evaluate,
    cmd_train,
    compute_metrics,
    run_flights,
)
from .qcore import CheckpointError, EpsilonSchedule, Hyper, QTable
from .qcore import load as load_qtable
from .qcore import save as save_qtable
from .radio import (
    CoverageMap,
    HataValidityWarning,
    LinkBudget,
    cell_snr_db,
    coverage_map,
    mobile_correction_alpha,
    path_loss_db,
    snr_db,
    warn_outside_validity,
)
