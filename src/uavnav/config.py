"""Experiment configuration and deterministic seed derivation.

A TrainConfig bundles everything one training-plus-evaluation experiment
needs: grid geometry, obstacle density, the frequency bands, the link
budget template (the band list overrides its carrier per agent), learning
hyper-parameters, reward constants, episode counts and the master seed.
Defaults follow the environment table of the study this reproduces: 1 km^2
region, 100 m altitude ceiling, one base station with a 60 m antenna,
alpha 0.8, gamma 0.5, 15 m/s max velocity, bands 900/1800/2100 MHz.

Config files are JSON with the same nested shape as ``TrainConfig.to_dict``;
omitted keys fall back to defaults, unknown keys are rejected with the
offending key path and, where it can be located, the line in the file.

Every random draw in an experiment comes from a named child stream of the
master seed, so e.g. changing the number of evaluation flights never
perturbs the obstacle layout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

from .agents import RewardParams
from .gridworld import Cell, GridSpec, default_step_cap
from .qcore import EpsilonSchedule, Hyper, require_table_fits
from .radio import LinkBudget

DEFAULT_BANDS_MHZ = (900.0, 1800.0, 2100.0)
UAV_MAX_VELOCITY_MS = 15.0


class ConfigError(ValueError):
    """A config file is unreadable or a field is invalid."""


def seed_stream(master_seed: int, name: str) -> int:
    """Derive a child seed for a named consumer of the master seed."""
    digest = hashlib.sha256(f"{master_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream_rng(master_seed: int, name: str) -> random.Random:
    return random.Random(seed_stream(master_seed, name))


_INT_FIELDS = (
    "episodes_strategic",
    "episodes_adaptive",
    "step_cap",
    "eval_step_cap",
    "seed",
)
_OPTIONAL_FIELDS = ("step_cap", "eval_step_cap")
_BOOL_FIELDS = ("goal_conditioned", "altitude_locked", "record_steps")


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class TrainConfig:
    grid: GridSpec = field(default_factory=GridSpec)
    obstacle_density: float = 0.05
    bands_mhz: tuple[float, ...] = DEFAULT_BANDS_MHZ
    link: LinkBudget = field(default_factory=LinkBudget)
    hyper: Hyper = field(default_factory=Hyper)
    schedule: EpsilonSchedule = field(default_factory=EpsilonSchedule)
    # The coverage agent keeps exploring after its values converge: its job
    # is a complete per-cell map, and Q-learning is off-policy, so a high
    # epsilon floor costs nothing in value quality while it fills in every
    # (cell, action) pair the flight arbiter may later read.
    schedule_adaptive: EpsilonSchedule = EpsilonSchedule(1.0, 0.5, 0.995)
    rewards: RewardParams = field(default_factory=RewardParams)
    episodes_strategic: int = 160000
    episodes_adaptive: int = 10000
    step_cap: int | None = None
    eval_step_cap: int | None = None
    seed: int = 0
    start_cell: Cell = (0, 0, 0)
    bs_cell: Cell | None = None
    goal_conditioned: bool = True
    fixed_destination: Cell | None = None
    altitude_locked: bool = False
    distance_metric: str = "euclidean"
    record_steps: bool = False
    uav_velocity_ms: float = UAV_MAX_VELOCITY_MS
    max_altitude_m: float = 100.0

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name in _OPTIONAL_FIELDS)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        # refused before any allocation: the planner's dense Q-table
        try:
            require_table_fits(self.grid, self.goal_conditioned)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 <= self.obstacle_density <= 0.5:
            raise ConfigError(
                f"obstacle_density must be in [0, 0.5], got {self.obstacle_density}"
            )
        if not self.bands_mhz:
            raise ConfigError("bands_mhz must list at least one band")
        if not all(math.isfinite(b) and b > 0 for b in self.bands_mhz):
            raise ConfigError(
                f"bands_mhz entries must be positive finite numbers, got {list(self.bands_mhz)}"
            )
        if self.episodes_strategic < 1 or self.episodes_adaptive < 1:
            raise ConfigError("episode counts must be >= 1")
        for name in _OPTIONAL_FIELDS:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 when given")
        if self.distance_metric not in ("euclidean", "manhattan"):
            raise ConfigError(
                f"distance_metric must be 'euclidean' or 'manhattan', "
                f"got {self.distance_metric!r}"
            )
        if not (math.isfinite(self.uav_velocity_ms) and self.uav_velocity_ms > 0):
            raise ConfigError(
                f"uav_velocity_ms must be a positive finite number, got {self.uav_velocity_ms}"
            )
        if not math.isfinite(self.max_altitude_m):
            raise ConfigError(
                f"max_altitude_m must be a finite number, got {self.max_altitude_m}"
            )
        if not self.grid.in_bounds(self.start_cell):
            raise ConfigError(f"start_cell {self.start_cell} out of bounds")
        if self.bs_cell is not None and not self.grid.in_bounds(self.bs_cell):
            raise ConfigError(f"bs_cell {self.bs_cell} out of bounds")
        if not self.goal_conditioned and self.fixed_destination is None:
            raise ConfigError("goal_conditioned false needs a fixed_destination")
        if self.fixed_destination is not None:
            if not self.grid.in_bounds(self.fixed_destination):
                raise ConfigError(f"fixed_destination {self.fixed_destination} out of bounds")
            if self.fixed_destination == self.start_cell:
                raise ConfigError("fixed_destination equals start_cell")
        if self.grid.max_altitude_m > self.max_altitude_m + 1e-9:
            raise ConfigError(
                f"grid tops out at {self.grid.max_altitude_m} m, above the "
                f"{self.max_altitude_m} m flight ceiling"
            )

    def resolved_bs_cell(self) -> Cell:
        if self.bs_cell is not None:
            return self.bs_cell
        return (self.grid.nx // 2, self.grid.ny // 2, 0)

    def resolved_step_cap(self) -> int:
        return self.step_cap if self.step_cap is not None else default_step_cap(self.grid)

    def resolved_eval_step_cap(self) -> int:
        # Flights take safety and coverage detours a training episode never
        # needs; training keeps the tight cap for episode turnover.
        if self.eval_step_cap is not None:
            return self.eval_step_cap
        return 4 * default_step_cap(self.grid)

    def link_for_band(self, band_mhz: float) -> LinkBudget:
        return dataclasses.replace(self.link, f_mhz=band_mhz)

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["grid"] = dataclasses.asdict(self.grid)
        d["bands_mhz"] = list(self.bands_mhz)
        d["start_cell"] = list(self.start_cell)
        d["bs_cell"] = None if self.bs_cell is None else list(self.bs_cell)
        d["fixed_destination"] = (
            None if self.fixed_destination is None else list(self.fixed_destination)
        )
        return d

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


_SECTION_TYPES = {
    "grid": GridSpec,
    "link": LinkBudget,
    "hyper": Hyper,
    "schedule": EpsilonSchedule,
    "schedule_adaptive": EpsilonSchedule,
    "rewards": RewardParams,
}
_CELL_FIELDS = ("start_cell", "bs_cell", "fixed_destination")


def _line_of_key(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


def _fail(path: str, text: str, key_path: str, message: str) -> None:
    key = key_path.split(".")[-1]
    lineno = _line_of_key(text, key)
    location = f"{path}:{lineno}" if lineno is not None else path
    raise ConfigError(f"{location}: {key_path}: {message}")


def _build_section(path: str, text: str, name: str, raw: Any) -> Any:
    cls = _SECTION_TYPES[name]
    if not isinstance(raw, dict):
        _fail(path, text, name, f"expected an object, got {type(raw).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in known:
            _fail(path, text, f"{name}.{key}", "unknown field")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        _fail(path, text, name, str(exc))


def _as_cell(path: str, text: str, key: str, raw: Any) -> Cell:
    if (
        not isinstance(raw, list)
        or len(raw) != 3
        or not all(_is_int(v) for v in raw)
    ):
        _fail(path, text, key, "expected a [ix, iy, iz] triple of integers")
    return (raw[0], raw[1], raw[2])


def load_config(path: str) -> TrainConfig:
    """Parse a JSON config file, defaulting omitted fields."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(raw, path=path, text=text)


def config_from_dict(
    raw: dict[str, Any], path: str = "<config>", text: str = ""
) -> TrainConfig:
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    kwargs: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in known:
            _fail(path, text, key, "unknown field")
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(path, text, key, value)
        elif key in _CELL_FIELDS:
            kwargs[key] = None if value is None else _as_cell(path, text, key, value)
        elif key == "bands_mhz":
            if not isinstance(value, list) or not all(
                isinstance(b, (int, float)) and not isinstance(b, bool) for b in value
            ):
                _fail(path, text, key, "expected a list of frequencies in MHz")
            kwargs[key] = tuple(float(b) for b in value)
        else:
            kwargs[key] = value
    try:
        return TrainConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

