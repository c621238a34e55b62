"""Experiment configuration and deterministic seed derivation.

A TrainConfig bundles everything one training-plus-evaluation experiment
needs: grid geometry, obstacle density, the frequency bands, the link
budget (every band's agent reads it at its own carrier), learning
hyper-parameters, reward constants, episode counts and the master seed.
Each fact has one source: the band list sets the carriers and the grid
sets the altitude ceiling. Defaults follow the environment table of the
study this reproduces: 1 km^2 region, a 100 m ceiling (5 layers of 20 m),
one base station with a 60 m antenna, alpha 0.8, gamma 0.5, 15 m/s max
velocity, bands 900/1800/2100 MHz.

Config files are JSON with the same nested shape as ``TrainConfig.to_dict``;
omitted keys fall back to defaults, unknown keys are rejected with the
offending key path and, where it can be located, the line in the file. So
is a key an object repeats, whose last value JSON would silently keep.

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
from .gridworld import (
    ACTIONS,
    ACTIONS_XY,
    Action,
    Cell,
    GridSpec,
    default_step_cap,
    is_int,
    require_obstacle_room,
)
from .qcore import MAX_TABLE_BYTES, EpsilonSchedule, Hyper, require_table_fits
from .radio import LinkBudget, require_finite_snr

DEFAULT_BANDS_MHZ = (900.0, 1800.0, 2100.0)
UAV_MAX_VELOCITY_MS = 15.0


# The bytes a training job (the planner's, or one band's coverage agent's)
# holds per episode: the per-episode arrays of its loop, its reward CSV's
# columns as they are written, and their temporaries. Measured with
# tracemalloc, as the growth of a job's peak from 50,000 to 200,000
# episodes on a 4 x 4 x 2 grid: 73.2 for the planner and 73.4 for a
# coverage agent, rounded up.
EPISODE_BYTES = 80


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


def band_label(band_mhz: float) -> str:
    """A band's name in file names and reports."""
    return f"{band_mhz:g}"


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
    fixed_destination: Cell | None = None
    altitude_locked: bool = False
    uav_velocity_ms: float = UAV_MAX_VELOCITY_MS

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (is_int(value) or (value is None and name in _OPTIONAL_FIELDS)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.altitude_locked, bool):
            raise ConfigError(
                f"altitude_locked must be true or false, got {self.altitude_locked!r}"
            )
        # refused before any allocation: the planner's dense Q-table
        try:
            require_table_fits(self.grid, self.planner_columns)
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
        labels = [band_label(b) for b in self.bands_mhz]
        if len(set(labels)) < len(labels):
            raise ConfigError(
                f"bands_mhz {list(self.bands_mhz)} give repeated band labels {labels}; "
                "each band's checkpoint needs its own file name"
            )
        if self.episodes_strategic < 1 or self.episodes_adaptive < 1:
            raise ConfigError("episode counts must be >= 1")
        # refused before any allocation: a training job's per-episode records
        for name in ("episodes_strategic", "episodes_adaptive"):
            episodes = getattr(self, name)
            if episodes * EPISODE_BYTES > MAX_TABLE_BYTES:
                raise ConfigError(
                    f"{name} {episodes:,} needs {episodes * EPISODE_BYTES:,} bytes of "
                    f"per-episode training records ({EPISODE_BYTES} per episode), over "
                    f"the 2 GiB limit ({MAX_TABLE_BYTES:,} bytes)"
                )
        for name in _OPTIONAL_FIELDS:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 when given")
        if not (math.isfinite(self.uav_velocity_ms) and self.uav_velocity_ms > 0):
            raise ConfigError(
                f"uav_velocity_ms must be a positive finite number, got {self.uav_velocity_ms}"
            )
        if not self.grid.in_bounds(self.start_cell):
            raise ConfigError(f"start_cell {self.start_cell} out of bounds")
        if self.bs_cell is not None and not self.grid.in_bounds(self.bs_cell):
            raise ConfigError(f"bs_cell {self.bs_cell} out of bounds")
        try:
            require_obstacle_room(self.grid, self.obstacle_density, self.start_cell, self.bs_cell)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.fixed_destination is not None:
            if not self.grid.in_bounds(self.fixed_destination):
                raise ConfigError(f"fixed_destination {self.fixed_destination} out of bounds")
            if self.fixed_destination == self.start_cell:
                raise ConfigError("fixed_destination equals start_cell")
        self._require_finite_outputs()

    def _require_finite_outputs(self) -> None:
        """Refuse what would make training or evaluation compute inf or NaN."""
        # From all-zero tables, every learned value stays within
        # max |step reward| / (1 - gamma) of zero.
        p, gamma = self.rewards, self.hyper.gamma
        for agent, reward in (
            ("planner", max(-(p.r_farther + p.r_crash), p.r_closer + p.r_arrive)),
            ("coverage agent", max(-p.r_outage, p.r_covered)),
        ):
            if not math.isfinite(reward / (1.0 - gamma)):
                raise ConfigError(
                    f"rewards: the {agent}'s step rewards reach {reward:g}, so with "
                    f"hyper.gamma {gamma:g} its learned values can overflow to infinity"
                )
        bs = self.grid.center_cell if self.bs_cell is None else self.bs_cell
        for band in self.bands_mhz:
            try:
                require_finite_snr(self.link, band, self.grid, bs)
            except ValueError as exc:
                g = self.grid
                raise ConfigError(
                    f"the coverage map of band {band:g} MHz is not finite ({exc}): "
                    f"check link.h_b_m {self.link.h_b_m:g}, grid.cell_size_m "
                    f"{g.cell_size_m:g}, grid.cell_height_m {g.cell_height_m:g} "
                    f"and the link's other terms"
                ) from exc
        cap = self.resolved_eval_step_cap()
        try:
            longest_s = cap * (self.grid.cell_size_m / self.uav_velocity_ms)
        except OverflowError:  # a step cap past the largest float
            longest_s = math.inf
        if not math.isfinite(longest_s):
            raise ConfigError(
                f"a flight of {cap} steps (eval_step_cap) of {self.grid.cell_size_m:g} m "
                f"(grid.cell_size_m) at uav_velocity_ms {self.uav_velocity_ms:g} lasts "
                f"longer than a float can hold"
            )

    @property
    def planner_columns(self) -> int:
        """The planner's table columns: one per destination, or one.

        With a ``fixed_destination`` every episode and flight has that one
        destination, so the planner keys on position alone.
        """
        return self.grid.n_cells if self.fixed_destination is None else 1

    @property
    def actions(self) -> tuple[Action, ...]:
        """The moves a mission may take: horizontal only when altitude_locked."""
        return ACTIONS_XY if self.altitude_locked else ACTIONS

    def resolved_step_cap(self) -> int:
        return self.step_cap if self.step_cap is not None else default_step_cap(self.grid)

    def resolved_eval_step_cap(self) -> int:
        # Flights take safety and coverage detours a training episode never
        # needs; training keeps the tight cap for episode turnover.
        if self.eval_step_cap is not None:
            return self.eval_step_cap
        return 4 * default_step_cap(self.grid)

    def to_dict(self) -> dict[str, Any]:
        # json writes the tuples as lists
        return dataclasses.asdict(self)

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


def _line_of_key(text: str, key_path: str, nth: int = 1) -> int | None:
    """The line of the ``nth`` occurrence of the path's last key, searched
    from its section's key, so a key that another section also holds is
    found in its own."""
    *sections, key = key_path.split(".")
    at = 0
    for section in sections:
        at = max(text.find(f'"{section}"', at), 0)
    for _ in range(nth):
        at = text.find(f'"{key}"', at) + 1
        if not at:
            return None
    return text.count("\n", 0, at) + 1


def _fail(path: str, text: str, key_path: str, message: str) -> None:
    lineno = _line_of_key(text, key_path)
    location = f"{path}:{lineno}" if lineno is not None else path
    raise ConfigError(f"{location}: {key_path}: {message}")


class _Object(dict):
    """A parsed JSON object that remembers the first key it held twice."""

    repeated: str | None = None


def _object(pairs: list[tuple[str, Any]]) -> _Object:
    obj = _Object()
    for key, value in pairs:
        if key in obj and obj.repeated is None:
            obj.repeated = key
        obj[key] = value
    return obj


def _refuse_repeats(path: str, text: str, obj: _Object, prefix: str = "") -> None:
    """Refuse a key repeated in ``obj`` or in a section of it, naming its
    path and, where it can be located, its line."""
    if obj.repeated is not None:
        lineno = _line_of_key(text, prefix + obj.repeated, nth=2)
        location = f"{path}:{lineno}" if lineno is not None else path
        raise ConfigError(
            f"{location}: {prefix}{obj.repeated}: repeated key (JSON keeps only its last value)"
        )
    for key, value in obj.items():
        if isinstance(value, _Object):
            _refuse_repeats(path, text, value, f"{prefix}{key}.")


def _is_number(v: object) -> bool:
    """An int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_fields(path: str, text: str, prefix: str, cls: type, raw: dict[str, Any]) -> None:
    """Refuse a key ``cls`` does not have, a non-number where its default
    is a float and a non-integer where it is an int, naming the key. The
    optional step caps take an integer or null."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, value in raw.items():
        if key not in defaults:
            _fail(path, text, prefix + key, "unknown field")
        default = defaults[key]
        if type(default) is float and not _is_number(value):
            _fail(path, text, prefix + key, f"expected a number, got {value!r}")
        if (type(default) is int or key in _OPTIONAL_FIELDS) and not (
            is_int(value) or (value is None and default is None)
        ):
            _fail(path, text, prefix + key, f"expected an integer, got {value!r}")


def _build_section(path: str, text: str, name: str, raw: Any) -> Any:
    cls = _SECTION_TYPES[name]
    if not isinstance(raw, dict):
        _fail(path, text, name, f"expected an object, got {type(raw).__name__}")
    _check_fields(path, text, f"{name}.", cls, raw)
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        _fail(path, text, name, str(exc))


def _as_cell(path: str, text: str, key: str, raw: Any) -> Cell:
    if (
        not isinstance(raw, list)
        or len(raw) != 3
        or not all(is_int(v) for v in raw)
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
        raw = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _refuse_repeats(path, text, raw)
    return config_from_dict(raw, path=path, text=text)


def config_from_dict(
    raw: dict[str, Any], path: str = "<config>", text: str = ""
) -> TrainConfig:
    _check_fields(path, text, "", TrainConfig, raw)
    kwargs: dict[str, Any] = {}
    for key, value in raw.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(path, text, key, value)
        elif key in _CELL_FIELDS:
            kwargs[key] = None if value is None else _as_cell(path, text, key, value)
        elif key == "bands_mhz":
            if not isinstance(value, list) or not all(_is_number(b) for b in value):
                _fail(path, text, key, "expected a list of frequencies in MHz")
            kwargs[key] = tuple(float(b) for b in value)
        else:
            kwargs[key] = value
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"{path}: {exc}") from exc

