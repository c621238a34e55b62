"""Tabular Q-learning machinery shared by both agents.

A Q-table maps (state key, action) to a learned value, defaulting to 0.0
for anything never updated. State keys are position cells for the coverage
agent and (position, destination) pairs for the goal-conditioned planner
(plain position when trained against a single fixed destination).

The update is the standard one-step bootstrap

    Q(s,a) <- Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))

and action selection is epsilon-greedy with uniform random tie-breaking
among maximizers, so the symmetric grid picks up no directional bias.
Both rules exist once: ``store_update`` holds the update arithmetic and
``greedy_action`` the argmax with random ties. ``q_update`` and
``select_action`` are built on them, and so are the training loops in
``agents`` and the flight arbiter, which keep their own row lookups.

A checkpoint (format v2, ``save``/``load``) is an uncompressed zip of three
``.npy`` members, readable with ``np.load(path, allow_pickle=False)``:

- ``keys``: int32, one row per stored state, sorted; n x 3 position cells,
  or n x 6 (position, destination) pairs when ``goal_conditioned``
- ``values``: float64, n x 6, the dense action values of each stored state
- ``meta``: a 0-d unicode array holding a JSON object with
  ``format_version``, ``kind``, ``grid``, ``hyper``, ``seed``,
  ``goal_conditioned`` and ``f_mhz``

Every member carries a fixed timestamp, so a table always writes the same
bytes. ``load`` checks the version, dtypes, shapes, key bounds and values,
and raises ``CheckpointError`` on anything it cannot vouch for.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import zipfile
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence, Union

import numpy as np

from .gridworld import ACTIONS, Action, Cell, GridSpec

# Position key (coverage agent / fixed-destination planner) or
# (position, destination) key (goal-conditioned planner).
StateKey = Union[Cell, tuple[Cell, Cell]]

FORMAT_VERSION = 2
_MEMBERS = ("keys", "values", "meta")

N_ACTIONS = len(ACTIONS)
_ZERO_ROW = (0.0,) * N_ACTIONS


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, wrong version, or inconsistent."""


@dataclass(frozen=True)
class Hyper:
    """Learning rate and discount."""

    alpha: float = 0.8
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exponentially decaying exploration rate with a floor."""

    epsilon0: float = 1.0
    epsilon_min: float = 0.05
    decay: float = 0.995

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon0 <= 1.0:
            raise ValueError(f"epsilon0 must be in (0, 1], got {self.epsilon0}")
        if not 0.0 <= self.epsilon_min <= self.epsilon0:
            raise ValueError("epsilon_min must be in [0, epsilon0]")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")

    def at(self, episode: int) -> float:
        """Exploration rate for an episode index (non-increasing)."""
        if episode < 0:
            raise ValueError("episode must be >= 0")
        return max(self.epsilon_min, self.epsilon0 * self.decay**episode)


class QTable:
    """Sparse (state, action) -> value store with identifying metadata.

    Rows of six action values are created lazily; absent entries read as
    exactly 0.0. A table is single-writer during training and treated as
    frozen afterwards.
    """

    def __init__(
        self,
        kind: str,
        grid: GridSpec,
        hyper: Hyper,
        seed: int,
        goal_conditioned: bool = False,
        f_mhz: float | None = None,
    ) -> None:
        if kind not in ("strategic", "adaptive"):
            raise ValueError(f"unknown agent kind {kind!r}")
        self.kind = kind
        self.grid = grid
        self.hyper = hyper
        self.seed = seed
        self.goal_conditioned = goal_conditioned
        self.f_mhz = f_mhz
        self._rows: dict[StateKey, list[float]] = {}

    def get(self, s: StateKey, a: Action) -> float:
        row = self._rows.get(s)
        return row[a] if row is not None else 0.0

    def values(self, s: StateKey) -> tuple[float, ...]:
        """All six action values at a state (zeros when unvisited)."""
        row = self._rows.get(s)
        return tuple(row) if row is not None else _ZERO_ROW

    def max_value(self, s: StateKey) -> float:
        row = self._rows.get(s)
        return max(row) if row is not None else 0.0

    def n_states(self) -> int:
        return len(self._rows)

    def entries(self) -> Iterator[tuple[StateKey, Action, float]]:
        """Non-zero entries, in insertion order."""
        for s, row in self._rows.items():
            for a in ACTIONS:
                if row[a] != 0.0:
                    yield s, a, row[a]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.grid == other.grid
            and self.hyper == other.hyper
            and self.seed == other.seed
            and self.goal_conditioned == other.goal_conditioned
            and self.f_mhz == other.f_mhz
            and dict(self._iter_nonzero()) == dict(other._iter_nonzero())
        )

    def _iter_nonzero(self) -> Iterator[tuple[tuple[StateKey, int], float]]:
        for s, a, v in self.entries():
            yield (s, int(a)), v


def store_update(
    rows: dict[StateKey, list[float]],
    s: StateKey,
    row: list[float] | None,
    a: int,
    r: float,
    max_next: float,
    alpha: float,
    gamma: float,
) -> list[float] | None:
    """Write the bootstrapped Q(s, a) into ``row``, which is ``rows.get(s)``.

    ``max_next`` is max_a' Q(s', a'), read before this write. A missing row
    is created only when the new value is non-zero, so a state whose values
    all stay 0.0 takes no row. Returns the row of ``s`` (None if still
    absent).
    """
    q = row[a] if row is not None else 0.0
    # weighted form of the same update; exact when alpha is 1
    new = (1.0 - alpha) * q + alpha * (r + gamma * max_next)
    if row is None:
        if new == 0.0:
            return None
        row = [0.0] * N_ACTIONS
        rows[s] = row
    row[a] = new
    return row


def q_update(
    table: QTable, s: StateKey, a: Action, r: float, s_next: StateKey, h: Hyper
) -> float:
    """One bootstrapped update of Q(s, a); returns the stored value."""
    if not math.isfinite(r):
        raise ValueError(f"reward must be finite, got {r}")
    rows = table._rows
    next_row = rows.get(s_next)
    max_next = max(next_row) if next_row is not None else 0.0
    row = store_update(rows, s, rows.get(s), a, r, max_next, h.alpha, h.gamma)
    return row[a] if row is not None else 0.0


def greedy_action(
    row: Sequence[float], candidates: Sequence[Action], rng: random.Random
) -> Action:
    """The candidate with the highest value in ``row``, ties broken uniformly.

    ``rng`` is drawn from only when two or more candidates tie.
    """
    best = max([row[a] for a in candidates])
    ties = [a for a in candidates if row[a] == best]
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]


def select_action(
    table: QTable,
    s: StateKey,
    epsilon: float,
    rng: random.Random,
    candidates: Sequence[Action] = ACTIONS,
) -> Action:
    """Epsilon-greedy choice over ``candidates``.

    With probability epsilon the action is uniform over the candidates;
    otherwise the argmax of Q(s, .) restricted to them, ties broken
    uniformly at random.
    """
    if not candidates:
        raise ValueError("candidate action set is empty")
    if epsilon > 0.0 and rng.random() < epsilon:
        return candidates[rng.randrange(len(candidates))]
    row = table._rows.get(s)
    if row is None:
        return candidates[rng.randrange(len(candidates))]
    return greedy_action(row, candidates, rng)


def _key_width(goal_conditioned: bool) -> int:
    return 6 if goal_conditioned else 3


def save(table: QTable, path) -> None:
    """Write a format-v2 checkpoint to exactly ``path``.

    Rows are stored dense and sorted by key, so the same table always gives
    the same bytes, whatever order its rows were inserted in.
    """
    rows = table._rows
    n, width = len(rows), _key_width(table.goal_conditioned)
    flat = chain.from_iterable(rows)
    if table.goal_conditioned:
        flat = chain.from_iterable(flat)
    keys = np.fromiter(flat, dtype=np.int32, count=n * width).reshape(n, width)
    values = np.fromiter(
        chain.from_iterable(rows.values()), dtype=np.float64, count=n * N_ACTIONS
    ).reshape(n, N_ACTIONS)
    # lexsort's primary key is its last one: reverse the columns
    order = np.lexsort(keys.T[::-1])
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": table.kind,
        "grid": dataclasses.asdict(table.grid),
        "hyper": dataclasses.asdict(table.hyper),
        "seed": table.seed,
        "goal_conditioned": table.goal_conditioned,
        "f_mhz": table.f_mhz,
    }
    members = (
        ("keys", keys[order]),
        ("values", values[order]),
        ("meta", np.array(json.dumps(meta, sort_keys=True))),
    )
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name, array in members:
            # a fixed timestamp keeps checkpoints byte-identical across reruns
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as f:
                np.lib.format.write_array(f, array, allow_pickle=False)


def load(path) -> QTable:
    """Read and validate a checkpoint written by ``save``.

    Any unreadable, foreign, newer-version or inconsistent file raises
    ``CheckpointError``.
    """
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise CheckpointError(f"not a Q-table checkpoint: {path}")
        with npz:
            if sorted(npz.files) != sorted(_MEMBERS):
                raise CheckpointError(
                    f"checkpoint {path} holds {sorted(npz.files)}, "
                    f"expected {sorted(_MEMBERS)}"
                )
            keys, values, meta = (npz[name] for name in _MEMBERS)
    except CheckpointError:
        raise
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    table = _table_from_meta(path, meta)

    width = _key_width(table.goal_conditioned)
    if keys.dtype != np.int32 or keys.ndim != 2 or keys.shape[1] != width:
        raise CheckpointError(
            f"checkpoint {path}: keys must be int32 of shape (n, {width}) "
            f"when goal_conditioned is {table.goal_conditioned}, "
            f"got {keys.dtype} {keys.shape}"
        )
    n = keys.shape[0]
    if values.dtype != np.float64 or values.shape != (n, N_ACTIONS):
        raise CheckpointError(
            f"checkpoint {path}: values must be float64 of shape ({n}, {N_ACTIONS}), "
            f"got {values.dtype} {values.shape}"
        )
    g = table.grid
    upper = np.array([g.nx, g.ny, g.nz] * (width // 3))
    if not ((keys >= 0) & (keys < upper)).all():
        raise CheckpointError(f"checkpoint {path}: a state key lies outside the grid")
    if not np.isfinite(values).all():
        raise CheckpointError(f"non-finite value in checkpoint {path}")

    cols = keys.T.tolist()
    cells = zip(*cols[:3])
    states = zip(cells, zip(*cols[3:])) if table.goal_conditioned else cells
    table._rows = dict(zip(states, values.tolist()))
    if len(table._rows) != n:
        raise CheckpointError(f"checkpoint {path}: duplicate state keys")
    return table


def _table_from_meta(path, meta: np.ndarray) -> QTable:
    if meta.dtype.kind != "U" or meta.ndim != 0:
        raise CheckpointError(f"checkpoint {path}: meta must be a 0-d unicode array")
    try:
        doc = json.loads(meta.item())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path}: corrupt meta: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path}: meta must be a JSON object")
    version = doc.get("format_version")
    if not _is_int(version):
        raise CheckpointError(
            f"checkpoint {path}: format_version must be an int, got {version!r}"
        )
    if version > FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, "
            f"newest supported is {FORMAT_VERSION}"
        )
    if version < FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, which is no "
            f"longer read; retrain to write version {FORMAT_VERSION}"
        )
    goal_conditioned = doc.get("goal_conditioned")
    if not isinstance(goal_conditioned, bool):
        raise CheckpointError(f"checkpoint {path}: goal_conditioned must be a bool")
    try:
        grid = GridSpec(**doc["grid"])
        if not all(_is_int(v) for v in (grid.nx, grid.ny, grid.nz)):
            raise TypeError("grid dimensions must be ints")
        seed, f_mhz = doc["seed"], doc["f_mhz"]
        if not _is_int(seed):
            raise TypeError(f"seed must be an int, got {seed!r}")
        if f_mhz is not None and not (type(f_mhz) in (int, float) and 0 < f_mhz < math.inf):
            raise ValueError(f"f_mhz must be a positive number or null, got {f_mhz!r}")
        return QTable(
            kind=doc["kind"],
            grid=grid,
            hyper=Hyper(**doc["hyper"]),
            seed=seed,
            goal_conditioned=goal_conditioned,
            f_mhz=f_mhz,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: malformed meta: {exc}") from exc


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)
