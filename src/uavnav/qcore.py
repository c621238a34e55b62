"""Tabular Q-learning machinery shared by both agents.

A Q-table maps (state key, action) to a learned value, defaulting to 0.0
for anything never updated. State keys are position cells for the coverage
agent and (position, destination) pairs for the goal-conditioned planner
(plain position when trained against a single fixed destination). The
values are one dense float64 array, ``QTable.q``, indexed by flat cell
index: ``q[cell, dest, a]`` for the goal-conditioned planner, ``q[cell, a]``
otherwise. At the default 20 x 20 x 5 grid the planner's array takes
192 MB; a table over 2 GiB (``MAX_TABLE_BYTES``) is refused before it is
allocated.

The update is the standard one-step bootstrap

    Q(s,a) <- Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))

and action selection is epsilon-greedy with uniform random tie-breaking
among maximizers, so the symmetric grid picks up no directional bias.
``bootstrap`` holds the update arithmetic, for Python floats and numpy
arrays alike, and ``greedy_action`` the argmax with random ties.
``q_update`` and ``select_action`` are built on them; so are the coverage
agent's loop and the flight arbiter, and the planner's lockstep loop in
``agents`` applies ``bootstrap`` to a whole batch of episodes at once.

A checkpoint (format v3, ``save``/``load``) is an uncompressed zip of three
``.npy`` members, readable with ``np.load(path, allow_pickle=False)``:

- ``occupied``: uint8, ``np.packbits`` of which rows of ``q.reshape(-1, 6)``
  are stored, ceil(rows / 8) bytes with zero padding bits
- ``values``: float64, n x 6, the stored rows in C order of ``q``
- ``meta``: a 0-d unicode array holding a JSON object with
  ``format_version``, ``kind``, ``grid``, ``hyper``, ``seed``,
  ``goal_conditioned`` and ``f_mhz``

Every member carries a fixed timestamp, so a table always writes the same
bytes. ``load`` checks the version, dtypes, shapes, padding bits, that the
number of set bits is the number of value rows, and that every value is
finite, and raises ``CheckpointError`` on anything it cannot vouch for; the
stored rows are then scattered straight into the dense array.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import zipfile
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .gridworld import ACTIONS, Action, Cell, GridSpec

# Position key (coverage agent / fixed-destination planner) or
# (position, destination) key (goal-conditioned planner).
StateKey = Union[Cell, tuple[Cell, Cell]]

FORMAT_VERSION = 3
_MEMBERS = ("occupied", "values", "meta")

N_ACTIONS = len(ACTIONS)
# The largest dense table a QTable allocates. The goal-conditioned planner's
# table grows with the square of the cell count: 2 GiB is about 6,688 cells.
MAX_TABLE_BYTES = 2 << 30


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


def table_shape(grid: GridSpec, goal_conditioned: bool) -> tuple[int, ...]:
    """Shape of a table's dense values: ``Q[cell, dest, a]`` or ``Q[cell, a]``."""
    n = grid.n_cells
    return (n, n, N_ACTIONS) if goal_conditioned else (n, N_ACTIONS)


def table_bytes(grid: GridSpec, goal_conditioned: bool) -> int:
    """Bytes of a table's dense float64 values."""
    return math.prod(table_shape(grid, goal_conditioned)) * 8


def require_table_fits(grid: GridSpec, goal_conditioned: bool) -> None:
    """Raise ValueError when a table's values would exceed ``MAX_TABLE_BYTES``."""
    nbytes = table_bytes(grid, goal_conditioned)
    if nbytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"a {grid.nx} x {grid.ny} x {grid.nz} grid ({grid.n_cells:,} cells) needs "
            f"a {nbytes:,}-byte Q-table, over the 2 GiB limit ({MAX_TABLE_BYTES:,} bytes)"
        )


class QTable:
    """Dense (state, action) -> value store with identifying metadata.

    The values live in one float64 array ``q``, indexed by flat cell index
    (``GridSpec.index``): ``q[cell, dest, a]`` when goal-conditioned, else
    ``q[cell, a]``. Every value starts at exactly 0.0, and a state is
    *stored* when its row holds a non-zero value; only stored rows are
    counted, listed and saved. A table is single-writer during training and
    treated as frozen afterwards.
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
        require_table_fits(grid, goal_conditioned)
        self.kind = kind
        self.grid = grid
        self.hyper = hyper
        self.seed = seed
        self.goal_conditioned = goal_conditioned
        self.f_mhz = f_mhz
        self.q = np.zeros(table_shape(grid, goal_conditioned))

    def _at(self, s: StateKey) -> int | tuple[int, int]:
        """Index of the row of ``s`` in ``q``."""
        if self.goal_conditioned:
            pos, dest = s
            return self.grid.index(pos), self.grid.index(dest)
        return self.grid.index(s)

    def values(self, s: StateKey) -> tuple[float, ...]:
        """All six action values at a state (zeros when unvisited)."""
        return tuple(self.q[self._at(s)].tolist())

    def set_values(self, s: StateKey, values: Sequence[float]) -> None:
        """Overwrite the six action values at a state."""
        self.q[self._at(s)] = values

    def n_states(self) -> int:
        return int(np.count_nonzero(self.q.any(axis=-1)))

    def rows(self) -> Iterator[tuple[StateKey, tuple[float, ...]]]:
        """Stored states and their six action values, sorted by key.

        C order of ``q`` is key order, so no sort is needed.
        """
        flat = self.q.reshape(-1, N_ACTIONS)
        where = np.flatnonzero(flat.any(axis=1))
        g = self.grid
        dims = (g.nx, g.ny, g.nz) * (2 if self.goal_conditioned else 1)
        keys = np.column_stack(np.unravel_index(where, dims))
        for key, row in zip(keys.tolist(), flat[where].tolist()):
            pos = (key[0], key[1], key[2])
            s = (pos, (key[3], key[4], key[5])) if self.goal_conditioned else pos
            yield s, tuple(row)

    def entries(self) -> Iterator[tuple[StateKey, Action, float]]:
        """Non-zero entries, sorted by state key."""
        for s, row in self.rows():
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
            and np.array_equal(self.q, other.q)
        )


def bootstrap(q, r, max_next, alpha: float, gamma: float):
    """The updated Q(s, a), from its old value ``q`` and max_a' Q(s', a').

    Written once for Python floats and numpy arrays alike, so every loop
    rounds the update the same way.
    """
    # weighted form of the standard update; exact when alpha is 1
    return (1.0 - alpha) * q + alpha * (r + gamma * max_next)


def q_update(
    table: QTable, s: StateKey, a: Action, r: float, s_next: StateKey, h: Hyper
) -> float:
    """One bootstrapped update of Q(s, a); returns the stored value."""
    if not math.isfinite(r):
        raise ValueError(f"reward must be finite, got {r}")
    q = table.q
    # max_a' Q(s', a') is read before the write: s' may be s
    max_next = float(q[table._at(s_next)].max())
    row = q[table._at(s)]
    new = bootstrap(float(row[a]), r, max_next, h.alpha, h.gamma)
    row[a] = new
    return new


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
    return greedy_action(table.values(s), candidates, rng)


def save(table: QTable, path) -> None:
    """Write a format-v3 checkpoint to exactly ``path``.

    Only stored rows are written, in C order of ``q``, so the same values
    always give the same bytes, whatever order they were written in.
    """
    flat = table.q.reshape(-1, N_ACTIONS)
    occupied = flat.any(axis=1)
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
        ("occupied", np.packbits(occupied)),
        ("values", flat[occupied]),
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

    Any unreadable, foreign, older- or newer-version or inconsistent file
    raises ``CheckpointError``.
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
            occupied, values, meta = (npz[name] for name in _MEMBERS)
    except CheckpointError:
        raise
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    table = _table_from_meta(path, meta)

    flat = table.q.reshape(-1, N_ACTIONS)
    n_bytes = (len(flat) + 7) // 8
    if occupied.dtype != np.uint8 or occupied.shape != (n_bytes,):
        raise CheckpointError(
            f"checkpoint {path}: occupied must be uint8 of shape ({n_bytes},), "
            f"got {occupied.dtype} {occupied.shape}"
        )
    bits = np.unpackbits(occupied).view(bool)
    if bits[len(flat) :].any():
        raise CheckpointError(f"checkpoint {path}: occupied has a set padding bit")
    mask = bits[: len(flat)]
    n = int(np.count_nonzero(mask))
    if values.dtype != np.float64 or values.shape != (n, N_ACTIONS):
        raise CheckpointError(
            f"checkpoint {path}: values must be float64 of shape ({n}, {N_ACTIONS}), "
            f"one row per set bit of occupied, got {values.dtype} {values.shape}"
        )
    if not np.isfinite(values).all():
        raise CheckpointError(f"non-finite value in checkpoint {path}")
    flat[mask] = values
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
