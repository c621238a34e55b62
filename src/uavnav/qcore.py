"""Tabular Q-learning machinery shared by both agents.

A Q-table maps (state, action) to a learned value, defaulting to 0.0 for
anything never updated. Every table is one dense float64 array of one
shape, ``QTable.q[cell, column, a]``, indexed by flat cell index. The
goal-conditioned planner has one column per destination, so the
destination is part of its state; the fixed-destination planner and the
coverage agent have one column. A state is a ``(cell, column)`` pair and
``q[s]`` is its row; ``QTable.column`` maps a destination to its column.
At the default 20 x 20 x 5 grid the planner's array takes 192 MB; a table
over 2 GiB (``MAX_TABLE_BYTES``) is refused before it is allocated.

The update is the standard one-step bootstrap

    Q(s,a) <- Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a))

and action selection is epsilon-greedy with uniform random tie-breaking
among maximizers, so the symmetric grid picks up no directional bias.
``bootstrap`` holds the update arithmetic, for Python floats and numpy
arrays alike, ``argmax_ties`` the tie rule and ``greedy_action`` the
argmax with random ties, a uniform pick from ``argmax_ties``.
``q_update`` and ``select_action`` are built on them; so are the coverage
agent's loop, which caches each row's ties, and the flight arbiter, and
the planner's lockstep loop in ``agents`` applies ``bootstrap`` to a whole
batch of episodes at once. ``TIES`` decodes a set of actions held as a
6-bit mask, the form in which the flight arbiter and the planner's
lockstep loop keep tie sets.

A checkpoint (format v5, ``save``/``load``) is an uncompressed zip of three
``.npy`` members, readable with ``np.load(path, allow_pickle=False)``:

- ``occupied``: uint8, ``np.packbits`` of which entries of ``q.reshape(-1)``
  are stored, ceil(entries / 8) bytes with zero padding bits; an entry is
  stored when its bits are not zero, so a ``-0.0`` is kept
- ``values``: float64, 1-D, the stored entries in C order of ``q``
- ``meta``: a 0-d unicode array holding a JSON object with
  ``format_version``, ``kind``, ``grid``, ``hyper``, ``seed``,
  ``columns`` and ``f_mhz``

Every member carries a fixed timestamp, and only a member over
``zipfile.ZIP64_LIMIT`` is written as zip64 (whose headers differ between
Python versions), so a table always writes the same bytes. ``load``
checks the version, dtypes, shapes, padding bits, that the number of set
bits is the number of values, that every value is finite and that none is
``+0.0`` (so a table has one encoding), and raises ``CheckpointError`` on
anything it cannot vouch for; the stored entries are then written straight
to their flat indices in the dense array, every bit of ``q`` as it was saved.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
import zipfile
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .gridworld import ACTIONS, Action, GridSpec, is_int

FORMAT_VERSION = 5
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


def require_table_fits(grid: GridSpec, columns: int) -> None:
    """Raise ValueError when a table's values would exceed ``MAX_TABLE_BYTES``."""
    nbytes = grid.n_cells * columns * N_ACTIONS * 8
    if nbytes > MAX_TABLE_BYTES:
        raise ValueError(
            f"a {grid.nx} x {grid.ny} x {grid.nz} grid ({grid.n_cells:,} cells) needs "
            f"a {nbytes:,}-byte Q-table, over the 2 GiB limit ({MAX_TABLE_BYTES:,} bytes)"
        )


class QTable:
    """Dense (state, action) -> value store with identifying metadata.

    The values live in one float64 array ``q[cell, column, a]``, indexed
    by flat cell index (``GridSpec.index``), with ``columns`` either 1 or
    one per cell of the grid (a column per destination). Every value starts
    at exactly 0.0. ``n_states`` counts the rows that hold a non-zero value
    and ``entries`` lists the non-zero values; a checkpoint stores every
    entry whose bits are not zero, so it keeps a ``-0.0`` as well. A table
    is single-writer during training and treated as frozen afterwards.
    """

    def __init__(
        self,
        kind: str,
        grid: GridSpec,
        hyper: Hyper,
        seed: int,
        columns: int = 1,
        f_mhz: float | None = None,
    ) -> None:
        if kind not in ("strategic", "adaptive"):
            raise ValueError(f"unknown agent kind {kind!r}")
        if not is_int(columns) or columns not in (1, grid.n_cells):
            raise ValueError(f"columns must be 1 or {grid.n_cells}, got {columns!r}")
        require_table_fits(grid, columns)
        self.kind = kind
        self.grid = grid
        self.hyper = hyper
        self.seed = seed
        self.columns = columns
        self.f_mhz = f_mhz
        self.q = np.zeros((grid.n_cells, columns, N_ACTIONS))

    def column(self, dest):
        """The column of a destination's flat index, or of an array of them."""
        return dest if self.columns > 1 else 0

    def n_states(self) -> int:
        return int(np.count_nonzero(self.q.any(axis=-1)))

    def entries(self) -> Iterator[tuple[tuple[int, int], Action, float]]:
        """Non-zero entries, sorted by state."""
        where = np.nonzero(self.q)
        for c, k, a, v in zip(*(i.tolist() for i in where), self.q[where].tolist()):
            yield (c, k), ACTIONS[a], v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QTable):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.grid == other.grid
            and self.hyper == other.hyper
            and self.seed == other.seed
            and self.columns == other.columns
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
    table: QTable, s: tuple[int, int], a: Action, r: float, s_next: tuple[int, int], h: Hyper
) -> float:
    """One bootstrapped update of Q(s, a); returns the stored value.

    ``s`` and ``s_next`` are (cell, column) pairs of flat indices.
    """
    if not math.isfinite(r):
        raise ValueError(f"reward must be finite, got {r}")
    q = table.q
    # max_a' Q(s', a') is read before the write: s' may be s
    max_next = float(q[s_next].max())
    row = q[s]
    new = bootstrap(float(row[a]), r, max_next, h.alpha, h.gamma)
    row[a] = new
    return new


# TIES[m]: the actions whose bit is set in the tie mask m, ascending. A set
# of actions as a mask has bit a for action a.
TIES: tuple[tuple[int, ...], ...] = tuple(
    tuple(a for a in range(N_ACTIONS) if m >> a & 1) for m in range(1 << N_ACTIONS)
)


def argmax_ties(row: Sequence[float], candidates: Sequence[Action]) -> list[Action]:
    """The candidates with the highest value in ``row``, in candidate order."""
    best = max([row[a] for a in candidates])
    return [a for a in candidates if row[a] == best]


def greedy_action(
    row: Sequence[float], candidates: Sequence[Action], rng: random.Random
) -> Action:
    """The candidate with the highest value in ``row``, ties broken uniformly.

    ``rng`` is drawn from only when two or more candidates tie.
    """
    ties = argmax_ties(row, candidates)
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]


def select_action(
    table: QTable,
    s: tuple[int, int],
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
    return greedy_action(table.q[s].tolist(), candidates, rng)


def save(table: QTable, path) -> None:
    """Write a format-v5 checkpoint to exactly ``path``.

    Only stored entries are written, in C order of ``q``, so the same values
    always give the same bytes, whatever order they were written in.
    """
    flat = table.q.reshape(-1)
    stored = flat.view(np.uint64) != 0
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": table.kind,
        "grid": dataclasses.asdict(table.grid),
        "hyper": dataclasses.asdict(table.hyper),
        "seed": table.seed,
        "columns": table.columns,
        "f_mhz": table.f_mhz,
    }
    members = (
        ("occupied", np.packbits(stored)),
        # gathering at indices is faster than with the boolean mask
        ("values", flat[np.flatnonzero(stored)]),
        ("meta", np.array(json.dumps(meta, sort_keys=True))),
    )
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name, array in members:
            # a fixed timestamp keeps checkpoints byte-identical across reruns
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            # Python 3.10 and 3.11+ write different zip64 local headers, so
            # a member is zip64 only when it has to be
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header, np.lib.format.header_data_from_array_1_0(array)
            )
            size = header.tell() + array.nbytes
            with zf.open(info, "w", force_zip64=size > zipfile.ZIP64_LIMIT) as f:
                np.lib.format.write_array(f, array, allow_pickle=False)


def load(path, data: bytes | None = None) -> QTable:
    """Read and validate a checkpoint written by ``save``.

    ``data``, when given, is the file's content, already read; ``path``
    then only names it in errors. Any unreadable, foreign, older- or
    newer-version or inconsistent file raises ``CheckpointError``.
    """
    try:
        npz = np.load(path if data is None else io.BytesIO(data), allow_pickle=False)
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

    flat = table.q.reshape(-1)
    n_bytes = (len(flat) + 7) // 8
    if occupied.dtype != np.uint8 or occupied.shape != (n_bytes,):
        raise CheckpointError(
            f"checkpoint {path}: occupied must be uint8 of shape ({n_bytes},), "
            f"got {occupied.dtype} {occupied.shape}"
        )
    bits = np.unpackbits(occupied).view(bool)
    if bits[len(flat) :].any():
        raise CheckpointError(f"checkpoint {path}: occupied has a set padding bit")
    # numpy finds the true entries of a bool array several times faster than
    # the non-zero ones of a uint8 array
    at = np.flatnonzero(bits[: len(flat)])
    del bits  # not held through the scatter, where evaluation's memory peaks
    if values.dtype != np.float64 or values.shape != at.shape:
        raise CheckpointError(
            f"checkpoint {path}: values must be float64 of shape ({len(at)},), "
            f"one per set bit of occupied, got {values.dtype} {values.shape}"
        )
    if not np.isfinite(values).all():
        raise CheckpointError(f"non-finite value in checkpoint {path}")
    if not values.view(np.uint64).all():
        raise CheckpointError(f"checkpoint {path} stores a +0.0, which save never writes")
    flat[at] = values
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
    if not is_int(version):
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
    try:
        grid = GridSpec(**doc["grid"])
        seed, f_mhz = doc["seed"], doc["f_mhz"]
        if not is_int(seed):
            raise TypeError(f"seed must be an int, got {seed!r}")
        if f_mhz is not None and not (type(f_mhz) in (int, float) and 0 < f_mhz < math.inf):
            raise ValueError(f"f_mhz must be a positive number or null, got {f_mhz!r}")
        return QTable(
            kind=doc["kind"],
            grid=grid,
            hyper=Hyper(**doc["hyper"]),
            seed=seed,
            columns=doc["columns"],
            f_mhz=f_mhz,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: malformed meta: {exc}") from exc
