"""Deterministic 3D grid environment for UAV navigation training.

The region is an ``nx x ny x nz`` lattice of box cells. A cell is addressed
by integer indices ``(ix, iy, iz)`` and positioned in metres by its center.
Movement is 6-connected (one axis-aligned cell per step, no hover, no
diagonals). Moves off the lattice edge are clamped in place; the world never
produces an out-of-bounds position.

Obstacles occupy whole cells and are placed i.i.d. uniformly at build time,
excluding the start cell and the base-station column. During training an
agent passes *through* obstacle cells (the step is reported as a crash but
the episode continues); evaluation treats a crash as terminal. That split is
handled by the callers -- this module only reports what a step did.

Cells also have a flat index (``GridSpec.index``), ``(ix * ny + iy) * nz +
iz``: the C order of an ``(nx, ny, nz)`` array, so a flattened per-cell
array (such as a coverage map's SNR or a Q-table's rows) is read at the
same index. Each world builds, on first
use and once, a move table (``GridWorld.moves``): for every cell and
action, the flat index of the cell the step lands on and whether it was a
plain move, a crash or blocked at the boundary. The training loops and
the flight arbiter step through that table; ``build`` does not pay for
it. ``GridWorld.cells`` turns a flat index back
into a ``Cell``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import product, repeat

# A cell address. Plain tuples keep hashing and construction cheap in the
# training hot loop.
Cell = tuple[int, int, int]


def is_int(v: object) -> bool:
    """An int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class GridSpec:
    """Lattice dimensions and physical cell size.

    nx, ny, nz: cell counts per axis. cell_size_m is the horizontal edge of
    a cell; cell_height_m the vertical one. Defaults give a 1 km x 1 km
    region capped at 100 m altitude.
    """

    nx: int = 20
    ny: int = 20
    nz: int = 5
    cell_size_m: float = 50.0
    cell_height_m: float = 20.0

    def __post_init__(self) -> None:
        dims = (self.nx, self.ny, self.nz)
        if not all(is_int(v) for v in dims):
            raise ValueError(f"grid dimensions must be integers, got {list(dims)}")
        if self.nx < 1 or self.ny < 1 or self.nz < 1:
            raise ValueError("grid dimensions must be positive")
        if not all(
            math.isfinite(v) and v > 0 for v in (self.cell_size_m, self.cell_height_m)
        ):
            raise ValueError("cell sizes must be positive finite numbers")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def max_altitude_m(self) -> float:
        return self.nz * self.cell_height_m

    @property
    def center_cell(self) -> Cell:
        """The ground cell at the horizontal center: the default base-station column."""
        return (self.nx // 2, self.ny // 2, 0)

    def in_bounds(self, c: Cell) -> bool:
        return 0 <= c[0] < self.nx and 0 <= c[1] < self.ny and 0 <= c[2] < self.nz

    def index(self, c: Cell) -> int:
        """Flat index of an in-bounds cell."""
        return (c[0] * self.ny + c[1]) * self.nz + c[2]


class Action(IntEnum):
    """The six axis-aligned unit moves."""

    PLUS_X = 0
    MINUS_X = 1
    PLUS_Y = 2
    MINUS_Y = 3
    PLUS_Z = 4
    MINUS_Z = 5


# Unit displacement per action, indexed by Action value.
ACTION_DELTAS: tuple[Cell, ...] = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)

ACTIONS: tuple[Action, ...] = tuple(Action)
# Horizontal-only subset used when flight is locked to one altitude layer.
ACTIONS_XY: tuple[Action, ...] = (
    Action.PLUS_X,
    Action.MINUS_X,
    Action.PLUS_Y,
    Action.MINUS_Y,
)


class StepEvent(IntEnum):
    MOVED = 0
    BLOCKED_AT_BOUNDARY = 1
    CRASHED_INTO_OBSTACLE = 2
    ARRIVED_AT_DESTINATION = 3


# One move-table entry: (landing cell's flat index, event). The event is
# MOVED, BLOCKED_AT_BOUNDARY or CRASHED_INTO_OBSTACLE; arrival depends on
# the destination and is checked by whoever steps.
Move = tuple[int, StepEvent]


@dataclass(frozen=True)
class GridWorld:
    """Immutable environment: lattice, obstacle set, start and BS site.

    ``base_station_cell`` fixes the ground-plane (x, y) column of the base
    station; the antenna height lives in the link budget, not here.
    """

    spec: GridSpec
    obstacles: frozenset[Cell]
    base_station_cell: Cell
    start_cell: Cell

    def index(self, c: Cell) -> int:
        """Flat index of an in-bounds cell."""
        return self.spec.index(c)

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        """Every cell, in flat-index order."""
        spec = self.spec
        return tuple(product(range(spec.nx), range(spec.ny), range(spec.nz)))

    def mission_cells(self, altitude_locked: bool = False) -> frozenset[Cell]:
        """The cells a mission may start or end at: free, not the start cell,
        and on the start cell's layer when ``altitude_locked``. Sorted, they
        are in flat-index order."""
        return self._mission_cells[altitude_locked]

    @cached_property
    def _mission_cells(self) -> tuple[frozenset[Cell], frozenset[Cell]]:
        start = self.start_cell
        free = frozenset(self.cells) - self.obstacles - {start}
        return free, frozenset(c for c in free if c[2] == start[2])

    @cached_property
    def moves(self) -> tuple[tuple[Move, ...], ...]:
        """``moves[i][a]``: what action ``a`` does from the cell of flat index ``i``.

        Every cell has an entry, obstacle cells included: training passes
        through them. A move off the lattice stays on the cell and is
        BLOCKED_AT_BOUNDARY; a move onto an obstacle lands there and is
        CRASHED_INTO_OBSTACLE.
        """
        spec = self.spec
        n = spec.n_cells
        arrive = [StepEvent.MOVED] * n
        for c in self.obstacles:
            if spec.in_bounds(c):
                arrive[self.index(c)] = StepEvent.CRASHED_INTO_OBSTACLE
        landing = list(zip(range(n), arrive))
        blocked = list(zip(range(n), repeat(StepEvent.BLOCKED_AT_BOUNDARY)))
        # One column per action, in Action order. Along an axis of the given
        # stride, a cell steps stride indices up (down), unless it sits in
        # the axis's last (first) layer, which repeats every stride * size
        # indices and is blocked.
        columns: list[list[Move]] = []
        for stride, size in ((spec.ny * spec.nz, spec.nx), (spec.nz, spec.ny), (1, spec.nz)):
            block, cut = stride * size, n - stride
            plus = landing[stride:] + blocked[cut:]
            minus = blocked[:stride] + landing[:cut]
            if block < n:  # the boundary layers inside the array, by extended slices
                for k in range(stride):
                    last = block - stride + k
                    plus[last::block] = blocked[last::block]
                    minus[k::block] = blocked[k::block]
            columns += (plus, minus)
        return tuple(zip(*columns))

    @cached_property
    def safe_actions(self) -> tuple[tuple[Action, ...], ...]:
        """Per flat index, the actions that do not land on an obstacle.

        A boundary-blocked move stays on the current cell, so it counts as
        safe. A cell with no safe action gets all of them.
        """
        crash = StepEvent.CRASHED_INTO_OBSTACLE
        by_crashes: dict[tuple[bool, ...], tuple[Action, ...]] = {}
        safe = []
        for m0, m1, m2, m3, m4, m5 in self.moves:
            crashes = (
                m0[1] is crash, m1[1] is crash, m2[1] is crash,
                m3[1] is crash, m4[1] is crash, m5[1] is crash,
            )
            actions = by_crashes.get(crashes)
            if actions is None:
                actions = tuple(a for a in ACTIONS if not crashes[a]) or ACTIONS
                by_crashes[crashes] = actions
            safe.append(actions)
        return tuple(safe)


def require_obstacle_room(
    spec: GridSpec, density: float, start: Cell, bs_xy: Cell | None = None
) -> int:
    """The obstacle count ``build`` places, ``round(density * n_cells)``.

    Obstacles go outside the start cell and the base-station (x, y) column,
    the grid's center column when ``bs_xy`` is None; a count past the cells
    left raises ``ValueError``.
    """
    if bs_xy is None:
        bs_xy = spec.center_cell
    n_obstacles = round(density * spec.n_cells)
    # the column, and the start cell unless it lies in the column
    eligible = spec.n_cells - spec.nz - (start[:2] != bs_xy[:2])
    if n_obstacles > eligible:
        raise ValueError(
            f"grid too small: {n_obstacles} obstacles requested, {eligible} eligible cells"
        )
    return n_obstacles


def build(
    spec: GridSpec,
    density: float,
    seed: int,
    start: Cell = (0, 0, 0),
    bs_xy: Cell | None = None,
) -> GridWorld:
    """Build a world with ``round(density * n_cells)`` uniformly placed obstacles.

    The start cell and every cell of the base-station (x, y) column are kept
    free. The same (spec, density, seed, start, bs_xy) always produces the
    same obstacle set.
    """
    if not 0.0 <= density <= 0.5:
        raise ValueError(f"obstacle density must be in [0, 0.5], got {density}")
    if not spec.in_bounds(start):
        raise ValueError(f"start cell {start} out of bounds")
    if bs_xy is None:
        bs_xy = spec.center_cell
    if not spec.in_bounds(bs_xy):
        raise ValueError(f"base-station cell {bs_xy} out of bounds")

    n_obstacles = require_obstacle_room(spec, density, start, bs_xy)
    eligible = [
        c
        for c in product(range(spec.nx), range(spec.ny), range(spec.nz))
        if c != start and c[:2] != bs_xy[:2]
    ]
    obstacles = frozenset(random.Random(seed).sample(eligible, n_obstacles))
    return GridWorld(spec=spec, obstacles=obstacles, base_station_cell=bs_xy, start_cell=start)


def cell_center_m(spec: GridSpec, c: Cell) -> tuple[float, float, float]:
    """Metric coordinates of a cell center."""
    return (
        (c[0] + 0.5) * spec.cell_size_m,
        (c[1] + 0.5) * spec.cell_size_m,
        (c[2] + 0.5) * spec.cell_height_m,
    )


def require_mission_cells(
    world: GridWorld, altitude_locked: bool, need: int, destination: Cell | None = None
) -> frozenset[Cell]:
    """The world's mission cells; ``ValueError`` if there are fewer than
    ``need`` or ``destination`` is given and not among them.

    A flight draws a destination: one cell. Training with two or more
    episodes also starts every other episode at a drawn cell and then draws
    a different destination: two cells. With fewer, a draw would never end.
    """
    cells = world.mission_cells(altitude_locked)
    layer = world.start_cell[2]
    if len(cells) < need:
        where = f"altitude_locked: takeoff layer z={layer}" if altitude_locked else "grid"
        raise ValueError(
            f"{where} has {len(cells)} free cell(s) besides the start cell; missions need {need}"
        )
    if destination is not None and destination not in cells:
        reason = (
            "an obstacle" if destination in world.obstacles
            else f"off the altitude_locked takeoff layer z={layer}"
        )
        raise ValueError(f"fixed_destination {destination} is {reason}")
    return cells


def random_free_cell(world: GridWorld, rng: random.Random, missions: frozenset[Cell]) -> Cell:
    """A uniformly drawn cell of ``missions``, the set ``require_mission_cells``
    returned: whole-grid (x, y, z) draws until one is in it.

    Each axis of n cells is drawn as ``rng.randrange(n)`` draws it, without
    that call's Python-level wrapper: ``getrandbits(k)`` for
    k = n.bit_length(), drawn again while it is n or more. The same words of
    the same Mersenne Twister are drawn, so the generator ends in the same
    state.
    """
    spec = world.spec
    nx, ny, nz = spec.nx, spec.ny, spec.nz
    kx, ky, kz = nx.bit_length(), ny.bit_length(), nz.bit_length()
    getrandbits = rng.getrandbits
    while True:
        x = getrandbits(kx)
        while x >= nx:
            x = getrandbits(kx)
        y = getrandbits(ky)
        while y >= ny:
            y = getrandbits(ky)
        z = getrandbits(kz)
        while z >= nz:
            z = getrandbits(kz)
        c = (x, y, z)
        if c in missions:
            return c


def default_step_cap(spec: GridSpec) -> int:
    """Training/evaluation safety cap: 4 * (nx + ny + nz) steps."""
    return 4 * (spec.nx + spec.ny + spec.nz)
