"""Flight-time fusion of the two trained Q-tables.

At each step both frozen tables nominate their greedy action. If they
agree, that action is flown. If they disagree, each table scores the
*other* table's nominee -- the planner's value for the coverage agent's
pick against the coverage agent's value for the planner's pick -- and the
coverage pick wins only when the planner values it strictly higher.
Obstacle avoidance outranks everything: with the safety filter on, any
action that would enter an obstacle cell is dropped from consideration
whenever at least one non-obstacle action exists, even if that lengthens
the path.

The comparison reads each table's own values, so it mixes two reward
scales, as the underlying rule prescribes: ``agents.RewardParams`` sets
them a decade apart so that it defers to the planner except where coverage
is in question.

A flight looks each decision up instead of recomputing it: the tables
are frozen, so under a fixed candidate rule (the safety filter, from the
world's per-cell safe-action sets, then ``allowed``) every row's argmax ties
are fixed. ``TieMasks`` holds them as 6-bit masks, beside the values a
disagreement compares, filling the planner's one column at a time, the
first time a destination of that column is flown. A step decodes both
masks to their ties in ascending action order and draws a pick only when
two or more actions tie, planner first and coverage agent second. It draws
a pick of one of n as ``rng.randrange(n)`` does, without that call's
Python-level wrapper: ``getrandbits(k)`` for k = n.bit_length(), drawn
again while it is n or more. ``decide`` in ``tests/reference.py`` is the
same rule taken one step at a time, each argmax recomputed from the rows
and picked with ``randrange``; the replay tests hold every flight step to
it, random draws included.

``execute_flight`` takes the ``TieMasks`` of the world, the planner and
the candidate rule it flies under, and returns the ``FlightRecord`` the
evaluation reports: band, destination, outcome and step counts, no
trajectory. A flight steps through the world's move table, by flat cell
index. Each step's SNR is read from the band's ``CoverageMap``, the same
map the coverage agent trained on: training and flight have one SNR
source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .gridworld import ACTIONS, Action, Cell, GridWorld, StepEvent
from .qcore import N_ACTIONS, TIES, QTable
from .radio import CoverageMap


class FlightOutcome(Enum):
    ARRIVED = "arrived"
    CRASHED = "crashed"
    STEP_CAP_HIT = "step_cap_hit"


@dataclass
class FlightRecord:
    """One evaluation flight from the start cell toward ``destination``.

    ``band_mhz`` is the carrier of the coverage map flown. ``outage_steps``
    counts steps that ended below the SNR threshold.
    """

    band_mhz: float
    destination: Cell
    outcome: FlightOutcome
    steps: int
    outage_steps: int
    min_snr_db: float
    flight_time_s: float


def _require_grid(world: GridWorld, *tables: QTable) -> None:
    if any(t.grid != world.spec for t in tables):
        raise ValueError("Q-table grid does not match the world grid")


def _require_coverage(q_adaptive: QTable) -> None:
    if q_adaptive.columns != 1:
        raise ValueError("the coverage table must have one column")


def _require_destination(world: GridWorld, dest: Cell) -> None:
    if not world.spec.in_bounds(dest):
        # its flat index would alias a cell inside the grid
        raise ValueError(f"destination {dest} lies outside the grid")
    if dest == world.start_cell:
        raise ValueError("destination equals the start cell")
    if dest in world.obstacles:
        raise ValueError(f"destination {dest} is an obstacle cell")


def _candidates(
    safe: tuple[Action, ...], safety: bool, allowed: tuple[Action, ...]
) -> tuple[Action, ...]:
    """The actions both argmaxes range over at a cell with these safe actions."""
    if not safety:
        return allowed
    if allowed == ACTIONS:
        return safe
    return tuple(a for a in safe if a in allowed) or allowed


def _tie_masks(values: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Per row of ``values`` (n x 6), the mask of its argmax ties among ``candidates``."""
    # elementwise maxima of the six columns: .max(axis=1) would run one
    # short reduction per row
    best = reduce(np.maximum, np.where(candidates, values, -np.inf).T)
    ties = candidates & (values == best[:, None])
    masks = np.packbits(ties, axis=1, bitorder="little")[:, 0]
    if not masks.all():  # every row has a candidate, so only NaN leaves none
        raise ValueError("a Q-table row holds NaN")
    return masks


class TieMasks:
    """What a flight looks up: argmax ties, as masks with bit ``a`` for
    action ``a``, and the values a disagreement compares.

    Built for one world and one frozen planner table under one candidate
    rule, ``safety`` and ``allowed``; ``allowed`` must list distinct
    actions in ascending order, as ``ACTIONS`` and ``ACTIONS_XY`` do. The
    compared values are the tables' own. The planner's masks are one
    ``bytes`` per column, one byte per cell, shared by all bands; a
    column's masks are computed, and its values read, the first time it is
    flown. A coverage table's masks, one per cell of its
    one column, are decoded, and its rows listed, the first time that table
    is flown. No table may change while its masks are in use. A coverage
    table is checked against the world's grid, and for its one column, the
    first time it is flown.
    """

    def __init__(
        self,
        world: GridWorld,
        q_strategic: QTable,
        safety: bool = True,
        allowed: tuple[Action, ...] = ACTIONS,
    ) -> None:
        _require_grid(world, q_strategic)
        allowed = tuple(allowed)
        if not allowed or list(allowed) != sorted(set(allowed) & set(ACTIONS)):
            raise ValueError(
                f"allowed must list distinct actions in ascending order, got {allowed}"
            )
        self.world = world
        self.q_strategic = q_strategic
        self.safety = safety
        self.allowed = allowed
        n = world.spec.n_cells
        self._candidate_mask = np.zeros((n, N_ACTIONS), dtype=bool)
        for i, safe in enumerate(world.safe_actions):
            self._candidate_mask[i, _candidates(safe, safety, allowed)] = True
        # column -> its masks, one byte per cell, and its values
        self._planner: dict[int, tuple[bytes, np.ndarray]] = {}
        # id of each coverage table flown -> (table, ties, rows)
        self._coverage: dict[int, tuple] = {}

    def planner(self, goal: int) -> tuple[bytes, np.ndarray]:
        """The planner's tie mask per cell and its values (n x 6) toward
        ``goal``, the destination's flat index."""
        col = self.q_strategic.column(goal)
        hit = self._planner.get(col)
        if hit is None:
            q = self.q_strategic.column_values(col)
            masks = _tie_masks(q, self._candidate_mask).tobytes()
            hit = self._planner[col] = (masks, q)
        return hit

    def coverage(self, q_adaptive: QTable) -> tuple[list[tuple[int, ...]], list[list[float]]]:
        """A coverage table's ties per cell, decoded, and its rows as lists."""
        hit = self._coverage.get(id(q_adaptive))
        if hit is None or hit[0] is not q_adaptive:
            _require_grid(self.world, q_adaptive)
            _require_coverage(q_adaptive)
            q = q_adaptive.column_values(0)
            ties = [TIES[m] for m in _tie_masks(q, self._candidate_mask).tolist()]
            hit = (q_adaptive, ties, q.tolist())
            self._coverage[id(q_adaptive)] = hit
        return hit[1:]


def execute_flight(
    masks: TieMasks,
    q_adaptive: QTable,
    cmap: CoverageMap,
    dest: Cell,
    step_cap: int,
    rng: random.Random | None = None,
    velocity_ms: float = 15.0,
) -> FlightRecord:
    """Fly greedily from the start cell until arrival, crash, or the cap.

    The world, the planner and the candidate rule (``safety``,
    ``allowed``) are those ``masks`` were built for; a caller that flies
    many missions builds the masks once and passes them to every flight.
    ``cmap`` is the coverage map of the flight's band over the world's
    grid; every step's SNR is read from it. A crash terminates the flight as a failure
    (evaluation semantics, unlike the pass-through used in training). The
    rng only breaks argmax ties.
    """
    world = masks.world
    _require_destination(world, dest)
    if cmap.spec != world.spec:
        raise ValueError("coverage map grid does not match the world grid")
    if rng is None:
        rng = random.Random(0)
    getrandbits = rng.getrandbits
    snr_by_index = cmap.snr_by_index
    threshold = cmap.snr_threshold_db
    moves = world.moves
    at, goal = world.index(world.start_cell), world.index(dest)
    plan, plan_q = masks.planner(goal)
    cover, cover_q = masks.coverage(q_adaptive)
    # Delivery priority: once the destination is one move away, take that
    # move instead of arbitrating. Evaluation measures successful delivery;
    # without this, a destination inside a weak-coverage zone is
    # unreachable, because the coverage table votes to back away from it
    # indefinitely. enter[i] is the allowed move onto dest from neighbour i.
    enter = {
        i: a
        for i, _ in moves[goal]
        if i != goal
        for a in masks.allowed
        if moves[i][a][0] == goal
    }.get
    min_snr = snr_by_index[at]
    steps = 0
    outage_steps = 0
    outcome = FlightOutcome.STEP_CAP_HIT
    while steps < step_cap:
        a = enter(at)
        if a is None:
            # the planner's ties, then the coverage agent's, each picked as
            # randrange(n) draws (see the module docstring)
            ties = TIES[plan[at]]
            n = len(ties)
            if n == 1:
                a = ties[0]
            else:
                k = n.bit_length()
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                a = ties[i]
            ties = cover[at]
            n = len(ties)
            if n == 1:
                a2 = ties[0]
            else:
                k = n.bit_length()
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                a2 = ties[i]
            if a2 != a and plan_q[at, a2] > cover_q[at][a]:
                a = a2
        at, event = moves[at][a]
        steps += 1
        snr = snr_by_index[at]
        if snr < min_snr:
            min_snr = snr
        if snr < threshold:
            outage_steps += 1
        if event is StepEvent.CRASHED_INTO_OBSTACLE:
            outcome = FlightOutcome.CRASHED
            break
        if at == goal and event is StepEvent.MOVED:
            outcome = FlightOutcome.ARRIVED
            break
    return FlightRecord(
        band_mhz=cmap.f_mhz,
        destination=dest,
        outcome=outcome,
        steps=steps,
        outage_steps=outage_steps,
        min_snr_db=min_snr,
        flight_time_s=steps * (world.spec.cell_size_m / velocity_ms),
    )
