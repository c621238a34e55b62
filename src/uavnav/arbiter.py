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
are frozen, so under a fixed candidate rule (``allowed``, less, with the
safety filter on, the moves the world's move table marks as crashes) every
row's argmax ties are fixed. ``TieMasks`` holds them as 6-bit masks, the
planner's built per destination the first time that destination is flown;
at each neighbour of the destination the planner's byte holds the delivery
move onto it instead, as ``_DELIVER + a``. Of the values a disagreement compares, it holds the
planner's for one column, the last one asked for, so a caller that flies a
destination on every band before it draws the next, as
``harness.run_flights`` does, decodes each drawn destination's column once.
A step looks both masks up in ``qcore.PICKS``, their ties in ascending
action order with the count n and n.bit_length() beside them, and draws a pick
only when two or more actions tie, planner first and coverage agent
second. It draws a pick of one of n as ``rng.randrange(n)`` does, without
that call's Python-level wrapper: ``getrandbits(k)`` for
k = n.bit_length(), drawn again while it is n or more. ``decide`` in
``tests/reference.py`` is the same rule taken one step at a time, each
argmax recomputed from the rows and picked with ``randrange``; the replay
tests hold every flight step to it, random draws included.

``execute_flight`` takes the ``TieMasks`` of the world, the planner and
the candidate rule it flies under, and returns a ``FlightRecord`` of what
the flight decided: its outcome, steps, outage steps and minimum SNR, no
trajectory. The caller knows the band and the destination it flew, and
``harness.Flights`` turns steps into flight time. A destination must be
one of the world's mission cells (``GridWorld.mission_cells``), the rule
that decides where a mission may fly. A flight steps through the world's
move table, by flat cell index. Each step's SNR is read from the band's
``CoverageMap``, the same map the coverage agent trained on: training and
flight have one SNR source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gridworld import ACTIONS, Action, Cell, GridWorld, StepEvent
from .qcore import N_ACTIONS, PICKS, QTable, tie_masks
from .radio import CoverageMap


# A planner mask byte of _DELIVER + a at a neighbour of the destination: the
# move a enters the destination.
_DELIVER = 1 << N_ACTIONS


class FlightOutcome(Enum):
    ARRIVED = "arrived"
    CRASHED = "crashed"
    STEP_CAP_HIT = "step_cap_hit"


@dataclass(slots=True)
class FlightRecord:
    """What one evaluation flight decided. ``outage_steps`` counts steps
    that ended below the SNR threshold."""

    outcome: FlightOutcome
    steps: int
    outage_steps: int
    min_snr_db: float


def _require_grid(world: GridWorld, *tables: QTable) -> None:
    if any(t.grid != world.spec for t in tables):
        raise ValueError("Q-table grid does not match the world grid")


def _require_coverage(q_adaptive: QTable) -> None:
    if q_adaptive.columns != 1:
        raise ValueError("the coverage table must have one column")


class TieMasks:
    """What a flight looks up: argmax ties, as masks with bit ``a`` for
    action ``a``, and the values a disagreement compares.

    Built for one world and one frozen planner table under one candidate
    rule: the ``allowed`` actions, less, with ``safety``, those whose move
    enters an obstacle; a cell where none is left keeps ``allowed``. It is
    built once, as a bool mask per cell. ``allowed`` must list distinct
    actions in ascending order, as ``ACTIONS`` and ``ACTIONS_XY`` do. The
    compared values are the tables' own. The planner's masks, one ``bytes``
    of one byte per cell shared by all bands, with the delivery moves in
    the destination's neighbours, are built per destination, the first
    time that destination is flown, and kept. Its values are kept for one
    column only, the one last asked for: a destination of another column
    decodes that column again. A coverage table's picks, one per cell of
    its one column, are decoded, and its rows listed, the first time that
    table is flown. No table may change while its masks are in use. A
    coverage table is checked against the world's grid, and for its one
    column, the first time it is flown.
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
        self.allowed = allowed
        permitted = np.zeros(N_ACTIONS, dtype=bool)
        permitted[list(allowed)] = True
        candidates = np.tile(permitted, (world.spec.n_cells, 1))
        if safety:
            crash = StepEvent.CRASHED_INTO_OBSTACLE
            candidates &= np.array([[e is not crash for _, e in row] for row in world.moves])
            candidates[~candidates.any(axis=1)] = permitted
        self._candidate_mask = candidates
        # the same rule as one tie mask per cell
        self._candidate_bits = np.packbits(candidates, axis=1, bitorder="little")[:, 0]
        # destination -> its masks, one byte per cell
        self._planner: dict[int, bytes] = {}
        # the column whose values were last decoded, and those values
        self._values: tuple[int, memoryview] | None = None
        # id of each coverage table flown -> (table, picks, rows)
        self._coverage: dict[int, tuple] = {}

    def planner(self, goal: int) -> tuple[bytes, memoryview]:
        """Toward ``goal``, the destination's flat index: the planner's byte
        per cell, a tie mask or, at a neighbour of ``goal``, ``_DELIVER + a``
        for the allowed move ``a`` onto it; and its values (n x 6)."""
        col = self.q_strategic.column(goal)
        if self._values is None or self._values[0] != col:
            self._values = (col, memoryview(self.q_strategic.column_values(col)))
        plan = self._planner.get(goal)
        if plan is None:
            masks = self._ties(np.asarray(self._values[1]))
            # a move a onto goal starts where the reverse move a ^ 1 from goal
            # lands, if that is not blocked
            for a in self.allowed:
                i = self.world.moves[goal][a ^ 1][0]
                if i != goal:
                    masks[i] = _DELIVER + a
            plan = self._planner[goal] = masks.tobytes()
        return plan, self._values[1]

    def coverage(
        self, q_adaptive: QTable
    ) -> tuple[list[tuple[tuple[int, ...], int, int]], list[list[float]]]:
        """A coverage table's picks per cell (``qcore.PICKS``) and its rows as lists."""
        hit = self._coverage.get(id(q_adaptive))
        if hit is None or hit[0] is not q_adaptive:
            _require_grid(self.world, q_adaptive)
            _require_coverage(q_adaptive)
            q = q_adaptive.column_values(0)
            picks = [PICKS[m] for m in self._ties(q).tolist()]
            hit = (q_adaptive, picks, q.tolist())
            self._coverage[id(q_adaptive)] = hit
        return hit[1:]

    def _ties(self, values: np.ndarray) -> np.ndarray:
        """Per cell, the uint8 mask of the argmax ties of ``values`` (n x 6)
        among the cell's candidates."""
        # a value that is no candidate counts as -inf, and stays out of the
        # ties of a row whose candidates are all -inf
        masks = tie_masks(np.where(self._candidate_mask, values, -np.inf)) & self._candidate_bits
        if not masks.all():  # every row has a candidate, so only NaN leaves none
            raise ValueError("a Q-table row holds NaN")
        return masks.astype(np.uint8)


def execute_flight(
    masks: TieMasks,
    q_adaptive: QTable,
    cmap: CoverageMap,
    dest: Cell,
    step_cap: int,
    rng: random.Random,
) -> FlightRecord:
    """Fly greedily from the start cell to ``dest``, a mission cell, until
    arrival, crash, or the cap.

    The world, the planner and the candidate rule (``safety``,
    ``allowed``) are those ``masks`` were built for; a caller that flies
    many missions builds the masks once and passes them to every flight.
    ``cmap`` is the coverage map of the flight's band over the world's
    grid; every step's SNR is read from it. A crash terminates the flight as a failure
    (evaluation semantics, unlike the pass-through used in training). The
    rng only breaks argmax ties.
    """
    world = masks.world
    if dest not in world.mission_cells():
        raise ValueError(
            f"destination {dest} is not a mission cell: off the grid, the start cell "
            "or an obstacle"
        )
    if cmap.spec != world.spec:
        raise ValueError("coverage map grid does not match the world grid")
    getrandbits = rng.getrandbits
    snr_by_index = cmap.snr_by_index
    threshold = cmap.snr_threshold_db
    moves = world.moves
    at, goal = world.spec.index(world.start_cell), world.spec.index(dest)
    plan, plan_q = masks.planner(goal)
    cover, cover_q = masks.coverage(q_adaptive)
    # bound once: a local is read faster than an enum member
    crashed, moved = StepEvent.CRASHED_INTO_OBSTACLE, StepEvent.MOVED
    min_snr = snr_by_index[at]
    steps = 0
    outage_steps = 0
    outcome = FlightOutcome.STEP_CAP_HIT
    while steps < step_cap:
        m = plan[at]
        if m >= _DELIVER:
            # Delivery priority: once the destination is one move away, take
            # that move instead of arbitrating. Evaluation measures successful
            # delivery; without this, a destination inside a weak-coverage
            # zone is unreachable, because the coverage table votes to back
            # away from it indefinitely.
            a = m - _DELIVER
        else:
            # the planner's ties, then the coverage agent's, each picked as
            # randrange(n) draws (see the module docstring)
            ties, n, k = PICKS[m]
            if n == 1:
                a = ties[0]
            else:
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                a = ties[i]
            ties, n, k = cover[at]
            if n == 1:
                a2 = ties[0]
            else:
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
        if event is crashed:
            outcome = FlightOutcome.CRASHED
            break
        if at == goal and event is moved:
            outcome = FlightOutcome.ARRIVED
            break
    return FlightRecord(outcome, steps, outage_steps, min_snr)
