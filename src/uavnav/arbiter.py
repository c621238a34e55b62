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

The raw cross-table comparison mixes two reward scales, exactly as the
underlying rule prescribes; an optional per-state min-max normalization of
each table's six action values is available as a robustness variant and is
flagged in evaluation reports when used.

``decide`` is the one-step reference of that rule: it reads both rows,
applies the candidate rule (the safety filter, from the world's per-cell
safe-action sets, and ``allowed``) and takes each argmax with
``qcore.greedy_action``, the tie-break rule training uses. A flight looks
the same decisions up instead: the tables are frozen, so under a fixed
candidate rule every row's argmax ties are fixed, and ``TieMasks`` holds
them as 6-bit masks, filling the planner's one destination at a time, the
first time that destination is flown. A step decodes both masks to their
ties in ascending action order, the order ``decide`` lists its candidates
in, and calls ``rng.randrange`` only when two or more actions tie, planner
first and coverage agent second, as ``decide`` does. The same random numbers are
drawn in the same order, so a flight is bit-identical to stepping
``decide``; the replay tests hold every step to it.

A flight steps through the world's move table. Each step's SNR is read
from the band's ``CoverageMap``, the same map the coverage agent trained
on: training and flight have one SNR source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gridworld import ACTIONS, Action, Cell, GridWorld, StepEvent
from .qcore import N_ACTIONS, QTable, greedy_action
from .radio import CoverageMap


class FlightOutcome(Enum):
    ARRIVED = "arrived"
    CRASHED = "crashed"
    STEP_CAP_HIT = "step_cap_hit"


@dataclass
class FlightResult:
    """One evaluation flight from the start cell toward ``destination``.

    The trajectory lists distinct positions in visit order (a step blocked
    at the boundary burns a step without adding a cell). ``outage_steps``
    counts steps that ended below the SNR threshold.
    """

    destination: Cell
    trajectory: list[Cell]
    outcome: FlightOutcome
    steps: int
    outage_steps: int
    min_snr_db: float
    flight_time_s: float


# _TIES[m]: the actions whose bit is set in the tie mask m, ascending.
_TIES: tuple[tuple[int, ...], ...] = tuple(
    tuple(a for a in range(N_ACTIONS) if m >> a & 1) for m in range(1 << N_ACTIONS)
)


def _require_grid(world: GridWorld, *tables: QTable) -> None:
    if any(t.grid != world.spec for t in tables):
        raise ValueError("Q-table grid does not match the world grid")


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
    best = np.where(candidates, values, -np.inf).max(axis=1, keepdims=True)
    ties = candidates & (values == best)
    masks = np.packbits(ties, axis=1, bitorder="little")[:, 0]
    if not masks.all():  # every row has a candidate, so only NaN leaves none
        raise ValueError("a Q-table row holds NaN")
    return masks


class TieMasks:
    """The argmax ties a flight looks up, as masks with bit ``a`` for action ``a``.

    Built for one world and one frozen planner table under one candidate
    rule, ``safety`` and ``allowed`` as ``decide`` applies them; ``allowed``
    must list distinct actions in ascending order, as ``ACTIONS`` and
    ``ACTIONS_XY`` do. The planner's masks are one ``uint8`` per (cell,
    destination) in an array ``[dest, cell]`` (one row for a fixed-destination
    planner), shared by all bands; a destination's row is filled the first
    time it is flown. A coverage table's masks, one per cell, are decoded
    the first time that table is flown. No table may change while its masks
    are in use.
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
        rows = n if q_strategic.goal_conditioned else 1
        self._planner = np.zeros((rows, n), dtype=np.uint8)
        self._done = np.zeros(rows, dtype=bool)
        self._coverage: dict[int, tuple[QTable, list[tuple[int, ...]], list[list[float]]]] = {}

    def planner(self, goal: int) -> tuple[list[int], np.ndarray]:
        """The planner's tie mask per cell and its values (n x 6) toward ``goal``.

        ``goal`` is the destination's flat index.
        """
        q = self.q_strategic.q
        if self.q_strategic.goal_conditioned:
            q = q[:, goal]
        else:
            goal = 0
        if not self._done[goal]:
            self._planner[goal] = _tie_masks(q, self._candidate_mask)
            self._done[goal] = True
        return self._planner[goal].tolist(), q

    def coverage(self, q_adaptive: QTable) -> tuple[list[tuple[int, ...]], list[list[float]]]:
        """A coverage table's ties per cell, decoded, and its rows as lists."""
        hit = self._coverage.get(id(q_adaptive))
        if hit is None or hit[0] is not q_adaptive:
            if q_adaptive.goal_conditioned:
                raise ValueError("the coverage table must be keyed by position")
            q = q_adaptive.q
            ties = [_TIES[m] for m in _tie_masks(q, self._candidate_mask).tolist()]
            hit = (q_adaptive, ties, q.tolist())
            self._coverage[id(q_adaptive)] = hit
        return hit[1], hit[2]


def _normalized(row: list[float], a: int) -> float:
    """row[a] min-max rescaled over the state's six action values.

    A flat row carries no preference; it maps to the neutral midpoint 0.5.
    """
    lo, hi = min(row), max(row)
    if hi == lo:
        return 0.5
    return (row[a] - lo) / (hi - lo)


def decide(
    q_strategic: QTable,
    q_adaptive: QTable,
    s_pos: Cell,
    dest: Cell,
    safety: bool,
    world: GridWorld,
    rng: random.Random,
    normalize: bool = False,
    allowed: tuple[Action, ...] = ACTIONS,
) -> Action:
    """Pick the next action from the two tables' preferences at s_pos.

    Both tables and both cells must be on the world's grid (else
    ``ValueError``): rows are read from the dense arrays by flat cell index,
    and the index of an off-grid cell would alias a cell inside the grid.
    """
    _require_grid(world, q_strategic, q_adaptive)
    for c in (s_pos, dest):
        if not world.spec.in_bounds(c):
            raise ValueError(f"cell {c} lies outside the grid")
    at = world.index(s_pos)
    candidates = _candidates(world.safe_actions[at], safety, allowed)
    if q_strategic.goal_conditioned:
        row_s = q_strategic.q[at, world.index(dest)].tolist()
    else:
        row_s = q_strategic.q[at].tolist()
    row_a = q_adaptive.q[at].tolist()
    a1 = greedy_action(row_s, candidates, rng)
    a2 = greedy_action(row_a, candidates, rng)
    if a1 == a2:
        return a1
    if normalize:
        q1 = _normalized(row_s, a2)
        q2 = _normalized(row_a, a1)
    else:
        q1 = row_s[a2]
        q2 = row_a[a1]
    return a2 if q1 > q2 else a1


def execute_flight(
    q_strategic: QTable,
    q_adaptive: QTable,
    world: GridWorld,
    cmap: CoverageMap,
    dest: Cell,
    step_cap: int,
    rng: random.Random | None = None,
    safety: bool = True,
    normalize: bool = False,
    velocity_ms: float = 15.0,
    allowed: tuple[Action, ...] = ACTIONS,
    masks: TieMasks | None = None,
) -> FlightResult:
    """Fly greedily from the start cell until arrival, crash, or the cap.

    ``cmap`` is the coverage map of the flight's band over this world's
    grid; every step's SNR is read from it. A crash terminates the flight
    as a failure (evaluation semantics, unlike the pass-through used in
    training). The rng only breaks argmax ties. ``masks`` are the tie sets
    of ``q_strategic`` under this ``safety`` and ``allowed``; callers that
    fly many missions build them once and pass them to every flight,
    otherwise each flight builds its own.
    """
    spec = world.spec
    _require_destination(world, dest)
    if cmap.spec != spec:
        raise ValueError("coverage map grid does not match the world grid")
    _require_grid(world, q_strategic, q_adaptive)
    if masks is None:
        masks = TieMasks(world, q_strategic, safety, allowed)
    elif not (
        masks.world is world
        and masks.q_strategic is q_strategic
        and (masks.safety, masks.allowed) == (safety, tuple(allowed))
    ):
        raise ValueError("the tie masks were built for another world, planner or rule")
    if rng is None:
        rng = random.Random(0)
    randrange = rng.randrange
    snr_by_index = cmap.snr_by_index
    threshold = cmap.snr_threshold_db
    moves = world.moves
    pos = world.start_cell
    at, goal = world.index(pos), world.index(dest)
    plan, plan_q = masks.planner(goal)
    cover, cover_q = masks.coverage(q_adaptive)
    # Delivery priority: once the destination is one move away, take that
    # move instead of arbitrating. Evaluation measures successful delivery;
    # without this, a destination inside a weak-coverage zone is
    # unreachable, because the coverage table votes to back away from it
    # indefinitely. enter[i] is the allowed move onto dest from neighbour i.
    enter = {
        i: a
        for i, _, _ in moves[goal]
        if i != goal
        for a in masks.allowed
        if moves[i][a][0] == goal
    }.get
    trajectory = [pos]
    min_snr = snr_by_index[at]
    steps = 0
    outage_steps = 0
    outcome = FlightOutcome.STEP_CAP_HIT
    while steps < step_cap:
        a = enter(at)
        if a is None:
            # decide(), draw for draw: the planner's ties, then the coverage agent's
            ties = _TIES[plan[at]]
            a = ties[0] if len(ties) == 1 else ties[randrange(len(ties))]
            ties = cover[at]
            a2 = ties[0] if len(ties) == 1 else ties[randrange(len(ties))]
            if a2 != a:
                if normalize:
                    q1 = _normalized(plan_q[at].tolist(), a2)
                    q2 = _normalized(cover_q[at], a)
                else:
                    q1 = plan_q[at, a2]
                    q2 = cover_q[at][a]
                if q1 > q2:
                    a = a2
        to, nxt, event = moves[at][a]
        steps += 1
        snr = snr_by_index[to]
        if snr < min_snr:
            min_snr = snr
        if snr < threshold:
            outage_steps += 1
        if to != at:
            trajectory.append(nxt)
        at = to
        if event is StepEvent.CRASHED_INTO_OBSTACLE:
            outcome = FlightOutcome.CRASHED
            break
        if to == goal and event is StepEvent.MOVED:
            outcome = FlightOutcome.ARRIVED
            break
    return FlightResult(
        destination=dest,
        trajectory=trajectory,
        outcome=outcome,
        steps=steps,
        outage_steps=outage_steps,
        min_snr_db=min_snr,
        flight_time_s=steps * (spec.cell_size_m / velocity_ms),
    )


def greedy_trajectory(
    table: QTable,
    world: GridWorld,
    dest: Cell,
    step_cap: int,
    rng: random.Random | None = None,
) -> tuple[list[Cell], FlightOutcome]:
    """Roll out a single table's greedy policy.

    All six actions are candidates: no safety filter, no coverage table and
    no delivery override. Ties are read from the same masks a flight uses.
    """
    _require_destination(world, dest)
    _require_grid(world, table)
    if rng is None:
        rng = random.Random(0)
    randrange = rng.randrange
    moves = world.moves
    at, goal = world.index(world.start_cell), world.index(dest)
    plan, _ = TieMasks(world, table, safety=False).planner(goal)
    trajectory = [world.start_cell]
    steps = 0
    while steps < step_cap:
        ties = _TIES[plan[at]]
        a = ties[0] if len(ties) == 1 else ties[randrange(len(ties))]
        to, nxt, event = moves[at][a]
        steps += 1
        if to != at:
            trajectory.append(nxt)
        at = to
        if event is StepEvent.CRASHED_INTO_OBSTACLE:
            return trajectory, FlightOutcome.CRASHED
        if to == goal and event is StepEvent.MOVED:
            return trajectory, FlightOutcome.ARRIVED
    return trajectory, FlightOutcome.STEP_CAP_HIT
