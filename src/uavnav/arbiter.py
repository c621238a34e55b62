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

A flight steps through the world's move table, and the safety filter reads
the world's per-cell safe-action sets (``GridWorld.safe_actions``), both
built once per world. Each step's SNR is read from the band's
``CoverageMap``, the same map the coverage agent trained on: training and
flight have one SNR source. Each step reads the two Q-rows straight from
the tables' dense arrays (``QTable.q``) by flat cell index. Greedy choices
use ``qcore.greedy_action``, the tie-break rule training uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .gridworld import ACTION_DELTAS, ACTIONS, Action, Cell, GridWorld, StepEvent
from .qcore import QTable, StateKey, greedy_action
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


def _entering_action(pos: Cell, dest: Cell) -> Action | None:
    """The unit move from pos onto dest, if the two cells are adjacent."""
    dx = dest[0] - pos[0]
    dy = dest[1] - pos[1]
    dz = dest[2] - pos[2]
    if abs(dx) + abs(dy) + abs(dz) != 1:
        return None
    return _DELTA_TO_ACTION[(dx, dy, dz)]


_DELTA_TO_ACTION = {ACTION_DELTAS[a]: a for a in ACTIONS}


def _normalized(row: tuple[float, ...], a: Action) -> float:
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

    Both tables must be on the world's grid: their rows are read from the
    dense arrays by the world's flat cell index.
    """
    at = world.index(s_pos)
    if safety:
        candidates = world.safe_actions[at]
        if allowed != ACTIONS:
            candidates = tuple(a for a in candidates if a in allowed) or allowed
    else:
        candidates = allowed
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
) -> FlightResult:
    """Fly greedily from the start cell until arrival, crash, or the cap.

    ``cmap`` is the coverage map of the flight's band over this world's
    grid; every step's SNR is read from it. A crash terminates the flight
    as a failure (evaluation semantics, unlike the pass-through used in
    training). The rng only breaks argmax ties.
    """
    spec = world.spec
    if not spec.in_bounds(dest):
        raise ValueError(f"destination {dest} lies outside the grid")
    if dest == world.start_cell:
        raise ValueError("destination equals the start cell")
    if dest in world.obstacles:
        raise ValueError(f"destination {dest} is an obstacle cell")
    if cmap.spec != spec:
        raise ValueError("coverage map grid does not match the world grid")
    if q_strategic.grid != spec or q_adaptive.grid != spec:
        raise ValueError("Q-table grid does not match the world grid")
    if rng is None:
        rng = random.Random(0)
    snr_by_index = cmap.snr_by_index
    threshold = cmap.snr_threshold_db
    moves = world.moves
    pos = world.start_cell
    at, goal = world.index(pos), world.index(dest)
    trajectory = [pos]
    min_snr = snr_by_index[at]
    steps = 0
    outage_steps = 0
    outcome = FlightOutcome.STEP_CAP_HIT
    while steps < step_cap:
        # Delivery priority: once the destination is one move away, take
        # that move instead of arbitrating. Evaluation measures successful
        # delivery; without this, a destination inside a weak-coverage zone
        # is unreachable, because the coverage table votes to back away
        # from it indefinitely.
        a = _entering_action(pos, dest)
        if a is None or a not in allowed:
            a = decide(
                q_strategic, q_adaptive, pos, dest, safety, world, rng, normalize, allowed
            )
        to, nxt, event = moves[at][a]
        steps += 1
        snr = snr_by_index[to]
        if snr < min_snr:
            min_snr = snr
        if snr < threshold:
            outage_steps += 1
        if to != at:
            trajectory.append(nxt)
        pos, at = nxt, to
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
    """Roll out a single table's greedy policy (no safety filter, no fusion)."""
    if not world.spec.in_bounds(dest):
        raise ValueError(f"destination {dest} lies outside the grid")
    if rng is None:
        rng = random.Random(0)
    moves = world.moves
    pos = world.start_cell
    at, goal = world.index(pos), world.index(dest)
    trajectory = [pos]
    steps = 0
    while steps < step_cap:
        s_key: StateKey = (pos, dest) if table.goal_conditioned else pos
        a = greedy_action(table.values(s_key), ACTIONS, rng)
        to, nxt, event = moves[at][a]
        steps += 1
        if to != at:
            trajectory.append(nxt)
        pos, at = nxt, to
        if event is StepEvent.CRASHED_INTO_OBSTACLE:
            return trajectory, FlightOutcome.CRASHED
        if to == goal and event is StepEvent.MOVED:
            return trajectory, FlightOutcome.ARRIVED
    return trajectory, FlightOutcome.STEP_CAP_HIT
