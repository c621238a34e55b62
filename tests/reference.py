"""Step-by-step references that the code the commands run is held to.

No command calls anything here. Each function restates, one step at a
time, a rule that ``uavnav`` applies in a faster form, and the tests
compare the two:

- ``q_update`` applies ``qcore.bootstrap`` to one entry of a table, the
  update both training loops apply to whole rows or batches; acceptance
  criterion 2 checks that arithmetic through it.
- ``greedy_action`` picks uniformly among a row's maximizers, drawing as
  ``rng.randrange(n)`` does; the training loops and the flights draw their
  picks through ``getrandbits`` and must leave the generator in the same
  state.
- ``epsilon_at`` is one episode's exploration rate, which
  ``EpsilonSchedule.first`` computes for a whole run at once.
- ``decide`` is one step of the dual-table rule (Algorithm 3): both rows,
  the candidate rule, each argmax with ``greedy_action``, the cross-table
  comparison on a disagreement. ``execute_flight`` looks the same decisions
  up from ``arbiter.TieMasks``; the replays hold it to ``decide`` step by
  step, random draws included.
- ``greedy_trajectory`` rolls out one table's greedy policy over all six
  actions, through the world's move table and the planner masks a flight
  reads (``TieMasks(..., safety=False).planner``); criterion 3 compares its
  paths with breadth-first shortest paths.

Where it costs a few lines, a reference computes a rule itself instead of
importing it: ``argmax_ties`` and ``candidates`` do not call the ``qcore``
and ``arbiter`` code they mirror, so a replay compares two implementations.
"""

from __future__ import annotations

import random
from typing import Sequence

from uavnav.arbiter import FlightOutcome, TieMasks
from uavnav.gridworld import ACTIONS, Action, Cell, GridWorld, StepEvent
from uavnav.qcore import TIES, EpsilonSchedule, Hyper, QTable, bootstrap


def q_update(
    table: QTable, s: tuple[int, int], a: Action, r: float, s_next: tuple[int, int], h: Hyper
) -> float:
    """One bootstrapped update of Q(s, a); returns the stored value.

    ``s`` and ``s_next`` are (cell, column) pairs of flat indices.
    """
    q = table.q
    # max_a' Q(s', a') is read before the write: s' may be s
    max_next = float(q[s_next].max())
    row = q[s]
    new = bootstrap(float(row[a]), r, max_next, h.alpha, h.gamma)
    row[a] = new
    return new


def argmax_ties(row: Sequence[float], candidates: Sequence[Action]) -> list[Action]:
    """The candidates with the highest value in ``row``, in candidate order."""
    best = max(row[a] for a in candidates)
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


def epsilon_at(schedule: EpsilonSchedule, episode: int) -> float:
    """The exploration rate of one episode: decayed, floored at epsilon_min."""
    return max(schedule.epsilon_min, schedule.epsilon0 * schedule.decay**episode)


def candidates(
    world: GridWorld, at: int, safety: bool, allowed: Sequence[Action] = ACTIONS
) -> list[Action]:
    """The actions both argmaxes range over at flat index ``at``.

    The safety filter first: the actions whose move does not enter an
    obstacle, or all six when every one does. Then ``allowed``, unless that
    leaves none.
    """
    if not safety:
        return list(allowed)
    crash = StepEvent.CRASHED_INTO_OBSTACLE
    safe = [a for a in ACTIONS if world.moves[at][a][1] is not crash] or list(ACTIONS)
    return [a for a in allowed if a in safe] or list(allowed)


def decide(
    q_strategic: QTable,
    q_adaptive: QTable,
    s_pos: Cell,
    dest: Cell,
    safety: bool,
    world: GridWorld,
    rng: random.Random,
    allowed: tuple[Action, ...] = ACTIONS,
) -> Action:
    """Pick the next action from the two tables' preferences at ``s_pos``.

    Both tables and both cells must be on the world's grid, and the
    coverage table must have one column.
    """
    at = world.index(s_pos)
    options = candidates(world, at, safety, allowed)
    row_s = q_strategic.q[at, q_strategic.column(world.index(dest))].tolist()
    row_a = q_adaptive.q[at, 0].tolist()
    a1 = greedy_action(row_s, options, rng)
    a2 = greedy_action(row_a, options, rng)
    if a1 == a2:
        return a1
    return a2 if row_s[a2] > row_a[a1] else a1


def greedy_trajectory(
    table: QTable,
    world: GridWorld,
    dest: Cell,
    step_cap: int,
    rng: random.Random,
) -> tuple[list[Cell], FlightOutcome]:
    """Roll out a single table's greedy policy from the start cell.

    The trajectory lists distinct positions in visit order (a step blocked
    at the boundary burns a step without adding a cell). All six actions
    are candidates: no safety filter, no coverage table and no delivery
    override. Ties are read from the masks a flight reads.
    """
    moves, cells = world.moves, world.cells
    at, goal = world.index(world.start_cell), world.index(dest)
    plan, _ = TieMasks(world, table, safety=False).planner(goal)
    trajectory = [world.start_cell]
    for _ in range(step_cap):
        ties = TIES[plan[at]]
        a = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
        to, event = moves[at][a]
        if to != at:
            trajectory.append(cells[to])
        at = to
        if event is StepEvent.CRASHED_INTO_OBSTACLE:
            return trajectory, FlightOutcome.CRASHED
        if to == goal and event is StepEvent.MOVED:
            return trajectory, FlightOutcome.ARRIVED
    return trajectory, FlightOutcome.STEP_CAP_HIT
