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
- ``random_free_cell`` draws a mission cell with ``rng.randrange``, one
  axis at a time, until the cell is free, not the takeoff cell and, when
  altitude-locked, on the takeoff layer; ``gridworld.random_free_cell``
  draws each axis through ``getrandbits`` and must draw the same cells
  and leave the generator in the same state.
- ``epsilon_at`` is one episode's exploration rate, which
  ``EpsilonSchedule.first`` computes for a whole run at once.
- ``decide`` is one step of the dual-table rule (Algorithm 3): both rows,
  the candidate rule, each argmax with ``greedy_action``, the cross-table
  comparison on a disagreement. ``execute_flight`` looks the same decisions
  up from ``arbiter.TieMasks``; the replays hold it to ``decide`` step by
  step, random draws included.
- ``run_flights_by_band`` flies an evaluation band after band, restarting
  the destination stream for each band, and puts every flight's
  ``FlightRecord`` into columns with ``flights_of``. ``harness.run_flights``
  draws each destination once and flies it on every band before drawing
  the next; ``same_flights`` holds its columns equal to these.
  ``flights_of`` also builds columns of hand-made records, for metrics.
- ``greedy_trajectory`` rolls out one table's greedy policy over all six
  actions, through the world's move table, the planner values a flight
  reads (``TieMasks(..., safety=False).planner``) and the tie rule its
  planner bytes are built with (``qcore.tie_masks``); criterion 3
  compares its paths with breadth-first shortest paths.

Where it costs a few lines, a reference computes a rule itself instead of
importing it: ``argmax_ties`` (a list where ``qcore.tie_mask`` gives a
mask), ``candidates`` and ``random_free_cell`` do not call the ``qcore``,
``arbiter`` and ``gridworld`` code they mirror, so a replay compares two
implementations.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from uavnav.arbiter import FlightOutcome, FlightRecord, TieMasks, execute_flight
from uavnav.config import TrainConfig, band_label, stream_rng
from uavnav.gridworld import ACTIONS, Action, Cell, GridWorld, StepEvent
from uavnav.harness import Flights
from uavnav.qcore import TIES, EpsilonSchedule, Hyper, QTable, bootstrap, tie_masks
from uavnav.radio import coverage_map


def q_update(
    table: QTable, s: tuple[int, int], a: Action, r: float, s_next: tuple[int, int], h: Hyper
) -> float:
    """One bootstrapped update of Q(s, a); returns the stored value.

    ``s`` and ``s_next`` are (column, cell) pairs of flat indices, rows of
    ``Q[column, cell, a]``.
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


def random_free_cell(world: GridWorld, rng: random.Random, altitude_locked: bool = False) -> Cell:
    """A uniformly drawn mission cell, by ``randrange`` draws of x, y and z
    over the whole grid until one is. The world must have one."""
    spec, start = world.spec, world.start_cell
    while True:
        c = (rng.randrange(spec.nx), rng.randrange(spec.ny), rng.randrange(spec.nz))
        on_layer = c[2] == start[2] or not altitude_locked
        if c != start and c not in world.obstacles and on_layer:
            return c


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
    at = world.spec.index(s_pos)
    options = candidates(world, at, safety, allowed)
    row_s = q_strategic.q[q_strategic.column(world.spec.index(dest)), at].tolist()
    row_a = q_adaptive.q[0, at].tolist()
    a1 = greedy_action(row_s, options, rng)
    a2 = greedy_action(row_a, options, rng)
    if a1 == a2:
        return a1
    return a2 if row_s[a2] > row_a[a1] else a1


def run_flights_by_band(
    cfg: TrainConfig,
    world: GridWorld,
    strategic: QTable,
    adaptive: dict[float, QTable],
    n_flights: int,
    seed: int,
    safety: bool = True,
) -> Flights:
    """``harness.run_flights`` one band at a time, in sorted band order.

    Each band restarts the ``eval.dest`` stream, so it draws the same
    destinations as every other band, and breaks ties from its own
    ``eval.ties.<band>`` stream.
    """
    masks = TieMasks(world, strategic, safety, cfg.actions)
    cap = cfg.resolved_eval_step_cap()
    records, destinations = {}, set()
    for band in sorted(adaptive):
        cmap = coverage_map(cfg.link_for_band(band), world)
        dest_rng = stream_rng(seed, "eval.dest")
        tie_rng = stream_rng(seed, f"eval.ties.{band_label(band)}")
        dests = [
            cfg.fixed_destination or random_free_cell(world, dest_rng, cfg.altitude_locked)
            for _ in range(n_flights)
        ]
        destinations.add(tuple(dests))
        records[band] = [execute_flight(masks, adaptive[band], cmap, dest, cap, tie_rng)
                         for dest in dests]
    (dests,) = destinations  # every band drew the same destinations
    seconds_per_step = world.spec.cell_size_m / cfg.uav_velocity_ms
    return flights_of(records, [world.spec.index(c) for c in dests], world.cells, seconds_per_step)


def flights_of(
    records: dict[float, Sequence[FlightRecord]],
    destination: Sequence[int],
    cells: Sequence[Cell],
    seconds_per_step: float,
) -> Flights:
    """The columns of each band's records, every band flying to
    ``destination`` (flat indices into ``cells``) in order."""
    bands = sorted(records)
    outcomes = list(FlightOutcome)

    def column(value, dtype):
        rows = [[value(r) for r in records[band]] for band in bands]
        return np.array(rows, dtype=dtype).reshape(len(bands), len(destination))

    return Flights(
        cells=cells,
        bands_mhz=tuple(bands),
        seconds_per_step=seconds_per_step,
        destination=np.array(destination, dtype=np.intp),
        outcome=column(lambda r: outcomes.index(r.outcome), np.uint8),
        steps=column(lambda r: r.steps, np.int64),
        outage_steps=column(lambda r: r.outage_steps, np.int64),
        min_snr_db=column(lambda r: r.min_snr_db, np.float64),
    )


def same_flights(a: Flights, b: Flights) -> bool:
    """Whether two evaluations flew the same flights: equal columns, bands,
    cells and time per step."""
    return (
        (a.cells, a.bands_mhz, a.seconds_per_step) == (b.cells, b.bands_mhz, b.seconds_per_step)
        and all(np.array_equal(getattr(a, name), getattr(b, name))
                for name in ("destination", "outcome", "steps", "outage_steps", "min_snr_db"))
    )


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
    override. Ties are computed from the planner values a flight reads
    (``TieMasks(..., safety=False).planner``), by the rule its planner
    bytes are built with, without the delivery moves those bytes hold.
    """
    moves, cells = world.moves, world.cells
    at, goal = world.spec.index(world.start_cell), world.spec.index(dest)
    values = np.asarray(TieMasks(world, table, safety=False).planner(goal)[1])
    plan = tie_masks(values).tolist()
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
