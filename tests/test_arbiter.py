import math
import random
import re
from collections import Counter

import pytest

import numpy as np

from uavnav.arbiter import FlightOutcome, TieMasks, _tie_masks, execute_flight
from uavnav.config import TrainConfig, stream_rng
from uavnav.gridworld import (
    ACTION_DELTAS,
    ACTIONS,
    ACTIONS_XY,
    Action,
    GridSpec,
    GridWorld,
    StepEvent,
    build,
)
from uavnav.harness import build_world
from uavnav.qcore import N_ACTIONS, Hyper, QTable
from uavnav.radio import CoverageMap, coverage_map

from oracles import alg3_choice
from reference import decide, greedy_action, greedy_trajectory

GRID = GridSpec()
EMPTY_WORLD = build(GRID, 0.0, seed=1, bs_xy=(10, 10, 0))


def table_with_row(kind, pos, values, dest=None, grid=GRID):
    """A table with one set row: pos's, in dest's column when dest is given."""
    t = QTable(kind, grid, Hyper(), 0, columns=1 if dest is None else grid.n_cells)
    t.q[grid.index(pos), 0 if dest is None else grid.index(dest)] = values
    return t


def test_agreement_pass_through():
    pos, dest = (5, 5, 1), (9, 9, 1)
    # both tables prefer PLUS_X
    qs = table_with_row("strategic", pos, [9, 0, 1, 1, 1, 1], dest=dest)
    qa = table_with_row("adaptive", pos, [7, 2, 2, 2, 2, 2])
    a = decide(qs, qa, pos, dest, False, EMPTY_WORLD, random.Random(0))
    assert a == Action.PLUS_X


def test_cross_table_branch():
    pos, dest = (5, 5, 1), (9, 9, 1)
    # strategic prefers PLUS_X, adaptive prefers PLUS_Y
    # Q1 = strategic(PLUS_Y) = 3.0 > Q2 = adaptive(PLUS_X) = 1.0 -> PLUS_Y
    qs = table_with_row("strategic", pos, [9, 0, 3.0, 0, 0, 0], dest=dest)
    qa = table_with_row("adaptive", pos, [1.0, 0, 8, 0, 0, 0])
    a = decide(qs, qa, pos, dest, False, EMPTY_WORLD, random.Random(0))
    assert a == Action.PLUS_Y
    # flip the comparison: Q1 < Q2 -> strategic action stands
    qa2 = table_with_row("adaptive", pos, [5.0, 0, 8, 0, 0, 0])
    a2 = decide(qs, qa2, pos, dest, False, EMPTY_WORLD, random.Random(0))
    assert a2 == Action.PLUS_X


def test_cross_table_tie_goes_to_strategic():
    pos, dest = (5, 5, 1), (9, 9, 1)
    qs = table_with_row("strategic", pos, [9, 0, 2.0, 0, 0, 0], dest=dest)
    qa = table_with_row("adaptive", pos, [2.0, 0, 8, 0, 0, 0])
    a = decide(qs, qa, pos, dest, False, EMPTY_WORLD, random.Random(0))
    assert a == Action.PLUS_X


def test_decide_matches_transcription_oracle_10k():
    rng = random.Random(42)
    pos, dest = (7, 3, 2), (15, 12, 0)
    mismatches = 0
    for _ in range(10_000):
        # distinct uniform values make both argmaxes unique
        sv = [rng.uniform(-50, 50) for _ in ACTIONS]
        av = [rng.uniform(-50, 50) for _ in ACTIONS]
        qs = table_with_row("strategic", pos, sv, dest=dest)
        qa = table_with_row("adaptive", pos, av)
        a1 = ACTIONS[max(range(6), key=lambda i: sv[i])]
        a2 = ACTIONS[max(range(6), key=lambda i: av[i])]
        want = alg3_choice(a1, a2, sv[a2], av[a1])
        got = decide(qs, qa, pos, dest, False, EMPTY_WORLD, rng)
        if got != want:
            mismatches += 1
    assert mismatches == 0


def test_safety_filter_blocks_obstacle_moves():
    rng = random.Random(9)
    checked = 0
    for trial in range(10_000):
        spec = GridSpec(nx=6, ny=6, nz=3)
        world = build(spec, rng.uniform(0.0, 0.4), seed=trial, bs_xy=(3, 3, 0))
        pos = (rng.randrange(6), rng.randrange(6), rng.randrange(3))
        if pos in world.obstacles:
            continue
        free_neighbor = False
        for d in ACTION_DELTAS:
            n = (pos[0] + d[0], pos[1] + d[1], pos[2] + d[2])
            if spec.in_bounds(n) and n not in world.obstacles:
                free_neighbor = True
        if not free_neighbor:
            continue
        dest = (5, 5, 2) if pos != (5, 5, 2) else (0, 5, 2)
        sv = [rng.uniform(-50, 50) for _ in ACTIONS]
        av = [rng.uniform(-50, 50) for _ in ACTIONS]
        qs = table_with_row("strategic", pos, sv, dest=dest, grid=spec)
        qa = table_with_row("adaptive", pos, av, grid=spec)
        a = decide(qs, qa, pos, dest, True, world, rng)
        d = ACTION_DELTAS[a]
        nxt = (pos[0] + d[0], pos[1] + d[1], pos[2] + d[2])
        if spec.in_bounds(nxt):
            assert nxt not in world.obstacles
        checked += 1
    assert checked > 5_000


def test_decide_total_over_random_tables():
    rng = random.Random(1)
    pos, dest = (0, 0, 0), (19, 19, 4)
    for _ in range(500):
        qs = QTable("strategic", GRID, Hyper(), 0, columns=GRID.n_cells)
        qa = QTable("adaptive", GRID, Hyper(), 0)
        a = decide(qs, qa, pos, dest, rng.random() < 0.5, EMPTY_WORLD, rng)
        assert a in ACTIONS


def test_safe_candidates_keeps_boundary_clamps():
    # surrounded by obstacles except the boundary: clamping moves stay legal
    spec = GridSpec(nx=3, ny=3, nz=1)
    world = GridWorld(
        spec=spec,
        obstacles=frozenset({(1, 0, 0), (0, 1, 0)}),
        base_station_cell=(2, 2, 0),
        start_cell=(0, 0, 0),
    )
    cands = world.safe_actions[world.index((0, 0, 0))]
    assert Action.PLUS_X not in cands
    assert Action.PLUS_Y not in cands
    assert Action.MINUS_X in cands  # clamps in place, lands on a free cell
    assert Action.MINUS_Y in cands


def test_execute_flight_dest_adjacent_one_step():
    cfg = TrainConfig(grid=GridSpec(nx=4, ny=4, nz=2), obstacle_density=0.0,
                      episodes_strategic=200, episodes_adaptive=100, seed=2)
    world = build_world(cfg)
    qs = QTable("strategic", cfg.grid, Hyper(), 0, columns=cfg.grid.n_cells)
    qa = QTable("adaptive", cfg.grid, Hyper(), 0)
    res = execute_flight(TieMasks(world, qs), qa, coverage_map(cfg.link, world), (1, 0, 0),
                         step_cap=50, rng=random.Random(0))
    assert res.outcome == FlightOutcome.ARRIVED
    assert res.steps == 1


def test_execute_flight_validation():
    qs = QTable("strategic", GRID, Hyper(), 0, columns=GRID.n_cells)
    qa = QTable("adaptive", GRID, Hyper(), 0)
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        execute_flight(TieMasks(EMPTY_WORLD, qs), qa, coverage_map(cfg.link, EMPTY_WORLD),
                       EMPTY_WORLD.start_cell, 10, random.Random(0))


def test_execute_flight_trained_small_world():
    cfg = TrainConfig(
        grid=GridSpec(nx=6, ny=6, nz=2),
        obstacle_density=0.0,
        episodes_strategic=4000,
        episodes_adaptive=1000,
        seed=7,
        bands_mhz=(900.0,),
    )
    world = build_world(cfg)
    from uavnav.agents import train_adaptive, train_strategic

    qs, _ = train_strategic(world, cfg, stream_rng(7, "s"))
    qa, _ = train_adaptive(world, cfg.link_for_band(900.0), cfg, stream_rng(7, "a"))
    from oracles import bfs_shortest_len

    cmap = coverage_map(cfg.link_for_band(900.0), world)
    masks = TieMasks(world, qs)
    rng = random.Random(0)
    dest_rng = random.Random(5)
    arrived = 0
    optimal = 0
    n = 25
    for _ in range(n):
        dest = (dest_rng.randrange(6), dest_rng.randrange(6), dest_rng.randrange(2))
        if dest == world.start_cell:
            continue
        res = execute_flight(masks, qa, cmap, dest, step_cap=200, rng=rng)
        if res.outcome == FlightOutcome.ARRIVED:
            arrived += 1
            want = bfs_shortest_len(6, 6, 2, frozenset(), world.start_cell, dest)
            if res.steps == want:
                optimal += 1
        assert res.outage_steps <= res.steps
    assert arrived >= 0.9 * (n - 1)


def test_outage_steps_zero_with_low_threshold():
    import dataclasses

    cfg = TrainConfig(grid=GridSpec(nx=4, ny=4, nz=2), obstacle_density=0.0, seed=3)
    world = build_world(cfg)
    lb = dataclasses.replace(cfg.link, snr_threshold_db=-math.inf)
    qs = QTable("strategic", cfg.grid, Hyper(), 0, columns=cfg.grid.n_cells)
    qa = QTable("adaptive", cfg.grid, Hyper(), 0)
    res = execute_flight(TieMasks(world, qs), qa, coverage_map(lb, world), (3, 3, 1),
                         step_cap=30, rng=random.Random(0))
    assert res.outage_steps == 0


def test_greedy_trajectory_on_empty_table_terminates():
    qs = QTable("strategic", GRID, Hyper(), 0, columns=GRID.n_cells)
    traj, outcome = greedy_trajectory(qs, EMPTY_WORLD, (19, 19, 4), 100, random.Random(1))
    assert outcome in (FlightOutcome.ARRIVED, FlightOutcome.STEP_CAP_HIT)
    assert len(traj) <= 101


def test_execute_flight_rejects_map_of_another_grid():
    qs = QTable("strategic", GRID, Hyper(), 0, columns=GRID.n_cells)
    qa = QTable("adaptive", GRID, Hyper(), 0)
    small = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    cmap = coverage_map(TrainConfig().link, small)
    with pytest.raises(ValueError, match="coverage map grid"):
        execute_flight(TieMasks(EMPTY_WORLD, qs), qa, cmap, (3, 3, 1), 10, random.Random(0))


def test_flight_refuses_tables_of_another_grid():
    # a 3 x 3 x 2 table in a 4 x 4 x 2 world: its rows would be read at
    # aliased or missing flat indices
    world = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    small, spec = GridSpec(nx=3, ny=3, nz=2), world.spec
    with pytest.raises(ValueError, match="Q-table grid"):
        TieMasks(world, QTable("strategic", small, Hyper(), 0, columns=small.n_cells))
    masks = TieMasks(world, QTable("strategic", spec, Hyper(), 0, columns=spec.n_cells))
    cmap = coverage_map(TrainConfig().link, world)
    with pytest.raises(ValueError, match="Q-table grid"):
        execute_flight(masks, QTable("adaptive", small, Hyper(), 0), cmap, (3, 3, 1), 10,
                       random.Random(0))


def test_greedy_trajectory_refuses_table_of_another_grid():
    # a 3 x 3 x 2 table in a 4 x 4 x 2 world: (2, 2, 1) used to fly aliased
    # rows and (3, 3, 1) to die with a bare IndexError; the refusal is that
    # of the planner masks a flight reads
    world = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    spec = GridSpec(nx=3, ny=3, nz=2)
    small = QTable("strategic", spec, Hyper(), 0, columns=spec.n_cells)
    for dest in ((2, 2, 1), (3, 3, 1)):
        with pytest.raises(ValueError, match="Q-table grid"):
            greedy_trajectory(small, world, dest, 10, random.Random(0))


# Destinations no mission may fly to. The flat index of an off-grid cell
# would alias a cell inside the grid.
NOT_MISSION_CELLS = {
    "past the grid": (0, 4, 0),
    "before the grid": (-1, 0, 0),
    "the start cell": (0, 0, 0),
    "an obstacle": (1, 1, 0),
}


@pytest.mark.parametrize("case", sorted(NOT_MISSION_CELLS))
def test_execute_flight_refuses_a_destination_that_is_no_mission_cell(case):
    spec = GridSpec(nx=4, ny=4, nz=2)
    world = GridWorld(spec, frozenset({(1, 1, 0)}), (2, 2, 0), (0, 0, 0))
    masks = TieMasks(world, QTable("strategic", spec, Hyper(), 0, columns=spec.n_cells))
    qa = QTable("adaptive", spec, Hyper(), 0)
    cmap = coverage_map(TrainConfig().link, world)
    dest = NOT_MISSION_CELLS[case]
    with pytest.raises(ValueError, match=re.escape(f"destination {dest} is not a mission cell")):
        execute_flight(masks, qa, cmap, dest, 10, random.Random(0))


def test_flight_refuses_a_multi_column_coverage_table():
    world = build(GridSpec(nx=3, ny=3, nz=1), 0.0, seed=1)
    qs = QTable("strategic", world.spec, Hyper(), 0, columns=world.spec.n_cells)
    qa = QTable("adaptive", world.spec, Hyper(), 0, columns=world.spec.n_cells)
    cmap = coverage_map(TrainConfig().link, world)
    with pytest.raises(ValueError, match="the coverage table must have one column"):
        execute_flight(TieMasks(world, qs), qa, cmap, (2, 2, 0), 10, random.Random(0))


def test_execute_flight_refuses_masks_of_another_rule():
    # a flight reads its world, planner and rule from its masks; the masks
    # accept only an ordered set of actions
    world = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    qs = QTable("strategic", world.spec, Hyper(), 0, columns=world.spec.n_cells)
    for allowed in ((), (Action.PLUS_Y, Action.PLUS_X), (0, 0, 1), (0, 6)):
        with pytest.raises(ValueError, match="ascending"):
            TieMasks(world, qs, allowed=allowed)


# Values drawn from a few levels, every fourth row all zero and about one row
# in eight zero but for one -1, so most rows hold ties among the candidates,
# five-way ties included.
_TIE_LEVELS = np.array([-1.0, 0.0, 0.5, 0.5, 2.0])


def _tied_table(kind, spec, rng, per_destination=False):
    t = QTable(kind, spec, Hyper(), 0, columns=spec.n_cells if per_destination else 1)
    t.q[...] = rng.choice(_TIE_LEVELS, size=t.q.shape)
    t.q[rng.random(t.q.shape[:-1]) < 0.25] = 0.0
    five = rng.random(t.q.shape[:-1]) < 0.125
    rows = np.zeros((int(five.sum()), N_ACTIONS))
    rows[np.arange(len(rows)), rng.integers(N_ACTIONS, size=len(rows))] = -1.0
    t.q[five] = rows
    return t


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts the n of every ``randrange(n)`` it serves.

    It overrides neither ``random`` nor ``getrandbits``, so it draws as
    ``random.Random`` does.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.sizes = Counter()

    def randrange(self, n):
        self.sizes[n] += 1
        return super().randrange(n)


def _landings_via_decide(qs, qa, world, dest, step_cap, rng, safety, allowed):
    """Each step of a flight taken with decide: (landing index, rng state, override?).

    Transcribes execute_flight's loop on the one-step reference: the move
    onto an adjacent destination when allowed, else ``decide``.
    """
    moves = world.moves
    at, goal = world.index(world.start_cell), world.index(dest)
    steps = []
    while len(steps) < step_cap:
        pos = world.cells[at]
        delta = (dest[0] - pos[0], dest[1] - pos[1], dest[2] - pos[2])
        override = delta in ACTION_DELTAS and ACTION_DELTAS.index(delta) in allowed
        if override:
            a = ACTION_DELTAS.index(delta)
        else:
            a = decide(qs, qa, pos, dest, safety, world, rng, allowed)
        to, event = moves[at][a]
        steps.append((to, rng.getstate(), override))
        at = to
        if event is StepEvent.CRASHED_INTO_OBSTACLE:
            break
        if to == goal and event is StepEvent.MOVED:
            break
    return steps


@pytest.mark.parametrize("per_destination", [True, False], ids=["goal", "fixed_dest"])
@pytest.mark.parametrize("allowed", [ACTIONS, ACTIONS_XY], ids=["xyz", "xy"])
# "raw": a disagreement compares the tables' own values
@pytest.mark.parametrize("safety", [True, False], ids=["safe-raw", "unsafe-raw"])
def test_flight_replays_decide_step_for_step(safety, allowed, per_destination):
    """Every flight step picks decide's move and leaves the rng where decide does.

    The flight is cut after each step k (``step_cap=k``): its landing cell
    and the tie rng's state must equal those of the k-th step taken with
    ``decide``. The landing is read from the outage count: the flight's
    coverage map is 0 dB everywhere but -1 dB at the reference's k-th
    landing, under a -0.5 dB threshold, so the flight counts as many outage
    steps as the reference's first k landings hold that cell. The first
    k - 1 landings were checked at k - 1, so the count pins landing k. A
    boundary-blocked step is identified by its landing. One set of masks
    serves every flight and both coverage tables.
    """
    rng = np.random.default_rng([safety, 0, len(allowed), per_destination])
    overrides = crashes = steps_checked = 0
    tie_sizes = Counter()  # the n of each tie-break decide drew
    for trial in range(6):
        spec = GridSpec(nx=int(rng.integers(2, 6)), ny=int(rng.integers(2, 6)),
                        nz=int(rng.integers(1, 4)))
        world = build(spec, float(rng.uniform(0.0, 0.3)), seed=trial)
        free = [c for c in world.cells if c != world.start_cell and c not in world.obstacles]
        if not free:
            continue
        qs = _tied_table("strategic", spec, rng, per_destination)
        coverage = [_tied_table("adaptive", spec, rng) for _ in range(2)]
        masks = TieMasks(world, qs, safety, allowed)
        for flight in range(8):
            qa = coverage[flight % 2]
            dest = free[int(rng.integers(len(free)))]
            seed = int(rng.integers(1 << 30))
            ref_rng = _CountingRandom(seed)
            want = _landings_via_decide(qs, qa, world, dest, 25, ref_rng, safety, allowed)
            tie_sizes += ref_rng.sizes
            overrides += sum(o for _, _, o in want)
            landings = [landing for landing, _, _ in want]
            for k, (landing, state, _) in enumerate(want, start=1):
                snr = np.zeros(spec.n_cells)
                snr[landing] = -1.0
                cmap = CoverageMap(spec, 900.0, -0.5, snr.reshape(spec.nx, spec.ny, spec.nz))
                tie_rng = random.Random(seed)
                res = execute_flight(masks, qa, cmap, dest, k, tie_rng)
                assert res.steps == k
                assert res.outage_steps == landings[:k].count(landing)
                assert tie_rng.getstate() == state
                steps_checked += 1
            crashes += res.outcome is FlightOutcome.CRASHED
    assert steps_checked > 300
    assert overrides > 0
    assert crashes > 0 or safety
    # ties of every size from 2 to all allowed actions, so every rejection
    # rate of the flight's getrandbits draws
    assert set(tie_sizes) == set(range(2, len(allowed) + 1))


@pytest.mark.parametrize("per_destination", [True, False], ids=["goal", "fixed_dest"])
def test_greedy_trajectory_replays_greedy_action(per_destination):
    """Each step is greedy_action over all six actions of the planner's row."""
    rng = np.random.default_rng(7 + per_destination)
    for trial in range(10):
        spec = GridSpec(nx=int(rng.integers(2, 6)), ny=int(rng.integers(2, 6)),
                        nz=int(rng.integers(1, 4)))
        world = build(spec, float(rng.uniform(0.0, 0.3)), seed=trial)
        free = [c for c in world.cells if c != world.start_cell and c not in world.obstacles]
        if not free:
            continue
        table = _tied_table("strategic", spec, rng, per_destination)
        for _ in range(5):
            dest = free[int(rng.integers(len(free)))]
            seed = int(rng.integers(1 << 30))
            ref_rng = random.Random(seed)
            col = world.index(dest) if per_destination else 0
            pos, want, outcome = world.start_cell, [world.start_cell], FlightOutcome.STEP_CAP_HIT
            for _ in range(30):
                a = greedy_action(table.q[world.index(pos), col].tolist(), ACTIONS, ref_rng)
                to, event = world.moves[world.index(pos)][a]
                nxt = world.cells[to]
                if nxt != pos:
                    want.append(nxt)
                pos = nxt
                if event is StepEvent.CRASHED_INTO_OBSTACLE:
                    outcome = FlightOutcome.CRASHED
                    break
                if nxt == dest:
                    outcome = FlightOutcome.ARRIVED
                    break
            tie_rng = random.Random(seed)
            assert greedy_trajectory(table, world, dest, 30, tie_rng) == (want, outcome)
            assert tie_rng.getstate() == ref_rng.getstate()


def test_tie_masks_match_a_direct_transcription():
    # rows drawn from few values, so they tie, with -inf and both zeros among them
    rng = np.random.default_rng(3)
    pool = np.array([-math.inf, -2.5, -0.0, 0.0, 1.0, 7.0])
    values = pool[rng.integers(0, len(pool), (500, N_ACTIONS))]
    candidates = rng.random((500, N_ACTIONS)) < 0.6
    candidates[np.arange(500), rng.integers(0, N_ACTIONS, 500)] = True
    want = []
    for row, allowed in zip(values.tolist(), candidates.tolist()):
        best = max(v for v, ok in zip(row, allowed) if ok)
        want.append(sum(1 << a for a in range(N_ACTIONS) if allowed[a] and row[a] == best))
    assert _tie_masks(values, candidates).tolist() == want
    values[7, 2] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        _tie_masks(values, candidates | True)


def test_flight_masks_refuse_nan_rows():
    world = build(GridSpec(nx=3, ny=3, nz=1), 0.0, seed=1)
    qs = QTable("strategic", world.spec, Hyper(), 0, columns=world.spec.n_cells)
    qa = QTable("adaptive", world.spec, Hyper(), 0)
    qa.q[4, 0, 2] = math.nan
    cmap = coverage_map(TrainConfig().link, world)
    with pytest.raises(ValueError, match="NaN"):
        execute_flight(TieMasks(world, qs), qa, cmap, (2, 2, 0), 10, random.Random(0))


# Rows whose span is more than the largest float, flat rows, and rows of
# signed zeros: a disagreement compares each as stored, -0.0 included.
_EXTREME_ROWS = [
    [1e308, -1e308, 0.0, 5e307, -1e308, 1e308],
    [-1e308, 1e308, 1.0, -1.0, 0.0, -0.0],
    [-1e308, -1e308, -1e308, -1e308, -1e308, -1e308],
    [3.5, 3.5, 3.5, 3.5, 3.5, 3.5],
    [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
    [-0.0, 0.0, 1.0, -0.0, 2.0, 0.0],
    [-0.0, -1.0, 0.0, -0.0, -1.0, 0.0],
]


def test_masks_compare_the_tables_own_values():
    world = build(GridSpec(nx=3, ny=3, nz=1), 0.0, seed=1)
    spec = world.spec
    qs = QTable("strategic", spec, Hyper(), 0, columns=spec.n_cells)
    qa = QTable("adaptive", spec, Hyper(), 0)
    rows = np.array(_EXTREME_ROWS)
    goal = spec.n_cells - 1
    qs.q[: len(rows), goal] = rows
    qa.q[: len(rows), 0] = rows[::-1]
    masks = TieMasks(world, qs)
    assert masks.planner(goal)[1].tobytes() == qs.q[:, goal].tobytes()
    assert masks.coverage(qa)[1] == qa.q[:, 0].tolist()
