import math
import random

import pytest

import numpy as np

from uavnav.arbiter import (
    FlightOutcome,
    TieMasks,
    decide,
    execute_flight,
    greedy_trajectory,
)
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
from uavnav.qcore import Hyper, QTable, greedy_action
from uavnav.radio import coverage_map

from oracles import alg3_choice

GRID = GridSpec()
EMPTY_WORLD = build(GRID, 0.0, seed=1, bs_xy=(10, 10, 0))


def table_with_row(kind, key, values, goal_conditioned=False, grid=GRID):
    t = QTable(kind=kind, grid=grid, hyper=Hyper(), seed=0, goal_conditioned=goal_conditioned)
    t.set_values(key, values)
    return t


def test_agreement_pass_through():
    pos, dest = (5, 5, 1), (9, 9, 1)
    # both tables prefer PLUS_X
    qs = table_with_row("strategic", (pos, dest), [9, 0, 1, 1, 1, 1], goal_conditioned=True)
    qa = table_with_row("adaptive", pos, [7, 2, 2, 2, 2, 2])
    a = decide(qs, qa, pos, dest, False, EMPTY_WORLD, random.Random(0))
    assert a == Action.PLUS_X


def test_cross_table_branch():
    pos, dest = (5, 5, 1), (9, 9, 1)
    # strategic prefers PLUS_X, adaptive prefers PLUS_Y
    # Q1 = strategic(PLUS_Y) = 3.0 > Q2 = adaptive(PLUS_X) = 1.0 -> PLUS_Y
    qs = table_with_row("strategic", (pos, dest), [9, 0, 3.0, 0, 0, 0], goal_conditioned=True)
    qa = table_with_row("adaptive", pos, [1.0, 0, 8, 0, 0, 0])
    a = decide(qs, qa, pos, dest, False, EMPTY_WORLD, random.Random(0))
    assert a == Action.PLUS_Y
    # flip the comparison: Q1 < Q2 -> strategic action stands
    qa2 = table_with_row("adaptive", pos, [5.0, 0, 8, 0, 0, 0])
    a2 = decide(qs, qa2, pos, dest, False, EMPTY_WORLD, random.Random(0))
    assert a2 == Action.PLUS_X


def test_cross_table_tie_goes_to_strategic():
    pos, dest = (5, 5, 1), (9, 9, 1)
    qs = table_with_row("strategic", (pos, dest), [9, 0, 2.0, 0, 0, 0], goal_conditioned=True)
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
        qs = table_with_row("strategic", (pos, dest), sv, goal_conditioned=True)
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
        qs = table_with_row("strategic", (pos, dest), sv, goal_conditioned=True, grid=spec)
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
        qs = QTable("strategic", GRID, Hyper(), 0, goal_conditioned=True)
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
        obstacle_density=0.0,
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
    qs = QTable("strategic", cfg.grid, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", cfg.grid, Hyper(), 0)
    res = execute_flight(qs, qa, world, coverage_map(cfg.link, world), (1, 0, 0), step_cap=50)
    assert res.outcome == FlightOutcome.ARRIVED
    assert res.steps == 1
    assert res.trajectory == [(0, 0, 0), (1, 0, 0)]


def test_execute_flight_validation():
    qs = QTable("strategic", GRID, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", GRID, Hyper(), 0)
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        execute_flight(qs, qa, EMPTY_WORLD, coverage_map(cfg.link, EMPTY_WORLD),
                       EMPTY_WORLD.start_cell, 10)


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
    rng = random.Random(0)
    dest_rng = random.Random(5)
    arrived = 0
    optimal = 0
    n = 25
    for _ in range(n):
        dest = (dest_rng.randrange(6), dest_rng.randrange(6), dest_rng.randrange(2))
        if dest == world.start_cell:
            continue
        res = execute_flight(qs, qa, world, cmap, dest, step_cap=200, rng=rng)
        if res.outcome == FlightOutcome.ARRIVED:
            arrived += 1
            want = bfs_shortest_len(6, 6, 2, frozenset(), world.start_cell, dest)
            if res.steps == want:
                optimal += 1
        assert res.outage_steps <= res.steps
        assert res.trajectory[0] == world.start_cell
        for a, b in zip(res.trajectory, res.trajectory[1:]):
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1
    assert arrived >= 0.9 * (n - 1)


def test_outage_steps_zero_with_low_threshold():
    import dataclasses

    cfg = TrainConfig(grid=GridSpec(nx=4, ny=4, nz=2), obstacle_density=0.0, seed=3)
    world = build_world(cfg)
    lb = dataclasses.replace(cfg.link, snr_threshold_db=-math.inf)
    qs = QTable("strategic", cfg.grid, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", cfg.grid, Hyper(), 0)
    res = execute_flight(qs, qa, world, coverage_map(lb, world), (3, 3, 1), step_cap=30)
    assert res.outage_steps == 0


def test_flight_time_uses_velocity():
    cfg = TrainConfig(grid=GridSpec(nx=4, ny=4, nz=2), obstacle_density=0.0, seed=3)
    world = build_world(cfg)
    qs = QTable("strategic", cfg.grid, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", cfg.grid, Hyper(), 0)
    res = execute_flight(qs, qa, world, coverage_map(cfg.link, world), (1, 0, 0),
                         step_cap=10, velocity_ms=15.0)
    assert res.flight_time_s == res.steps * (50.0 / 15.0)


def test_greedy_trajectory_on_empty_table_terminates():
    qs = QTable("strategic", GRID, Hyper(), 0, goal_conditioned=True)
    traj, outcome = greedy_trajectory(qs, EMPTY_WORLD, (19, 19, 4), 100, random.Random(1))
    assert outcome in (FlightOutcome.ARRIVED, FlightOutcome.STEP_CAP_HIT)
    assert len(traj) <= 101


def test_rollouts_reject_destination_outside_grid():
    # a flat index of an off-grid cell would alias a cell inside the grid
    qs = QTable("strategic", GRID, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", GRID, Hyper(), 0)
    off_grid = (0, GRID.ny, 0)
    with pytest.raises(ValueError, match="outside the grid"):
        greedy_trajectory(qs, EMPTY_WORLD, off_grid, 10)
    cmap = coverage_map(TrainConfig().link, EMPTY_WORLD)
    with pytest.raises(ValueError, match="outside the grid"):
        execute_flight(qs, qa, EMPTY_WORLD, cmap, off_grid, 10)


def test_execute_flight_rejects_map_of_another_grid():
    qs = QTable("strategic", GRID, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", GRID, Hyper(), 0)
    small = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    cmap = coverage_map(TrainConfig().link, small)
    with pytest.raises(ValueError, match="coverage map grid"):
        execute_flight(qs, qa, EMPTY_WORLD, cmap, (3, 3, 1), 10)


def test_greedy_trajectory_refuses_table_of_another_grid():
    # a 3 x 3 x 2 table in a 4 x 4 x 2 world: (2, 2, 1) used to fly aliased
    # rows and (3, 3, 1) to die with a bare IndexError
    world = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    small = QTable("strategic", GridSpec(nx=3, ny=3, nz=2), Hyper(), 0, goal_conditioned=True)
    for dest in ((2, 2, 1), (3, 3, 1)):
        with pytest.raises(ValueError, match="Q-table grid"):
            greedy_trajectory(small, world, dest, 10)


def test_greedy_trajectory_refuses_start_or_obstacle_destination():
    spec = GridSpec(nx=4, ny=4, nz=2)
    world = GridWorld(spec, frozenset({(1, 1, 0)}), (2, 2, 0), (0, 0, 0), 0.0)
    table = QTable("strategic", spec, Hyper(), 0, goal_conditioned=True)
    with pytest.raises(ValueError, match="start cell"):
        greedy_trajectory(table, world, (0, 0, 0), 10)
    with pytest.raises(ValueError, match="obstacle"):
        greedy_trajectory(table, world, (1, 1, 0), 10)


def test_decide_refuses_tables_of_another_grid():
    # used to die with a bare IndexError (index 31, size 18)
    world = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    small, spec = GridSpec(nx=3, ny=3, nz=2), world.spec
    pairs = (
        (QTable("strategic", small, Hyper(), 0, goal_conditioned=True),
         QTable("adaptive", spec, Hyper(), 0)),
        (QTable("strategic", spec, Hyper(), 0, goal_conditioned=True),
         QTable("adaptive", small, Hyper(), 0)),
    )
    for qs, qa in pairs:
        with pytest.raises(ValueError, match="Q-table grid"):
            decide(qs, qa, (3, 3, 1), (1, 0, 0), True, world, random.Random(0))


def test_decide_refuses_cells_outside_the_grid():
    # (0, 4, 0) used to read the row of (1, 0, 0); (3, 3, 2) to die with a bare IndexError
    world = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    qs = QTable("strategic", world.spec, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", world.spec, Hyper(), 0)
    for pos, dest in (((0, 0, 0), (0, 4, 0)), ((3, 3, 2), (1, 1, 1)), ((0, 4, 1), (1, 1, 1))):
        with pytest.raises(ValueError, match="outside the grid"):
            decide(qs, qa, pos, dest, False, world, random.Random(0))


def test_execute_flight_refuses_masks_of_another_rule():
    world = build(GridSpec(nx=4, ny=4, nz=2), 0.0, seed=1)
    qs = QTable("strategic", world.spec, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", world.spec, Hyper(), 0)
    cmap = coverage_map(TrainConfig().link, world)
    masks = TieMasks(world, qs, safety=True)
    for kwargs in ({"safety": False}, {"allowed": ACTIONS_XY}):
        with pytest.raises(ValueError, match="tie masks"):
            execute_flight(qs, qa, world, cmap, (3, 3, 1), 10, masks=masks, **kwargs)
    other = QTable("strategic", world.spec, Hyper(), 0, goal_conditioned=True)
    with pytest.raises(ValueError, match="tie masks"):
        execute_flight(other, qa, world, cmap, (3, 3, 1), 10, masks=masks)
    for allowed in ((), (Action.PLUS_Y, Action.PLUS_X), (0, 0, 1), (0, 6)):
        with pytest.raises(ValueError, match="ascending"):
            TieMasks(world, qs, allowed=allowed)


# Values drawn from a few levels, and every fourth row all zero, so most rows
# hold ties among the candidates.
_TIE_LEVELS = np.array([-1.0, 0.0, 0.5, 0.5, 2.0])


def _tied_table(kind, spec, rng, goal_conditioned=False):
    t = QTable(kind, spec, Hyper(), 0, goal_conditioned=goal_conditioned)
    t.q[...] = rng.choice(_TIE_LEVELS, size=t.q.shape)
    t.q[rng.random(t.q.shape[:-1]) < 0.25] = 0.0
    return t


def _landings_via_decide(qs, qa, world, dest, step_cap, rng, safety, normalize, allowed):
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
            a = decide(qs, qa, pos, dest, safety, world, rng, normalize, allowed)
        to, _, event = moves[at][a]
        steps.append((to, rng.getstate(), override))
        at = to
        if event is StepEvent.CRASHED_INTO_OBSTACLE:
            break
        if to == goal and event is StepEvent.MOVED:
            break
    return steps


@pytest.mark.parametrize("goal_conditioned", [True, False], ids=["goal", "fixed_dest"])
@pytest.mark.parametrize("allowed", [ACTIONS, ACTIONS_XY], ids=["xyz", "xy"])
@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
@pytest.mark.parametrize("safety", [True, False], ids=["safe", "unsafe"])
def test_flight_replays_decide_step_for_step(safety, normalize, allowed, goal_conditioned):
    """Every flight step picks decide's move and leaves the rng where decide does.

    The flight is cut after each step k (``step_cap=k``): its landing cell
    and the tie rng's state must equal those of the k-th step taken with
    ``decide``. A boundary-blocked step is identified by its landing. One
    set of masks serves every flight and both coverage tables.
    """
    rng = np.random.default_rng([safety, normalize, len(allowed), goal_conditioned])
    overrides = crashes = steps_checked = 0
    for trial in range(6):
        spec = GridSpec(nx=int(rng.integers(2, 6)), ny=int(rng.integers(2, 6)),
                        nz=int(rng.integers(1, 4)))
        world = build(spec, float(rng.uniform(0.0, 0.3)), seed=trial)
        free = [c for c in world.cells if c != world.start_cell and c not in world.obstacles]
        if not free:
            continue
        qs = _tied_table("strategic", spec, rng, goal_conditioned)
        coverage = [_tied_table("adaptive", spec, rng) for _ in range(2)]
        masks = TieMasks(world, qs, safety, allowed)
        cmap = coverage_map(TrainConfig().link, world)
        for flight in range(8):
            qa = coverage[flight % 2]
            dest = free[int(rng.integers(len(free)))]
            seed = int(rng.integers(1 << 30))
            want = _landings_via_decide(qs, qa, world, dest, 25, random.Random(seed),
                                        safety, normalize, allowed)
            overrides += sum(o for _, _, o in want)
            for k, (landing, state, _) in enumerate(want, start=1):
                tie_rng = random.Random(seed)
                res = execute_flight(qs, qa, world, cmap, dest, k, tie_rng, safety, normalize,
                                     allowed=allowed, masks=masks)
                assert res.steps == k
                assert world.index(res.trajectory[-1]) == landing
                assert tie_rng.getstate() == state
                steps_checked += 1
            crashes += res.outcome is FlightOutcome.CRASHED
    assert steps_checked > 300
    assert overrides > 0
    assert crashes > 0 or safety


@pytest.mark.parametrize("goal_conditioned", [True, False], ids=["goal", "fixed_dest"])
def test_greedy_trajectory_replays_greedy_action(goal_conditioned):
    """Each step is greedy_action over all six actions of the planner's row."""
    rng = np.random.default_rng(7 + goal_conditioned)
    for trial in range(10):
        spec = GridSpec(nx=int(rng.integers(2, 6)), ny=int(rng.integers(2, 6)),
                        nz=int(rng.integers(1, 4)))
        world = build(spec, float(rng.uniform(0.0, 0.3)), seed=trial)
        free = [c for c in world.cells if c != world.start_cell and c not in world.obstacles]
        if not free:
            continue
        table = _tied_table("strategic", spec, rng, goal_conditioned)
        for _ in range(5):
            dest = free[int(rng.integers(len(free)))]
            seed = int(rng.integers(1 << 30))
            ref_rng = random.Random(seed)
            pos, want, outcome = world.start_cell, [world.start_cell], FlightOutcome.STEP_CAP_HIT
            for _ in range(30):
                key = (pos, dest) if goal_conditioned else pos
                a = greedy_action(table.values(key), ACTIONS, ref_rng)
                _, nxt, event = world.moves[world.index(pos)][a]
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


def test_flight_masks_refuse_nan_rows():
    world = build(GridSpec(nx=3, ny=3, nz=1), 0.0, seed=1)
    qs = QTable("strategic", world.spec, Hyper(), 0, goal_conditioned=True)
    qa = QTable("adaptive", world.spec, Hyper(), 0)
    qa.q[4, 2] = math.nan
    cmap = coverage_map(TrainConfig().link, world)
    with pytest.raises(ValueError, match="NaN"):
        execute_flight(qs, qa, world, cmap, (2, 2, 0), 10)
