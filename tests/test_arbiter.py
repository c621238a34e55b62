import math
import random

import pytest

from uavnav.arbiter import (
    FlightOutcome,
    decide,
    execute_flight,
    greedy_trajectory,
)
from uavnav.config import TrainConfig, stream_rng
from uavnav.gridworld import (
    ACTION_DELTAS,
    ACTIONS,
    Action,
    GridSpec,
    GridWorld,
    build,
)
from uavnav.harness import build_world
from uavnav.qcore import Hyper, QTable
from uavnav.radio import coverage_map

from oracles import alg3_choice

GRID = GridSpec()
EMPTY_WORLD = build(GRID, 0.0, seed=1, bs_xy=(10, 10, 0))


def table_with_row(kind, key, values, goal_conditioned=False):
    t = QTable(kind=kind, grid=GRID, hyper=Hyper(), seed=0, goal_conditioned=goal_conditioned)
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
        qs = table_with_row("strategic", (pos, dest), sv, goal_conditioned=True)
        qa = table_with_row("adaptive", pos, av)
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
