import math
import random

import pytest

from uavnav.agents import (
    EpisodeLog,
    RewardParams,
    TerminalCause,
    reward_adaptive,
    reward_strategic,
    train_adaptive,
    train_strategic,
)
from uavnav.arbiter import FlightOutcome, greedy_trajectory
from uavnav.config import ConfigError, TrainConfig, stream_rng
from uavnav.gridworld import GridSpec, StepEvent, apply_action, build
from uavnav.harness import build_world
from uavnav.qcore import EpsilonSchedule

from oracles import bfs_shortest_len

# Reward constants from the examples this suite checks against.
RP = RewardParams(r_closer=1.0, r_farther=-1.0, r_crash=-100.0, r_arrive=100.0,
                  r_covered=1.0, r_outage=-5.0)


def small_cfg(**kw):
    base = dict(
        grid=GridSpec(nx=5, ny=5, nz=2),
        obstacle_density=0.0,
        bands_mhz=(900.0,),
        episodes_strategic=300,
        episodes_adaptive=200,
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_reward_params_invariants():
    with pytest.raises(ValueError):
        RewardParams(r_crash=-0.5)  # not below r_farther
    with pytest.raises(ValueError):
        RewardParams(r_outage=1.0)
    with pytest.raises(ValueError):
        RewardParams(r_closer=-1.0, r_farther=1.0, r_crash=-5.0, r_arrive=10.0)
    # each finite, but a crash step's reward would be -inf
    with pytest.raises(ValueError, match="finite"):
        RewardParams(r_farther=-1e308, r_crash=-1.7e308)


def test_reward_strategic_closer():
    assert reward_strategic(200.0, 150.0, StepEvent.MOVED, RP) == 1.0


def test_reward_strategic_blocked_not_closer():
    assert reward_strategic(150.0, 150.0, StepEvent.BLOCKED_AT_BOUNDARY, RP) == -1.0


def test_reward_strategic_crash_additive():
    assert reward_strategic(150.0, 100.0, StepEvent.CRASHED_INTO_OBSTACLE, RP) == -99.0


def test_reward_strategic_arrival_additive():
    assert reward_strategic(50.0, 0.0, StepEvent.ARRIVED_AT_DESTINATION, RP) == 101.0


def test_reward_adaptive_branches():
    assert reward_adaptive(18.141, 5.0, RP) == 1.0
    assert reward_adaptive(4.999, 5.0, RP) == -5.0
    assert reward_adaptive(5.0, 5.0, RP) == 1.0  # boundary goes to the reward


def test_train_strategic_fixed_destination_matches_bfs():
    # 3x3x1 empty grid, fixed destination, position-only keys
    cfg = TrainConfig(
        grid=GridSpec(nx=3, ny=3, nz=1),
        obstacle_density=0.0,
        episodes_strategic=2000,
        goal_conditioned=False,
        fixed_destination=(2, 2, 0),
        seed=3,
    )
    world = build_world(cfg)
    table, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    assert len(logs) == 2000
    traj, outcome = greedy_trajectory(table, world, (2, 2, 0), 50, random.Random(0))
    assert outcome == FlightOutcome.ARRIVED
    want = bfs_shortest_len(3, 3, 1, frozenset(), (0, 0, 0), (2, 2, 0))
    assert len(traj) - 1 == want


def test_train_strategic_no_obstacles_never_crashes():
    cfg = small_cfg(episodes_strategic=600)
    world = build_world(cfg)
    table, _ = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    rng = random.Random(5)
    dest_rng = random.Random(6)
    for _ in range(20):
        dest = (dest_rng.randrange(5), dest_rng.randrange(5), dest_rng.randrange(2))
        if dest == world.start_cell:
            continue
        _, outcome = greedy_trajectory(table, world, dest, 100, rng)
        assert outcome != FlightOutcome.CRASHED


def test_train_strategic_learning_signal():
    cfg = small_cfg(episodes_strategic=1000)
    world = build_world(cfg)
    _, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    n = len(logs) // 10
    first = sum(l.total_reward for l in logs[:n]) / n
    last = sum(l.total_reward for l in logs[-n:]) / n
    assert last > first


def test_train_strategic_reproducible():
    cfg = small_cfg()
    world = build_world(cfg)
    t1, logs1 = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    t2, logs2 = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    assert t1 == t2
    assert [(l.destination, l.total_reward, l.steps) for l in logs1] == [
        (l.destination, l.total_reward, l.steps) for l in logs2
    ]


def test_train_strategic_validation():
    cfg = small_cfg(episodes_strategic=1, obstacle_density=0.2)
    world = build_world(cfg)
    with pytest.raises(ConfigError):
        small_cfg(goal_conditioned=False)  # no fixed destination given
    with pytest.raises(ConfigError):
        small_cfg(fixed_destination=(0, 0, 0))  # equals the start cell
    # whether the destination is an obstacle depends on the world
    obstacle = min(world.obstacles)
    bad = small_cfg(episodes_strategic=1, obstacle_density=0.2, fixed_destination=obstacle)
    with pytest.raises(ValueError, match="obstacle"):
        train_strategic(world, bad, random.Random(0))


def test_strategic_log_consistency_and_replay():
    cfg = small_cfg(record_steps=True, episodes_strategic=40)
    world = build_world(cfg)
    _, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    for log in logs:
        assert log.steps <= cfg.resolved_step_cap()
        assert abs(log.total_reward - sum(r.reward for r in log.records)) < 1e-9
        if log.episode % 2 == 0:  # takeoff-started half of the episodes
            assert log.records[0].state == world.start_cell
        # replay every transition through the environment
        pos = log.records[0].state
        for rec in log.records:
            assert rec.state == pos
            out = apply_action(world, pos, rec.action, log.destination)
            assert out.event == rec.event
            pos = out.next
        if log.terminal == TerminalCause.ARRIVED:
            assert pos == log.destination


def test_strategic_reward_bounds():
    cfg = small_cfg(record_steps=True, episodes_strategic=30, obstacle_density=0.2)
    world = build_world(cfg)
    _, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    rp = cfg.rewards
    allowed = set()
    for base in (rp.r_closer, rp.r_farther):
        for extra in (0.0, rp.r_crash, rp.r_arrive):
            allowed.add(base + extra)
    for log in logs:
        for rec in log.records:
            assert rec.reward in allowed


def test_train_adaptive_degenerate_threshold_rewards_every_step():
    import dataclasses

    cfg = small_cfg(episodes_adaptive=50, record_steps=True)
    lb = dataclasses.replace(cfg.link, f_mhz=900.0, snr_threshold_db=-math.inf)
    world = build_world(cfg)
    _, logs = train_adaptive(world, lb, cfg, stream_rng(cfg.seed, "a"))
    for log in logs:
        assert log.total_reward == cfg.rewards.r_covered * log.steps


def test_train_adaptive_reward_bounds_and_replay():
    cfg = small_cfg(episodes_adaptive=40, record_steps=True, obstacle_density=0.1)
    world = build_world(cfg)
    lb = cfg.link_for_band(2100.0)
    _, logs = train_adaptive(world, lb, cfg, stream_rng(cfg.seed, "a"))
    rp = cfg.rewards
    for log in logs:
        assert abs(log.total_reward - sum(r.reward for r in log.records)) < 1e-9
        for rec in log.records:
            assert rec.reward in (rp.r_covered, rp.r_outage)
            assert rec.snr_db is not None


def test_train_adaptive_reproducible():
    cfg = small_cfg()
    world = build_world(cfg)
    lb = cfg.link_for_band(900.0)
    t1, _ = train_adaptive(world, lb, cfg, stream_rng(cfg.seed, "a"))
    t2, _ = train_adaptive(world, lb, cfg, stream_rng(cfg.seed, "a"))
    assert t1 == t2
    assert t1.f_mhz == 900.0


def test_adaptive_greedy_stays_covered_near_bs():
    # Trained on the default grid at 2100 MHz, a greedy walk that starts
    # next to the BS column keeps to covered cells: everything near the
    # column clears the threshold and the learned values avoid the border
    # ring. Uses the coverage map as the oracle.
    from uavnav.qcore import select_action
    from uavnav.radio import coverage_map

    cfg = TrainConfig(seed=12, obstacle_density=0.0, episodes_adaptive=4000)
    world = build_world(cfg)
    lb = cfg.link_for_band(2100.0)
    table, _ = train_adaptive(world, lb, cfg, stream_rng(cfg.seed, "a"))
    cmap = coverage_map(lb, world)
    rng = random.Random(4)
    pos = (11, 10, 1)  # adjacent to the BS column at (10, 10)
    assert cmap.snr[pos] >= lb.snr_threshold_db
    for _ in range(20):
        a = select_action(table, pos, 0.0, rng)
        out = apply_action(world, pos, a, dest=(0, 0, 0))
        if out.next != pos:
            pos = out.next
        assert cmap.snr[pos] >= lb.snr_threshold_db


def test_adaptive_band_learning_speed_ordering():
    # With the corner takeoff inside the high-band outage ring, the 900 MHz
    # run is profitable immediately while 2100 MHz starts deep in penalties.
    cfg = TrainConfig(seed=12, obstacle_density=0.05, episodes_adaptive=1500)
    world = build_world(cfg)
    crossings = {}
    for band in (900.0, 2100.0):
        _, logs = train_adaptive(
            world, cfg.link_for_band(band), cfg, stream_rng(cfg.seed, f"a{band}")
        )
        totals = [l.total_reward for l in logs]
        crossings[band] = next(
            (
                i
                for i in range(99, len(totals))
                if sum(totals[i - 99 : i + 1]) / 100 > 0
            ),
            None,
        )
    assert crossings[900.0] is not None
    assert crossings[2100.0] is None or crossings[900.0] < crossings[2100.0]


def test_altitude_locked_training_stays_on_layer():
    cfg = small_cfg(altitude_locked=True, record_steps=True, episodes_strategic=30)
    world = build_world(cfg)
    _, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    for log in logs:
        for rec in log.records:
            assert rec.state[2] == 0
