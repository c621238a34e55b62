import dataclasses
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest

from uavnav.agents import (
    RewardParams,
    _step_codes,
    reward_adaptive,
    reward_strategic,
    train_adaptive,
    train_strategic,
)
from uavnav.arbiter import FlightOutcome
from uavnav.config import ConfigError, TrainConfig, stream_rng
from uavnav.gridworld import ACTIONS, GridSpec, StepEvent
from uavnav.harness import build_world

from oracles import bfs_shortest_len, closer_exact, euclid_cells
from reference import greedy_action, greedy_trajectory
from test_golden import CONFIGS as GOLDEN_CONFIGS

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
    assert reward_strategic(True, StepEvent.MOVED, RP) == 1.0


def test_reward_strategic_blocked_not_closer():
    assert reward_strategic(False, StepEvent.BLOCKED_AT_BOUNDARY, RP) == -1.0


def test_reward_strategic_crash_additive():
    assert reward_strategic(True, StepEvent.CRASHED_INTO_OBSTACLE, RP) == -99.0


def test_reward_strategic_arrival_additive():
    assert reward_strategic(True, StepEvent.ARRIVED_AT_DESTINATION, RP) == 101.0


def test_reward_adaptive_branches():
    assert reward_adaptive(18.141, 5.0, RP) == 1.0
    assert reward_adaptive(4.999, 5.0, RP) == -5.0
    assert reward_adaptive(5.0, 5.0, RP) == 1.0  # boundary goes to the reward


def test_train_strategic_fixed_destination_matches_bfs():
    # 3x3x1 empty grid, fixed destination, a one-column table
    cfg = TrainConfig(
        grid=GridSpec(nx=3, ny=3, nz=1),
        obstacle_density=0.0,
        episodes_strategic=2000,
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


def test_fixed_destination_training_allocates_one_distance_column():
    # A one-column planner builds the step codes of its one destination; an
    # n x n distance table of every pair of cells took a 235 MiB peak here,
    # for a 0.21 MiB Q-table.
    cfg = TrainConfig(
        grid=GridSpec(nx=30, ny=30, nz=5),
        obstacle_density=0.05,
        episodes_strategic=20,
        fixed_destination=(29, 29, 0),
        seed=2,
    )
    world = build_world(cfg)
    world.moves  # built on first use; not the planner's own allocation
    tracemalloc.start()
    try:
        table, _ = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.q.nbytes < 1 << 20
    assert peak < 20 << 20


def largest_cell_size(grid):
    """The largest ``cell_size_m`` a config accepts on ``grid``'s shape:
    a bisection over the bit patterns of positive floats."""
    def accepted(bits):
        size = struct.unpack("<d", struct.pack("<q", bits))[0]
        try:
            TrainConfig(grid=dataclasses.replace(grid, cell_size_m=size), bands_mhz=(900.0,))
        except ValueError:  # a ConfigError, or GridSpec's refusal of inf
            return False
        return True

    lo, hi = struct.unpack("<q", struct.pack("<d", grid.cell_size_m))[0], 0x7FF0000000000000
    assert accepted(lo) and not accepted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    return struct.unpack("<d", struct.pack("<q", lo))[0]


WIDE = GridSpec(nx=4, ny=3, nz=2)
STEP_CODE_CONFIGS = {
    **GOLDEN_CONFIGS,
    "anisotropic": small_cfg(
        grid=GridSpec(nx=5, ny=4, nz=3, cell_size_m=30.0, cell_height_m=7.5),
        obstacle_density=0.15,
    ),
    "fixed_destination": small_cfg(obstacle_density=0.1, fixed_destination=(4, 3, 1)),
    "altitude_locked": small_cfg(obstacle_density=0.1, start_cell=(0, 0, 1),
                                 altitude_locked=True),
    # squared offsets in metres overflow a float
    "largest_cell_size": small_cfg(
        grid=dataclasses.replace(WIDE, cell_size_m=largest_cell_size(WIDE)),
        obstacle_density=0.2,
    ),
    # squared offsets in metres underflow to 0
    "tiny_cells": small_cfg(
        grid=GridSpec(nx=6, ny=5, nz=3, cell_size_m=1e-200, cell_height_m=1e-200),
        obstacle_density=0.1,
    ),
    # a squared vertical offset vanishes beside a horizontal one
    "flat_cells": small_cfg(
        grid=GridSpec(nx=6, ny=5, nz=3, cell_size_m=1e6, cell_height_m=1e-3),
        obstacle_density=0.1,
    ),
}
# Configs on which float Euclidean distances between cell centres rank
# every move as the exact ones do.
FLOAT_EXACT = {*GOLDEN_CONFIGS, "anisotropic"}


@pytest.mark.parametrize("name", sorted(STEP_CODE_CONFIGS))
def test_step_codes_match_the_move_table_and_distances(name):
    """Every code is closer + 2 * crash + 4 * arrival, read from the move
    table and ``oracles.closer_exact``'s exact comparison of distances to
    the destination before and after the move, and ``rewards`` gives it
    ``reward_strategic``'s reward. A destination's own row is left out:
    an episode ends on arrival and never starts at its destination, so
    training never reads it. The comparison depends only on the offsets
    from the destination before and after, so it is made once per pair."""
    cfg = STEP_CODE_CONFIGS[name]
    world = build_world(cfg)
    spec = world.spec
    n = spec.n_cells
    fixed = cfg.fixed_destination
    targets = np.arange(n) if fixed is None else np.array([spec.index(fixed)])
    codes, rewards = _step_codes(world, targets, cfg.rewards)
    landing = np.array([[m[0] for m in row] for row in world.moves])
    event = np.array([[m[1] for m in row] for row in world.moves])
    cell = np.array(world.cells, dtype=np.int16)
    # (column, cell, action): the offsets from the destination before and
    # after the move, axis by axis
    dest = cell[targets][:, None, None]
    after = cell[landing][None] - dest
    before = np.broadcast_to(cell[None, :, None] - dest, after.shape)
    offset = np.concatenate([before, after], axis=-1).reshape(-1, 6)
    # each row as one integer, so rows are told apart by a 1-D unique
    span = max(spec.nx, spec.ny, spec.nz)
    keys = np.ravel_multi_index((offset.T + span).astype(np.intp), (2 * span,) * 6)
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    pairs = offset[first]
    sizes = (spec.cell_size_m, spec.cell_height_m)
    exact = np.array([closer_exact(p[:3], p[3:], (0, 0, 0), *sizes) for p in pairs.tolist()])
    closer = exact[which.reshape(codes.shape)]
    if name in FLOAT_EXACT:
        near = [euclid_cells(p[3:], (0, 0, 0), *sizes) < euclid_cells(p[:3], (0, 0, 0), *sizes)
                for p in pairs.tolist()]
        assert (exact == near).all()
    crash = event == StepEvent.CRASHED_INTO_OBSTACLE
    arrive = landing == targets[:, None, None]
    want = closer + 2 * crash + 4 * arrive
    read = np.arange(n) != targets[:, None]  # (column, cell): not the destination
    assert codes.dtype == np.uint8 and codes.shape == (len(targets), n, 6)
    assert (codes[read] == want[read]).all()
    # each code a mission can meet, against reward_strategic at one entry
    missions = [spec.index(c) for c in world.mission_cells(cfg.altitude_locked)]
    met = read & np.isin(targets, missions)[:, None]
    for k in np.unique(codes[met]).tolist():
        j, c, a = (x[0] for x in ((codes == k) & met[:, :, None]).nonzero())
        to = landing[c, a]
        what = StepEvent.ARRIVED_AT_DESTINATION if to == targets[j] else StepEvent(event[c, a])
        assert rewards[k] == reward_strategic(bool(closer[j, c, a]), what, cfg.rewards), k


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
    assert logs.total_reward[-n:].mean() > logs.total_reward[:n].mean()


def test_train_strategic_reproducible():
    cfg = small_cfg()
    world = build_world(cfg)
    t1, logs1 = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    t2, logs2 = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    assert t1 == t2
    for name in ("destination", "total_reward", "steps"):
        assert np.array_equal(getattr(logs1, name), getattr(logs2, name))


def test_train_strategic_validation():
    cfg = small_cfg(episodes_strategic=1, obstacle_density=0.2)
    world = build_world(cfg)
    with pytest.raises(ConfigError):
        small_cfg(fixed_destination=(0, 0, 0))  # equals the start cell
    # whether the destination is an obstacle depends on the world
    obstacle = min(world.obstacles)
    bad = small_cfg(episodes_strategic=1, obstacle_density=0.2, fixed_destination=obstacle)
    with pytest.raises(ValueError, match="obstacle"):
        train_strategic(world, bad, random.Random(0))


def test_strategic_reward_bounds():
    # r_crash = -100.5 keeps crash, arrival and shaping terms from cancelling
    # within the step cap, so a total splits into its terms one way only
    cfg = small_cfg(episodes_strategic=30, obstacle_density=0.2,
                    rewards=RewardParams(r_crash=-100.5))
    world = build_world(cfg)
    _, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    rp = cfg.rewards
    assert logs.arrived.any()
    for log in logs:
        # every step earns r_closer or r_farther, plus r_crash on a crash;
        # the arriving step adds r_arrive
        arrive = rp.r_arrive if log.arrived else 0.0
        assert any(
            math.isclose(
                log.total_reward,
                k * rp.r_closer + (log.steps - k) * rp.r_farther + c * rp.r_crash + arrive,
            )
            for k in range(log.steps + 1)
            for c in range(log.steps + 1)
        )


def test_train_adaptive_degenerate_threshold_rewards_every_step():
    cfg = small_cfg(episodes_adaptive=50)
    cfg = dataclasses.replace(cfg, link=dataclasses.replace(cfg.link, snr_threshold_db=-math.inf))
    world = build_world(cfg)
    _, logs = train_adaptive(world, 900.0, cfg, stream_rng(cfg.seed, "a"))
    for log in logs:
        assert log.total_reward == cfg.rewards.r_covered * log.steps


def test_train_adaptive_reward_bounds_and_replay():
    cfg = small_cfg(episodes_adaptive=40, obstacle_density=0.1)
    world = build_world(cfg)
    _, logs = train_adaptive(world, 2100.0, cfg, stream_rng(cfg.seed, "a"))
    rp = cfg.rewards
    for log in logs:
        assert 1 <= log.steps <= cfg.resolved_step_cap()
        # every step earns r_covered or r_outage: the total is k of one and
        # steps - k of the other
        assert any(
            math.isclose(log.total_reward, k * rp.r_covered + (log.steps - k) * rp.r_outage)
            for k in range(log.steps + 1)
        )
        assert log.arrived or log.steps == cfg.resolved_step_cap()


def test_train_adaptive_reproducible():
    cfg = small_cfg()
    world = build_world(cfg)
    t1, _ = train_adaptive(world, 900.0, cfg, stream_rng(cfg.seed, "a"))
    t2, _ = train_adaptive(world, 900.0, cfg, stream_rng(cfg.seed, "a"))
    assert t1 == t2
    assert t1.f_mhz == 900.0


def test_adaptive_greedy_stays_covered_near_bs():
    # Trained on the default grid at 2100 MHz, a greedy walk that starts
    # next to the BS column keeps to covered cells: everything near the
    # column clears the threshold and the learned values avoid the border
    # ring. Uses the coverage map as the oracle.
    from uavnav.radio import coverage_map

    cfg = TrainConfig(seed=12, obstacle_density=0.0, episodes_adaptive=4000)
    world = build_world(cfg)
    table, _ = train_adaptive(world, 2100.0, cfg, stream_rng(cfg.seed, "a"))
    cmap = coverage_map(cfg.link, 2100.0, world)
    rng = random.Random(4)
    pos = (11, 10, 1)  # adjacent to the BS column at (10, 10)
    assert cmap.snr[pos] >= cmap.snr_threshold_db
    for _ in range(20):
        i = world.spec.index(pos)
        a = greedy_action(table.q[0, i].tolist(), ACTIONS, rng)
        pos = world.cells[world.moves[i][a][0]]
        assert cmap.snr[pos] >= cmap.snr_threshold_db


def test_adaptive_band_learning_speed_ordering():
    # With the corner takeoff inside the high-band outage ring, the 900 MHz
    # run is profitable immediately while 2100 MHz starts deep in penalties.
    cfg = TrainConfig(seed=12, obstacle_density=0.05, episodes_adaptive=1500)
    world = build_world(cfg)
    crossings = {}
    for band in (900.0, 2100.0):
        _, logs = train_adaptive(world, band, cfg, stream_rng(cfg.seed, f"a{band}"))
        totals = logs.total_reward.tolist()
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
    cfg = small_cfg(altitude_locked=True, episodes_strategic=30)
    world = build_world(cfg)
    table, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "t"))
    assert {log.destination[2] for log in logs} == {0}
    # only takeoff-layer states toward takeoff-layer destinations are
    # updated, and never by a vertical move
    cells = world.cells
    for goal, at in np.argwhere(table.q.any(axis=-1)).tolist():
        assert cells[at][2] == cells[goal][2] == 0
        assert table.q[goal, at, 4] == table.q[goal, at, 5] == 0.0
