"""The training loops against the public calls.

``train_strategic`` runs up to ``LOCKSTEP_SLOTS`` episodes in lockstep on
the dense table. Its check replays every episode's recorded actions, in
episode order, through ``apply_action``, ``reward_strategic`` and
``q_update``: the replay must give the same table, float bits included, and
the same episode logs, step records included, down to the types of their
fields. On steps taken at epsilon 0 the recorded action must be an argmax
of the replayed row. The slot count must not change what is trained.

``train_adaptive`` steps through the world's move table with the reward and
the update written out. The reference loop below takes each step the plain
way -- ``select_action``, ``apply_action``, ``reward_adaptive``,
``q_update`` -- and must give an equal table and equal episode logs.
"""

import dataclasses
import math
from collections import Counter

import pytest

from uavnav import agents
from uavnav.agents import (
    EpisodeLog,
    StepRecord,
    TerminalCause,
    reward_adaptive,
    reward_strategic,
    train_adaptive,
    train_strategic,
)
from uavnav.config import TrainConfig, stream_rng
from uavnav.gridworld import (
    ACTIONS,
    ACTIONS_XY,
    Action,
    GridSpec,
    StepEvent,
    apply_action,
    distance_m,
    manhattan_m,
    random_free_cell,
)
from uavnav.harness import build_world
from uavnav.qcore import EpsilonSchedule, QTable, q_update, select_action
from uavnav.radio import coverage_map


def replay_strategic(world, cfg, logs):
    """Replay each log's recorded actions in episode order.

    Also returns the number of steps taken at epsilon 0 and, among them,
    the actions taken from an all-zero row, where every candidate ties.
    """
    table = QTable("strategic", world.spec, cfg.hyper, cfg.seed,
                   goal_conditioned=cfg.goal_conditioned)
    dist = manhattan_m if cfg.distance_metric == "manhattan" else distance_m
    candidates = ACTIONS_XY if cfg.altitude_locked else ACTIONS
    cap = cfg.resolved_step_cap()
    replayed, greedy_steps, tie_actions = [], 0, Counter()
    for episode, log in enumerate(logs):
        assert log.episode == episode
        dest = log.destination
        pos = log.records[0].state
        # the mission rules
        assert dest != world.start_cell and dest not in world.obstacles
        if cfg.fixed_destination is not None or episode % 2 == 0:
            assert pos == world.start_cell
        else:
            assert pos != dest and pos not in world.obstacles
        if cfg.fixed_destination is not None:
            assert dest == cfg.fixed_destination
        if cfg.altitude_locked:
            assert pos[2] == dest[2] == world.start_cell[2]

        d_prev = dist(world, pos, dest)
        total, records = 0.0, []
        terminal = TerminalCause.STEP_CAP_HIT
        for rec in log.records:
            a = rec.action
            assert a in candidates
            s_key = (pos, dest) if cfg.goal_conditioned else pos
            if log.epsilon == 0.0:
                row = table.values(s_key)
                assert row[a] == max(row[c] for c in candidates)
                greedy_steps += 1
                if not any(row):
                    tie_actions[a] += 1
            nxt, event = apply_action(world, pos, a, dest)
            d_next = dist(world, nxt, dest)
            r = reward_strategic(d_prev, d_next, event, cfg.rewards)
            q_update(table, s_key, a, r, (nxt, dest) if cfg.goal_conditioned else nxt,
                     cfg.hyper)
            records.append(StepRecord(pos, a, r, event))
            total += r
            pos, d_prev = nxt, d_next
            if event == StepEvent.ARRIVED_AT_DESTINATION:
                terminal = TerminalCause.ARRIVED
                break
        assert terminal is TerminalCause.ARRIVED or len(records) == cap
        replayed.append(EpisodeLog(episode, dest, total, len(records), terminal,
                                   cfg.schedule.at(episode), records))
    return table, replayed, greedy_steps, tie_actions


def reference_adaptive(world, lb, cfg, rng):
    table = QTable("adaptive", world.spec, cfg.hyper, cfg.seed, f_mhz=lb.f_mhz)
    cmap = coverage_map(lb, world)
    candidates = ACTIONS_XY if cfg.altitude_locked else ACTIONS
    locked = cfg.altitude_locked
    logs = []
    for episode in range(cfg.episodes_adaptive):
        epsilon = cfg.schedule_adaptive.at(episode)
        pos = world.start_cell if episode % 2 == 0 else random_free_cell(world, rng, locked)
        dest = random_free_cell(world, rng, locked)
        while dest == pos:
            dest = random_free_cell(world, rng, locked)
        total, steps = 0.0, 0
        records = [] if cfg.record_steps else None
        terminal = TerminalCause.STEP_CAP_HIT
        while steps < cfg.resolved_step_cap():
            a = select_action(table, pos, epsilon, rng, candidates)
            nxt, event = apply_action(world, pos, a, dest)
            snr = float(cmap.snr[nxt])
            r = reward_adaptive(snr, lb.snr_threshold_db, cfg.rewards)
            q_update(table, pos, a, r, nxt, cfg.hyper)
            if records is not None:
                records.append(StepRecord(pos, a, r, event, snr_db=snr))
            total += r
            steps += 1
            pos = nxt
            if event == StepEvent.ARRIVED_AT_DESTINATION:
                terminal = TerminalCause.ARRIVED
                break
        logs.append(EpisodeLog(episode, dest, total, steps, terminal, epsilon, records))
    return table, logs


def typed(value):
    """A value with its exact type, so 0 and Action.PLUS_X or 1.0 and 1 differ."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(typed(v) for v in value)
    if isinstance(value, float):
        # hex keeps the sign of zero
        return float, value.hex() if math.isfinite(value) else repr(value)
    return type(value), value


def log_signature(log: EpisodeLog):
    records = None
    if log.records is not None:
        records = [typed(dataclasses.astuple(rec)) for rec in log.records]
    return typed(dataclasses.astuple(dataclasses.replace(log, records=None))), records


def assert_same_run(got, want):
    (t_got, logs_got), (t_want, logs_want) = got, want
    assert t_got == t_want
    # float bits, so -0.0 and 0.0 differ
    assert t_got.q.tobytes() == t_want.q.tobytes()
    assert [log_signature(l) for l in logs_got] == [log_signature(l) for l in logs_want]


BASE = dict(
    grid=GridSpec(nx=6, ny=5, nz=3),
    obstacle_density=0.2,
    bands_mhz=(2100.0,),
    episodes_strategic=400,
    episodes_adaptive=200,
    seed=4,
)
MODES = {
    "goal_conditioned": {},
    "fixed_destination": {},  # mode_config picks the destination
    "altitude_locked": {"altitude_locked": True},
    "manhattan": {"distance_metric": "manhattan"},
    "record_steps": {"record_steps": True},
    # epsilon reaches exactly 0 from episode 108 on
    "greedy": {"schedule": EpsilonSchedule(1.0, 0.0, 1e-3)},
}


def mode_config(mode: str) -> TrainConfig:
    cfg = TrainConfig(**{**BASE, **MODES[mode]})
    if mode == "fixed_destination":
        world = build_world(cfg)
        free = [c for c in world.cells if c not in world.obstacles and c != world.start_cell]
        cfg = dataclasses.replace(cfg, goal_conditioned=False, fixed_destination=free[-1])
    return cfg


@pytest.mark.parametrize("mode", sorted(MODES))
def test_train_strategic_replays_through_public_calls(mode):
    cfg = dataclasses.replace(mode_config(mode), record_steps=True)
    world = build_world(cfg)
    table, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
    replayed, replayed_logs, greedy_steps, ties = replay_strategic(build_world(cfg), cfg, logs)
    assert_same_run((table, logs), (replayed, replayed_logs))
    assert table.n_states() > 0
    if mode == "greedy":
        assert greedy_steps > 1000
        # ties go to each of the six actions alike: chi-square, df=5, 0.001 level
        n = sum(ties.values())
        assert n > 600
        assert sum((ties[a] - n / 6) ** 2 / (n / 6) for a in ACTIONS) < 20.5
    if mode == "record_steps":
        # recording draws nothing: a plain run gives the same table and logs
        plain = dataclasses.replace(cfg, record_steps=False)
        got = train_strategic(world, plain, stream_rng(cfg.seed, "train.strategic"))
        unrecorded = [dataclasses.replace(log, records=None) for log in logs]
        assert_same_run(got, (table, unrecorded))


@pytest.mark.parametrize("slots", [1, 7])
def test_train_strategic_does_not_depend_on_slot_count(monkeypatch, slots):
    # one slot runs the episodes one after another, in episode order
    cfg = mode_config("goal_conditioned")
    world = build_world(cfg)
    batched = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
    monkeypatch.setattr(agents, "LOCKSTEP_SLOTS", slots)
    fewer = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
    assert_same_run(fewer, batched)


@pytest.mark.parametrize("mode", ["goal_conditioned", "altitude_locked", "record_steps"])
def test_train_adaptive_matches_reference_loop(mode):
    cfg = mode_config(mode)
    world = build_world(cfg)
    lb = cfg.link_for_band(2100.0)
    got = train_adaptive(world, lb, cfg, stream_rng(cfg.seed, "train.adaptive"))
    want = reference_adaptive(build_world(cfg), lb, cfg, stream_rng(cfg.seed, "train.adaptive"))
    assert_same_run(got, want)


def test_compared_runs_cover_every_step_event():
    cfg = mode_config("record_steps")
    _, logs = train_strategic(build_world(cfg), cfg, stream_rng(cfg.seed, "train.strategic"))
    records = [rec for log in logs for rec in log.records]
    assert {rec.event for rec in records} == set(StepEvent)
    assert all(type(rec.action) is Action and type(rec.event) is StepEvent for rec in records)
