"""The training loops against a reference loop built from the public calls.

``train_strategic`` and ``train_adaptive`` step through the world's move
table with the rewards and the update written out. The reference loops
below take each step the plain way -- ``select_action``, ``apply_action``,
``reward_strategic`` / ``reward_adaptive``, ``q_update`` -- and must give
equal tables (rows, values and row order) and equal episode logs, step
records included, down to the types of their fields, in every mode.
"""

import dataclasses
import math

import pytest

from uavnav.agents import (
    EpisodeLog,
    StepRecord,
    TerminalCause,
    draw_free_cell,
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
)
from uavnav.harness import build_world
from uavnav.qcore import QTable, q_update, select_action
from uavnav.radio import coverage_map


def reference_strategic(world, cfg, rng):
    table = QTable("strategic", world.spec, cfg.hyper, cfg.seed,
                   goal_conditioned=cfg.goal_conditioned)
    dist = manhattan_m if cfg.distance_metric == "manhattan" else distance_m
    candidates = ACTIONS_XY if cfg.altitude_locked else ACTIONS
    layer = world.start_cell[2] if cfg.altitude_locked else None
    logs = []
    for episode in range(cfg.episodes_strategic):
        epsilon = cfg.schedule.at(episode)
        if cfg.fixed_destination is not None:
            pos, dest = world.start_cell, cfg.fixed_destination
        else:
            pos = world.start_cell if episode % 2 == 0 else draw_free_cell(world, rng, layer)
            dest = draw_free_cell(world, rng, layer)
            while dest == pos:
                dest = draw_free_cell(world, rng, layer)
        d_prev = dist(world, pos, dest)
        total, steps = 0.0, 0
        records = [] if cfg.record_steps else None
        terminal = TerminalCause.STEP_CAP_HIT
        while steps < cfg.resolved_step_cap():
            s_key = (pos, dest) if cfg.goal_conditioned else pos
            a = select_action(table, s_key, epsilon, rng, candidates)
            nxt, event = apply_action(world, pos, a, dest)
            d_next = dist(world, nxt, dest)
            r = reward_strategic(d_prev, d_next, event, cfg.rewards)
            q_update(table, s_key, a, r, (nxt, dest) if cfg.goal_conditioned else nxt,
                     cfg.hyper)
            if records is not None:
                records.append(StepRecord(pos, a, r, event))
            total += r
            steps += 1
            pos, d_prev = nxt, d_next
            if event == StepEvent.ARRIVED_AT_DESTINATION:
                terminal = TerminalCause.ARRIVED
                break
        logs.append(EpisodeLog(episode, dest, total, steps, terminal, epsilon, records))
    return table, logs


def reference_adaptive(world, lb, cfg, rng):
    table = QTable("adaptive", world.spec, cfg.hyper, cfg.seed, f_mhz=lb.f_mhz)
    cmap = coverage_map(lb, world)
    candidates = ACTIONS_XY if cfg.altitude_locked else ACTIONS
    layer = world.start_cell[2] if cfg.altitude_locked else None
    logs = []
    for episode in range(cfg.episodes_adaptive):
        epsilon = cfg.schedule_adaptive.at(episode)
        pos = world.start_cell if episode % 2 == 0 else draw_free_cell(world, rng, layer)
        dest = draw_free_cell(world, rng, layer)
        while dest == pos:
            dest = draw_free_cell(world, rng, layer)
        total, steps = 0.0, 0
        records = [] if cfg.record_steps else None
        terminal = TerminalCause.STEP_CAP_HIT
        while steps < cfg.resolved_step_cap():
            a = select_action(table, pos, epsilon, rng, candidates)
            nxt, event = apply_action(world, pos, a, dest)
            snr = cmap.snr_at(nxt)
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
    assert [(k, typed(v)) for k, v in t_got._rows.items()] == [
        (k, typed(v)) for k, v in t_want._rows.items()
    ]
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
    "fixed_destination": {"goal_conditioned": False, "fixed_destination": None},
    "altitude_locked": {"altitude_locked": True},
    "manhattan": {"distance_metric": "manhattan"},
    "record_steps": {"record_steps": True},
}


def mode_config(mode: str) -> TrainConfig:
    cfg = TrainConfig(**{**BASE, **MODES[mode]})
    if mode == "fixed_destination":
        world = build_world(cfg)
        free = [c for c in world.cells if c not in world.obstacles and c != world.start_cell]
        cfg = dataclasses.replace(cfg, fixed_destination=free[-1])
    return cfg


@pytest.mark.parametrize("mode", sorted(MODES))
def test_train_strategic_matches_reference_loop(mode):
    cfg = mode_config(mode)
    world = build_world(cfg)
    got = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
    want = reference_strategic(build_world(cfg), cfg, stream_rng(cfg.seed, "train.strategic"))
    assert_same_run(got, want)


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
