"""The training loops against step-by-step references.

``train_strategic`` runs every destination's chain of episodes in lockstep
on the dense table, one slot per destination. Its reference below is a
sequential transcription: it draws the missions and stream keys as
``train_strategic`` does, then runs the episodes one after another, in
episode order, and picks every action itself from the episode's SplitMix64
stream (``oracles.splitmix64_uniform``, Python ints): draw 2t is the
exploration coin, draw 2t + 1 picks the
``int(u * len(picks))``-th of the argmax ties, or of all candidates when
exploring. It steps with ``step`` (one move-table entry), measures
distances with ``oracles.euclid_cells`` or ``oracles.manhattan_cells``, and
rewards and updates with ``reward_strategic`` and ``q_update`` (this
module's ``q_update``, ``greedy_action``, ``argmax_ties`` and
``epsilon_at`` are those of ``tests/reference.py``). Both must
give the same table, float bits included, and the same episode logs: each
column of ``EpisodeLogs`` with its dtype and float bits, and each record it
yields down to the types of its fields. The number of
chains below which ``train_strategic`` drains the rest one at a time
(``DRAIN_SLOTS``) must not change what is trained, whether the lockstep
runs to the end, hands over mid-run or never runs; the drain must pick up
a running episode at its place in its stream. Nor may the number of slots:
a run folded onto fewer destinations matches its own reference. The drain
draws an episode's uniforms a block of steps at a time, so a step cap far
beyond any episode's length costs nothing.

``train_adaptive`` steps through the world's move table with the reward and
the update written out, and reads each row's max, argmax ties and bootstrap
target from caches that it updates in place when an update raises a value
and recomputes when one lowers it. The reference loop below takes each step
the plain way -- ``random_free_cell`` by ``randrange``, ``select_action``
(an exploration coin, else ``greedy_action``), ``step``,
``reward_adaptive`` and ``q_update`` -- and must give an equal table, equal
episode logs and leave the random generator in the same state. The extra
modes stress the caches: greedy steps read the cached ties, ``alpha`` 1
makes most updates change a value, a link covered everywhere makes rows tie
everywhere, and with ``gamma`` 0 as well every update writes exactly
``r_covered``, so a rise often ties the row's max. The default link covers
every cell of the test grid, so only the mode whose threshold puts half the
cells in outage lowers values.
"""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from uavnav import agents
from uavnav.agents import (
    DRAIN_SLOTS,
    EpisodeLog,
    EpisodeLogs,
    reward_adaptive,
    reward_strategic,
    train_adaptive,
    train_strategic,
)
from uavnav.config import TrainConfig, stream_rng
from uavnav.gridworld import (
    ACTIONS,
    ACTIONS_XY,
    GridSpec,
    StepEvent,
)
from uavnav.harness import build_world
from uavnav.qcore import EpsilonSchedule, Hyper, QTable
from uavnav.radio import coverage_map

from oracles import euclid_cells, manhattan_cells, splitmix64_uniform
from reference import argmax_ties, epsilon_at, greedy_action, q_update, random_free_cell


def step(world, pos, a, dest):
    """The move-table entry of ``a`` from ``pos``; a plain move onto ``dest`` arrives."""
    to, event = world.moves[world.index(pos)][a]
    nxt = world.cells[to]
    if event is StepEvent.MOVED and nxt == dest:
        return nxt, StepEvent.ARRIVED_AT_DESTINATION
    return nxt, event


def select_action(table, s, epsilon, rng, candidates):
    """Epsilon-greedy over ``candidates``, ties broken by ``greedy_action``."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return candidates[rng.randrange(len(candidates))]
    return greedy_action(table.q[s].tolist(), candidates, rng)


def reference_strategic(world, cfg, rng):
    """``train_strategic``, one episode after another, each action picked here.

    Also returns the steps taken per ``StepEvent`` and the actions taken at
    epsilon 0 from an all-zero row, where every candidate ties.
    """
    gen = np.random.default_rng(rng.getrandbits(128))
    starts, dests = agents._missions(world, cfg, gen)
    keys = gen.integers(1 << 64, size=cfg.episodes_strategic, dtype=np.uint64).tolist()
    # a column per destination, or one toward the fixed destination
    per_destination = cfg.fixed_destination is None
    table = QTable("strategic", world.spec, cfg.hyper, cfg.seed,
                   columns=world.spec.n_cells if per_destination else 1)
    dist = manhattan_cells if cfg.distance_metric == "manhattan" else euclid_cells
    sizes = (world.spec.cell_size_m, world.spec.cell_height_m)
    candidates = ACTIONS_XY if cfg.altitude_locked else ACTIONS
    missions = world.mission_cells(cfg.altitude_locked)
    logs, events, ties = [], Counter(), Counter()
    for episode, key in enumerate(keys):
        pos, dest = world.cells[starts[episode]], world.cells[dests[episode]]
        # the mission rules
        assert dest in missions
        if cfg.fixed_destination is not None:
            assert dest == cfg.fixed_destination
        if cfg.fixed_destination is not None or episode % 2 == 0:
            assert pos == world.start_cell
        else:
            assert pos in missions and pos != dest
        epsilon = epsilon_at(cfg.schedule, episode)
        col = world.index(dest) if per_destination else 0
        total, steps, arrived = 0.0, 0, False
        while steps < cfg.resolved_step_cap():
            coin = splitmix64_uniform(key, 2 * steps)
            u = splitmix64_uniform(key, 2 * steps + 1)
            s = (world.index(pos), col)
            row = table.q[s].tolist()
            best = max(row[a] for a in candidates)
            picks = [a for a in candidates if coin < epsilon or row[a] == best]
            a = picks[int(u * len(picks))]
            if epsilon == 0.0 and not any(row):
                ties[a] += 1
            nxt, event = step(world, pos, a, dest)
            r = reward_strategic(dist(pos, dest, *sizes), dist(nxt, dest, *sizes), event,
                                 cfg.rewards)
            q_update(table, s, a, r, (world.index(nxt), col), cfg.hyper)
            events[event] += 1
            total += r
            steps += 1
            pos = nxt
            if event == StepEvent.ARRIVED_AT_DESTINATION:
                arrived = True
                break
        logs.append(EpisodeLog(episode, dest, total, steps, arrived, epsilon))
    return table, logs, events, ties


def next_pick(table, s, epsilon, rng, candidates):
    """The pick ``select_action`` is about to draw from ``rng``.

    ``("explore", n)`` over n candidates, or ``("tie", n)`` among n tied
    maximizers (n == 1 draws nothing). The exploration coin is read from a
    copy of ``rng``, so ``rng`` itself is not drawn from.
    """
    peek = random.Random()
    peek.setstate(rng.getstate())
    if epsilon > 0.0 and peek.random() < epsilon:
        return "explore", len(candidates)
    return "tie", len(argmax_ties(table.q[s].tolist(), candidates))


def reference_adaptive(world, lb, cfg, rng):
    """``train_adaptive`` step by step through the reference calls.

    Also returns how often each pick (``next_pick``) was drawn.
    """
    table = QTable("adaptive", world.spec, cfg.hyper, cfg.seed, f_mhz=lb.f_mhz)
    cmap = coverage_map(lb, world)
    candidates = ACTIONS_XY if cfg.altitude_locked else ACTIONS
    locked = cfg.altitude_locked
    logs, picks = [], Counter()
    for episode in range(cfg.episodes_adaptive):
        epsilon = epsilon_at(cfg.schedule_adaptive, episode)
        pos = world.start_cell if episode % 2 == 0 else random_free_cell(world, rng, locked)
        dest = random_free_cell(world, rng, locked)
        while dest == pos:
            dest = random_free_cell(world, rng, locked)
        total, steps, arrived = 0.0, 0, False
        while steps < cfg.resolved_step_cap():
            s = (world.index(pos), 0)
            picks[next_pick(table, s, epsilon, rng, candidates)] += 1
            a = select_action(table, s, epsilon, rng, candidates)
            nxt, event = step(world, pos, a, dest)
            r = reward_adaptive(float(cmap.snr[nxt]), lb.snr_threshold_db, cfg.rewards)
            q_update(table, (world.index(pos), 0), a, r, (world.index(nxt), 0), cfg.hyper)
            total += r
            steps += 1
            pos = nxt
            if event == StepEvent.ARRIVED_AT_DESTINATION:
                arrived = True
                break
        logs.append(EpisodeLog(episode, dest, total, steps, arrived, epsilon))
    return table, logs, picks


def typed(value):
    """A value with its exact type, so 0 and Action.PLUS_X or 1.0 and 1 differ."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(typed(v) for v in value)
    if isinstance(value, float):
        # hex keeps the sign of zero
        return float, value.hex() if math.isfinite(value) else repr(value)
    return type(value), value


# The dtype of each column of EpisodeLogs.
COLUMN_DTYPES = {
    "destination": np.intp,
    "total_reward": np.float64,
    "steps": np.intp,
    "arrived": np.bool_,
    "epsilon": np.float64,
}


def assert_same_run(got, want):
    """The same table and logs, float bits included: the loop's log columns
    against columns built from the reference's records, and the records
    the columns yield against the reference's."""
    (t_got, logs_got), (t_want, logs_want) = got, want
    assert t_got == t_want
    # float bits, so -0.0 and 0.0 differ
    assert t_got.q.tobytes() == t_want.q.tobytes()
    assert isinstance(logs_got, EpisodeLogs)
    assert len(logs_got) == len(logs_want)
    world_index = {cell: i for i, cell in enumerate(logs_got.cells)}
    for name, dtype in COLUMN_DTYPES.items():
        column = getattr(logs_got, name)
        values = [getattr(log, name) for log in logs_want]
        if name == "destination":
            values = [world_index[cell] for cell in values]
        want_column = np.array(values, dtype=dtype)
        assert column.dtype == want_column.dtype and column.shape == want_column.shape, name
        if dtype is np.float64:
            column, want_column = column.view(np.uint64), want_column.view(np.uint64)
        assert np.array_equal(column, want_column), name
    assert [typed(dataclasses.astuple(l)) for l in logs_got] == [
        typed(dataclasses.astuple(l)) for l in logs_want
    ]


# SplitMix64 seeded with 0: its first four outputs, as published with the
# generator. Output c mixes the state c * golden.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_stream_draws_are_splitmix64():
    want = [(v >> 11) * 2.0**-53 for v in SPLITMIX64_SEED0]
    states = [c * 0x9E3779B97F4A7C15 % 2**64 for c in range(1, 5)]
    assert agents._uniforms(np.array(states, dtype=np.uint64)).tolist() == want
    assert [splitmix64_uniform(0, c) for c in range(1, 5)] == want


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
    # a cap no episode reaches; the drain's draws do not grow with it
    "fixed_destination_uncapped": {"step_cap": 10**12},
    "altitude_locked": {"altitude_locked": True},
    "manhattan": {"distance_metric": "manhattan"},
    # an odd count: the last episode takes off from the takeoff cell
    "401_episodes": {"episodes_strategic": 401, "episodes_adaptive": 401},
    # epsilon reaches exactly 0 from episode 108 on
    "greedy": {"schedule": EpsilonSchedule(1.0, 0.0, 1e-3)},
}
# Modes of the coverage loop alone.
ADAPTIVE_MODES = {
    # epsilon reaches exactly 0 from episode 108 on
    "greedy_adaptive": {"schedule_adaptive": EpsilonSchedule(1.0, 0.0, 1e-3)},
    "alpha_1": {"hyper": Hyper(alpha=1.0)},
    "always_covered": {},  # the test lowers the link's threshold to -inf
    # covered everywhere too, so every update writes exactly r_covered:
    # rises that tie the row's max are common
    "writes_r_covered": {"hyper": Hyper(alpha=1.0, gamma=0.0)},
    # the test raises the threshold to the median SNR: an outage reward
    # lowers values, which no other mode's link does
    "half_in_outage": {},
}
# Adaptive modes whose link covers every cell.
EVERY_CELL_COVERED = {"always_covered", "writes_r_covered"}


def mode_config(mode: str) -> TrainConfig:
    cfg = TrainConfig(**{**BASE, **{**MODES, **ADAPTIVE_MODES}[mode]})
    if mode.startswith("fixed_destination"):
        world = build_world(cfg)
        cfg = dataclasses.replace(cfg, fixed_destination=max(world.mission_cells()))
    return cfg


@pytest.mark.parametrize("mode", sorted(MODES))
def test_train_strategic_replays_through_public_calls(mode):
    cfg = mode_config(mode)
    world = build_world(cfg)
    got = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
    table, logs, _, ties = reference_strategic(
        build_world(cfg), cfg, stream_rng(cfg.seed, "train.strategic")
    )
    assert_same_run(got, (table, logs))
    assert table.n_states() > 0
    if mode == "greedy":
        # ties go to each of the six actions alike: chi-square, df=5, 0.001 level
        n = sum(ties.values())
        assert n > 600
        assert sum((ties[a] - n / 6) ** 2 / (n / 6) for a in ACTIONS) < 20.5


@pytest.fixture(scope="module")
def goal_conditioned_reference():
    cfg = mode_config("goal_conditioned")
    table, logs, _, _ = reference_strategic(
        build_world(cfg), cfg, stream_rng(cfg.seed, "train.strategic")
    )
    return table, logs


def spy_drain(monkeypatch, world, cfg):
    """The first step of each episode the drain runs, filled in as it runs.

    The drain draws an episode's uniforms a block of steps at a time, each
    block from the stream state of a step's coin, key + 2t * golden. An
    episode whose first drained step t is above 0 was taken over mid-run.
    """
    gen = np.random.default_rng(stream_rng(cfg.seed, "train.strategic").getrandbits(128))
    agents._missions(world, cfg, gen)
    keys = gen.integers(1 << 64, size=cfg.episodes_strategic, dtype=np.uint64).tolist()
    coin = {
        (key + 2 * t * 0x9E3779B97F4A7C15) % 2**64: (e, t)
        for e, key in enumerate(keys)
        for t in range(cfg.resolved_step_cap())
    }
    first = {}
    uniforms = agents._uniforms

    def spy(z):
        if z.ndim == 1:  # the lockstep draws for all slots at once, in two rows
            first.setdefault(*coin[int(z[0])])
        return uniforms(z)

    monkeypatch.setattr(agents, "_uniforms", spy)
    return first


# Drain thresholds: 0 runs the lockstep to the end, so chains that end free
# their slots mid-run; DRAIN_SLOTS hands the last chains to the drain
# mid-episode; a threshold of at least the number of destinations drains
# from the start, one chain after another.
DRAINS = {"lockstep_to_the_end": 0, "default_drain": DRAIN_SLOTS, "chains_one_by_one": None}


@pytest.mark.parametrize("drain", sorted(DRAINS))
def test_train_strategic_does_not_depend_on_drain(
    monkeypatch, goal_conditioned_reference, drain
):
    cfg = mode_config("goal_conditioned")
    world = build_world(cfg)
    destinations = len(world.mission_cells())
    threshold = DRAINS[drain]
    monkeypatch.setattr(
        agents, "DRAIN_SLOTS", destinations if threshold is None else threshold
    )
    drained = spy_drain(monkeypatch, world, cfg)
    got = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
    assert_same_run(got, goal_conditioned_reference)
    resumed = [e for e, t in drained.items() if t > 0]
    if drain == "lockstep_to_the_end":
        assert not drained
    elif drain == "default_drain":
        # handed two or more destinations' episodes, each after some steps
        assert len(resumed) >= 2
    else:
        # every episode, each from its first step
        assert len(drained) == cfg.episodes_strategic and not resumed


# The lockstep holds one slot per destination. A run folded onto 1 or 7
# destinations has that many slots, fewer than DRAIN_SLOTS, so the drain
# runs long chains from the start; 256 is more slots than this world has
# destinations, so the run is left as drawn.
@pytest.mark.parametrize("slots", [1, 7, 256])
@pytest.mark.parametrize("drain", [DRAIN_SLOTS], ids=["default_drain"])
def test_train_strategic_does_not_depend_on_slot_count(
    monkeypatch, goal_conditioned_reference, slots, drain
):
    cfg = mode_config("goal_conditioned")
    world = build_world(cfg)
    lowest = sorted(map(world.index, world.mission_cells()))[:2]
    missions = agents._missions

    def folded(world, cfg, gen):
        # episode e flies to the (e mod slots)-th of the first destinations
        # drawn; one that would start at its destination starts at the
        # lowest other mission cell instead
        starts, dests = missions(world, cfg, gen)
        _, first = np.unique(dests, return_index=True)
        if first.size <= slots:
            return starts, dests
        pool = dests[np.sort(first)[:slots]]
        dests = pool[np.arange(dests.size) % slots]
        other = np.where(dests == lowest[0], lowest[1], lowest[0])
        starts = np.where(starts == dests, other, starts)
        return starts, dests

    monkeypatch.setattr(agents, "_missions", folded)
    monkeypatch.setattr(agents, "DRAIN_SLOTS", drain)
    if slots < len(world.mission_cells()):
        table, logs, _, _ = reference_strategic(
            build_world(cfg), cfg, stream_rng(cfg.seed, "train.strategic")
        )
        want = (table, logs)
        assert len({log.destination for log in logs}) == slots
    else:
        want = goal_conditioned_reference
    drained = spy_drain(monkeypatch, world, cfg)
    got = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
    assert_same_run(got, want)
    resumed = [e for e, t in drained.items() if t > 0]
    if slots <= drain:
        # every episode, each from its first step
        assert len(drained) == cfg.episodes_strategic and not resumed
    else:
        # handed two or more destinations' episodes, each after some steps
        assert len(resumed) >= 2


@pytest.mark.parametrize(
    "mode", ["goal_conditioned", "altitude_locked", "401_episodes", *ADAPTIVE_MODES]
)
def test_train_adaptive_matches_reference_loop(mode):
    cfg = mode_config(mode)
    world = build_world(cfg)
    lb = cfg.link_for_band(2100.0)
    if mode in EVERY_CELL_COVERED:
        lb = dataclasses.replace(lb, snr_threshold_db=-math.inf)
    elif mode == "half_in_outage":
        median = float(np.median(coverage_map(lb, world).snr_by_index))
        lb = dataclasses.replace(lb, snr_threshold_db=median)
    rng_got, rng_want = (stream_rng(cfg.seed, "train.adaptive") for _ in range(2))
    got = train_adaptive(world, lb, cfg, rng_got)
    *want, picks = reference_adaptive(build_world(cfg), lb, cfg, rng_want)
    assert_same_run(got, want)
    assert rng_got.getstate() == rng_want.getstate()
    # Every pick size the loop draws for: exploration over all candidates
    # and ties of 2 up to all of them, so every rejection rate of its
    # getrandbits draws. The greedy mode's epsilon is 1e-3 by its second
    # episode, and it meets only some tie sizes.
    n = len(cfg.actions)
    sizes = {("explore", n), *(("tie", k) for k in range(2, n + 1))}
    drawn = set(picks) - {("tie", 1)}
    assert drawn <= sizes
    assert drawn == sizes or mode == "greedy_adaptive"


def randrange_via_getrandbits(rng, n):
    """How the coverage loop and the flights pick one of n: getrandbits(k)
    for k = n.bit_length(), drawn again while it is n or more."""
    k = n.bit_length()
    i = rng.getrandbits(k)
    while i >= n:
        i = rng.getrandbits(k)
    return i


def test_getrandbits_rule_draws_as_randrange():
    # The hot loops rely on this being what randrange(n) draws; if a Python
    # version changes how randrange draws, the loops no longer replay the
    # reference calls, and this test names the cause.
    for seed in range(40):
        got, want = random.Random(seed), random.Random(seed)
        for n in range(1, 65):
            for _ in range(8):
                assert randrange_via_getrandbits(got, n) == want.randrange(n)
            assert got.getstate() == want.getstate()


def test_compared_runs_cover_every_step_event():
    cfg = mode_config("goal_conditioned")
    _, _, events, _ = reference_strategic(
        build_world(cfg), cfg, stream_rng(cfg.seed, "train.strategic")
    )
    assert set(events) == set(StepEvent)
