"""Training loops for the two agents.

The strategic planner learns shortest obstacle-aware paths: every step is
rewarded by whether it strictly reduced the distance to the episode's
destination, with large additive terms for crashing into an obstacle or
arriving. Its Q-table is goal-conditioned -- keys are (position,
destination) pairs -- because each episode draws a fresh destination and a
position-only table cannot represent distance-to-goal preferences for
arbitrary targets. A fixed-destination mode keying on position alone is
kept for literal single-goal replication.

The coverage agent learns where the cellular link holds up: each step is
rewarded by whether the SNR at the landed cell clears the threshold. Its
keys are positions only; the episode's destination merely decides when the
episode ends.

Crashes during training pass through (penalty, episode continues); a step
cap aborts episodes that would otherwise wander unboundedly.

Both loops are written for speed, one Q-learning update per step. They step
through the world's move table (``GridWorld.moves``), compute the rewards
inline (the coverage reward of every cell once per band, from the band's
``CoverageMap``) and carry the current state's Q-row from one step to the
next, so each step does one row lookup. Their choices and updates are those
of ``select_action``, ``apply_action``, ``reward_strategic`` /
``reward_adaptive`` and ``q_update``, RNG draws included: they share
``qcore.greedy_action`` and ``qcore.store_update`` with them, and a test
replays every mode against a loop built from those calls. Reward constants
are finite by construction (``RewardParams`` rejects anything else), so the
loops skip ``q_update``'s finiteness check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import TYPE_CHECKING

from .gridworld import (
    ACTIONS,
    ACTIONS_XY,
    Action,
    Cell,
    GridWorld,
    StepEvent,
    distance_m,
    manhattan_m,
    random_free_cell,
)
from .qcore import QTable, StateKey, greedy_action, store_update
from .radio import LinkBudget, coverage_map

if TYPE_CHECKING:
    from .config import TrainConfig


@dataclass(frozen=True)
class RewardParams:
    """Step-reward constants.

    Terminal events dominate per-step shaping. The coverage rewards sit a
    decade above the distance shaping on purpose: with gamma = 0.5, chains
    of equal-sized step rewards in both tables would converge to the same
    value and turn the flight-time cross-table comparison into noise.
    Keeping the coverage scale well above the shaping scale (and far below
    the arrival bonus) makes that comparison defer to the planner except
    where coverage is actually in question.
    """

    r_closer: float = 1.0
    r_farther: float = -1.0
    r_crash: float = -100.0
    r_arrive: float = 100.0
    r_covered: float = 10.0
    r_outage: float = -200.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        # the extreme step rewards, which the training loops add up
        if not (
            math.isfinite(self.r_farther + self.r_crash)
            and math.isfinite(self.r_closer + self.r_arrive)
        ):
            raise ValueError("step rewards must add up to finite numbers")
        if not self.r_crash < self.r_farther < 0.0 < self.r_closer < self.r_arrive:
            raise ValueError(
                "require r_crash < r_farther < 0 < r_closer < r_arrive"
            )
        if not self.r_outage < 0.0 < self.r_covered:
            raise ValueError("require r_outage < 0 < r_covered")


MOVED = StepEvent.MOVED
CRASHED = StepEvent.CRASHED_INTO_OBSTACLE
ARRIVED = StepEvent.ARRIVED_AT_DESTINATION


class TerminalCause(Enum):
    ARRIVED = "arrived"
    STEP_CAP_HIT = "step_cap_hit"


@dataclass
class StepRecord:
    state: Cell
    action: Action
    reward: float
    event: StepEvent
    snr_db: float | None = None


@dataclass
class EpisodeLog:
    """Per-episode bookkeeping; step records only when requested."""

    episode: int
    destination: Cell
    total_reward: float
    steps: int
    terminal: TerminalCause
    epsilon: float
    records: list[StepRecord] | None = field(default=None, repr=False)


def reward_strategic(
    dist_before_m: float,
    dist_after_m: float,
    event: StepEvent,
    p: RewardParams,
) -> float:
    """Distance shaping plus additive crash/arrival terms."""
    r = p.r_closer if dist_after_m < dist_before_m else p.r_farther
    if event == StepEvent.CRASHED_INTO_OBSTACLE:
        r += p.r_crash
    elif event == StepEvent.ARRIVED_AT_DESTINATION:
        r += p.r_arrive
    return r


def reward_adaptive(snr_db: float, threshold_db: float, p: RewardParams) -> float:
    """Outage penalty strictly below the threshold, reward otherwise."""
    return p.r_outage if snr_db < threshold_db else p.r_covered


def _candidates(cfg: "TrainConfig") -> tuple[int, ...]:
    # Plain ints: a list indexed by an int is faster than by an IntEnum
    # member. Step records turn them back into Actions.
    return tuple(map(int, ACTIONS_XY if cfg.altitude_locked else ACTIONS))


def draw_free_cell(
    world: GridWorld, rng: random.Random, layer: int | None = None
) -> Cell:
    """Random free cell, restricted to one altitude layer when locked."""
    c = random_free_cell(world, rng)
    if layer is None:
        return c
    while c[2] != layer:
        c = random_free_cell(world, rng)
    return c


def train_strategic(
    world: GridWorld, cfg: "TrainConfig", rng: random.Random
) -> tuple[QTable, list[EpisodeLog]]:
    """Run the path-planning training loop for cfg.episodes_strategic episodes.

    In goal-conditioned mode, episodes alternate between the takeoff cell
    and a uniformly random free cell as the start position. Episodes toward
    the same destination then approach it from many directions, so the
    learned values form one connected basin per destination instead of a
    single thin corridor, and a flight nudged off its trained path can
    re-join a valued route from wherever it ends up. Fixed-destination mode
    keeps every episode at the takeoff cell.
    """
    if cfg.episodes_strategic < 1:
        raise ValueError("episodes_strategic must be >= 1")
    goal_conditioned = cfg.goal_conditioned
    fixed_dest = cfg.fixed_destination
    if not goal_conditioned and fixed_dest is None:
        raise ValueError("fixed-destination mode needs cfg.fixed_destination")
    if fixed_dest is not None:
        if not world.spec.in_bounds(fixed_dest) or fixed_dest in world.obstacles:
            raise ValueError(f"fixed destination {fixed_dest} not a free cell")
        if fixed_dest == world.start_cell:
            raise ValueError("fixed destination equals the start cell")

    table = QTable(
        kind="strategic",
        grid=world.spec,
        hyper=cfg.hyper,
        seed=cfg.seed,
        goal_conditioned=goal_conditioned,
    )
    rows = table._rows
    moves = world.moves
    index = world.index
    candidates = _candidates(cfg)
    n_candidates = len(candidates)
    cap = cfg.resolved_step_cap()
    alpha, gamma = cfg.hyper.alpha, cfg.hyper.gamma
    p = cfg.rewards
    r_closer, r_farther, r_crash, r_arrive = p.r_closer, p.r_farther, p.r_crash, p.r_arrive
    # The shaping distance, written out as in distance_m / manhattan_m.
    euclidean = cfg.distance_metric == "euclidean"
    first_distance = distance_m if euclidean else manhattan_m
    size, height = world.spec.cell_size_m, world.spec.cell_height_m
    sqrt = math.sqrt
    uniform, randrange = rng.random, rng.randrange
    start = world.start_cell
    layer = start[2] if cfg.altitude_locked else None
    logs: list[EpisodeLog] = []

    for episode in range(cfg.episodes_strategic):
        epsilon = cfg.schedule.at(episode)
        explore = epsilon > 0.0
        if fixed_dest is not None:
            pos = start
            dest = fixed_dest
        else:
            pos = start if episode % 2 == 0 else draw_free_cell(world, rng, layer)
            dest = draw_free_cell(world, rng, layer)
            while dest == pos:
                dest = draw_free_cell(world, rng, layer)
        gx, gy, gz = dest
        at, goal = index(pos), index(dest)
        d_prev = first_distance(world, pos, dest)
        s_key: StateKey = (pos, dest) if goal_conditioned else pos
        row = rows.get(s_key)
        total = 0.0
        steps = 0
        records: list[StepRecord] | None = [] if cfg.record_steps else None
        terminal = TerminalCause.STEP_CAP_HIT
        while steps < cap:
            if (explore and uniform() < epsilon) or row is None:
                a = candidates[randrange(n_candidates)]
            else:
                a = greedy_action(row, candidates, rng)
            to, nxt, event = moves[at][a]
            x, y, z = nxt
            ex, ey, ez = (x - gx) * size, (y - gy) * size, (z - gz) * height
            if euclidean:
                d_next = sqrt(ex * ex + ey * ey + ez * ez)
            else:
                d_next = abs(ex) + abs(ey) + abs(ez)
            r = r_closer if d_next < d_prev else r_farther
            if event is CRASHED:
                r += r_crash
            elif to == goal and event is MOVED:
                event = ARRIVED
                r += r_arrive
            n_key: StateKey = (nxt, dest) if goal_conditioned else nxt
            next_row = rows.get(n_key)
            max_next = max(next_row) if next_row is not None else 0.0
            row = store_update(rows, s_key, row, a, r, max_next, alpha, gamma)
            if records is not None:
                records.append(StepRecord(pos, ACTIONS[a], r, event))
            total += r
            steps += 1
            if event is ARRIVED:
                terminal = TerminalCause.ARRIVED
                break
            if to != at:  # else s' is s, and its row is the one just written
                row = next_row
            pos, at, s_key, d_prev = nxt, to, n_key, d_next
        logs.append(
            EpisodeLog(episode, dest, total, steps, terminal, epsilon, records)
        )
    return table, logs


def train_adaptive(
    world: GridWorld, lb: LinkBudget, cfg: "TrainConfig", rng: random.Random
) -> tuple[QTable, list[EpisodeLog]]:
    """Run the coverage training loop for cfg.episodes_adaptive episodes.

    SNR per cell is read from the band's coverage map, the same map the
    flight arbiter reads.

    Episodes alternate between the takeoff cell and a uniformly random free
    cell as the start position. The coverage table is keyed by position
    alone and has to be informative over the whole region, which a random
    walk pinned to one corner never reaches; the takeoff-started half keeps
    the early training signal representative of real departures.
    """
    if cfg.episodes_adaptive < 1:
        raise ValueError("episodes_adaptive must be >= 1")
    table = QTable(
        kind="adaptive",
        grid=world.spec,
        hyper=cfg.hyper,
        seed=cfg.seed,
        f_mhz=lb.f_mhz,
    )
    rows = table._rows
    moves = world.moves
    index = world.index
    snr = coverage_map(lb, world).snr_by_index
    threshold = lb.snr_threshold_db
    p = cfg.rewards
    cell_reward = [p.r_outage if v < threshold else p.r_covered for v in snr]
    candidates = _candidates(cfg)
    n_candidates = len(candidates)
    cap = cfg.resolved_step_cap()
    alpha, gamma = cfg.hyper.alpha, cfg.hyper.gamma
    uniform, randrange = rng.random, rng.randrange
    start = world.start_cell
    layer = start[2] if cfg.altitude_locked else None
    logs: list[EpisodeLog] = []

    schedule = cfg.schedule_adaptive
    for episode in range(cfg.episodes_adaptive):
        epsilon = schedule.at(episode)
        explore = epsilon > 0.0
        pos = start if episode % 2 == 0 else draw_free_cell(world, rng, layer)
        dest = draw_free_cell(world, rng, layer)
        while dest == pos:
            dest = draw_free_cell(world, rng, layer)
        at, goal = index(pos), index(dest)
        row = rows.get(pos)
        total = 0.0
        steps = 0
        records: list[StepRecord] | None = [] if cfg.record_steps else None
        terminal = TerminalCause.STEP_CAP_HIT
        while steps < cap:
            if (explore and uniform() < epsilon) or row is None:
                a = candidates[randrange(n_candidates)]
            else:
                a = greedy_action(row, candidates, rng)
            to, nxt, event = moves[at][a]
            r = cell_reward[to]
            if to == goal and event is MOVED:
                event = ARRIVED
            next_row = rows.get(nxt)
            max_next = max(next_row) if next_row is not None else 0.0
            row = store_update(rows, pos, row, a, r, max_next, alpha, gamma)
            if records is not None:
                records.append(StepRecord(pos, ACTIONS[a], r, event, snr_db=snr[to]))
            total += r
            steps += 1
            if event is ARRIVED:
                terminal = TerminalCause.ARRIVED
                break
            if to != at:  # else s' is s, and its row is the one just written
                row = next_row
            pos, at = nxt, to
        logs.append(
            EpisodeLog(episode, dest, total, steps, terminal, epsilon, records)
        )
    return table, logs
