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

Both loops are written for speed. They step through the world's move
table (``GridWorld.moves``) and compute the rewards inline; both apply
``qcore.bootstrap``, the update ``q_update`` applies.

The planner's loop runs episodes in lockstep. Its update for one
destination never reads another destination's rows, because the bootstrap
reads (s', same destination), so up to ``LOCKSTEP_SLOTS`` episodes with
distinct destinations advance together, each step one batch of numpy
operations on the dense ``Q[cell, dest, a]`` table: epsilon mask, argmax
with uniform random ties, move-table lookup, reward, scatter update. Its
choices follow the rule of ``select_action`` and its updates round as
``q_update``'s do; a test replays each episode's recorded actions, in
episode order, through ``apply_action``, ``reward_strategic`` and
``q_update`` and gets the same table bit for bit.

The coverage agent's table is keyed by position alone, so every episode
reads every other's rows and its loop stays sequential: one update per
step, on Python lists of the table's rows indexed by flat cell index, with
the coverage reward of every cell computed once per band from the band's
``CoverageMap``. Its choices and updates are those of ``select_action``,
``apply_action``, ``reward_adaptive`` and ``q_update``, RNG draws
included, and a test replays it against a loop built from those calls.
Reward constants are finite by construction (``RewardParams`` rejects
anything else), so the loops skip ``q_update``'s finiteness check.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .gridworld import (
    ACTIONS,
    ACTIONS_XY,
    Action,
    Cell,
    GridWorld,
    StepEvent,
    random_free_cell,
)
from .qcore import N_ACTIONS, QTable, bootstrap, greedy_action
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


# Episodes the planner's loop advances together.
LOCKSTEP_SLOTS = 256

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


def _missions(
    world: GridWorld, cfg: "TrainConfig", gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Start and destination flat index of every planner episode.

    With a fixed destination every episode flies from the takeoff cell to
    it. Otherwise even episodes start at the takeoff cell and odd ones at a
    uniformly drawn free cell, and the destination is uniform over the free
    cells other than the takeoff cell and the episode's start; with
    ``altitude_locked`` both stay on the takeoff layer. These are the rules
    of ``draw_free_cell``, drawn for all episodes at once.
    """
    n = cfg.episodes_strategic
    start = world.index(world.start_cell)
    if cfg.fixed_destination is not None:
        return np.full(n, start), np.full(n, world.index(cfg.fixed_destination))
    free = np.ones(world.spec.n_cells, dtype=bool)
    free[[world.index(c) for c in world.obstacles]] = False
    free[start] = False
    if cfg.altitude_locked:
        free &= np.array([c[2] == world.start_cell[2] for c in world.cells])
    pool = np.flatnonzero(free)
    n_odd = n // 2
    if pool.size < (2 if n_odd else 1):
        raise ValueError(
            f"{pool.size} free mission cell(s) besides the start cell; "
            "training needs a start and a different destination"
        )
    starts = np.full(n, start)
    drawn = gen.integers(pool.size, size=n_odd)
    starts[1::2] = pool[drawn]
    # An odd episode's start is in the pool: draw from the rest by skipping it.
    pick = gen.integers(pool.size - (np.arange(n) % 2))
    pick[1::2] += pick[1::2] >= drawn
    return starts, pool[pick]


# SplitMix64: the c-th draw of the stream with key k mixes k + c * golden.
_GOLDEN = 0x9E3779B97F4A7C15
# step t of an episode takes draws 2t and 2t + 1 of its stream
_COIN_AND_PICK = np.array([[0], [_GOLDEN]], dtype=np.uint64)
_NEXT_STEP = np.uint64(2 * _GOLDEN % 2**64)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1) from SplitMix64 states ``z`` (``k + c * golden``).

    A counter-based generator: a draw depends on its stream key and index
    alone, never on what else was drawn before it.
    """
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def _distance_table(world: GridWorld, metric: str) -> np.ndarray:
    """``dist[c, g]``: the shaping distance between cells of flat index c and g.

    Each entry is computed with the arithmetic of ``distance_m`` (or
    ``manhattan_m``), so it rounds exactly as they do. Built in blocks of
    rows to keep the temporaries small.
    """
    spec = world.spec
    coords = np.array(world.cells, dtype=np.intp)
    scale = np.array([spec.cell_size_m, spec.cell_size_m, spec.cell_height_m])
    dist = np.empty((len(coords), len(coords)))
    for lo in range(0, len(coords), 256):
        ex, ey, ez = np.moveaxis((coords[lo : lo + 256, None] - coords) * scale, -1, 0)
        if metric == "euclidean":
            dist[lo : lo + 256] = np.sqrt(ex * ex + ey * ey + ez * ez)
        else:
            dist[lo : lo + 256] = np.abs(ex) + np.abs(ey) + np.abs(ez)
    return dist


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

    Up to ``LOCKSTEP_SLOTS`` episodes run together, each step of all of
    them one batch of array operations on ``table.q``. An update reads and
    writes only rows of its own destination, so episodes to different
    destinations never see each other's writes: a free slot takes the
    lowest-numbered waiting episode whose destination no running episode
    has, and the episodes to one destination run one at a time, in episode
    order, exactly as a sequential loop would run them. Fixed-destination
    mode runs one episode at a time.

    ``rng`` seeds a numpy generator that draws the missions and one random
    stream per episode; step t of an episode takes draws 2t (exploration
    coin) and 2t + 1 (which candidate) of its stream. So the trained table
    and logs do not depend on ``LOCKSTEP_SLOTS``: one slot gives the same
    bits as a sequential loop over the episodes.
    """
    goal_conditioned = cfg.goal_conditioned
    if cfg.fixed_destination in world.obstacles:
        raise ValueError(f"fixed destination {cfg.fixed_destination} is an obstacle")

    table = QTable(
        kind="strategic",
        grid=world.spec,
        hyper=cfg.hyper,
        seed=cfg.seed,
        goal_conditioned=goal_conditioned,
    )
    # q[cell, column, a]: a destination's column, or the one column of a
    # position-keyed table
    q = table.q.reshape(world.spec.n_cells, -1, N_ACTIONS)
    gen = np.random.default_rng(rng.getrandbits(128))
    n = cfg.episodes_strategic
    starts, dests = _missions(world, cfg, gen)
    streams = gen.integers(1 << 64, size=n, dtype=np.uint64)  # stream keys
    epsilons = [cfg.schedule.at(e) for e in range(n)]
    eps_of = np.array(epsilons)
    landing = np.array([[m[0] for m in row] for row in world.moves], dtype=np.intp)
    event_of = np.array([[m[2] for m in row] for row in world.moves], dtype=np.intp)
    crashes = event_of == CRASHED
    dist = _distance_table(world, cfg.distance_metric)
    # ACTIONS_XY is the first four actions, so a candidate's position in
    # the candidate set is its action value.
    n_candidates = len(_candidates(cfg))
    cap = cfg.resolved_step_cap()
    alpha, gamma = cfg.hyper.alpha, cfg.hyper.gamma
    p = cfg.rewards
    records: list[list[StepRecord]] | None = (
        [[] for _ in range(n)] if cfg.record_steps else None
    )

    # after[e]: the next episode to e's destination, or -1
    order = np.argsort(dests, kind="stable")
    same = dests[order[1:]] == dests[order[:-1]]
    after = np.full(n, -1, dtype=np.intp)
    after[order[:-1][same]] = order[1:][same]
    # waiting episodes whose destination no running episode has, ascending
    ready = sorted(order[np.r_[True, ~same]].tolist())

    total_of = np.zeros(n)
    steps_of = np.zeros(n, dtype=np.intp)
    arrived_of = np.zeros(n, dtype=bool)
    # the running episodes, one entry per slot: episode, cell, destination,
    # steps taken, reward so far and the state of its stream
    ep = at = goal = steps = np.zeros(0, dtype=np.intp)
    total = np.zeros(0)
    draw = np.zeros(0, dtype=np.uint64)
    while True:
        k = min(LOCKSTEP_SLOTS - ep.size, len(ready))
        if k:
            new = np.array(ready[:k], dtype=np.intp)
            del ready[:k]
            ep = np.concatenate((ep, new))
            at = np.concatenate((at, starts[new]))
            goal = np.concatenate((goal, dests[new]))
            steps = np.concatenate((steps, np.zeros(k, dtype=np.intp)))
            total = np.concatenate((total, np.zeros(k)))
            draw = np.concatenate((draw, streams[new]))
        if not ep.size:
            break
        col = goal if goal_conditioned else 0

        # epsilon-greedy over the candidates: a uniformly drawn one of the
        # maximizers, or of all candidates when exploring
        coin, u = _uniforms(draw + _COIN_AND_PICK)
        row = q[at, col]
        values = row[:, :n_candidates]
        pick = values == reduce(np.maximum, values.T)[:, None]
        pick |= (coin < eps_of[ep])[:, None]
        ranks = pick.cumsum(axis=1)
        nth = (u * ranks[:, -1]).astype(np.intp)
        a = (ranks > nth[:, None]).argmax(axis=1)

        to = landing[at, a]
        arrived = to == goal
        r = np.where(dist[to, goal] < dist[at, goal], p.r_closer, p.r_farther) + np.where(
            crashes[at, a], p.r_crash, np.where(arrived, p.r_arrive, 0.0)
        )
        # max_a' Q(s', a') is read before the write: s' may be s
        max_next = reduce(np.maximum, q[to, col].T)
        q[at, col, a] = bootstrap(q[at, col, a], r, max_next, alpha, gamma)
        if records is not None:
            events = np.where(arrived, ARRIVED, event_of[at, a])
            for e, c, act, rew, ev in zip(
                ep.tolist(), at.tolist(), a.tolist(), r.tolist(), events.tolist()
            ):
                records[e].append(StepRecord(world.cells[c], ACTIONS[act], rew, StepEvent(ev)))
        at = to
        total += r
        steps += 1
        draw += _NEXT_STEP

        done = arrived | (steps >= cap)
        if done.any():
            fin = ep[done]
            total_of[fin] = total[done]
            steps_of[fin] = steps[done]
            arrived_of[fin] = arrived[done]
            for e in after[fin].tolist():
                if e >= 0:
                    insort(ready, e)
            keep = ~done
            ep, at, goal, steps, total, draw = (
                x[keep] for x in (ep, at, goal, steps, total, draw)
            )

    cells = world.cells
    logs = [
        EpisodeLog(
            e,
            cells[d],
            t,
            s,
            TerminalCause.ARRIVED if arr else TerminalCause.STEP_CAP_HIT,
            epsilons[e],
            None if records is None else records[e],
        )
        for e, (d, t, s, arr) in enumerate(
            zip(dests.tolist(), total_of.tolist(), steps_of.tolist(), arrived_of.tolist())
        )
    ]
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
    table = QTable(
        kind="adaptive",
        grid=world.spec,
        hyper=cfg.hyper,
        seed=cfg.seed,
        f_mhz=lb.f_mhz,
    )
    rows = table.q.tolist()
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
        row = rows[at]
        total = 0.0
        steps = 0
        records: list[StepRecord] | None = [] if cfg.record_steps else None
        terminal = TerminalCause.STEP_CAP_HIT
        while steps < cap:
            if explore and uniform() < epsilon:
                a = candidates[randrange(n_candidates)]
            else:
                a = greedy_action(row, candidates, rng)
            to, nxt, event = moves[at][a]
            r = cell_reward[to]
            if to == goal and event is MOVED:
                event = ARRIVED
            next_row = rows[to]
            # max_a' Q(s', a') is read before the write: s' may be s
            row[a] = bootstrap(row[a], r, max(next_row), alpha, gamma)
            if records is not None:
                records.append(StepRecord(pos, ACTIONS[a], r, event, snr_db=snr[to]))
            total += r
            steps += 1
            if event is ARRIVED:
                terminal = TerminalCause.ARRIVED
                break
            pos, at, row = nxt, to, next_row
        logs.append(
            EpisodeLog(episode, dest, total, steps, terminal, epsilon, records)
        )
    table.q[:] = rows
    return table, logs
