"""Training loops for the two agents.

The strategic planner learns shortest obstacle-aware paths: every step is
rewarded by whether it strictly reduced the distance to the episode's
destination, with large additive terms for crashing into an obstacle or
arriving. Its Q-table is goal-conditioned -- one column per destination,
so a state is a (position, destination) pair -- because each episode draws
a fresh destination and a position-only table cannot represent
distance-to-goal preferences for arbitrary targets. With a
``fixed_destination`` (literal single-goal replication) every episode
flies to that one cell and the table has one column
(``TrainConfig.planner_columns``).

The coverage agent learns where the cellular link holds up: each step is
rewarded by whether the SNR at the landed cell clears the threshold. Its
table has one column, so its states are positions only; the episode's
destination merely decides when the episode ends.

Crashes during training pass through (penalty, episode continues); a step
cap aborts episodes that would otherwise wander unboundedly.

Both loops are written for speed. They step through the world's move
table (``GridWorld.moves``) and look their rewards up from tables built
once per run; both apply ``qcore.bootstrap``'s float operations, the
planner by calling it. Each is held to a step-by-step loop built from the
references in ``tests/reference.py`` (``q_update``, ``greedy_action``,
``epsilon_at``, ``random_free_cell``).

The planner's step reward has one rule, ``reward_strategic``.
``_step_codes`` turns it, once per run, into a byte per (column, cell,
action), closer + 2 * crash + 4 * arrival, and the reward of each code.
Every move changes one axis by one cell, so a move lands closer exactly
when it steps toward the destination along its own axis: the closer bit
is an integer comparison of cell coordinates, and training computes no
distance.

The planner's loop runs episodes in lockstep. Its update for one
destination never reads another destination's rows, because the bootstrap
reads (s', same destination), so each destination's chain of episodes
holds one slot for the whole run and all chains advance together, each
step one batch of numpy operations on flat views of the dense
``Q[column, cell, a]`` table: epsilon mask, argmax with uniform random ties
(6-bit tie masks, decoded by ``qcore.TIE_COUNT`` and ``TIE_NTH``),
move-table lookup, the step's code and its reward, scatter update. When only a few chains are left
(``DRAIN_SLOTS``), it drains them: their episodes run one after another as
a scalar loop on Python lists, so fixed-destination training, which has
one destination, runs there throughout. Its choices are epsilon-greedy
with uniform ties; a test runs the episodes one after another, picking
each action from the episode's random stream and stepping one move-table
entry at a time through ``reward_strategic``, on float Euclidean distances
of its own, and the reference ``q_update``, and gets the same table and
logs bit for bit, whatever the drain's threshold.

The coverage agent's table has one column, so every episode reads every
other's rows and its loop stays sequential: one update per step, on Python
lists of the table's rows indexed by flat cell index, with the coverage
reward of every cell computed once per band from the band's
``CoverageMap``. Most of its updates write back the value the row already
held (on band-flights, about 92 % of them), so it keeps beside each row
its max, its argmax ties and the bootstrap target of a step landing on it,
``alpha * (r + gamma * max)``.
An update that raises a value updates them in place: the max and target
when the new value is above the max, the ties when it reaches their value.
Only an update that lowers a value recomputes them. Its choices and
updates are those of an epsilon-greedy pick through the reference
``greedy_action``, one move-table step, ``reward_adaptive`` and the
reference ``q_update``, RNG draws included, and a test replays it against
a loop built from those calls.
Both scalar loops, the drain and the coverage loop, pick one of n ties
(or of all candidates, when exploring) from the ``qcore.PICKS`` entry of
their mask. The coverage loop takes each such pick straight from the
generator, as ``rng.randrange(n)`` draws it without its Python-level
wrapper: ``getrandbits(k)`` for k = n.bit_length(), drawn again while it
is n or more. The same words of the same Mersenne Twister are drawn, so
the generator ends in the same state. Its mission draws
(``random_free_cell``) draw each axis by the same rule.
Reward constants are finite by construction (``RewardParams`` rejects
anything else), so no update checks its reward.

Both loops return their per-episode bookkeeping as columns
(``EpisodeLogs``): one array each of destinations, total rewards, steps,
arrivals and epsilons, a fixed number of bytes per episode. The planner
fills its arrays as episodes end, the coverage loop writes into arrays
allocated before its first episode, and both take the whole run's epsilons
from ``EpsilonSchedule.first``. An ``EpisodeLog`` record per episode is
built only for a caller that iterates the logs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from collections.abc import Iterator, Sequence
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .gridworld import (
    Cell,
    GridWorld,
    StepEvent,
    random_free_cell,
    require_mission_cells,
)
from .qcore import N_ACTIONS, PICKS, TIE_COUNT, TIE_NTH, QTable, bootstrap, tie_mask, tie_masks
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


# Once at most this many destinations' chains of episodes are left, the
# planner's loop finishes them one step at a time (the drain). On
# planner-goals on a 2-vCPU host, a lockstep step of 1-16 episodes costs
# 80-90 us and a drained step about 5 us. The drain runs the chains one
# after another, so it pays for the sum of their steps where the lockstep
# pays for the longest: 16 chains of equal length about break even, and
# uneven ones, the usual case, favour the drain.
DRAIN_SLOTS = 16

MOVED = StepEvent.MOVED
CRASHED = StepEvent.CRASHED_INTO_OBSTACLE


@dataclass
class EpisodeLog:
    """One episode's bookkeeping, a row of ``EpisodeLogs``."""

    episode: int
    destination: Cell
    total_reward: float
    steps: int
    arrived: bool  # else it stopped at the step cap
    epsilon: float


@dataclass(frozen=True, eq=False)
class EpisodeLogs:
    """A training run's per-episode bookkeeping, one array per field,
    indexed by episode.

    Iterating yields each episode's ``EpisodeLog``, built only then; the
    training command reads the arrays.
    """

    cells: Sequence[Cell]  # the world's cells, by flat index
    destination: np.ndarray  # intp, the flat index of the episode's destination
    total_reward: np.ndarray  # float64
    steps: np.ndarray  # intp
    arrived: np.ndarray  # bool
    epsilon: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[EpisodeLog]:
        return map(
            EpisodeLog,
            range(len(self)),
            map(self.cells.__getitem__, self.destination.tolist()),
            self.total_reward.tolist(),
            self.steps.tolist(),
            self.arrived.tolist(),
            self.epsilon.tolist(),
        )


def reward_strategic(closer: bool, event: StepEvent, p: RewardParams) -> float:
    """Shaping by whether the step landed strictly closer to the
    destination, plus additive crash/arrival terms."""
    r = p.r_closer if closer else p.r_farther
    if event == StepEvent.CRASHED_INTO_OBSTACLE:
        r += p.r_crash
    elif event == StepEvent.ARRIVED_AT_DESTINATION:
        r += p.r_arrive
    return r


def reward_adaptive(snr_db: float, threshold_db: float, p: RewardParams) -> float:
    """Outage penalty strictly below the threshold, reward otherwise."""
    return p.r_outage if snr_db < threshold_db else p.r_covered


def _missions(
    world: GridWorld, cfg: TrainConfig, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Start and destination flat index of every planner episode.

    With a fixed destination every episode flies from the takeoff cell to
    it. Otherwise even episodes start at the takeoff cell and odd ones at a
    uniformly drawn mission cell (``GridWorld.mission_cells``), and the
    destination is uniform over the mission cells other than the episode's
    start, drawn for all episodes at once.
    """
    n = cfg.episodes_strategic
    start = world.spec.index(world.start_cell)
    fixed = cfg.fixed_destination
    need = 2 if n > 1 and fixed is None else 1
    missions = require_mission_cells(world, cfg.altitude_locked, need, fixed)
    if fixed is not None:
        return np.full(n, start), np.full(n, world.spec.index(fixed))
    pool = np.array([world.spec.index(c) for c in sorted(missions)])
    n_odd = n // 2
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


def _step_codes(
    world: GridWorld, targets: np.ndarray, p: RewardParams
) -> tuple[np.ndarray, np.ndarray]:
    """``codes[j, c, a]``: a byte saying what action a from the cell of flat
    index c does toward the destination ``targets[j]``, 1 if it steps
    toward it, plus 2 if it crashes and 4 if it arrives; ``rewards[code]``
    is that step's ``reward_strategic``. Built a block of 256 destinations
    at a time.

    A move changes one axis by one cell, so it lands strictly closer, by
    Euclidean and by Manhattan distance alike, exactly when it steps toward
    the destination along its own axis: action 2k where the cell's axis-k
    coordinate is below the destination's, action 2k + 1 where it is above.
    Such a move never leaves the grid, so the move table is not read for
    it. A move blocked on a destination's own row, which training never
    reads, gets no arrival bit.
    """
    spec = world.spec
    shape = (spec.nx, spec.ny, spec.nz)
    landing, event = np.moveaxis(np.array(world.moves), -1, 0)
    crash = 2 * (event == CRASHED)
    # Action pairs each move a with its reverse, a ^ 1: a move a onto a cell
    # starts where the reverse move from the cell lands, if that is not blocked
    reverse = landing[:, np.arange(N_ACTIONS) ^ 1]
    # each axis's coordinate of every cell, shaped to broadcast over the others
    axes = (np.arange(spec.nx)[:, None, None], np.arange(spec.ny)[:, None], np.arange(spec.nz))
    codes = np.empty((len(targets), spec.n_cells, N_ACTIONS), dtype=np.uint8)
    for lo in range(0, len(targets), 256):
        ends, block = targets[lo : lo + 256], codes[lo : lo + 256]
        block[:] = crash
        j, a = (reverse[ends] != ends[:, None]).nonzero()
        block[j, reverse[ends[j], a], a] |= 4
        code = block.reshape((-1, *shape, N_ACTIONS))
        for k, end in enumerate(np.unravel_index(ends, shape)):
            end = end[:, None, None, None]
            code[..., 2 * k] |= axes[k] < end
            code[..., 2 * k + 1] |= axes[k] > end
    events = (MOVED, CRASHED, StepEvent.ARRIVED_AT_DESTINATION)
    rewards = np.array([reward_strategic(bool(k & 1), events[k >> 1], p) for k in range(6)])
    return codes, rewards


def train_strategic(
    world: GridWorld, cfg: TrainConfig, rng: random.Random
) -> tuple[QTable, EpisodeLogs]:
    """Run the path-planning training loop for cfg.episodes_strategic episodes.

    Without a fixed destination, episodes alternate between the takeoff cell
    and a uniformly random mission cell as the start position. Episodes toward
    the same destination then approach it from many directions, so the
    learned values form one connected basin per destination instead of a
    single thin corridor, and a flight nudged off its trained path can
    re-join a valued route from wherever it ends up. With a fixed
    destination every episode starts at the takeoff cell and the table has
    one column (``TrainConfig.planner_columns``).

    Every destination's episodes form a chain (``after``), and each chain
    holds one lockstep slot for the whole run: all chains start at once,
    and each step of all running episodes is one batch of array
    operations on ``table.q``. A chain never changes destination, so its
    slot keeps the row of (its column, cell 0) from the start. An update
    reads and writes only rows of its own destination, so chains never see
    each other's writes. When an
    episode ends, its successor starts in the same slot at the next step,
    so the episodes to one destination run one at a time, in episode
    order, exactly as a sequential loop would run them. A chain that ends
    gives up its slot.

    Once at most ``DRAIN_SLOTS`` chains run, the drain finishes them one
    after another, one step at a time on the column's rows and codes as
    Python lists: a running episode continues from its cell, step count, reward
    so far and stream position, its uniforms drawn a block of at most 128
    steps at a time, whatever the step cap. A lockstep step of a few episodes costs
    about as much as one of many, so this spares the tail of the run,
    where the busiest destination's episodes run nearly alone, a batch of
    array operations per step. Fixed-destination mode has one
    destination, so it runs one episode at a time, wholly in the drain.
    Both read a step's reward, and whether it arrived, from its
    ``_step_codes`` byte; no distance is computed.

    ``rng`` seeds a numpy generator that draws the missions and one random
    stream per episode; step t of an episode takes draws 2t (exploration
    coin) and 2t + 1 (which candidate) of its stream. So the trained table
    and logs do not depend on ``DRAIN_SLOTS``: draining from the start
    gives the same bits as a sequential loop over the episodes.
    """
    gen = np.random.default_rng(rng.getrandbits(128))
    n = cfg.episodes_strategic
    starts, dests = _missions(world, cfg, gen)
    table = QTable(
        kind="strategic",
        grid=world.spec,
        hyper=cfg.hyper,
        seed=cfg.seed,
        columns=cfg.planner_columns,
    )
    q = table.q
    streams = gen.integers(1 << 64, size=n, dtype=np.uint64)  # stream keys
    eps_of = cfg.schedule.first(n)
    moves = world.moves
    # per (cell, action), flat: the landing cell
    landing = np.array([[m[0] for m in row] for row in moves], dtype=np.intp).ravel()
    columns, n_cells = table.columns, world.spec.n_cells
    codes, rewards = _step_codes(
        world, np.arange(columns) if columns > 1 else dests[:1], cfg.rewards
    )
    # Flat views of the table: state (column, cell) is row
    # column * n_cells + cell of rows, and its action a is entry
    # row * N_ACTIONS + a of entries, and of codes flattened (take).
    rows = q.reshape(-1, N_ACTIONS)
    entries = q.reshape(-1)
    # ACTIONS_XY is the first four actions, so a candidate's position in
    # the candidate set is its action value.
    candidates = tuple(map(int, cfg.actions))
    everything = (1 << len(candidates)) - 1  # the mask of all candidates
    cap = cfg.resolved_step_cap()
    alpha, gamma = cfg.hyper.alpha, cfg.hyper.gamma

    # after[e]: the next episode to e's destination, or -1
    order = np.argsort(dests, kind="stable")
    same = dests[order[1:]] == dests[order[:-1]]
    after = np.full(n, -1, dtype=np.intp)
    after[order[:-1][same]] = order[1:][same]

    total_of = np.zeros(n)
    steps_of = np.zeros(n, dtype=np.intp)
    arrived_of = np.zeros(n, dtype=bool)
    # One slot per destination, for the whole run: the running episode of
    # its chain, its cell, the row of (its destination's column, cell 0),
    # steps taken, reward so far, epsilon and the state of its stream. Each
    # chain starts with its destination's first episode.
    ep = order[np.r_[True, ~same]]
    at, eps, draw = starts[ep], eps_of[ep], streams[ep]
    first = np.broadcast_to(table.column(dests[ep]) * n_cells, ep.shape)
    steps = np.zeros(ep.size, dtype=np.intp)
    total = np.zeros(ep.size)
    while ep.size > DRAIN_SLOTS:
        s = first + at

        # epsilon-greedy over the candidates: a uniformly drawn one of the
        # maximizers, or of all candidates when exploring
        coin, u = _uniforms(draw + _COIN_AND_PICK)
        values = rows.take(s, axis=0)[:, : len(candidates)]
        ties = tie_masks(values)
        ties[coin < eps] = everything
        nth = (u * TIE_COUNT.take(ties)).astype(np.intp)
        a = TIE_NTH.take(ties * N_ACTIONS + nth)

        to = landing.take(at * N_ACTIONS + a)
        s_to = first + to
        sa = s * N_ACTIONS + a
        code = codes.take(sa)
        r = rewards.take(code)
        arrived = code >= 4
        # max_a' Q(s', a') is read before the write: s' may be s
        max_next = reduce(np.maximum, rows.take(s_to, axis=0).T)
        entries.put(sa, bootstrap(entries.take(sa), r, max_next, alpha, gamma))
        at = to
        total += r
        steps += 1
        draw += _NEXT_STEP

        done = (arrived | (steps >= cap)).nonzero()[0]
        if done.size:
            # record the ended episodes and start their successors in
            # their slots
            fin = ep[done]
            total_of[fin] = total[done]
            steps_of[fin] = steps[done]
            arrived_of[fin] = arrived[done]
            e = after[fin]
            ep[done] = e
            at[done] = starts[e]
            steps[done] = 0
            total[done] = 0.0
            eps[done] = eps_of[e]
            draw[done] = streams[e]
            if (e < 0).any():
                # chains that ended give up their slots
                keep = ep >= 0
                ep, at, first, steps, total, eps, draw = (
                    x[keep] for x in (ep, at, first, steps, total, eps, draw)
                )

    # The drain: each running episode, then the later episodes to its
    # destination, one after another on the column's rows as lists.
    # offsets[c] moves a stream state c draws on, within a block of steps;
    # a default cap, 4 * (nx + ny + nz), fits one block up to a sum of 32.
    block = min(cap, 128)
    offsets = np.arange(2 * block, dtype=np.uint64) * np.uint64(_GOLDEN)
    rewards = rewards.tolist()
    for e, cell, row0, taken, reward, state in zip(
        ep.tolist(), at.tolist(), first.tolist(), steps.tolist(), total.tolist(), draw.tolist()
    ):
        col = row0 // n_cells
        chain = q[col].tolist()
        code_of = codes[col].tolist()
        while True:
            epsilon = eps_of.item(e)
            arrived = False
            while not arrived and taken < cap:
                # the next block's draws, two per step up to the cap
                left = iter(_uniforms(np.uint64(state) + offsets[: 2 * (cap - taken)]).tolist())
                state = (state + 2 * block * _GOLDEN) % 2**64
                for coin, u in zip(left, left):
                    row = chain[cell]
                    mask = everything if coin < epsilon else tie_mask(row, candidates)
                    ties, n_ties, _ = PICKS[mask]
                    a = ties[int(u * n_ties)]
                    to = moves[cell][a][0]
                    code = code_of[cell][a]
                    r = rewards[code]
                    arrived = code >= 4
                    # max_a' Q(s', a') is read before the write: s' may be s
                    row[a] = bootstrap(row[a], r, max(chain[to]), alpha, gamma)
                    reward += r
                    taken += 1
                    cell = to
                    if arrived:
                        break
            total_of[e], steps_of[e], arrived_of[e] = reward, taken, arrived
            e = int(after[e])
            if e < 0:
                break
            cell, taken, reward, state = int(starts[e]), 0, 0.0, int(streams[e])
        q[col] = chain

    return table, EpisodeLogs(world.cells, dests, total_of, steps_of, arrived_of, eps_of)


def train_adaptive(
    world: GridWorld, lb: LinkBudget, cfg: TrainConfig, rng: random.Random
) -> tuple[QTable, EpisodeLogs]:
    """Run the coverage training loop for cfg.episodes_adaptive episodes.

    SNR per cell is read from the band's coverage map, the same map the
    flight arbiter reads.

    Episodes alternate between the takeoff cell and a uniformly random mission
    cell as the start position. The coverage table has one column, keyed by
    position alone, and has to be informative over the whole region, which a
    random walk pinned to one corner never reaches; the takeoff-started half
    keeps the early training signal representative of real departures.

    Each row carries caches: its max over all six actions, ``top`` (under
    ``altitude_locked`` the never-written z actions still count); the
    ``qcore.PICKS`` entry of its argmax ties among the candidates
    (``qcore.tie_mask``); and the bootstrap target an update landing on it
    reads, ``alpha * (r + gamma * top)``, refreshed whenever ``top``
    changes. An update that writes back the row's value changes no cache.
    One that lowers it (a fall) recomputes the max and the ties. One that
    raises action a's value to ``new`` (a rise) moves ``top`` up to ``new``
    if it is higher, and compares ``new`` with the value of the ties (the
    old value when a was among them): above it, a alone is the tie,
    ``PICKS[1 << a]``; equal to it, a joins the ties, which are recomputed;
    below it, the ties stand. A step picks from the cached ties, or from
    all candidates when it explores, drawing only for two or more, as the
    reference ``greedy_action`` picks from fresh ones, so the table, the
    logs and the random draws are those of the uncached loop. Every pick of
    one of n draws what ``rng.randrange(n)`` draws, through
    ``rng.getrandbits`` (see the module docstring), and so do the mission
    draws (``random_free_cell``).
    """
    table = QTable(
        kind="adaptive",
        grid=world.spec,
        hyper=cfg.hyper,
        seed=cfg.seed,
        f_mhz=lb.f_mhz,
    )
    rows = table.q[0].tolist()
    # Plain ints: a list indexed by an int is faster than by an IntEnum member.
    candidates = tuple(map(int, cfg.actions))
    moves = world.moves
    index = world.spec.index
    snr = coverage_map(lb, world).snr_by_index
    cell_reward = [reward_adaptive(v, lb.snr_threshold_db, cfg.rewards) for v in snr]
    alpha, gamma = cfg.hyper.alpha, cfg.hyper.gamma
    # qcore.bootstrap, (1 - alpha) * q + alpha * (r + gamma * max_next), as
    # keep * q + target[s'], the same float operations in the same order
    keep = 1.0 - alpha
    # Per-row caches (see the docstring): top[i] is max_a Q(i, a) over all
    # six actions, target[i] the bootstrap target of a step landing on i and
    # picks[i] the PICKS entry of the row's argmax ties among the candidates.
    top = [max(row) for row in rows]
    target = [alpha * (r + gamma * t) for r, t in zip(cell_reward, top)]
    picks = [PICKS[tie_mask(row, candidates)] for row in rows]
    # ACTIONS_XY is the first four actions: the mask of all candidates
    every = PICKS[(1 << len(candidates)) - 1]
    cap = cfg.resolved_step_cap()
    uniform, getrandbits = rng.random, rng.getrandbits
    start = world.start_cell
    n = cfg.episodes_adaptive
    missions = require_mission_cells(world, cfg.altitude_locked, 2 if n > 1 else 1)
    eps_of = cfg.schedule_adaptive.first(n)
    dest_of = np.empty(n, dtype=np.intp)
    total_of = np.empty(n)
    steps_of = np.empty(n, dtype=np.intp)
    arrived_of = np.zeros(n, dtype=bool)

    for episode in range(n):
        epsilon = eps_of.item(episode)
        explore = epsilon > 0.0
        pos = start if episode % 2 == 0 else random_free_cell(world, rng, missions)
        dest = random_free_cell(world, rng, missions)
        while dest == pos:
            dest = random_free_cell(world, rng, missions)
        at, goal = index(pos), index(dest)
        row = rows[at]
        total = 0.0
        # the cap is at least 1 (TrainConfig), so steps is always bound
        for steps in range(1, cap + 1):
            # one of all candidates when exploring, else of the cached ties,
            # drawn as randrange(n) draws it: getrandbits(n.bit_length()),
            # drawn again while it is n or more; one tie draws nothing
            ties, n_ties, k = every if explore and uniform() < epsilon else picks[at]
            if n_ties == 1:
                a = ties[0]
            else:
                i = getrandbits(k)
                while i >= n_ties:
                    i = getrandbits(k)
                a = ties[i]
            to, event = moves[at][a]
            old = row[a]
            # the target is read before the caches change: s' may be s
            new = keep * old + target[to]
            # Written even when equal, so the sign of a zero is kept. Such a
            # write changes no cache: ties compare with ==, and the reward
            # is never zero, so r + gamma * top ignores top's sign.
            row[a] = new
            if new > old:
                if new > top[at]:
                    top[at] = new
                    target[at] = alpha * (cell_reward[at] + gamma * new)
                b = picks[at][0][0]
                tied = old if b == a else row[b]
                if new > tied:
                    picks[at] = PICKS[1 << a]
                elif new == tied:
                    picks[at] = PICKS[tie_mask(row, candidates)]
            elif new < old:
                top[at] = t = max(row)
                target[at] = alpha * (cell_reward[at] + gamma * t)
                picks[at] = PICKS[tie_mask(row, candidates)]
            total += cell_reward[to]
            if to == goal and event is MOVED:
                arrived_of[episode] = True
                break
            at, row = to, rows[to]
        dest_of[episode], total_of[episode], steps_of[episode] = goal, total, steps
    table.q[0] = rows
    return table, EpisodeLogs(world.cells, dest_of, total_of, steps_of, arrived_of, eps_of)
