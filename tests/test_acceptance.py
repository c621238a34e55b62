"""Acceptance suite: the deliverable's exit criteria.

Every test prints one PASS/FAIL line. The heavyweight fixture trains the
three evaluation scenarios (obstacle density paired with carrier band, as
in the reference results table) once per seed and shares the outcome
across criteria. All runs are fully deterministic, so the asserted numbers
reproduce exactly on every machine.
"""

import dataclasses
import json
import random
import time
from collections import deque

import numpy as np
import pytest

from uavnav.agents import train_adaptive, train_strategic
from uavnav.arbiter import FlightOutcome
from uavnav.config import TrainConfig, stream_rng
from uavnav.gridworld import ACTION_DELTAS, ACTIONS, GridSpec, build, random_free_cell
from uavnav.harness import build_world, cmd_train, compute_metrics, run_flights
from uavnav.qcore import Hyper, QTable
from uavnav.radio import LinkBudget, path_loss_db

from oracles import alg3_choice, bfs_shortest_len, cost231_path_loss
from reference import decide, greedy_trajectory, q_update

SEEDS = (12, 13, 14)
SCENARIOS = ((0.05, 900.0), (0.15, 1800.0), (0.30, 2100.0))
EVAL_SEED = 1001
N_FLIGHTS = 100


def _report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _start_component_fraction(world):
    seen = {world.start_cell}
    q = deque([world.start_cell])
    while q:
        c = q.popleft()
        for d in ACTION_DELTAS:
            n = (c[0] + d[0], c[1] + d[1], c[2] + d[2])
            if world.spec.in_bounds(n) and n not in world.obstacles and n not in seen:
                seen.add(n)
                q.append(n)
    return len(seen) / (world.spec.n_cells - len(world.obstacles))


@pytest.fixture(scope="session")
def matrix():
    """Train the scenario matrix once; keep flights and reward curves."""
    runs = {}
    curves = {"strategic": {}, "adaptive": {}}
    timings = {}
    for density, band in SCENARIOS:
        for seed in SEEDS:
            t0 = time.perf_counter()
            cfg = TrainConfig(seed=seed, obstacle_density=density, bands_mhz=(band,))
            world = build_world(cfg)
            qs, slogs = train_strategic(
                world, cfg, stream_rng(seed, "train.strategic")
            )
            qa, alogs = train_adaptive(
                world, cfg.link_for_band(band), cfg,
                stream_rng(seed, f"train.adaptive.{band:g}"),
            )
            flights = run_flights(
                cfg, world, qs, {band: qa}, N_FLIGHTS, seed=EVAL_SEED
            )
            runs[(density, band, seed)] = {
                "flights": flights,
                "component_fraction": _start_component_fraction(world),
            }
            if density == 0.05:
                curves["strategic"][seed] = slogs.total_reward.tolist()
                curves["adaptive"][(band, seed)] = alogs.total_reward.tolist()
            timings[(density, band, seed)] = time.perf_counter() - t0
    # the band-comparison curves need the high band on the default density
    for seed in SEEDS:
        cfg = TrainConfig(seed=seed, obstacle_density=0.05, bands_mhz=(2100.0,))
        world = build_world(cfg)
        _, alogs = train_adaptive(
            world, cfg.link_for_band(2100.0), cfg,
            stream_rng(seed, "train.adaptive.2100"),
        )
        curves["adaptive"][(2100.0, seed)] = alogs.total_reward.tolist()
    return {"runs": runs, "curves": curves, "timings": timings}


def test_criterion_1_path_loss_formula_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20240601)
    worst = 0.0
    for _ in range(1000):
        f = rng.uniform(150.0, 2600.0)
        h_b = rng.uniform(30.0, 200.0)
        h_r = rng.uniform(1.0, 100.0)
        d = rng.uniform(0.01, 5.0)
        lb = LinkBudget(f_mhz=f, h_b_m=h_b, c_m_db=0.0)
        worst = max(worst, abs(path_loss_db(lb, h_r, d) - cost231_path_loss(f, h_b, h_r, d, 0.0)))
    workedexample = path_loss_db(LinkBudget(f_mhz=900.0, h_b_m=60.0, c_m_db=0.0), 1.5, 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and abs(workedexample - 121.859) <= 1e-3 and elapsed < 1.0
    _report(
        "1 (path-loss oracle)",
        ok,
        f"max|delta|={worst:.2e} dB, worked={workedexample:.4f} dB, {elapsed:.2f}s",
    )


def test_criterion_2_q_update_unit():
    grid = GridSpec()
    t = QTable("adaptive", grid, Hyper(), 0)
    # (column, cell) states of a one-column table
    s, s2, s3 = ((0, grid.index(c)) for c in ((0, 0, 0), (1, 0, 0), (2, 0, 0)))
    q_update(t, s2, ACTIONS[0], 4.0, s3, Hyper(alpha=1.0, gamma=0.0))
    v = q_update(t, s, ACTIONS[0], 10.0, s2, Hyper(alpha=0.8, gamma=0.5))
    case1 = abs(v - 9.6) <= 1e-12
    t2 = QTable("adaptive", GridSpec(), Hyper(), 0)
    fixed = q_update(t2, s, ACTIONS[1], 0.0, s2, Hyper())
    case2 = fixed == 0.0
    t3 = QTable("adaptive", GridSpec(), Hyper(), 0)
    q_update(t3, s, ACTIONS[2], -4.0, s2, Hyper())
    collapsed = q_update(t3, s, ACTIONS[2], 7.0, s2, Hyper(alpha=1.0, gamma=0.0))
    case3 = collapsed == 7.0
    _report("2 (Q-update unit)", case1 and case2 and case3,
            f"update={v!r}, fixed_point={fixed!r}, collapse={collapsed!r}")


def test_criterion_3_shortest_path_oracle():
    t0 = time.perf_counter()
    cfg = TrainConfig(
        grid=GridSpec(nx=10, ny=10, nz=1),
        obstacle_density=0.0,
        episodes_strategic=20000,
        seed=5,
    )
    world = build_world(cfg)
    table, _ = train_strategic(world, cfg, stream_rng(5, "train.strategic"))
    dest_rng = stream_rng(99, "dests")
    rollout_rng = random.Random(3)
    matches = 0
    for _ in range(50):
        dest = random_free_cell(world, dest_rng, world.mission_cells())
        traj, outcome = greedy_trajectory(
            table, world, dest, cfg.resolved_step_cap(), rollout_rng
        )
        want = bfs_shortest_len(10, 10, 1, frozenset(), world.start_cell, dest)
        if outcome == FlightOutcome.ARRIVED and len(traj) - 1 == want:
            matches += 1
    elapsed = time.perf_counter() - t0
    ok = matches >= 48 and elapsed < 120.0  # 95% of 50 destinations, < 2 min
    _report("3 (BFS shortest-path oracle)", ok, f"{matches}/50 optimal, {elapsed:.0f}s")


def test_criterion_4_low_mid_density_scenarios(matrix):
    runs, timings = matrix["runs"], matrix["timings"]
    details = []
    passes_a, passes_b = 0, 0
    for seed in SEEDS:
        rep = compute_metrics(runs[(0.05, 900.0, seed)]["flights"])
        ok = rep.arrival_pct >= 95.0 and rep.crash_pct == 0.0
        passes_a += ok
        details.append(f"5%/900 seed {seed}: {rep.arrival_pct:.0f}%/{rep.crash_pct:.0f}%")
    for seed in SEEDS:
        rep = compute_metrics(runs[(0.15, 1800.0, seed)]["flights"])
        passes_b += rep.arrival_pct >= 90.0
        details.append(f"15%/1800 seed {seed}: {rep.arrival_pct:.0f}%")
    elapsed = sum(t for (d, _, _), t in timings.items() if d in (0.05, 0.15))
    ok = passes_a >= 2 and passes_b >= 2 and elapsed < 600.0
    _report("4 (low/mid-density arrival)", ok,
            "; ".join(details) + f"; train+eval {elapsed:.0f}s")


def _pooled(runs):
    """The flights of evaluations of the same bands, as one evaluation."""
    return dataclasses.replace(
        runs[0],
        destination=np.concatenate([f.destination for f in runs]),
        **{name: np.concatenate([getattr(f, name) for f in runs], axis=1)
           for name in ("outcome", "steps", "outage_steps", "min_snr_db")},
    )


def test_criterion_5_scenario_ordering(matrix):
    runs = matrix["runs"]
    # Precondition: every scenario world is flyable (the takeoff cell's free
    # component spans the grid). A sealed takeoff pocket is a degenerate
    # draw that cannot mirror the reference evaluation setup.
    for key, run in runs.items():
        assert run["component_fraction"] > 0.5, f"degenerate world for {key}"
    pooled = []
    for density, band in SCENARIOS:
        pooled.append(compute_metrics(
            _pooled([runs[(density, band, seed)]["flights"] for seed in SEEDS])
        ))
    arrivals = [r.arrival_pct for r in pooled]
    crashes = [r.crash_pct for r in pooled]
    outages = [r.outage_step_pct for r in pooled]
    ok = (
        arrivals[0] >= arrivals[1] >= arrivals[2]
        and crashes[0] <= crashes[1] <= crashes[2]
        and outages[0] < outages[1] < outages[2]
    )
    _report(
        "5 (scenario ordering)",
        ok,
        f"arrival {[round(a, 1) for a in arrivals]}, "
        f"crash {[round(c, 1) for c in crashes]}, "
        f"outage_steps {[round(o, 3) for o in outages]}",
    )


def _first_positive_window(totals, window=100):
    acc = 0.0
    for i, v in enumerate(totals):
        acc += v
        if i >= window:
            acc -= totals[i - window]
        if i >= window - 1 and acc / window > 0:
            return i
    return None


def test_criterion_6_training_convergence(matrix):
    curves = matrix["curves"]
    details = []
    rising_strategic = 0
    for seed in SEEDS:
        totals = curves["strategic"][seed]
        n = len(totals) // 10
        first, last = sum(totals[:n]) / n, sum(totals[-n:]) / n
        rising_strategic += last > first
        details.append(f"strat s{seed} {first:.0f}->{last:.0f}")
    rising_adaptive = 0
    for seed in SEEDS:
        for band in (900.0, 2100.0):
            totals = curves["adaptive"][(band, seed)]
            n = len(totals) // 10
            first, last = sum(totals[:n]) / n, sum(totals[-n:]) / n
            rising_adaptive += last > first
    earlier = 0
    for seed in SEEDS:
        c900 = _first_positive_window(curves["adaptive"][(900.0, seed)])
        c2100 = _first_positive_window(curves["adaptive"][(2100.0, seed)])
        details.append(f"cross s{seed} 900@{c900} 2100@{c2100}")
        if c900 is not None and (c2100 is None or c900 < c2100):
            earlier += 1
    ok = rising_strategic == 3 and rising_adaptive == 6 and earlier >= 2
    _report("6 (training convergence)", ok, "; ".join(details))


def test_criterion_7_arbiter_fidelity():
    grid = GridSpec()
    world = build(grid, 0.0, seed=1, bs_xy=(10, 10, 0))
    rng = random.Random(77)
    pos, dest = (7, 3, 2), (15, 12, 0)

    # decide reads only pos's planner row toward dest and pos's coverage
    # row, so every case reuses two tables, those rows rewritten
    qs = QTable("strategic", grid, Hyper(), 0, columns=grid.n_cells)
    qa = QTable("adaptive", grid, Hyper(), 0)

    def tables(sv, av):
        qs.q[grid.index(dest), grid.index(pos)] = sv
        qa.q[0, grid.index(pos)] = av
        return qs, qa

    agree_ok = 0
    for _ in range(10_000):
        values = [rng.uniform(-50, 50) for _ in ACTIONS]
        best = max(range(6), key=lambda i: values[i])
        av = [rng.uniform(-50, 50) for _ in ACTIONS]
        av[best] = max(av) + rng.uniform(0.1, 5.0)
        qs, qa = tables(values, av)
        if decide(qs, qa, pos, dest, False, world, rng) == ACTIONS[best]:
            agree_ok += 1

    branch_ok = 0
    for _ in range(10_000):
        sv = [rng.uniform(-50, 50) for _ in ACTIONS]
        av = [rng.uniform(-50, 50) for _ in ACTIONS]
        qs, qa = tables(sv, av)
        a1 = ACTIONS[max(range(6), key=lambda i: sv[i])]
        a2 = ACTIONS[max(range(6), key=lambda i: av[i])]
        want = alg3_choice(a1, a2, sv[a2], av[a1])
        if decide(qs, qa, pos, dest, False, world, rng) == want:
            branch_ok += 1

    safety_violations = 0
    safety_checked = 0
    for trial in range(10_000):
        spec = GridSpec(nx=6, ny=6, nz=3)
        w = build(spec, rng.uniform(0.0, 0.4), seed=trial, bs_xy=(3, 3, 0))
        p = (rng.randrange(6), rng.randrange(6), rng.randrange(3))
        if p in w.obstacles:
            continue
        has_free = any(
            spec.in_bounds((p[0] + d[0], p[1] + d[1], p[2] + d[2]))
            and (p[0] + d[0], p[1] + d[1], p[2] + d[2]) not in w.obstacles
            for d in ACTION_DELTAS
        )
        if not has_free:
            continue
        qs = QTable("strategic", spec, Hyper(), 0, columns=spec.n_cells)
        qa = QTable("adaptive", spec, Hyper(), 0)
        qs.q[spec.index((5, 5, 2)), spec.index(p)] = [rng.uniform(-50, 50) for _ in ACTIONS]
        qa.q[0, spec.index(p)] = [rng.uniform(-50, 50) for _ in ACTIONS]
        a = decide(qs, qa, p, (5, 5, 2), True, w, rng)
        d = ACTION_DELTAS[a]
        nxt = (p[0] + d[0], p[1] + d[1], p[2] + d[2])
        safety_checked += 1
        if spec.in_bounds(nxt) and nxt in w.obstacles:
            safety_violations += 1

    ok = agree_ok == 10_000 and branch_ok == 10_000 and safety_violations == 0
    _report(
        "7 (arbiter fidelity)",
        ok,
        f"agreement {agree_ok}/10000, branch {branch_ok}/10000, "
        f"safety violations {safety_violations}/{safety_checked}",
    )


def test_criterion_8_training_determinism(tmp_path):
    cfg = TrainConfig(
        grid=GridSpec(nx=8, ny=8, nz=3),
        obstacle_density=0.1,
        bands_mhz=(900.0, 2100.0),
        episodes_strategic=300,
        episodes_adaptive=150,
        seed=21,
    )
    a = cmd_train(cfg, tmp_path / "a")
    b = cmd_train(cfg, tmp_path / "b")
    compared = []
    identical = True
    for name in (
        "strategic.npz",
        "adaptive_900.npz",
        "adaptive_2100.npz",
        "rewards_strategic.csv",
        "rewards_adaptive_900.csv",
        "rewards_adaptive_2100.csv",
    ):
        same = (a / name).read_bytes() == (b / name).read_bytes()
        identical &= same
        compared.append(name)
    # manifests may differ only in their timestamp
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("created_utc"), mb.pop("created_utc")
    identical &= ma == mb
    _report("8 (training determinism)", identical, f"{len(compared)} files byte-compared")
