"""Output checks, computed apart from the program.

Nothing here imports ``uavnav``: the shortest paths, the COST 231 link
budget, the report recount and the Q-value bound are written from their
definitions, so a fault in the program cannot hide behind shared code. The
checks read the program's objects only as data (grid sizes, obstacle set,
reward constants, table entries) and its output files as text.
"""

from __future__ import annotations

import math
import traceback
from collections import deque
from typing import Any, Callable

_MOVES = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
_REPORT_KEYS = (
    "flights",
    "arrival_pct",
    "crash_pct",
    "stepcap_pct",
    "outage_flight_pct",
    "outage_step_pct",
    "mean_steps",
    "mean_flight_time_s",
)


def bfs_lengths(dims: tuple[int, int, int], obstacles, src) -> dict:
    """Shortest 6-connected path length from src to every reachable free cell."""
    nx, ny, nz = dims
    dist = {src: 0}
    queue = deque([src])
    while queue:
        c = queue.popleft()
        for dx, dy, dz in _MOVES:
            n = (c[0] + dx, c[1] + dy, c[2] + dz)
            if 0 <= n[0] < nx and 0 <= n[1] < ny and 0 <= n[2] < nz:
                if n not in obstacles and n not in dist:
                    dist[n] = dist[c] + 1
                    queue.append(n)
    return dist


def cost231_snr_db(link, f_mhz: float, h_r_m: float, d_km: float) -> float:
    """SNR from the COST 231 Hata loss with the mobile-antenna correction."""
    logf = math.log10(f_mhz)
    logh = math.log10(link.h_b_m)
    a_hr = (1.1 * logf - 0.7) * h_r_m - (1.56 * logf - 0.8)
    d = max(d_km, link.d_min_km)
    loss = (
        46.3
        + 33.9 * logf
        - 13.82 * logh
        - a_hr
        + (44.9 - 6.55 * logh) * math.log10(d)
        + link.c_m_db
    )
    noise_dbm = -174.0 + 10.0 * math.log10(link.bandwidth_hz) + link.noise_figure_db
    return link.p_tx_dbm + link.g_tx_db + link.g_rx_db - loss - noise_dbm


def recount(rows: list[dict]) -> dict:
    """The evaluation report's figures, recounted from flights.csv rows."""
    n = len(rows)
    steps = [int(r["steps"]) for r in rows]
    outage = [int(r["outage_steps"]) for r in rows]
    arrived = sum(1 for r in rows if r["outcome"] == "arrived")
    crashed = sum(1 for r in rows if r["outcome"] == "crashed")
    total_steps = sum(steps)
    return {
        "flights": n,
        "arrival_pct": 100.0 * arrived / n,
        "crash_pct": 100.0 * crashed / n,
        "stepcap_pct": 100.0 * (n - arrived - crashed) / n,
        "outage_flight_pct": 100.0 * sum(1 for o in outage if o > 0) / n,
        "outage_step_pct": 100.0 * sum(outage) / total_steps if total_steps else 0.0,
        "mean_steps": total_steps / n,
        "mean_flight_time_s": sum(float(r["flight_time_s"]) for r in rows) / n,
    }


def q_bound(rewards: tuple[float, ...], gamma: float) -> tuple[float, float]:
    """Range every Q value stays in when tables start at zero.

    Each update is a convex mix of the old value and r + gamma * max Q(s'),
    so by induction no value leaves [min(0, r_min), max(0, r_max)] / (1 - gamma).
    """
    return min(0.0, min(rewards)) / (1.0 - gamma), max(0.0, max(rewards)) / (1.0 - gamma)


def _strategic_rewards(p) -> tuple[float, ...]:
    return tuple(
        shaping + terminal
        for shaping in (p.r_closer, p.r_farther)
        for terminal in (0.0, p.r_crash, p.r_arrive)
    )


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_flights_complete(ctx: dict) -> None:
    rows, world = ctx["flights"], ctx["world"]
    labels = [f"{b:g}" for b in ctx["cfg"].bands_mhz]
    _require(len(rows) == ctx["n_flights"] * len(labels), f"{len(rows)} flight rows")
    for label in labels:
        n = sum(1 for r in rows if r["band_mhz"] == label)
        _require(n == ctx["n_flights"], f"{n} flights at {label} MHz")
    for r in rows:
        dest = _dest(r)
        _require(dest not in world.obstacles, f"destination {dest} is an obstacle")
        _require(dest != world.start_cell, "destination is the start cell")


def check_arrived_not_shorter_than_bfs(ctx: dict) -> None:
    dist = ctx["bfs"]
    for r in ctx["flights"]:
        if r["outcome"] != "arrived":
            continue
        dest = _dest(r)
        _require(dest in dist, f"arrived at {dest}, which BFS cannot reach")
        _require(
            int(r["steps"]) >= dist[dest],
            f"arrived at {dest} in {r['steps']} steps, shortest path {dist[dest]}",
        )


def check_no_crash_with_safety(ctx: dict) -> None:
    _require(ctx["evaluation"]["safety"] is True, "evaluation ran without safety")
    crashed = sum(1 for r in ctx["flights"] if r["outcome"] == "crashed")
    _require(crashed == 0, f"{crashed} crashes with the safety filter on")


def check_evaluation_matches_recount(ctx: dict) -> None:
    rows, evaluation = ctx["flights"], ctx["evaluation"]
    groups = {"all": (evaluation, rows)}
    labels = sorted({r["band_mhz"] for r in rows}, key=float)
    if len(labels) > 1:
        _require(sorted(evaluation["per_band"]) == sorted(labels), "per-band keys differ")
        for label in labels:
            groups[label] = (
                evaluation["per_band"][label],
                [r for r in rows if r["band_mhz"] == label],
            )
    for name, (reported, subset) in groups.items():
        expected = recount(subset)
        for key in _REPORT_KEYS:
            _require(
                _close(float(reported[key]), expected[key]),
                f"{name}.{key}: report {reported[key]}, recount {expected[key]}",
            )


def check_flight_time_formula(ctx: dict) -> None:
    cfg = ctx["cfg"]
    for r in ctx["flights"]:
        expected = int(r["steps"]) * cfg.grid.cell_size_m / cfg.uav_velocity_ms
        got = float(r["flight_time_s"])
        _require(
            math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12),
            f"flight_time_s {got}, steps x cell / velocity {expected}",
        )


def check_min_snr_below_start_snr(ctx: dict) -> None:
    cfg, world = ctx["cfg"], ctx["world"]
    g, link = cfg.grid, cfg.link
    sx, sy, sz = world.start_cell
    bx, by, _ = world.base_station_cell
    cx, cy, cz = (sx + 0.5) * g.cell_size_m, (sy + 0.5) * g.cell_size_m, (sz + 0.5) * g.cell_height_m
    ax, ay = (bx + 0.5) * g.cell_size_m, (by + 0.5) * g.cell_size_m
    d_km = math.sqrt((cx - ax) ** 2 + (cy - ay) ** 2 + (cz - link.h_b_m) ** 2) / 1000.0
    start_snr = {f"{b:g}": cost231_snr_db(link, b, cz, d_km) for b in cfg.bands_mhz}
    for r in ctx["flights"]:
        got = float(r["min_snr_db"])
        limit = start_snr[r["band_mhz"]]
        _require(got <= limit + 1e-9, f"min_snr_db {got} above start-cell SNR {limit}")


def check_q_values_within_bound(ctx: dict) -> None:
    cfg = ctx["cfg"]
    p, gamma = cfg.rewards, cfg.hyper.gamma
    ranges = {
        "strategic": q_bound(_strategic_rewards(p), gamma),
        "adaptive": q_bound((p.r_covered, p.r_outage), gamma),
    }
    for table in ctx["tables"]:
        lo, hi = ranges[table.kind]
        slack = 1e-12 * max(abs(lo), abs(hi))
        n = 0
        for s, a, v in table.entries():
            n += 1
            _require(
                math.isfinite(v) and lo - slack <= v <= hi + slack,
                f"{table.kind} Q{s, int(a)} = {v} outside [{lo}, {hi}]",
            )
        _require(n > 0, f"{table.kind} table is empty")


def _dest(row: dict) -> tuple[int, int, int]:
    return (int(row["dest_ix"]), int(row["dest_iy"]), int(row["dest_iz"]))


CHECKS: dict[str, Callable[[dict], None]] = {
    "flights_complete": check_flights_complete,
    "arrived_not_shorter_than_bfs": check_arrived_not_shorter_than_bfs,
    "no_crash_with_safety": check_no_crash_with_safety,
    "evaluation_matches_recount": check_evaluation_matches_recount,
    "flight_time_formula": check_flight_time_formula,
    "min_snr_below_start_snr": check_min_snr_below_start_snr,
    "q_values_within_bound": check_q_values_within_bound,
}


def run_checks(**ctx: Any) -> dict[str, str | None]:
    """Run every check; map each name to None when it passes, else the reason."""
    g = ctx["cfg"].grid
    ctx["bfs"] = bfs_lengths((g.nx, g.ny, g.nz), ctx["world"].obstacles, ctx["world"].start_cell)
    results: dict[str, str | None] = {}
    for name, check in CHECKS.items():
        try:
            check(ctx)
            results[name] = None
        except CheckFailed as exc:
            results[name] = str(exc)
        except Exception:  # a check that raises counts as failed, with its cause
            results[name] = traceback.format_exc(limit=3)
    return results
