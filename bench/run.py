"""Train-and-evaluate benchmark for uavnav, end to end and per layer.

    python3 bench/run.py --workload planner-goals --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selfcheck

A run repeats whole rounds until ``--seconds`` have passed (at least one).
A round runs each stage in its own fresh single-threaded process, one at a
time: fresh set-ups in three batches, ``cmd_train``, ``cmd_evaluate`` on the
trained artifacts and one process of output checks. Every stage process
and every output check is one operation; one that raises, exits non-zero
or fails its check counts as failed.

With ``--trace 0`` a round trains once and evaluates EVALUATES times, and
the last stdout line holds the end-to-end metrics. With ``--trace 1`` the
set-ups are traced and a round trains and evaluates once untraced and once
traced; the line holds the per-layer metrics derived from the spans, plus
the traced time's overhead over the untraced one. The spans are kept in
``bench/out/trace-<workload>-seed<seed>.json``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
STAGE = BENCH / "stage.py"

sys.path.insert(0, str(BENCH))
from checks import CHECKS  # noqa: E402
from tracing import layer_metrics, median  # noqa: E402

# A run must exit within 180 s; a stage still running at this point is killed.
RUN_DEADLINE_S = 170.0
# Set-ups run in three batches (before training, after training, after the
# evaluations), so their median samples the host at three points of a round.
SETUPS_PER_BATCH = 3
EVALUATES = 3

# Master seed of the obstacle layout and of training. It stays fixed: across
# layouts the work itself (steps to learn, flights that hit the step cap)
# varies by 7-21 %, more than a run-to-run bound can absorb. --seed draws
# the evaluation missions.
TRAIN_SEED = 12

# The paper's 1 km x 1 km x 100 m region on 100 m x 20 m cells.
GRID = {"nx": 10, "ny": 10, "nz": 5, "cell_size_m": 100.0, "cell_height_m": 20.0}


@dataclass(frozen=True)
class Workload:
    density: float
    bands_mhz: tuple[float, ...]
    episodes_strategic: int
    episodes_adaptive: int
    flights: int
    grid: dict

    def config(self) -> dict:
        return {
            "grid": self.grid,
            "obstacle_density": self.density,
            "bands_mhz": list(self.bands_mhz),
            "episodes_strategic": self.episodes_strategic,
            "episodes_adaptive": self.episodes_adaptive,
            "seed": TRAIN_SEED,
        }


WORKLOADS = {
    # Strategic loop and strategic checkpoint write/read; few flights.
    "planner-goals": Workload(0.05, (900.0,), 60000, 1000, 300, GRID),
    # Adaptive loop per band and the flight arbiter; shorter planner training.
    "band-flights": Workload(0.15, (900.0, 1800.0, 2100.0), 30000, 10000, 3000, GRID),
    # Seconds-long configuration for --selfcheck only.
    "tiny": Workload(
        0.05,
        (900.0, 1800.0),
        400,
        100,
        20,
        {"nx": 5, "ny": 5, "nz": 2, "cell_size_m": 200.0, "cell_height_m": 20.0},
    ),
}

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "train_peak_rss_mb": "MiB",
    "evaluate_peak_rss_mb": "MiB",
    "artifact_mb": "MiB",
    "arrived_flights": "count",
}

PER_LAYER = {
    "cli.import_s": "s",
    "gridworld.build_s": "s",
    "agents.strategic_s": "s",
    "agents.strategic_steps": "count",
    "agents.strategic_us_per_step": "us",
    "agents.adaptive_s": "s",
    "agents.adaptive_steps": "count",
    "agents.adaptive_us_per_step": "us",
    "radio.coverage_map_s": "s",
    "qcore.strategic_rows": "count",
    "qcore.save_s": "s",
    "qcore.save_mb": "MiB",
    "qcore.load_s": "s",
    "arbiter.flights": "count",
    "arbiter.flight_steps": "count",
    "arbiter.flight_s": "s",
    "arbiter.flight_us_per_step": "us",
    "arbiter.delivered_step_ratio": "ratio",
    "harness.train_self_s": "s",
    "harness.evaluate_self_s": "s",
    "bench.train_overhead_pct": "%",
    "bench.evaluate_overhead_pct": "%",
}

MIB = float(1 << 20)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Stages:
    """Runs stage processes one at a time and counts operations."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def run(self, *args: str, spans: Path | None = None) -> dict | None:
        """One stage process; its JSON result (with its spans), or None on failure."""
        self.attempted += 1
        if spans is not None:
            args = (*args, "--spans", str(spans))
        try:
            proc = subprocess.run(
                [sys.executable, str(STAGE), *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(self.deadline - time.monotonic(), 0.001),
            )
            if proc.returncode != 0:
                log(f"stage {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if spans is not None:
                    result["spans"] = json.loads(spans.read_text(encoding="utf-8"))
                return result
        except subprocess.TimeoutExpired:
            log(f"stage {args[0]}: killed at the run deadline")
        except (ValueError, IndexError, OSError) as exc:
            log(f"stage {args[0]}: unreadable result: {exc!r}")
        self.failed += 1
        return None

    def skip(self, n: int) -> None:
        """Operations that could not run because an earlier stage failed."""
        self.attempted += n
        self.failed += n


def run_round(wl: Workload, seed: int, work: Path, stages: Stages, trace: bool) -> dict:
    """One round of set-ups, training, evaluations and checks in ``work``.

    Every round attempts the same operations, whatever fails, so the share
    of failed operations does not depend on how many rounds a run makes.
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(wl.config(), indent=2) + "\n", encoding="utf-8")
    art = work / "artifacts"
    n_spans = 0

    def spans_file(traced: bool) -> Path | None:
        nonlocal n_spans
        n_spans += 1
        return work / f"spans-{n_spans}.json" if traced else None

    rnd: dict = {"setup": [], "train": [], "evaluate": [], "arrived_flights": None}

    def setup_batch() -> None:
        for _ in range(SETUPS_PER_BATCH):
            res = stages.run("setup", "--config", str(cfg), spans=spans_file(trace))
            if res is not None:
                rnd["setup"].append(res)

    train_modes = (False, True) if trace else (False,)
    eval_modes = (False, True) if trace else (False,) * EVALUATES
    setup_batch()
    for traced in train_modes:
        res = stages.run("train", "--config", str(cfg), "--out", str(art), spans=spans_file(traced))
        if res is not None:
            res["traced"] = traced
            res["artifact_mb"] = sum(p.stat().st_size for p in art.iterdir()) / MIB
            rnd["train"].append(res)
    setup_batch()
    if rnd["train"]:
        for traced in eval_modes:
            res = stages.run(
                "evaluate", "--out", str(art), "--flights", str(wl.flights),
                "--seed", str(seed), spans=spans_file(traced),
            )
            if res is not None:
                res["traced"] = traced
                rnd["evaluate"].append(res)
    else:
        stages.skip(len(eval_modes))
    setup_batch()

    res = None
    if rnd["evaluate"]:
        res = stages.run("check", "--out", str(art), "--flights", str(wl.flights))
    else:
        stages.skip(1)
    for name in CHECKS:
        stages.attempted += 1
        reason = "check did not run" if res is None else res["checks"].get(name, "missing")
        if reason is not None:
            stages.failed += 1
            log(f"check {name} failed: {reason}")
    if res is not None:
        rnd["arrived_flights"] = res["arrived_flights"]
    return rnd


def end_to_end(rounds: list[dict], traced: bool = False) -> dict:
    """Medians over every (untraced, by default) sample of the rounds."""
    trains = [t for r in rounds for t in r["train"] if t["traced"] == traced]
    evals = [e for r in rounds for e in r["evaluate"] if e["traced"] == traced]
    return {
        "setup_s": median([s["seconds"] for r in rounds for s in r["setup"]]),
        "train_s": median([t["seconds"] for t in trains]),
        "evaluate_s": median([e["seconds"] for e in evals]),
        "train_peak_rss_mb": median([t["peak_rss_mb"] for t in trains]),
        "evaluate_peak_rss_mb": median([e["peak_rss_mb"] for e in evals]),
        "artifact_mb": median([t["artifact_mb"] for t in trains]),
        "arrived_flights": median(
            [r["arrived_flights"] for r in rounds if r["arrived_flights"] is not None]
        ),
    }


def overhead_pct(traced: float | None, untraced: float | None) -> float | None:
    if traced is None or not untraced:
        return None
    return 100.0 * (traced - untraced) / untraced


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    wl = WORKLOADS[workload]
    t0 = time.monotonic()
    stages = Stages(t0 + RUN_DEADLINE_S)
    work = out_dir / f"{workload}-seed{seed}-{os.getpid()}"
    rounds: list[dict] = []
    try:
        while True:
            rounds.append(run_round(wl, seed, work, stages, trace))
            if time.monotonic() - t0 >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = layer_metrics(
            setups=[s["spans"] for r in rounds for s in r["setup"]],
            trains=[t["spans"] for r in rounds for t in r["train"] if t["traced"]],
            evaluates=[e["spans"] for r in rounds for e in r["evaluate"] if e["traced"]],
        )
        plain, traced = end_to_end(rounds), end_to_end(rounds, traced=True)
        metrics["bench.train_overhead_pct"] = overhead_pct(traced["train_s"], plain["train_s"])
        metrics["bench.evaluate_overhead_pct"] = overhead_pct(
            traced["evaluate_s"], plain["evaluate_s"]
        )
        trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(
            json.dumps(
                {"workload": workload, "seed": seed, "metrics": metrics, "rounds": rounds}
            ),
            encoding="utf-8",
        )
        log(f"spans written to {trace_file}")
        units = PER_LAYER
    else:
        metrics = end_to_end(rounds)
        units = END_TO_END
        for stage in ("setup", "train", "evaluate"):
            samples = " ".join(f"{x['seconds']:.3f}" for r in rounds for x in r[stage])
            print(f"{workload:>14} {stage} samples (s): {samples}")

    for name, unit in units.items():
        value = metrics.get(name)
        shown = "not measured" if value is None else f"{value:.6g} {unit}"
        print(f"{workload:>14} {name:<30} {shown}")
    return {
        "correct": stages.failed == 0,
        "attempted": stages.attempted,
        "failed": stages.failed,
        "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u in units.items()},
    }


def selfcheck() -> int:
    """Run the tiny workload both ways and make sure the checks can fail."""
    out_dir = OUT / "selfcheck"
    shutil.rmtree(out_dir, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: m["unit"] for m in declared[key]}
        if got != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {got} != {table}")
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS) - {"tiny"}:
        problems.append("BENCHMARK.json workloads differ from run.py")
    for trace in (False, True):
        result = run("tiny", 1, 0, trace, out_dir)
        if not result["correct"] or result["failed"]:
            problems.append(f"tiny run (trace={trace}) failed: {result}")
        missing = [n for n, m in result["metrics"].items() if m["value"] is None]
        if missing:
            problems.append(f"tiny run (trace={trace}) did not measure {missing}")

    # The checks must catch a report that disagrees with its flights.
    wl = WORKLOADS["tiny"]
    stages = Stages(time.monotonic() + RUN_DEADLINE_S)
    work = out_dir / "tamper"
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(wl.config()), encoding="utf-8")
    art = work / "artifacts"
    flights = ("--flights", str(wl.flights))
    stages.run("train", "--config", str(cfg), "--out", str(art))
    stages.run("evaluate", "--out", str(art), *flights, "--seed", "1")
    report = art / "evaluation.json"
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["arrival_pct"] += 1.0
    report.write_text(json.dumps(doc), encoding="utf-8")
    res = stages.run("check", "--out", str(art), *flights)
    if res is None or res["checks"]["evaluation_matches_recount"] is None:
        problems.append("a tampered evaluation.json passed the recount check")
    shutil.rmtree(out_dir, ignore_errors=True)

    for p in problems:
        log(f"SELFCHECK FAIL: {p}")
    print("selfcheck", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(set(WORKLOADS) - {"tiny"}))
    parser.add_argument("--seed", type=int, default=1, help="seed of the evaluation missions")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="quick check on a tiny config")
    args = parser.parse_args(argv)

    if not (SRC / "uavnav" / "__init__.py").is_file():
        log(f"no uavnav sources under {SRC}: run from a full checkout")
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
