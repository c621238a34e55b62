"""Experiment orchestration: training runs, evaluation flights, exports.

An experiment is fully determined by (config, master seed). Training writes
an artifact directory holding one strategic checkpoint (``strategic.npz``),
one adaptive checkpoint per band (``adaptive_<band>.npz``), both in the
``qcore`` format v3, a per-episode reward CSV per agent, and a manifest.
The manifest embeds the resolved config (so evaluation can rebuild the
identical world), its sha256 (``config_sha256``) and, under ``files``, the
sha256 of every checkpoint. Checkpoints and manifest are written to a
temporary file and renamed into place. Rerunning with the same config and
seed reproduces every artifact byte for byte; only the manifest timestamp
differs.

The planner and each band's coverage agent train in independent jobs: each
draws from its own named random stream, rebuilds the world from the config
and writes its own checkpoint and reward CSV. The jobs run concurrently in
worker processes, one per usable CPU of the process, so the bytes do not
depend on the worker count. They run in-process when the process has one
CPU, and also when a caller has replaced one of the functions in this
module that do a job's work (a test double, a tracer): the replacement then
sees every call, in the caller's process. The manifest is written only after
every job has returned; a run that fails leaves none.

Evaluation loads only what it can verify: ``load_artifacts`` recomputes
both kinds of hash and raises ``ArtifactError`` on any mismatch, so tables
are never flown in a world other than the one they were trained in.

Evaluation replays the trained tables over fresh random destinations and
reports Table-style percentages: arrival, crash, step-cap, and outage both
per flight (a flight counts once however many below-threshold steps it had)
and per step.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .agents import EpisodeLog, draw_free_cell, train_adaptive, train_strategic
from .arbiter import FlightOutcome, FlightResult, TieMasks, execute_flight
from .config import (
    ConfigError,
    TrainConfig,
    config_from_dict,
    load_config,
    seed_stream,
    stream_rng,
)
from .gridworld import ACTIONS, ACTIONS_XY, Cell, GridWorld, build, cell_center_m
from .qcore import FORMAT_VERSION, QTable
from .qcore import load as load_table
from .qcore import save as save_table
from .radio import HataValidityWarning, coverage_map

MANIFEST_NAME = "manifest.json"
STRATEGIC_NAME = "strategic.npz"


class ArtifactError(ValueError):
    """An artifact directory is incomplete or inconsistent with its config."""


class TrainingError(RuntimeError):
    """A training job ended without a result: its worker process died."""


@dataclass
class FlightRecord:
    """One evaluated flight, flattened for metrics and CSV export."""

    band_mhz: float
    destination: Cell
    outcome: FlightOutcome
    steps: int
    outage_steps: int
    min_snr_db: float
    flight_time_s: float


@dataclass
class EvalReport:
    flights: int
    arrival_pct: float
    crash_pct: float
    stepcap_pct: float
    outage_flight_pct: float
    outage_step_pct: float
    mean_steps: float
    mean_flight_time_s: float
    per_band: dict[str, "EvalReport"] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["per_band"] = {k: v.to_dict() for k, v in self.per_band.items()}
        return d


def band_label(band_mhz: float) -> str:
    return f"{band_mhz:g}"


def compute_metrics(records: list[FlightRecord]) -> EvalReport:
    """Aggregate flight records into percentages, with a per-band breakdown."""
    report = _metrics_flat(records)
    bands = sorted({r.band_mhz for r in records})
    if len(bands) > 1:
        for b in bands:
            report.per_band[band_label(b)] = _metrics_flat(
                [r for r in records if r.band_mhz == b]
            )
    return report


def _metrics_flat(records: list[FlightRecord]) -> EvalReport:
    n = len(records)
    if n == 0:
        return EvalReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    n_arrived = sum(1 for r in records if r.outcome == FlightOutcome.ARRIVED)
    n_crashed = sum(1 for r in records if r.outcome == FlightOutcome.CRASHED)
    n_capped = n - n_arrived - n_crashed
    n_outage_flights = sum(1 for r in records if r.outage_steps > 0)
    total_steps = sum(r.steps for r in records)
    total_outage = sum(r.outage_steps for r in records)
    return EvalReport(
        flights=n,
        arrival_pct=100.0 * n_arrived / n,
        crash_pct=100.0 * n_crashed / n,
        stepcap_pct=100.0 * n_capped / n,
        outage_flight_pct=100.0 * n_outage_flights / n,
        outage_step_pct=(100.0 * total_outage / total_steps) if total_steps else 0.0,
        mean_steps=total_steps / n,
        mean_flight_time_s=sum(r.flight_time_s for r in records) / n,
    )


def build_world(cfg: TrainConfig) -> GridWorld:
    """The world an experiment trains and evaluates in, from config + seed."""
    return build(
        spec=cfg.grid,
        density=cfg.obstacle_density,
        seed=seed_stream(cfg.seed, "obstacles"),
        start=cfg.start_cell,
        bs_xy=cfg.resolved_bs_cell(),
    )


def _write_rewards_csv(path: Path, logs: list[EpisodeLog]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["episode", "total_reward", "epsilon", "steps"])
        for log in logs:
            writer.writerow(
                [log.episode, repr(log.total_reward), repr(log.epsilon), log.steps]
            )


def _adaptive_name(band_mhz: float) -> str:
    return f"adaptive_{band_label(band_mhz)}.npz"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _replace_from_temp(path: Path, write) -> None:
    """Call ``write(tmp)`` on a temp file beside ``path``, then rename it over ``path``.

    A reader never sees a half-written file under the final name.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _save_checkpoint(table: QTable, path: Path) -> str:
    """Write a checkpoint into place; returns its sha256."""
    _replace_from_temp(path, lambda tmp: save_table(table, tmp))
    return _sha256(path)


def _require_mission_cells(cfg: TrainConfig, world: GridWorld, need: int) -> None:
    """Missions need ``need`` free cells besides the start to draw from.

    With ``altitude_locked`` they must lie on the takeoff layer. A flight
    draws a destination: one cell. Training with two or more episodes also
    starts every other episode at a drawn cell and then draws a different
    destination: two cells. With fewer, a draw would never terminate.
    """
    start = world.start_cell
    found = 0
    for c in world.cells:
        if c != start and c not in world.obstacles and (
            not cfg.altitude_locked or c[2] == start[2]
        ):
            found += 1
            if found == need:
                return
    where = f"altitude_locked: takeoff layer z={start[2]}" if cfg.altitude_locked else "grid"
    raise ConfigError(
        f"{where} has {found} free cell(s) besides the start cell; missions need {need}"
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _train_job(cfg: TrainConfig, out: Path, band: float | None) -> tuple[str, str]:
    """Train the planner (``band`` None) or one band's coverage agent.

    Writes the checkpoint and the reward CSV into ``out`` and returns the
    checkpoint's (file name, sha256). Arguments are picklable and the world
    is rebuilt here, so a job runs alike in-process and in a worker.
    """
    world = build_world(cfg)
    if band is None:
        table, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
        name, rewards = STRATEGIC_NAME, "rewards_strategic.csv"
    else:
        label = band_label(band)
        rng = stream_rng(cfg.seed, f"train.adaptive.{label}")
        table, logs = train_adaptive(world, cfg.link_for_band(band), cfg, rng)
        name, rewards = _adaptive_name(band), f"rewards_adaptive_{label}.csv"
    sha = _save_checkpoint(table, out / name)
    _write_rewards_csv(out / rewards, logs)
    return name, sha


# The names in this module of the functions that do a job's work, as
# imported. A caller that replaces one of them gets the jobs in-process.
_JOB_CALLEES = {
    "_train_job": _train_job,
    "build_world": build_world,
    "train_strategic": train_strategic,
    "train_adaptive": train_adaptive,
    "_save_checkpoint": _save_checkpoint,
    "save_table": save_table,
    "_write_rewards_csv": _write_rewards_csv,
}


def _job_callees_replaced() -> bool:
    names = globals()
    return any(names[name] is not f for name, f in _JOB_CALLEES.items())


def _pool_context():
    """Fork on Linux: a job needs no fresh interpreter, and a forked worker
    skips the interpreter start-up and imports that spawn and forkserver
    pay on every run (forkserver cost 6-9 % of a benchmark run's training).
    The program starts no thread of its own before the fork, and OpenBLAS
    stops its idle thread pool at a fork. Elsewhere, where system libraries
    may hold threads across a fork, the platform default is used.
    """
    if not sys.platform.startswith("linux"):
        return None
    import multiprocessing

    return multiprocessing.get_context("fork")


def _run_jobs(
    cfg: TrainConfig, world: GridWorld, out: Path, jobs: list[float | None]
) -> dict[str, str]:
    """Run every job, in worker processes when more than one CPU is usable.

    A job's exception reaches the caller with its type; a worker that dies
    raises ``TrainingError``.
    """
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1 or _job_callees_replaced():
        return dict(_train_job(cfg, out, band) for band in jobs)
    import functools
    import warnings
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # The COST 231 validity warning is issued here, once, on the path the
    # band jobs take; the workers ignore it.
    for band in cfg.bands_mhz:
        coverage_map(cfg.link_for_band(band), world)
    quiet = functools.partial(warnings.filterwarnings, "ignore", category=HataValidityWarning)
    with ProcessPoolExecutor(workers, mp_context=_pool_context(), initializer=quiet) as pool:
        futures = [pool.submit(_train_job, cfg, out, band) for band in jobs]
        try:
            return dict(f.result() for f in futures)
        except BrokenProcessPool:
            raise TrainingError("a training worker process died before its job returned") from None
        finally:
            # after a failure, jobs that have not started are dropped
            pool.shutdown(cancel_futures=True)


def cmd_train(
    config: TrainConfig | str, out_dir: str | Path, seed: int | None = None
) -> Path:
    """Train both agents (the adaptive one once per band) into an artifact dir."""
    cfg = load_config(config) if isinstance(config, str) else config
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    world = build_world(cfg)
    episodes = max(cfg.episodes_strategic, cfg.episodes_adaptive)
    _require_mission_cells(cfg, world, 2 if episodes > 1 else 1)
    if cfg.fixed_destination in world.obstacles:
        raise ConfigError(f"fixed_destination {cfg.fixed_destination} is an obstacle")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # A manifest only ever lists checkpoints of the run that wrote it.
    (out / MANIFEST_NAME).unlink(missing_ok=True)
    files = _run_jobs(cfg, world, out, [None, *cfg.bands_mhz])

    manifest = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        "checkpoint_format_version": FORMAT_VERSION,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "config_sha256": cfg.config_hash(),
        "files": files,
    }

    def write_manifest(tmp: Path) -> None:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")

    _replace_from_temp(out / MANIFEST_NAME, write_manifest)
    return out


def _read_manifest(art: Path) -> tuple[TrainConfig, dict[str, str]]:
    """The verified config of an artifact dir and its checkpoint hashes."""
    manifest_path = art / MANIFEST_NAME
    if not manifest_path.exists():
        raise ArtifactError(f"no {MANIFEST_NAME} in {art}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactError(f"manifest {manifest_path} is not a JSON object")
    # Checked first: the config of another format may not parse at all.
    version = manifest.get("checkpoint_format_version")
    if type(version) is not int:
        raise ArtifactError(
            f"manifest {manifest_path}: checkpoint_format_version is {version!r}, "
            f"not a format number; retrain with this version (format {FORMAT_VERSION})"
        )
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"manifest {manifest_path} holds checkpoint format {version}, this version "
            f"reads format {FORMAT_VERSION}; retrain"
        )
    for key, kind in (("config", dict), ("config_sha256", str), ("files", dict)):
        if not isinstance(manifest.get(key), kind):
            raise ArtifactError(
                f"manifest {manifest_path}: {key!r} missing or not a {kind.__name__}"
            )
    try:
        cfg = config_from_dict(manifest["config"], path=str(manifest_path))
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ArtifactError(f"manifest {manifest_path}: invalid config: {exc}") from exc
    if cfg.config_hash() != manifest["config_sha256"]:
        raise ArtifactError(
            f"manifest {manifest_path}: config does not match config_sha256; "
            "it was edited after training"
        )
    return cfg, manifest["files"]


def _load_verified(art: Path, name: str, files: dict[str, str]) -> QTable:
    path = art / name
    if not path.exists():
        raise ArtifactError(f"missing checkpoint {path}")
    if _sha256(path) != files[name]:
        raise ArtifactError(f"{path} does not match its sha256 in the manifest")
    return load_table(path)


def load_artifacts(artifact_dir: str | Path) -> tuple[TrainConfig, QTable, dict[float, QTable]]:
    """Read back a training run: config, strategic table, per-band adaptive tables.

    Every checkpoint must match its manifest hash and the config its
    ``config_sha256``; anything else raises ``ArtifactError``.
    """
    art = Path(artifact_dir)
    cfg, files = _read_manifest(art)
    expected = {STRATEGIC_NAME, *(_adaptive_name(b) for b in cfg.bands_mhz)}
    if set(files) != expected:
        raise ArtifactError(
            f"manifest lists checkpoints {sorted(files)}, config needs {sorted(expected)}"
        )

    strategic = _load_verified(art, STRATEGIC_NAME, files)
    if strategic.kind != "strategic":
        raise ArtifactError(f"{STRATEGIC_NAME} does not hold a strategic table")
    if strategic.grid != cfg.grid:
        raise ArtifactError("strategic checkpoint grid does not match the config grid")

    adaptive: dict[float, QTable] = {}
    for band in cfg.bands_mhz:
        name = _adaptive_name(band)
        t = _load_verified(art, name, files)
        if t.kind != "adaptive":
            raise ArtifactError(f"{name} does not hold an adaptive table")
        if t.grid != cfg.grid:
            raise ArtifactError(f"{name} grid does not match the config grid")
        if t.f_mhz != band:
            raise ArtifactError(f"{name} was trained at {t.f_mhz} MHz, expected {band}")
        adaptive[band] = t
    return cfg, strategic, adaptive


def run_flights(
    cfg: TrainConfig,
    world: GridWorld,
    strategic: QTable,
    adaptive: dict[float, QTable],
    n_flights: int,
    seed: int,
    safety: bool = True,
    normalize: bool = False,
) -> list[FlightRecord]:
    """Fly ``n_flights`` per band to random free destinations.

    The destination stream restarts per band, so every band faces the same
    destination sequence. The planner's tie masks are built once and
    shared by every band's flights.
    """
    _require_mission_cells(cfg, world, 1)
    records: list[FlightRecord] = []
    cap = cfg.resolved_eval_step_cap()
    allowed = ACTIONS_XY if cfg.altitude_locked else ACTIONS
    layer = cfg.start_cell[2] if cfg.altitude_locked else None
    masks = TieMasks(world, strategic, safety, allowed)
    for band in sorted(adaptive):
        cmap = coverage_map(cfg.link_for_band(band), world)
        dest_rng = stream_rng(seed, "eval.dest")
        tie_rng = stream_rng(seed, f"eval.ties.{band_label(band)}")
        for _ in range(n_flights):
            dest = draw_free_cell(world, dest_rng, layer)
            result: FlightResult = execute_flight(
                strategic,
                adaptive[band],
                world,
                cmap,
                dest,
                step_cap=cap,
                rng=tie_rng,
                safety=safety,
                normalize=normalize,
                velocity_ms=cfg.uav_velocity_ms,
                allowed=allowed,
                masks=masks,
            )
            records.append(
                FlightRecord(
                    band_mhz=band,
                    destination=dest,
                    outcome=result.outcome,
                    steps=result.steps,
                    outage_steps=result.outage_steps,
                    min_snr_db=result.min_snr_db,
                    flight_time_s=result.flight_time_s,
                )
            )
    return records


def cmd_evaluate(
    artifact_dir: str | Path,
    n_flights: int,
    seed: int = 0,
    safety: bool = True,
    normalize: bool = False,
) -> EvalReport:
    """Evaluate a trained artifact directory; writes report JSON and flight CSV."""
    if n_flights < 0:
        raise ValueError("n_flights must be >= 0")
    art = Path(artifact_dir)
    cfg, strategic, adaptive = load_artifacts(art)
    world = build_world(cfg)
    records = run_flights(
        cfg, world, strategic, adaptive, n_flights, seed, safety, normalize
    )
    report = compute_metrics(records)

    with open(art / "flights.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "band_mhz",
                "dest_ix",
                "dest_iy",
                "dest_iz",
                "outcome",
                "steps",
                "outage_steps",
                "min_snr_db",
                "flight_time_s",
            ]
        )
        for r in records:
            writer.writerow(
                [
                    band_label(r.band_mhz),
                    r.destination[0],
                    r.destination[1],
                    r.destination[2],
                    r.outcome.value,
                    r.steps,
                    r.outage_steps,
                    repr(r.min_snr_db),
                    repr(r.flight_time_s),
                ]
            )
    doc = report.to_dict()
    doc["seed"] = seed
    doc["safety"] = safety
    doc["normalize_q"] = normalize
    with open(art / "evaluation.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return report


def cmd_coverage(
    config: TrainConfig | str, band_mhz: float, out_path: str | Path
) -> float:
    """Export the per-cell SNR/coverage CSV for one band; returns covered fraction."""
    cfg = load_config(config) if isinstance(config, str) else config
    if not (math.isfinite(band_mhz) and band_mhz > 0):
        raise ConfigError(f"band must be a positive finite number, got {band_mhz}")
    world = build_world(cfg)
    cmap = coverage_map(cfg.link_for_band(band_mhz), world)
    spec = cfg.grid
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["ix", "iy", "iz", "x_m", "y_m", "z_m", "snr_db", "covered"])
        for x in range(spec.nx):
            for y in range(spec.ny):
                for z in range(spec.nz):
                    cx, cy, cz = cell_center_m(spec, (x, y, z))
                    snr = float(cmap.snr[x, y, z])
                    writer.writerow(
                        [
                            x,
                            y,
                            z,
                            repr(cx),
                            repr(cy),
                            repr(cz),
                            repr(snr),
                            int(snr >= cmap.snr_threshold_db),
                        ]
                    )
    return cmap.covered_fraction()
