"""Experiment orchestration: training runs, evaluation flights, exports.

An experiment is fully determined by (config, master seed). Training writes
an artifact directory holding one strategic checkpoint (``strategic.npz``),
one adaptive checkpoint per band (``adaptive_<band>.npz``), both in the
``qcore`` format v2, a per-episode reward CSV per agent, and a manifest.
The manifest embeds the resolved config (so evaluation can rebuild the
identical world), its sha256 (``config_sha256``) and, under ``files``, the
sha256 of every checkpoint. Checkpoints and manifest are written to a
temporary file and renamed into place. Rerunning with the same config and
seed reproduces every artifact byte for byte; only the manifest timestamp
differs.

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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .agents import EpisodeLog, draw_free_cell, train_adaptive, train_strategic
from .arbiter import FlightOutcome, FlightResult, execute_flight
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
from .radio import coverage_map

MANIFEST_NAME = "manifest.json"
STRATEGIC_NAME = "strategic.npz"


class ArtifactError(ValueError):
    """An artifact directory is incomplete or inconsistent with its config."""


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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}

    table, logs = train_strategic(world, cfg, stream_rng(cfg.seed, "train.strategic"))
    files[STRATEGIC_NAME] = _save_checkpoint(table, out / STRATEGIC_NAME)
    _write_rewards_csv(out / "rewards_strategic.csv", logs)

    for band in cfg.bands_mhz:
        label = band_label(band)
        rng = stream_rng(cfg.seed, f"train.adaptive.{label}")
        atable, alogs = train_adaptive(world, cfg.link_for_band(band), cfg, rng)
        files[_adaptive_name(band)] = _save_checkpoint(atable, out / _adaptive_name(band))
        _write_rewards_csv(out / f"rewards_adaptive_{label}.csv", alogs)

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
    destination sequence.
    """
    _require_mission_cells(cfg, world, 1)
    records: list[FlightRecord] = []
    cap = cfg.resolved_eval_step_cap()
    allowed = ACTIONS_XY if cfg.altitude_locked else ACTIONS
    layer = cfg.start_cell[2] if cfg.altitude_locked else None
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
