"""Experiment orchestration: training runs, evaluation flights, exports.

An experiment is fully determined by (config, master seed). Training writes
an artifact directory holding one strategic checkpoint (``strategic.npz``),
one adaptive checkpoint per band (``adaptive_<band>.npz``), both in the
``qcore`` format v7, a per-episode reward CSV per agent, and a manifest.
The manifest embeds the resolved config (so evaluation can rebuild the
identical world), its sha256 (``config_sha256``) and, under ``files``, the
sha256 of every checkpoint. Rerunning with the same config and seed
reproduces every artifact byte for byte; only the manifest timestamp
differs.

The planner and each band's coverage agent train in independent jobs: each
draws from its own named random stream, rebuilds the world from the config
and writes its own checkpoint and reward CSV. The jobs run concurrently in
worker processes, one per usable CPU of the process, so the bytes do not
depend on the worker count. They run in-process when the process has one
CPU, and also when a caller has replaced one of the functions in this
module that do a job's work (a test double, a tracer): the replacement then
sees every call, in the caller's process. The jobs write into a private
temporary directory inside the artifact directory. Only after every job
has returned are their files renamed into place, the manifest last; a run
that fails removes the temporary directory and leaves the artifact
directory as it found it, a previous run's manifest included. Evaluation
publishes the same way: ``flights.csv`` and ``evaluation.json`` are
written into a temporary directory of their own and renamed into place,
``evaluation.json`` last, so a failed evaluation leaves the previous pair.
A coverage export to a regular file or a new path is staged and renamed
the same way; one to anything else, a pipe or ``/dev/stdout``, streams.

Every text file is written by one of two helpers. ``_write_csv`` writes a
CSV as ``csv.writer`` does (unquoted fields, floats as their ``repr``, rows
ending in ``\\r\\n``), formatting at most ``_BLOCK_ROWS`` rows at a time;
``_json_text`` gives the manifest and
``evaluation.json`` two-space indents, sorted keys and a final newline. The
coverage export lists cells in flat-index order (``GridWorld.cells``).

Evaluation loads only what it can verify: ``load_artifacts`` recomputes
both kinds of hash and raises ``ArtifactError`` on any mismatch, so tables
are never flown in a world other than the one they were trained in. Each
checkpoint is read once, and the bytes it hashes are the bytes it parses.
The loaded tables keep those bytes and decode a column from them when a
flight needs it, so evaluation never builds the dense planner.
Training hashes each checkpoint as ``qcore.save`` writes it.

Evaluation flies the trained tables to fresh random destinations, or
every flight to the config's ``fixed_destination``. It draws each
destination once, from one stream, and flies it on every band before it
draws the next, so the planner's values are decoded for one destination's
column at a time and that column's values are the only ones held. One set
of ``arbiter.TieMasks`` serves the run. The flights are kept as columns
(``Flights``), numpy arrays allocated before the first flight, into which
each ``arbiter.FlightRecord`` that ``execute_flight`` returns is copied:
a flight costs ``FLIGHT_BYTES``, not a Python record. A flight's time is
``steps * Flights.seconds_per_step``, computed nowhere else. Evaluation
reports Table-style percentages: arrival, crash, step-cap, and outage both
per flight (a flight counts once however many below-threshold steps it
had) and per step.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .agents import train_adaptive, train_strategic
from .arbiter import FlightOutcome, TieMasks, execute_flight
from .config import (
    ConfigError,
    TrainConfig,
    band_label,
    config_from_dict,
    load_config,
    seed_stream,
    stream_rng,
)
from .gridworld import (
    Cell,
    GridWorld,
    build,
    cell_center_m,
    random_free_cell,
    require_mission_cells,
)
from .qcore import FORMAT_VERSION, MAX_TABLE_BYTES, QTable
from .qcore import load as load_table
from .qcore import save as save_table
from .radio import coverage_map, warn_outside_validity

MANIFEST_NAME = "manifest.json"
STRATEGIC_NAME = "strategic.npz"
EVALUATION_NAME = "evaluation.json"
# The bytes evaluation holds per flight: its columns and what the report
# builds from them. Measured with tracemalloc, as the growth of
# cmd_evaluate's peak from 20,000 to 60,000 flights on a 4 x 4 x 2,
# one-band run: 33.0, rounded up to a multiple of 8.
FLIGHT_BYTES = 40
# The most rows a CSV writer formats at once, and the most flights whose
# columns are converted to Python objects at once.
_BLOCK_ROWS = 1 << 10
# A flight's outcome code in Flights.outcome: its index in FlightOutcome.
_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(FlightOutcome)}
_OUTCOME_TEXT = tuple(outcome.value for outcome in FlightOutcome)
_ARRIVED, _CRASHED = _OUTCOME_CODE[FlightOutcome.ARRIVED], _OUTCOME_CODE[FlightOutcome.CRASHED]


class ArtifactError(ValueError):
    """An artifact directory is incomplete or inconsistent with its config."""


class TrainingError(RuntimeError):
    """A training job ended without a result: its worker process died."""


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
        return dataclasses.asdict(self)


@dataclass(frozen=True, eq=False)
class Flights:
    """An evaluation's flights, one array per field. Row ``b`` of a
    per-band array is the ``b``-th band of ``bands_mhz``, and column ``j``
    the ``j``-th destination drawn, which every band flies.
    """

    cells: Sequence[Cell]  # the world's cells, by flat index
    bands_mhz: tuple[float, ...]  # ascending
    seconds_per_step: float  # cell_size_m / uav_velocity_ms
    destination: np.ndarray  # intp (flights,), the destination's flat index
    outcome: np.ndarray  # uint8 (bands, flights), the index in FlightOutcome
    steps: np.ndarray  # int64 (bands, flights)
    outage_steps: np.ndarray  # int64 (bands, flights)
    min_snr_db: np.ndarray  # float64 (bands, flights)


def compute_metrics(flights: Flights) -> EvalReport:
    """Aggregate flights into percentages, with a per-band breakdown."""
    bands = flights.bands_mhz
    report = _metrics_flat(flights, slice(None))
    if len(bands) > 1 and report.flights:
        for b, band in enumerate(bands):
            report.per_band[band_label(band)] = _metrics_flat(flights, slice(b, b + 1))
    return report


def _metrics_flat(flights: Flights, bands: slice) -> EvalReport:
    outcome, steps = flights.outcome[bands], flights.steps[bands]
    outage = flights.outage_steps[bands]
    n = outcome.size
    if n == 0:
        return EvalReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    # The outcome codes are counted in their bytes, and each flight's time is
    # a product of Python numbers: a process's first numpy comparison, or
    # product of int64s by a float, grew a 300-flight evaluation's peak RSS
    # by a 128 KiB step of its heap.
    codes = outcome.tobytes()
    n_arrived, n_crashed = codes.count(_ARRIVED), codes.count(_CRASHED)
    n_capped = n - n_arrived - n_crashed
    n_outage_flights = int(np.count_nonzero(outage))
    total_steps, total_outage = int(steps.sum()), int(outage.sum())
    # summed flight by flight, band after band, as one record per flight
    # would be: a numpy sum adds in another order
    per_step = flights.seconds_per_step
    flight_times = (
        n_steps * per_step
        for row in steps
        for i in range(0, len(row), _BLOCK_ROWS)
        for n_steps in row[i:i + _BLOCK_ROWS].tolist()
    )
    return EvalReport(
        flights=n,
        arrival_pct=100.0 * n_arrived / n,
        crash_pct=100.0 * n_crashed / n,
        stepcap_pct=100.0 * n_capped / n,
        outage_flight_pct=100.0 * n_outage_flights / n,
        outage_step_pct=(100.0 * total_outage / total_steps) if total_steps else 0.0,
        mean_steps=total_steps / n,
        mean_flight_time_s=sum(flight_times) / n,
    )


def build_world(cfg: TrainConfig) -> GridWorld:
    """The world an experiment trains and evaluates in, from config + seed."""
    return build(
        spec=cfg.grid,
        density=cfg.obstacle_density,
        seed=seed_stream(cfg.seed, "obstacles"),
        start=cfg.start_cell,
        bs_xy=cfg.bs_cell,
    )


def _write_csv(path: str | Path, header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """Write ``header`` and ``rows`` in place, as the bytes ``csv.writer``
    writes: no field needs quoting, since names, ints, band labels and the
    ``repr`` of Python floats hold no comma, quote or line break. Rows are
    formatted and written ``_BLOCK_ROWS`` at a time, so the text of a long
    file is never held whole.
    """
    line = ",".join(["%s"] * len(header)) + "\r\n"
    rows = iter(rows)
    with open(path, "wb") as f:
        f.write((line % header).encode())
        while block := [line % row for row in islice(rows, _BLOCK_ROWS)]:
            f.write("".join(block).encode())


def _float_texts(column: np.ndarray) -> list[str]:
    """The ``repr`` of each float64 of ``column``, formatting each distinct
    value once (by its bits, so -0.0 and 0.0 stay apart)."""
    bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _json_text(doc: dict) -> str:
    """A JSON document as written: two-space indent, sorted keys, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _adaptive_name(band_mhz: float) -> str:
    return f"adaptive_{band_label(band_mhz)}.npz"


def _require_missions(cfg: TrainConfig, world: GridWorld, need: int) -> frozenset[Cell]:
    """``require_mission_cells`` for ``cfg``'s missions, refused as a ``ConfigError``."""
    try:
        return require_mission_cells(world, cfg.altitude_locked, need, cfg.fixed_destination)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    sha = save_table(table, out / name)
    rows = zip(
        range(len(logs)), _float_texts(logs.total_reward), _float_texts(logs.epsilon),
        logs.steps.tolist(),
    )
    _write_csv(out / rewards, ("episode", "total_reward", "epsilon", "steps"), rows)
    return name, sha


# The names in this module of the functions that do a job's work, as
# imported. A caller that replaces one of them gets the jobs in-process.
_JOB_CALLEES = {
    "_train_job": _train_job,
    "build_world": build_world,
    "train_strategic": train_strategic,
    "train_adaptive": train_adaptive,
    "save_table": save_table,
    "_write_csv": _write_csv,
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


def _run_jobs(cfg: TrainConfig, out: Path, jobs: list[float | None]) -> dict[str, str]:
    """Run every job, in worker processes when more than one CPU is usable.

    A job's exception reaches the caller with its type; a worker that dies
    raises ``TrainingError``.
    """
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1 or _job_callees_replaced():
        return dict(_train_job(cfg, out, band) for band in jobs)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(workers, mp_context=_pool_context()) as pool:
        futures = [pool.submit(_train_job, cfg, out, band) for band in jobs]
        try:
            return dict(f.result() for f in futures)
        except BrokenProcessPool:
            raise TrainingError("a training worker process died before its job returned") from None
        finally:
            # after a failure, jobs that have not started are dropped
            pool.shutdown(cancel_futures=True)


def cmd_train(
    config: TrainConfig | str | Path, out_dir: str | Path, seed: int | None = None
) -> Path:
    """Train both agents (the adaptive one once per band) into an artifact dir."""
    cfg = config if isinstance(config, TrainConfig) else load_config(config)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    world = build_world(cfg)
    episodes = max(cfg.episodes_strategic, cfg.episodes_adaptive)
    _require_missions(cfg, world, 2 if episodes > 1 else 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    warn_outside_validity(cfg.bands_mhz, cfg.grid)
    with tempfile.TemporaryDirectory(prefix=".train-", dir=out) as tmp:
        staged = Path(tmp)
        files = _run_jobs(cfg, staged, [None, *cfg.bands_mhz])
        manifest = {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "tool_version": __version__,
            "checkpoint_format_version": FORMAT_VERSION,
            "seed": cfg.seed,
            "config": cfg.to_dict(),
            "config_sha256": cfg.config_hash(),
            "files": files,
        }
        (staged / MANIFEST_NAME).write_text(_json_text(manifest), encoding="utf-8")
        _publish(staged, out, MANIFEST_NAME)
    return out


def _publish(staged: Path, out: Path, last: str) -> None:
    """Rename every file of ``staged`` into ``out``, ``last`` last: the file
    that vouches for the others is in place only once they are."""
    for path in list(staged.iterdir()):
        if path.name != last:
            os.replace(path, out / path.name)
    os.replace(staged / last, out / last)


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
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ArtifactError(f"missing checkpoint {path}") from None
    except OSError as exc:
        raise ArtifactError(f"unreadable checkpoint {path}: {exc}") from exc
    if hashlib.sha256(data).hexdigest() != files[name]:
        raise ArtifactError(f"{path} does not match its sha256 in the manifest")
    # called through this module's name, which a tracer may replace
    return load_table(path, data)


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
    if strategic.columns != cfg.planner_columns:
        raise ArtifactError(
            f"{STRATEGIC_NAME} has {strategic.columns} column(s), the config's planner "
            f"has {cfg.planner_columns}"
        )

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
) -> Flights:
    """Fly ``n_flights`` per band to random mission cells, or all of them to
    ``cfg.fixed_destination``, the one destination the planner trained for.

    Each destination, drawn once from the ``eval.dest`` stream, is flown on
    every band, in sorted band order, before the next is drawn, so every
    band faces the same destination sequence and the planner's values are
    decoded for one destination at a time. Each band breaks ties from its
    own ``eval.ties.<band>`` stream. The flights come as columns, allocated
    before the first flight: the destinations once, and each band's
    outcomes, steps, outage steps and minimum SNRs in flight order. One set
    of tie masks, under ``safety``, serves every band's flights.
    """
    missions = _require_missions(cfg, world, 1)
    cap = cfg.resolved_eval_step_cap()
    masks = TieMasks(world, strategic, safety, cfg.actions)
    bands_mhz = tuple(sorted(adaptive))
    shape = (len(bands_mhz), n_flights)
    flights = Flights(
        cells=world.cells,
        bands_mhz=bands_mhz,
        seconds_per_step=world.spec.cell_size_m / cfg.uav_velocity_ms,
        destination=np.empty(n_flights, dtype=np.intp),
        outcome=np.empty(shape, dtype=np.uint8),
        steps=np.empty(shape, dtype=np.int64),
        outage_steps=np.empty(shape, dtype=np.int64),
        min_snr_db=np.empty(shape, dtype=np.float64),
    )
    bands = [
        (adaptive[band], coverage_map(cfg.link_for_band(band), world),
         stream_rng(seed, f"eval.ties.{band_label(band)}"), flights.outcome[b],
         flights.steps[b], flights.outage_steps[b], flights.min_snr_db[b])
        for b, band in enumerate(bands_mhz)
    ]
    dest_rng = stream_rng(seed, "eval.dest")
    for j in range(n_flights):
        dest = cfg.fixed_destination or random_free_cell(world, dest_rng, missions)
        flights.destination[j] = world.index(dest)
        for table, cmap, tie_rng, outcome, steps, outage_steps, min_snr_db in bands:
            # called through this module's name, which a tracer may replace
            flight = execute_flight(masks, table, cmap, dest, step_cap=cap, rng=tie_rng)
            outcome[j] = _OUTCOME_CODE[flight.outcome]
            steps[j] = flight.steps
            outage_steps[j] = flight.outage_steps
            min_snr_db[j] = flight.min_snr_db
    return flights


def _flight_rows(flights: Flights) -> Iterator[tuple]:
    """The rows of ``flights.csv``: band after band, each in flight order.
    The columns are converted ``_BLOCK_ROWS`` flights at a time."""
    cells = flights.cells
    for b, band in enumerate(flights.bands_mhz):
        label = band_label(band)
        for i in range(0, len(flights.destination), _BLOCK_ROWS):
            block = slice(i, i + _BLOCK_ROWS)
            yield from (
                (label, *cells[dest], _OUTCOME_TEXT[outcome], n_steps, outage, min_snr,
                 n_steps * flights.seconds_per_step)
                for dest, outcome, n_steps, outage, min_snr in zip(
                    flights.destination[block].tolist(),
                    flights.outcome[b, block].tolist(),
                    flights.steps[b, block].tolist(),
                    flights.outage_steps[b, block].tolist(),
                    flights.min_snr_db[b, block].tolist(),
                )
            )


def cmd_evaluate(
    artifact_dir: str | Path,
    n_flights: int,
    seed: int = 0,
    safety: bool = True,
) -> EvalReport:
    """Evaluate a trained artifact directory; writes report JSON and flight CSV.

    Both files are written into a temporary directory inside the artifact
    directory and renamed into place, ``evaluation.json`` last.
    """
    if n_flights < 0:
        raise ValueError("n_flights must be >= 0")
    art = Path(artifact_dir)
    cfg, strategic, adaptive = load_artifacts(art)
    need = n_flights * len(adaptive) * FLIGHT_BYTES
    if need > MAX_TABLE_BYTES:
        raise ValueError(
            f"{n_flights:,} flights on each of {len(adaptive)} band(s) need {need:,} bytes "
            f"of flight columns ({FLIGHT_BYTES} per flight), over the 2 GiB limit "
            f"({MAX_TABLE_BYTES:,} bytes)"
        )
    warn_outside_validity(sorted(adaptive), cfg.grid)  # the order run_flights flies
    world = build_world(cfg)
    flights = run_flights(cfg, world, strategic, adaptive, n_flights, seed, safety)
    report = compute_metrics(flights)
    doc = {**report.to_dict(), "seed": seed, "safety": safety}
    with tempfile.TemporaryDirectory(prefix=".evaluate-", dir=art) as tmp:
        staged = Path(tmp)
        _write_csv(
            staged / "flights.csv",
            ("band_mhz", "dest_ix", "dest_iy", "dest_iz", "outcome", "steps", "outage_steps",
             "min_snr_db", "flight_time_s"),
            _flight_rows(flights),
        )
        (staged / EVALUATION_NAME).write_text(_json_text(doc), encoding="utf-8")
        _publish(staged, art, EVALUATION_NAME)
    return report


def cmd_coverage(
    config: TrainConfig | str | Path, band_mhz: float, out_path: str | Path
) -> float:
    """Export the per-cell SNR/coverage CSV for one band; returns covered fraction.

    A regular file or a new path is written into a temporary directory
    beside it and renamed into place, so a failed export leaves the previous
    file. Anything else, a pipe or ``/dev/stdout``, is written in place.
    """
    cfg = config if isinstance(config, TrainConfig) else load_config(config)
    if not (math.isfinite(band_mhz) and band_mhz > 0):
        raise ConfigError(f"band must be a positive finite number, got {band_mhz}")
    warn_outside_validity((band_mhz,), cfg.grid)
    world = build_world(cfg)
    cmap = coverage_map(cfg.link_for_band(band_mhz), world)
    threshold = cmap.snr_threshold_db
    header = ("ix", "iy", "iz", "x_m", "y_m", "z_m", "snr_db", "covered")
    rows = (
        (*c, *cell_center_m(cfg.grid, c), snr, int(snr >= threshold))
        for c, snr in zip(world.cells, cmap.snr_by_index)
    )
    out = Path(out_path)
    if out.exists() and not out.is_file():
        _write_csv(out, header, rows)
    else:
        out = out.resolve()  # a symlink stays, and its target is replaced
        with tempfile.TemporaryDirectory(prefix=".coverage-", dir=out.parent) as tmp:
            _write_csv(Path(tmp) / out.name, header, rows)
            _publish(Path(tmp), out.parent, out.name)
    return cmap.covered_fraction()
