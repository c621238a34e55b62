import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import random
import signal
import struct
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import count
from pathlib import Path

import numpy as np
import pytest

from uavnav import harness
from uavnav.agents import train_adaptive, train_strategic
from uavnav.arbiter import FlightOutcome, FlightRecord
from uavnav.cli import main as cli_main
from uavnav.config import (
    EPISODE_BYTES,
    ConfigError,
    TrainConfig,
    config_from_dict,
    load_config,
    seed_stream,
)
from uavnav.gridworld import GridSpec, build, random_free_cell
from uavnav.harness import (
    FLIGHT_BYTES,
    ArtifactError,
    EvalReport,
    _write_csv,
    band_label,
    build_world,
    cmd_coverage,
    cmd_evaluate,
    cmd_train,
    compute_metrics,
    load_artifacts,
    run_flights,
)
from uavnav.qcore import (
    FORMAT_VERSION,
    MAX_TABLE_BYTES,
    N_ACTIONS,
    CheckpointError,
    Hyper,
    QTable,
)
from uavnav.qcore import load as load_table

from reference import flights_of, run_flights_by_band, same_flights

SECONDS_PER_STEP = 50.0 / 15.0


def rec(outcome, steps=10, outage=0):
    return FlightRecord(outcome=outcome, steps=steps, outage_steps=outage, min_snr_db=50.0)


def metrics(by_band):
    """compute_metrics of hand-made records, one list per band, as columns:
    every band flies its flights to the one cell (1, 1, 0)."""
    n = len(next(iter(by_band.values()), []))
    return compute_metrics(flights_of(by_band, [0] * n, [(1, 1, 0)], SECONDS_PER_STEP))


def write_config(cfg, path):
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


SMALL = dict(
    grid=GridSpec(nx=8, ny=8, nz=3),
    obstacle_density=0.05,
    bands_mhz=(900.0, 2100.0),
    episodes_strategic=400,
    episodes_adaptive=200,
    seed=5,
)


def test_metrics_single_outage_flight():
    records = [rec(FlightOutcome.ARRIVED) for _ in range(99)]
    records.append(rec(FlightOutcome.ARRIVED, outage=3))
    report = metrics({900.0: records})
    assert report.outage_flight_pct == 1.0
    assert report.arrival_pct == 100.0


def test_metrics_all_arrived_clean():
    report = metrics({900.0: [rec(FlightOutcome.ARRIVED) for _ in range(40)]})
    assert (report.arrival_pct, report.crash_pct, report.stepcap_pct) == (100.0, 0.0, 0.0)
    assert report.outage_flight_pct == 0.0
    assert report.mean_steps == 10.0


def test_metrics_crash_share():
    records = [rec(FlightOutcome.ARRIVED) for _ in range(90)]
    records += [rec(FlightOutcome.CRASHED) for _ in range(10)]
    report = metrics({900.0: records})
    assert report.crash_pct == 10.0
    assert report.arrival_pct <= 90.0


def test_metrics_empty():
    report = metrics({})
    assert report.flights == 0
    assert report.arrival_pct == report.crash_pct == report.outage_step_pct == 0.0


def test_metrics_percentage_identity_random():
    rng = random.Random(8)
    outcomes = [FlightOutcome.ARRIVED, FlightOutcome.CRASHED, FlightOutcome.STEP_CAP_HIT]
    for _ in range(100):
        n = rng.randrange(1, 60)
        by_band = {
            band: [rec(outcomes[rng.randrange(3)], steps=rng.randrange(1, 30),
                       outage=rng.randrange(0, 5)) for _ in range(n)]
            for band in rng.choice([(900.0,), (900.0, 1800.0)])
        }
        records = [r for rs in by_band.values() for r in rs]
        report = metrics(by_band)
        assert abs(report.arrival_pct + report.crash_pct + report.stepcap_pct - 100.0) < 1e-9
        for sub in report.per_band.values():
            assert abs(sub.arrival_pct + sub.crash_pct + sub.stepcap_pct - 100.0) < 1e-9
        total_outage = sum(r.outage_steps for r in records)
        total_steps = sum(r.steps for r in records)
        assert abs(report.outage_step_pct - 100.0 * total_outage / total_steps) < 1e-9
        # the flight times summed record by record, float bits included
        mean_time = sum(r.steps * SECONDS_PER_STEP for r in records) / len(records)
        assert report.mean_flight_time_s.hex() == mean_time.hex()
        for band, rs in by_band.items():
            if len(by_band) > 1:
                times = [r.steps * SECONDS_PER_STEP for r in rs]
                sub = report.per_band[band_label(band)]
                assert sub.mean_flight_time_s.hex() == (sum(times) / len(times)).hex()


def test_metrics_per_band_split():
    report = metrics({900.0: [rec(FlightOutcome.ARRIVED) for _ in range(10)],
                      1800.0: [rec(FlightOutcome.CRASHED) for _ in range(10)]})
    assert set(report.per_band) == {"900", "1800"}
    assert report.per_band["900"].arrival_pct == 100.0
    assert report.per_band["1800"].crash_pct == 100.0


def test_seed_stream_stable_and_distinct():
    a = seed_stream(7, "obstacles")
    assert a == seed_stream(7, "obstacles")
    assert a != seed_stream(7, "train.strategic")
    assert a != seed_stream(8, "obstacles")


def test_config_defaults_match_environment_table():
    cfg = TrainConfig()
    assert cfg.grid.nx * cfg.grid.cell_size_m == 1000.0
    assert cfg.grid.max_altitude_m <= 100.0
    assert cfg.link.h_b_m == 60.0
    assert cfg.hyper.alpha == 0.8
    assert cfg.hyper.gamma == 0.5
    assert cfg.bands_mhz == (900.0, 1800.0, 2100.0)
    assert cfg.uav_velocity_ms == 15.0


def test_config_round_trip(tmp_path):
    cfg = TrainConfig(**SMALL)
    path = tmp_path / "cfg.json"
    write_config(cfg, path)
    back = load_config(str(path))
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    # and a second emit-parse cycle is stable
    write_config(back, tmp_path / "cfg2.json")
    assert load_config(str(tmp_path / "cfg2.json")) == cfg


def test_config_unknown_key_reports_path_and_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "grid": {"nx": 8},\n  "warp_factor": 9\n}\n')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    msg = str(err.value)
    assert "warp_factor" in msg
    assert ":3" in msg  # the line the key sits on


def test_config_repeated_key_reports_path_and_line(tmp_path, capsys):
    # JSON keeps a repeated key's last value; the config refuses it
    path = tmp_path / "repeated.json"
    path.write_text('{\n  "seed": 1,\n  "grid": {"nx": 8},\n  "seed": 2\n}\n')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}:4: seed: repeated key")
    assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_repeated_section_key_reports_path_and_line(tmp_path):
    # the same key in another section first: the line is the repeat's own
    path = tmp_path / "repeated.json"
    path.write_text(
        '{\n  "schedule_adaptive": {"decay": 0.99},\n'
        '  "schedule": {\n    "decay": 0.9,\n    "decay": 0.8\n  }\n}\n'
    )
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}:5: schedule.decay: repeated key")


def test_config_section_error_reports_its_own_line(tmp_path):
    # the key also sits in an earlier section; the line is the bad value's
    path = tmp_path / "bad.json"
    path.write_text(
        '{\n  "schedule_adaptive": {"decay": 0.99},\n'
        '  "schedule": {\n    "decay": "slow"\n  }\n}\n'
    )
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}:4: schedule.decay: expected a number")


def test_config_bad_section_value(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"hyper": {"alpha": 2.0}}')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "hyper" in str(err.value)


def test_config_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n "grid": \n}')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "invalid JSON" in str(err.value)


def test_config_semantic_validation():
    with pytest.raises(ConfigError):
        TrainConfig(obstacle_density=0.9)
    with pytest.raises(ConfigError):
        TrainConfig(bands_mhz=())
    with pytest.raises(ConfigError):
        config_from_dict({"start_cell": [1, 2]})


def test_cmd_train_artifact_layout(tmp_path):
    cfg = TrainConfig(**SMALL)
    out = cmd_train(cfg, tmp_path / "run")
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "adaptive_2100.npz",
        "adaptive_900.npz",
        "manifest.json",
        "rewards_adaptive_2100.csv",
        "rewards_adaptive_900.csv",
        "rewards_strategic.csv",
        "strategic.npz",
    ]
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert manifest["seed"] == 5
    assert manifest["config"]["episodes_strategic"] == 400
    assert manifest["config_sha256"] == cfg.config_hash()
    # every checkpoint and reward CSV, each hashed
    assert manifest["files"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in names if name != "manifest.json"
    }
    # reward CSV shape
    with open(out / "rewards_strategic.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["episode", "total_reward", "epsilon", "steps"]
    assert len(rows) == 401


# One row of each CSV the program writes, with the fields that could tell
# the one writer from ``csv.writer``: signed zeros, subnormals, large
# floats, fractional band labels.
CSV_ROWS = {
    "reward": (
        ("episode", "total_reward", "epsilon", "steps"),
        [(0, -0.0, 1.0, 1), (1, -1e-300, 0.05, 100), (2, 1.5e16, 5e-324, 7)],
    ),
    "flight": (
        ("band_mhz", "dest_ix", "dest_iy", "dest_iz", "outcome", "steps", "outage_steps",
         "min_snr_db", "flight_time_s"),
        [(band_label(900.0), 1, 2, 0, FlightOutcome.ARRIVED.value, 9, 0, 51.25, 30.0),
         (band_label(2412.5), 3, 0, 1, FlightOutcome.CRASHED.value, 4, 2, -math.inf, 13.5)],
    ),
    "coverage": (
        ("ix", "iy", "iz", "x_m", "y_m", "z_m", "snr_db", "covered"),
        [(0, 0, 0, 25.0, 25.0, 10.0, -0.0, 0), (0, 0, 1, -1e-300, 5e-324, 1.5e16, 46.0, 1)],
    ),
}


@pytest.mark.parametrize("kind", sorted(CSV_ROWS))
def test_rewards_csv_is_what_csv_writer_writes(tmp_path, kind):
    header, rows = CSV_ROWS[kind]
    want = tmp_path / "want.csv"
    with open(want, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    _write_csv(tmp_path / "got.csv", header, iter(rows))
    assert (tmp_path / "got.csv").read_bytes() == want.read_bytes()


def test_cmd_train_single_episode(tmp_path):
    cfg = TrainConfig(**{**SMALL, "episodes_strategic": 1, "episodes_adaptive": 1})
    out = cmd_train(cfg, tmp_path / "one")
    with open(out / "rewards_adaptive_900.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 2


def test_cmd_train_byte_identical_rerun(tmp_path):
    cfg = TrainConfig(**SMALL)
    a = cmd_train(cfg, tmp_path / "a")
    b = cmd_train(cfg, tmp_path / "b")
    for name in ("strategic.npz", "adaptive_900.npz", "adaptive_2100.npz",
                 "rewards_strategic.csv", "rewards_adaptive_900.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cmd_train_seed_override_changes_artifacts(tmp_path):
    cfg = TrainConfig(**SMALL)
    a = cmd_train(cfg, tmp_path / "a")
    c = cmd_train(cfg, tmp_path / "c", seed=99)
    assert (a / "strategic.npz").read_bytes() != (c / "strategic.npz").read_bytes()
    assert json.loads((c / "manifest.json").read_text())["seed"] == 99


def test_evaluate_end_to_end(tmp_path):
    cfg = TrainConfig(**SMALL)
    out = cmd_train(cfg, tmp_path / "run")
    report = cmd_evaluate(out, n_flights=20, seed=3)
    assert report.flights == 40  # 20 per band
    assert set(report.per_band) == {"900", "2100"}
    assert (out / "flights.csv").exists()
    with open(out / "flights.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 41
    assert rows[0][0] == "band_mhz"
    saved = json.loads((out / "evaluation.json").read_text())
    assert saved["flights"] == 40
    assert saved["safety"] is True


def test_evaluate_zero_flights(tmp_path):
    cfg = TrainConfig(**SMALL)
    out = cmd_train(cfg, tmp_path / "run")
    report = cmd_evaluate(out, n_flights=0, seed=3)
    # every field: no flight arrived, crashed, hit the cap or lost the link,
    # and no band flew
    assert report.to_dict() == {
        "flights": 0,
        "arrival_pct": 0.0,
        "crash_pct": 0.0,
        "stepcap_pct": 0.0,
        "outage_flight_pct": 0.0,
        "outage_step_pct": 0.0,
        "mean_steps": 0.0,
        "mean_flight_time_s": 0.0,
        "per_band": {},
    }


# Evaluations on a 3 x 3 x 2 grid: (config fields, flights per band, safety).
# 40 flights are more than the grid has mission cells, so destinations repeat.
BY_BAND = {
    "one band": (dict(bands_mhz=(900.0,)), 40, True),
    "two bands, no safety": (dict(bands_mhz=(900.0, 1800.0)), 40, False),
    "three bands": (dict(bands_mhz=(2100.0, 900.0, 1800.0)), 40, True),
    "altitude locked": (dict(bands_mhz=(900.0, 1800.0), altitude_locked=True), 40, True),
    "fixed destination": (dict(bands_mhz=(900.0, 1800.0), fixed_destination=(2, 2, 0)), 40, True),
    "no flights": (dict(bands_mhz=(900.0, 1800.0)), 0, True),
    "one flight": (dict(bands_mhz=(900.0, 1800.0)), 1, False),
}


@pytest.mark.parametrize("case", sorted(BY_BAND))
def test_run_flights_flies_as_band_after_band(case):
    """Flying each destination on every band in turn gives the columns of
    flying band after band, each band restarting the destination stream.

    The tables hold values from a few levels, so most rows tie and every
    band draws from its own tie stream.
    """
    fields, n_flights, safety = BY_BAND[case]
    cfg = TrainConfig(grid=GridSpec(nx=3, ny=3, nz=2), obstacle_density=0.1, seed=4, **fields)
    world = build_world(cfg)
    rng = np.random.default_rng(sorted(BY_BAND).index(case))
    levels = np.array([-1.0, 0.0, 0.5, 0.5, 2.0])
    strategic = QTable("strategic", cfg.grid, cfg.hyper, cfg.seed, columns=cfg.planner_columns)
    strategic.q[...] = rng.choice(levels, size=strategic.q.shape)
    adaptive = {}
    for band in cfg.bands_mhz:
        adaptive[band] = QTable("adaptive", cfg.grid, cfg.hyper, cfg.seed, f_mhz=band)
        adaptive[band].q[...] = rng.choice(levels, size=adaptive[band].q.shape)
    flights = run_flights(cfg, world, strategic, adaptive, n_flights, seed=7, safety=safety)
    assert flights.bands_mhz == tuple(sorted(cfg.bands_mhz))
    assert same_flights(flights, run_flights_by_band(cfg, world, strategic, adaptive,
                                                      n_flights, seed=7, safety=safety))
    assert flights.steps.shape == (len(cfg.bands_mhz), n_flights)
    if n_flights == 40:
        assert len(set(flights.destination.tolist())) < n_flights


def test_run_flights_holds_one_decoded_planner_column(tmp_path):
    """Flying every destination of a loaded goal-conditioned run holds the
    decoded values of one planner column, not one per destination.

    From a few flights to all of them, the peak grows by the flight columns
    (under ``FLIGHT_BYTES`` each), each destination's masks, and two decoded
    columns of slack. Holding every flown column's values
    grows it by 48 bytes per cell for each destination.
    """
    cfg = TrainConfig(grid=GridSpec(nx=8, ny=8, nz=3), obstacle_density=0.05, seed=3,
                      bands_mhz=(900.0, 1800.0, 2100.0), episodes_strategic=2000,
                      episodes_adaptive=50)
    out = cmd_train(cfg, tmp_path / "run")
    world = build_world(cfg)
    cells = cfg.grid.n_cells
    few, many = 4, 4 * len(world.mission_cells())

    def traced_peak(n_flights):
        _, strategic, adaptive = load_artifacts(out)
        tracemalloc.start()
        try:
            flights = run_flights(cfg, world, strategic, adaptive, n_flights, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, len(set(flights.destination.tolist()))

    (peak_few, _), (peak_many, destinations) = traced_peak(few), traced_peak(many)
    assert destinations > 0.9 * len(world.mission_cells())
    column = cells * N_ACTIONS * 8
    extra = (many - few) * len(cfg.bands_mhz)
    # a destination's bytes, its 33-byte header and its dict slot, both
    # dict tables at a resize
    masks = destinations * (cells + 256)
    assert peak_many - peak_few <= extra * FLIGHT_BYTES + masks + 2 * column


def test_evaluate_missing_artifacts(tmp_path):
    with pytest.raises(ArtifactError):
        cmd_evaluate(tmp_path, n_flights=1)


def test_evaluate_grid_mismatch(tmp_path):
    cfg = TrainConfig(**SMALL)
    out = cmd_train(cfg, tmp_path / "run")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["grid"]["nx"] = 9
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError):
        load_artifacts(out)


def test_evaluate_band_checkpoint_mismatch(tmp_path):
    cfg = TrainConfig(**SMALL)
    out = cmd_train(cfg, tmp_path / "run")
    (out / "adaptive_2100.npz").unlink()
    with pytest.raises(ArtifactError):
        load_artifacts(out)


def test_evaluate_loads_the_bytes_it_verified(tmp_path, monkeypatch):
    # Each checkpoint is read once: swapping the file for another run's after
    # its hash was checked does not change what is loaded.
    cfg = TrainConfig(**{**SMALL, "bands_mhz": (900.0,)})
    out = cmd_train(cfg, tmp_path / "run")
    other = cmd_train(cfg, tmp_path / "other", seed=6)
    trained = {p.name: load_table(p).q.tobytes() for p in out.glob("*.npz")}
    loaded = []

    def swap_then_load(path, *args):
        path.write_bytes((other / path.name).read_bytes())
        table = load_table(path, *args)
        loaded.append(path.name)
        assert table.q.tobytes() == trained[path.name]
        return table

    monkeypatch.setattr(harness, "load_table", swap_then_load)
    load_artifacts(out)
    assert sorted(loaded) == sorted(trained)


def test_evaluate_refuses_a_directory_in_place_of_a_checkpoint(tmp_path, capsys):
    out = cmd_train(TrainConfig(**{**SMALL, "bands_mhz": (900.0,)}), tmp_path / "run")
    (out / "strategic.npz").unlink()
    (out / "strategic.npz").mkdir()
    with pytest.raises(ArtifactError, match="unreadable checkpoint"):
        load_artifacts(out)
    assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "1"]) == 3
    assert "artifact error:" in capsys.readouterr().err
    assert not (out / "flights.csv").exists()


def _edit_manifest(out, edit):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(edit(manifest)))


def test_evaluate_rejects_checkpoint_sha_mismatch(tmp_path):
    cfg = TrainConfig(**SMALL)
    out = cmd_train(cfg, tmp_path / "run")
    other = cmd_train(cfg, tmp_path / "other", seed=6)
    # a valid checkpoint, but not the one this run trained
    (out / "strategic.npz").write_bytes((other / "strategic.npz").read_bytes())
    with pytest.raises(ArtifactError, match="sha256"):
        load_artifacts(out)


def test_evaluate_verifies_each_reward_csv(tmp_path, capsys):
    cfg = TrainConfig(**SMALL)
    out = cmd_train(cfg, tmp_path / "run")
    other = cmd_train(cfg, tmp_path / "other", seed=6)
    for name in ("rewards_strategic.csv", "rewards_adaptive_900.csv", "rewards_adaptive_2100.csv"):
        kept = (out / name).read_bytes()
        # another run's CSV of the same name, then none
        (out / name).write_bytes((other / name).read_bytes())
        with pytest.raises(ArtifactError, match="does not match its sha256"):
            load_artifacts(out)
        (out / name).unlink()
        with pytest.raises(ArtifactError, match="missing reward CSV"):
            load_artifacts(out)
        (out / name).write_bytes(kept)
    load_artifacts(out)
    # a manifest written before the reward CSVs were hashed asks for a retrain
    _edit_manifest(out, lambda m: {**m, "files": {
        k: v for k, v in m["files"].items() if not k.endswith(".csv")}})
    with pytest.raises(ArtifactError, match="hashes no reward CSV.*retrain"):
        load_artifacts(out)
    assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "1"]) == 3
    assert "artifact error:" in capsys.readouterr().err
    assert not (out / "flights.csv").exists()


def test_evaluate_rejects_edited_config(tmp_path, capsys):
    cfg = TrainConfig(**SMALL)
    out = cmd_train(cfg, tmp_path / "run")

    def edit(m):
        m["config"]["obstacle_density"] = 0.3
        return m

    _edit_manifest(out, edit)
    with pytest.raises(ArtifactError, match="config_sha256"):
        load_artifacts(out)
    assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "1"]) == 3
    assert "artifact error" in capsys.readouterr().err
    assert not (out / "flights.csv").exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: [m],
        lambda m: {k: v for k, v in m.items() if k != "config"},
        lambda m: {k: v for k, v in m.items() if k != "config_sha256"},
        lambda m: {k: v for k, v in m.items() if k != "files"},
        lambda m: {**m, "config": "seed=5"},
        lambda m: {**m, "config": {**m["config"], "warp_factor": 9}},
        lambda m: {**m, "files": {**m["files"], "extra.npz": "0" * 64}},
    ],
    ids=["not_object", "no_config", "no_config_sha256", "no_files",
         "config_not_object", "config_invalid", "extra_file"],
)
def test_evaluate_rejects_malformed_manifest(tmp_path, edit):
    out = cmd_train(TrainConfig(**{**SMALL, "bands_mhz": (900.0,)}), tmp_path / "run")
    _edit_manifest(out, edit)
    with pytest.raises(ArtifactError):
        load_artifacts(out)


# A manifest of another checkpoint format is refused for its format, before
# its config is parsed: a format-2 config still holds the since-removed
# eval_flights field, which would otherwise fail as an unknown field.
# Format 3 checkpoints recorded goal_conditioned in place of columns; format 4
# stored whole rows; format 5 stored entries in (cell, column, a) order;
# format 6 stored the float64 values themselves, not dictionary codes.
FORMAT_EDITS = {
    "previous": (lambda m: {**m, "checkpoint_format_version": 6}, "format 6"),
    "older": (lambda m: {**m, "checkpoint_format_version": 3}, "format 3"),
    "oldest": (lambda m: {**m, "checkpoint_format_version": 2,
                          "config": {**m["config"], "eval_flights": 100}}, "format 2"),
    "newer": (lambda m: {**m, "checkpoint_format_version": FORMAT_VERSION + 1},
              f"format {FORMAT_VERSION + 1}"),
    "missing": (lambda m: {k: v for k, v in m.items() if k != "checkpoint_format_version"},
                "is None"),
    "text": (lambda m: {**m, "checkpoint_format_version": "3"}, "is '3'"),
    "float": (lambda m: {**m, "checkpoint_format_version": 3.0}, "is 3.0"),
    "bool": (lambda m: {**m, "checkpoint_format_version": True}, "is True"),
}


@pytest.mark.parametrize("case", sorted(FORMAT_EDITS))
def test_evaluate_checks_format_version_first(tmp_path, capsys, case):
    edit, held = FORMAT_EDITS[case]
    out = cmd_train(TrainConfig(**{**SMALL, "bands_mhz": (900.0,)}), tmp_path / "run")
    _edit_manifest(out, edit)
    with pytest.raises(ArtifactError, match="retrain") as info:
        load_artifacts(out)
    assert held in str(info.value)
    assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "1"]) == 3
    err = capsys.readouterr().err
    assert "artifact error:" in err and "unknown field" not in err


def test_evaluate_refuses_planner_of_another_column_layout(tmp_path, capsys):
    # A fixed-destination planner's checkpoint, with its hash in the
    # manifest, in a goal-conditioned run: evaluation used to fly every
    # destination on its one column.
    raw = {**TINY_RAW, "obstacle_density": 0.1, "seed": 3}
    goals = cmd_train(config_from_dict(raw), tmp_path / "goals")
    fixed = cmd_train(config_from_dict({**raw, "fixed_destination": [3, 3, 0]}),
                      tmp_path / "fixed")
    swapped = (fixed / "strategic.npz").read_bytes()
    (goals / "strategic.npz").write_bytes(swapped)
    sha = hashlib.sha256(swapped).hexdigest()
    _edit_manifest(goals, lambda m: {**m, "files": {**m["files"], "strategic.npz": sha}})
    with pytest.raises(ArtifactError, match="1 column"):
        load_artifacts(goals)
    assert cli_main(["evaluate", "--artifacts", str(goals), "--flights", "1"]) == 3
    assert "artifact error:" in capsys.readouterr().err
    assert not (goals / "flights.csv").exists()


@pytest.mark.parametrize("name", ["strategic.npz", "adaptive_900.npz"])
def test_evaluate_refuses_a_checkpoint_of_a_newer_zip_version(tmp_path, capsys, name):
    # One bit of a zip header, with the manifest's hash updated. In a central
    # directory "version needed to extract" field, zipfile raised
    # NotImplementedError, which reached the command line as a traceback; the
    # local header's file name, its time and the end record's comment length
    # were not read at all.
    out = cmd_train(TrainConfig(**{**SMALL, "bands_mhz": (900.0,)}), tmp_path / "run")
    saved = (out / name).read_bytes()
    end = saved.rindex(b"PK\x05\x06")  # the end record, which holds no comment
    (cd_offset,) = struct.unpack_from("<I", saved, end + 16)
    assert saved[cd_offset : cd_offset + 4] == b"PK\x01\x02"
    # the central version needed, the local file name, the local DOS time and
    # the end record's comment length
    for at, where in ((cd_offset + 6, "central directory"), (30, "local header"),
                      (10, "local header"), (len(saved) - 2, "central directory")):
        data = bytearray(saved)
        data[at] ^= 0x40
        (out / name).write_bytes(data)
        sha = hashlib.sha256(data).hexdigest()
        _edit_manifest(out, lambda m: {**m, "files": {**m["files"], name: sha}})
        with pytest.raises(CheckpointError, match=f"{where} .*save"):
            load_artifacts(out)
        assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "1"]) == 3
        err = capsys.readouterr().err
        assert "artifact error:" in err and "Traceback" not in err
        assert not (out / "flights.csv").exists()


RETIRED_FIELDS = {"goal_conditioned": False, "record_steps": False,
                  "distance_metric": "manhattan"}


@pytest.mark.parametrize("name", sorted(RETIRED_FIELDS))
def test_evaluate_refuses_manifest_config_with_retired_field(tmp_path, capsys, name):
    # a run trained while these were config fields has to be retrained
    out = cmd_train(TrainConfig(**{**SMALL, "bands_mhz": (900.0,)}), tmp_path / "run")
    _edit_manifest(out, lambda m: {**m, "config": {**m["config"], name: RETIRED_FIELDS[name]}})
    with pytest.raises(ArtifactError, match=f"{name}: unknown field.*; retrain$"):
        load_artifacts(out)
    assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "1"]) == 3
    err = capsys.readouterr().err
    assert "artifact error:" in err and f"{name}: unknown field" in err


@contextmanager
def _deadline(seconds):
    """Turn a hang (the bug under test) into a failure instead of a stuck suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_altitude_locked_without_free_takeoff_cell_fails_fast(tmp_path):
    cfg = TrainConfig(
        grid=GridSpec(nx=1, ny=1, nz=2),
        obstacle_density=0.0,
        bands_mhz=(900.0,),
        episodes_strategic=1,
        episodes_adaptive=1,
        altitude_locked=True,
    )
    with _deadline(30), pytest.raises(ConfigError, match="altitude_locked"):
        cmd_train(cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()
    strategic = QTable("strategic", cfg.grid, cfg.hyper, cfg.seed, columns=cfg.planner_columns)
    adaptive = QTable("adaptive", cfg.grid, cfg.hyper, cfg.seed, f_mhz=900.0)
    with _deadline(30), pytest.raises(ConfigError, match="altitude_locked"):
        run_flights(cfg, build_world(cfg), strategic, {900.0: adaptive}, 1, seed=0)


@pytest.mark.parametrize("goal_conditioned", [True, False])
def test_training_with_one_mission_cell_fails_fast(tmp_path, goal_conditioned):
    # an odd episode draws a start and then a different destination, which
    # needs two free cells besides the takeoff cell
    cfg = TrainConfig(
        grid=GridSpec(nx=1, ny=1, nz=2),
        obstacle_density=0.0,
        bands_mhz=(900.0,),
        episodes_strategic=2,
        episodes_adaptive=2,
        fixed_destination=None if goal_conditioned else (0, 0, 1),
    )
    with _deadline(30), pytest.raises(ConfigError, match="missions need 2"):
        cmd_train(cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()
    # one episode per agent never draws a start: that still trains
    one = dataclasses.replace(cfg, episodes_strategic=1, episodes_adaptive=1)
    with _deadline(30):
        cmd_train(one, tmp_path / "one")


def test_train_loops_with_one_mission_cell_fail_fast():
    # 1 x 1 x 2: (0, 0, 1) is the one mission cell. A second episode starts
    # there and has no different destination to draw.
    cfg = TrainConfig(
        grid=GridSpec(nx=1, ny=1, nz=2),
        obstacle_density=0.0,
        bands_mhz=(900.0,),
        episodes_strategic=2,
        episodes_adaptive=2,
    )
    world = build_world(cfg)
    with _deadline(10), pytest.raises(ValueError, match="missions need 2"):
        train_adaptive(world, cfg.link_for_band(900.0), cfg, random.Random(0))
    with _deadline(10), pytest.raises(ValueError, match="missions need 2"):
        train_strategic(world, cfg, random.Random(0))


def test_random_free_cell_refuses_an_empty_mission_set():
    # 1 x 2 x 1: the one cell outside the start cell is an obstacle
    world = build(GridSpec(nx=1, ny=2, nz=1), 0.5, seed=1, bs_xy=(0, 0, 0))
    assert not world.mission_cells()
    with _deadline(5), pytest.raises(ValueError, match="no mission cell"):
        random_free_cell(world, random.Random(0), world.mission_cells())


def test_coverage_csv(tmp_path):
    cfg = TrainConfig(**SMALL)
    out_csv = tmp_path / "cov.csv"
    frac900 = cmd_coverage(cfg, 900.0, out_csv)
    with open(out_csv, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["ix", "iy", "iz", "x_m", "y_m", "z_m", "snr_db", "covered"]
    assert len(rows) - 1 == 8 * 8 * 3
    frac2100 = cmd_coverage(cfg, 2100.0, tmp_path / "cov2.csv")
    assert frac900 >= frac2100
    with pytest.raises(ConfigError):
        cmd_coverage(cfg, -5.0, tmp_path / "bad.csv")


def test_commands_read_a_config_path(tmp_path):
    # a config named by a Path, as by a str, is read from that file
    cfg = TrainConfig(**{**SMALL, "bands_mhz": (900.0,)})
    write_config(cfg, tmp_path / "c.json")
    for config in (tmp_path / "c.json", str(tmp_path / "c.json")):
        out = cmd_train(config, tmp_path / "run")
        assert load_artifacts(out)[0] == cfg
        assert cmd_coverage(config, 900.0, tmp_path / "cov.csv") == cmd_coverage(
            cfg, 900.0, tmp_path / "cov_cfg.csv"
        )
        assert (tmp_path / "cov.csv").read_bytes() == (tmp_path / "cov_cfg.csv").read_bytes()


def test_coverage_single_cell_at_bs(tmp_path):
    cfg = TrainConfig(
        grid=GridSpec(nx=1, ny=1, nz=1),
        obstacle_density=0.0,
        bands_mhz=(900.0,),
        episodes_strategic=1,
        episodes_adaptive=1,
        start_cell=(0, 0, 0),
        bs_cell=(0, 0, 0),
    )
    frac = cmd_coverage(cfg, 900.0, tmp_path / "one.csv")
    assert frac == 1.0
    with open(tmp_path / "one.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 2


def test_band_label():
    assert band_label(900.0) == "900"
    assert band_label(2600.0) == "2600"
    assert band_label(3500.5) == "3500.5"


def test_cli_round_trip(tmp_path, capsys):
    cfg = TrainConfig(**{**SMALL, "episodes_strategic": 60, "episodes_adaptive": 40,
                         "bands_mhz": (900.0,)})
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg, cfg_path)
    out_dir = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert cli_main(["evaluate", "--artifacts", str(out_dir), "--flights", "5"]) == 0
    assert cli_main(["coverage", "--config", str(cfg_path), "--band", "900",
                     "--out", str(tmp_path / "cov.csv")]) == 0
    printed = capsys.readouterr().out
    assert "artifacts written" in printed
    assert "covered_fraction" in printed


def _cli_env():
    """The environment of a fresh ``python -m uavnav.cli`` process."""
    env = dict(os.environ)
    src = str(Path(harness.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _cli_subprocess(*args):
    """``python -m uavnav.cli`` with ``args`` in a fresh process, which the
    warning filters of this process do not reach."""
    return subprocess.run([sys.executable, "-m", "uavnav.cli", *args],
                          capture_output=True, text=True, env=_cli_env(), timeout=120)


def test_cli_commands_print_one_validity_warning_each(tmp_path):
    # layer centres at 10 and 30 m; 1800 MHz is in the box, 900 MHz is not
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid": {"nx": 4, "ny": 4, "nz": 2}, "bands_mhz": [1800, 900],
                                    "episodes_strategic": 200, "episodes_adaptive": 100}))
    run = str(tmp_path / "run")
    expected = {
        # bands in config order, as training's coverage agents take them
        ("train", "--config", str(cfg_path), "--out", run): "(f=1800 MHz, mobile height=30 m)",
        # bands in the sorted order that run_flights flies them
        ("evaluate", "--artifacts", run, "--flights", "5"): "(f=900 MHz, mobile height=10 m)",
        ("coverage", "--config", str(cfg_path), "--band", "1800",
         "--out", str(tmp_path / "cov.csv")): "(f=1800 MHz, mobile height=30 m)",
    }
    for args, pair in expected.items():
        proc = _cli_subprocess(*args)
        assert proc.returncode == 0, proc.stderr
        (line,) = [s for s in proc.stderr.splitlines() if "HataValidityWarning" in s]
        assert "radio.py" in line and pair in line, proc.stderr


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
def test_cli_coverage_into_a_pipe_its_reader_closes_early(tmp_path):
    # uavnav coverage --out /dev/stdout | head -3: the export, 4,500 rows,
    # outgrows the pipe, so its write fails once the reader has gone
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid": {"nx": 30, "ny": 30, "nz": 5}}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "uavnav.cli", "coverage", "--config", str(cfg_path),
         "--band", "900", "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head[0] == b"ix,iy,iz,x_m,y_m,z_m,snr_db,covered\r\n"
    # no error line, and no second failure at the interpreter's exit
    assert "Broken pipe" not in err and "Exception ignored" not in err, err
    assert not any(line.startswith("error:") for line in err.splitlines()), err


def test_cli_error_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"grid": {"nx": 0}}')
    assert cli_main(["train", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 2
    assert cli_main(["evaluate", "--artifacts", str(tmp_path / "nope"),
                     "--flights", "1"]) == 3
    err = capsys.readouterr().err
    assert "config error" in err
    assert "artifact error" in err


# A quick config as JSON text; each case below changes one number.
TINY_RAW = {
    "grid": {"nx": 4, "ny": 4, "nz": 2},
    "bands_mhz": [900.0],
    "episodes_strategic": 20,
    "episodes_adaptive": 20,
}
NON_FINITE = {
    "bands_mhz NaN": {"bands_mhz": [math.nan]},
    "bands_mhz inf": {"bands_mhz": [900.0, math.inf]},
    "link.p_tx_dbm NaN": {"link": {"p_tx_dbm": math.nan}},
    "link.h_b_m inf": {"link": {"h_b_m": math.inf}},
    "link.snr_threshold_db NaN": {"link": {"snr_threshold_db": math.nan}},
    "rewards.r_crash -inf": {"rewards": {"r_crash": -math.inf}},
    "rewards.r_covered inf": {"rewards": {"r_covered": math.inf}},
    "grid.cell_size_m NaN": {"grid": {"nx": 4, "ny": 4, "nz": 2, "cell_size_m": math.nan}},
    "grid.cell_height_m NaN": {"grid": {"nx": 4, "ny": 4, "nz": 2, "cell_height_m": math.nan}},
    "uav_velocity_ms NaN": {"uav_velocity_ms": math.nan},
    "max_altitude_m NaN": {"max_altitude_m": math.nan},
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_cli_train_rejects_non_finite_numbers(tmp_path, capsys, case):
    cfg_path = tmp_path / "cfg.json"
    # json writes NaN and Infinity literals, which json.loads reads back
    cfg_path.write_text(json.dumps({**TINY_RAW, **NON_FINITE[case]}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_train_with_a_cell_size_past_int64(tmp_path):
    # JSON reads 18446744073709551616 as an int, which numpy holds in no
    # integer dtype; the run trains on float distances or is refused
    raw = {**TINY_RAW, "grid": {"nx": 3, "ny": 3, "nz": 2, "cell_size_m": 2**64}}
    try:
        out = cmd_train(config_from_dict(raw), tmp_path / "run")
    except ConfigError:
        return
    for name in ("strategic.npz", "adaptive_900.npz"):
        assert np.isfinite(load_table(out / name).q).all(), name


def test_cli_train_rejects_non_int_seed(tmp_path, capsys):
    # refused before training, so no artifact exists for evaluate to refuse
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, "seed": 1.5}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {cfg_path}:1: seed: expected an integer, got 1.5" in err
    assert not out.exists()


# Each case gives one integer or boolean field a value of the wrong type
# (or, for eval_step_cap, one below its range). The UNKNOWN_FIELDS cases
# name no field at all, so they fail as unknown: ``uavnav evaluate
# --flights`` sets the flight count, the planner's table layout follows
# fixed_destination, training records no steps, and a move's closer bit
# is the same under every metric, so there is none to choose.
WRONG_TYPE = {
    "grid.nx float": {"grid": {"nx": 2.5, "ny": 4, "nz": 2}},
    "grid.ny bool": {"grid": {"nx": 4, "ny": True, "nz": 2}},
    "grid.nz integral float": {"grid": {"nx": 4, "ny": 4, "nz": 2.0}},
    "episodes_strategic float": {"episodes_strategic": 5.5},
    "episodes_adaptive bool": {"episodes_adaptive": True},
    "step_cap float": {"step_cap": 10.0},
    "eval_step_cap float": {"eval_step_cap": 7.5},
    "eval_step_cap zero": {"eval_step_cap": 0},
    "eval_flights bool": {"eval_flights": False},
    "seed bool": {"seed": True},
    "seed text": {"seed": "3"},
    "goal_conditioned int": {"goal_conditioned": 1},
    "altitude_locked text": {"altitude_locked": "yes"},
    "record_steps int": {"record_steps": 0},
    "distance_metric text": {"distance_metric": "euclidean"},
}
UNKNOWN_FIELDS = ("eval_flights bool", "goal_conditioned int", "record_steps int",
                  "distance_metric text")


@pytest.mark.parametrize("case", sorted(WRONG_TYPE))
def test_cli_train_rejects_wrongly_typed_fields(tmp_path, capsys, case):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, **WRONG_TYPE[case]}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    field = case.split()[0]
    assert (f"{field}: unknown field" in err) == (case in UNKNOWN_FIELDS)
    assert not out.exists()


# A fixed-destination planner needs a destination on the grid that is not
# the takeoff cell; neither depends on the world, so the config refuses it.
FIXED_DESTINATION = {
    "off grid": ({"fixed_destination": [9, 0, 0]}, "out of bounds"),
    "start cell": ({"fixed_destination": [0, 0, 0]}, "equals start_cell"),
}


@pytest.mark.parametrize("case", sorted(FIXED_DESTINATION))
def test_cli_train_rejects_fixed_destination(tmp_path, capsys, case):
    raw, message = FIXED_DESTINATION[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, **raw}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not out.exists()


def test_cli_train_rejects_fixed_destination_on_obstacle(tmp_path, capsys):
    # the check needs the built world, so it runs before training, not in the config
    raw = {**TINY_RAW, "obstacle_density": 0.3, "seed": 0, "fixed_destination": [0, 0, 1]}
    assert (0, 0, 1) in build_world(config_from_dict(raw)).obstacles
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "is an obstacle" in err
    assert not out.exists()


def test_cli_train_rejects_fixed_destination_off_takeoff_layer(tmp_path, capsys):
    # altitude_locked missions stay on the takeoff layer: a planner trained
    # toward a cell above it would never arrive
    raw = {**TINY_RAW, "seed": 3, "altitude_locked": True, "fixed_destination": [3, 3, 1]}
    assert (3, 3, 1) not in build_world(config_from_dict(raw)).obstacles
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "off the altitude_locked takeoff layer z=0" in err
    assert not out.exists()


def test_cli_fixed_destination_flights_all_fly_to_it(tmp_path):
    # the planner trained toward one cell only; no flight may go elsewhere
    raw = {"grid": {"nx": 6, "ny": 6, "nz": 2}, "obstacle_density": 0.1, "seed": 3,
           "bands_mhz": [900.0, 2100.0], "episodes_strategic": 300, "episodes_adaptive": 50,
           "fixed_destination": [5, 5, 0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "50"]) == 0
    with open(out / "flights.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 100
    assert {(r["dest_ix"], r["dest_iy"], r["dest_iz"]) for r in rows} == {("5", "5", "0")}


def test_trained_tables_have_one_shape(tmp_path):
    # every table is Q[column, cell, a]: the planner has a column per
    # destination, or one with a fixed destination; a coverage table has one
    n = 4 * 4 * 2
    for fixed, planner_columns in ((None, n), ((3, 3, 1), 1)):
        cfg = config_from_dict({**TINY_RAW, "bands_mhz": [900.0, 2100.0],
                                "fixed_destination": None if fixed is None else list(fixed)})
        assert cfg.planner_columns == planner_columns
        out = cmd_train(cfg, tmp_path / f"run{planner_columns}")
        want = {"strategic.npz": (planner_columns, n, 6),
                "adaptive_900.npz": (1, n, 6), "adaptive_2100.npz": (1, n, 6)}
        for name, shape in want.items():
            assert load_table(out / name).q.shape == shape
            with np.load(out / name, allow_pickle=False) as npz:
                assert json.loads(npz["meta"].item())["columns"] == shape[0]


@pytest.mark.parametrize("bands", [[900, 900], [900, 900.0000001]], ids=["equal", "same label"])
def test_cli_train_rejects_repeated_band_labels(tmp_path, capsys, bands):
    # a band's label names its checkpoint: two bands would share one file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, "bands_mhz": bands}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "repeated band labels" in err
    assert not out.exists()


@pytest.mark.parametrize("grid", [{"nx": 1, "ny": 1, "nz": 2}, {"nx": 2, "ny": 1, "nz": 1}],
                         ids=["column", "row"])
def test_cli_refuses_more_obstacles_than_the_grid_holds(tmp_path, capsys, grid):
    # the base-station column and the start cell leave no cell for the one obstacle
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid": grid, "obstacle_density": 0.5}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert cli_main(["coverage", "--config", str(cfg_path), "--band", "900",
                     "--out", str(tmp_path / "cov.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: grid too small: 1 obstacles requested, 0 eligible") == 2


def test_config_refuses_oversized_planner_table_before_allocating(tmp_path, capsys):
    # 6,689 cells: Q[column, cell, a] with a column per destination would
    # take just over 2 GiB
    over, under = GridSpec(nx=6689, ny=1, nz=1), GridSpec(nx=6688, ny=1, nz=1)
    assert under.n_cells**2 * 6 * 8 <= MAX_TABLE_BYTES < over.n_cells**2 * 6 * 8
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="GiB"):
            TrainConfig(grid=over)
        with pytest.raises(ValueError, match="GiB"):
            QTable("strategic", over, Hyper(), 0, columns=over.n_cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a fixed-destination planner on the same grid has one column
    TrainConfig(grid=over, fixed_destination=(5, 0, 0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, "grid": {"nx": 6689, "ny": 1, "nz": 1}}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "over the 2 GiB limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["episodes_strategic", "episodes_adaptive"])
def test_config_refuses_episode_records_past_the_memory_limit(tmp_path, capsys, name):
    # a training job holds EPISODE_BYTES per episode
    most = MAX_TABLE_BYTES // EPISODE_BYTES
    TrainConfig(**{name: most})
    with pytest.raises(ConfigError, match=f"{name} {most + 1:,} .* over the 2 GiB limit"):
        TrainConfig(**{name: most + 1})
    # refused at load: a previous run in --out is left as it was
    out = cmd_train(config_from_dict(TINY_RAW), tmp_path / "run")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, name: 10**15}))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_evaluate_refuses_flight_records_past_the_memory_limit(tmp_path, capsys):
    # evaluation holds FLIGHT_BYTES per flight of every band; 10**15 flights
    # used to run until killed
    out = cmd_train(config_from_dict({**TINY_RAW, "bands_mhz": [900.0, 1800.0]}),
                    tmp_path / "run")
    cmd_evaluate(out, n_flights=2)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    most = MAX_TABLE_BYTES // (2 * FLIGHT_BYTES)
    for flights in (most + 1, 10**15, -1):
        assert cli_main(["evaluate", "--artifacts", str(out), "--flights", str(flights)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert flights < 0 or f"{flights:,} flights on each of 2 band(s)" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_flight_bytes_is_evaluations_growth_per_flight(tmp_path):
    """``FLIGHT_BYTES`` is what its comment says: the growth of
    cmd_evaluate's tracemalloc peak from 20,000 to 60,000 flights on a
    4 x 4 x 2, one-band run, per flight, rounded up to a multiple of 8. Only
    the flight columns grow with the flights: a destination's flat index
    and the one band's outcome code, steps, outage steps and minimum SNR."""
    out = cmd_train(config_from_dict({**TINY_RAW, "bands_mhz": [1800.0],
                                      "episodes_strategic": 200}), tmp_path / "run")

    def traced_peak(n_flights):
        tracemalloc.start()
        try:
            cmd_evaluate(out, n_flights=n_flights, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    per_flight = (traced_peak(60_000) - traced_peak(20_000)) / 40_000
    assert per_flight <= FLIGHT_BYTES == 8 * math.ceil(per_flight / 8)
    columns = np.dtype(np.intp).itemsize + np.dtype(np.uint8).itemsize + 3 * 8
    assert abs(per_flight - columns) < 1


class _FailingFile:
    """A file whose ``k``-th write raises as a full disk does."""

    def __init__(self, f, k):
        self._f, self._left = f, k

    def write(self, data):
        self._left -= 1
        if self._left == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _fail_write(monkeypatch, k):
    """Make the ``k``-th write to each file ``harness`` opens for writing raise."""
    def failing_open(path, mode="r", **kwargs):
        f = open(path, mode, **kwargs)
        return _FailingFile(f, k) if "w" in mode else f

    monkeypatch.setattr(harness, "open", failing_open, raising=False)


def _evaluation_pair(out):
    return {name: (out / name).read_bytes() for name in ("flights.csv", "evaluation.json")}


def test_failed_evaluate_leaves_the_previous_pair(tmp_path, monkeypatch):
    """An evaluation whose flights.csv write fails at any block leaves the
    previous flights.csv and evaluation.json, and no staged file; one that
    writes every block replaces both. 1,500 flights on each of 2 bands are
    3,000 rows: a header and three blocks of at most 1,024 rows."""
    out = cmd_train(config_from_dict({**TINY_RAW, "bands_mhz": [900.0, 1800.0]}),
                    tmp_path / "run")
    cmd_evaluate(out, n_flights=20, seed=1)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    writes = 1 + math.ceil(3000 / 1024)
    for k in range(1, writes + 2):
        _fail_write(monkeypatch, k)
        if k <= writes:
            with pytest.raises(OSError, match="No space left"):
                cmd_evaluate(out, n_flights=1500, seed=2)
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before, k
        else:  # the (writes + 1)-th write never comes
            cmd_evaluate(out, n_flights=1500, seed=2)
    monkeypatch.undo()
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
    after = _evaluation_pair(out)
    assert json.loads(after["evaluation.json"])["flights"] == 3000
    cmd_evaluate(out, n_flights=1500, seed=2)
    assert _evaluation_pair(out) == after


def test_failed_coverage_leaves_the_previous_csv(tmp_path, monkeypatch):
    """A coverage export whose write fails at any block leaves the previous
    CSV, and no staged file; one that writes every block replaces it. The
    15 x 15 x 5 grid's 1,125 rows are a header and two blocks."""
    cfg = config_from_dict({**TINY_RAW, "grid": {"nx": 15, "ny": 15, "nz": 5}})
    out = tmp_path / "coverage.csv"
    cmd_coverage(cfg, 900.0, out)
    before = out.read_bytes()
    writes = 1 + math.ceil(cfg.grid.n_cells / 1024)
    for k in range(1, writes + 2):
        _fail_write(monkeypatch, k)
        if k <= writes:
            with pytest.raises(OSError, match="No space left"):
                cmd_coverage(cfg, 1800.0, out)
            assert [p.name for p in tmp_path.iterdir()] == ["coverage.csv"], k
            assert out.read_bytes() == before, k
        else:  # the (writes + 1)-th write never comes
            cmd_coverage(cfg, 1800.0, out)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["coverage.csv"]
    after = out.read_bytes()
    assert after != before
    cmd_coverage(cfg, 1800.0, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == after


def test_coverage_through_a_symlink_replaces_its_target(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "coverage.csv"
    target.write_text("old\n")
    link = tmp_path / "coverage.csv"
    link.symlink_to(target)
    cmd_coverage(config_from_dict(TINY_RAW), 900.0, link)
    assert link.is_symlink()
    assert target.read_bytes().startswith(b"ix,iy,iz,")
    assert sorted(p.name for p in target.parent.iterdir()) == ["coverage.csv"]


def test_flights_csv_flight_time_uses_velocity(tmp_path):
    # one formula, Flights.seconds_per_step, at a velocity other than the default
    cfg = config_from_dict({**TINY_RAW, "uav_velocity_ms": 7.0})
    assert cfg.uav_velocity_ms != TrainConfig().uav_velocity_ms
    out = cmd_train(cfg, tmp_path / "run")
    cmd_evaluate(out, n_flights=10, seed=1)
    with open(out / "flights.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10 and any(int(r["steps"]) > 0 for r in rows)
    per_step = cfg.grid.cell_size_m / cfg.uav_velocity_ms
    times = [int(r["steps"]) * per_step for r in rows]
    assert [float(r["flight_time_s"]) for r in rows] == times
    saved = json.loads((out / "evaluation.json").read_text())
    assert saved["mean_flight_time_s"] == sum(times) / len(times)


def _fail_replace(monkeypatch, k):
    """Make the ``k``-th ``os.replace`` from now on raise."""
    replace, calls = os.replace, count(1)

    def failing_replace(src, dst):
        if next(calls) == k:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)


def test_train_failing_at_any_rename_leaves_a_run_that_verifies_or_is_refused(
    tmp_path, monkeypatch
):
    """A retrain whose k-th rename fails, for every k, leaves no staged
    directory, and a run that ``load_artifacts`` either refuses or loads
    with its manifest vouching for every file beside it, reward CSVs
    included. ``_publish`` renames by name, the manifest last. A retrain
    with a new seed changes every file: only k = 1, which publishes
    nothing, loads, since from k = 2 on the new ``adaptive_900.npz`` is in
    place. One that changes only the planner leaves the adaptive files
    byte-identical: k = 1-3 load, and from k = 4 on the new
    ``rewards_strategic.csv`` is in place, which the manifest's hash
    refuses."""
    _fail_each_rename_of_a_retrain(tmp_path, monkeypatch)


def test_train_failing_at_any_rename_does_not_depend_on_listing_order(
    tmp_path, monkeypatch
):
    # the same outcomes when the file system lists the staged files in the
    # reverse of its order
    iterdir = Path.iterdir
    monkeypatch.setattr(Path, "iterdir", lambda self: reversed(list(iterdir(self))))
    _fail_each_rename_of_a_retrain(tmp_path, monkeypatch)


# A retrain of TINY_RAW at seed 1: its config change, the files it leaves
# byte-identical, and which k of its publish's renames leave a run that loads.
RETRAINS = {
    "seed": ({"seed": 2}, [], [True, False, False, False, False]),
    "planner_only": (
        {"episodes_strategic": 30},
        ["adaptive_900.npz", "rewards_adaptive_900.csv"],
        [True, True, True, False, False],
    ),
}


def _fail_each_rename_of_a_retrain(tmp_path, monkeypatch):
    old_cfg = config_from_dict({**TINY_RAW, "seed": 1})
    for retrain, (change, same, loads) in RETRAINS.items():
        new_cfg = config_from_dict({**TINY_RAW, "seed": 1, **change})
        new = cmd_train(new_cfg, tmp_path / retrain / "new")
        out = cmd_train(old_cfg, tmp_path / retrain / "run")
        # each published by one rename, the manifest last
        names = sorted(p.name for p in out.iterdir())
        assert names == ["adaptive_900.npz", "manifest.json", "rewards_adaptive_900.csv",
                         "rewards_strategic.csv", "strategic.npz"]
        runs = {
            cfg.config_hash(): {name: (run / name).read_bytes() for name in names}
            for cfg, run in ((old_cfg, out), (new_cfg, new))
        }
        old, fresh = runs[old_cfg.config_hash()], runs[new_cfg.config_hash()]
        assert [name for name in names if old[name] == fresh[name]] == same
        loaded = []
        for k in range(1, len(names) + 1):
            with monkeypatch.context() as failing:
                _fail_replace(failing, k)
                with pytest.raises(OSError, match="Input/output error"):
                    cmd_train(new_cfg, out)
            assert sorted(p.name for p in out.iterdir()) == names, k  # no .train-* left
            assert (out / "manifest.json").read_bytes() == old["manifest.json"], k
            try:
                loaded_cfg = load_artifacts(out)[0]
            except ArtifactError as exc:
                assert "does not match its sha256" in str(exc), (retrain, k)
                loaded.append(False)
                continue
            # every file is the one the loaded run's manifest vouches for
            run = runs[loaded_cfg.config_hash()]
            for name in names:
                if name != "manifest.json":  # which differs in created_utc
                    assert (out / name).read_bytes() == run[name], (retrain, k, name)
            loaded.append(True)
        assert loaded == loads, retrain
        cmd_train(new_cfg, out)  # no rename fails
        assert load_artifacts(out)[0] == new_cfg
        for name in names:
            if name != "manifest.json":
                assert (out / name).read_bytes() == fresh[name], (retrain, name)


def _vouches(pair):
    """Whether an ``evaluation.json`` names the sha256 of the ``flights.csv`` beside it."""
    flights_sha256 = hashlib.sha256(pair["flights.csv"]).hexdigest()
    return json.loads(pair["evaluation.json"])["flights_sha256"] == flights_sha256


@pytest.mark.parametrize("listing", ["file system order", "reversed"])
def test_evaluate_failing_at_any_rename_leaves_no_stale_pair_that_vouches(
    tmp_path, monkeypatch, listing
):
    """An evaluation whose k-th rename fails, for every k, leaves no staged
    file and the old pair, the new pair, or a pair whose ``flights_sha256``
    does not match its ``flights.csv``. ``_publish`` renames by name,
    ``evaluation.json`` last, whatever order the file system lists them in:
    k = 1 leaves the old pair, k = 2 the new ``flights.csv`` beside the old
    summary, and k = 3 never comes."""
    if listing == "reversed":
        iterdir = Path.iterdir
        monkeypatch.setattr(Path, "iterdir", lambda self: reversed(list(iterdir(self))))
    out = cmd_train(config_from_dict(TINY_RAW), tmp_path / "run")
    cmd_evaluate(out, n_flights=20, seed=2)
    new = _evaluation_pair(out)
    cmd_evaluate(out, n_flights=20, seed=1)
    old = _evaluation_pair(out)
    names = sorted(p.name for p in out.iterdir())
    assert old["flights.csv"] != new["flights.csv"] and _vouches(old) and _vouches(new)
    left = []
    for k in range(1, 4):
        with monkeypatch.context() as failing:
            _fail_replace(failing, k)
            if k < 3:
                with pytest.raises(OSError, match="Input/output error"):
                    cmd_evaluate(out, n_flights=20, seed=2)
            else:
                cmd_evaluate(out, n_flights=20, seed=2)
        assert sorted(p.name for p in out.iterdir()) == names, k  # no .evaluate-* left
        pair = _evaluation_pair(out)
        left.append("old" if pair == old else "new" if pair == new else "stale")
        assert left[-1] != "stale" or not _vouches(pair), k
        for name, data in old.items():
            (out / name).write_bytes(data)
    assert left == ["old", "stale", "new"]


def test_coverage_failing_at_its_rename_leaves_the_previous_csv(tmp_path, monkeypatch):
    cfg = config_from_dict(TINY_RAW)
    out = tmp_path / "coverage.csv"
    cmd_coverage(cfg, 900.0, out)
    before = out.read_bytes()
    _fail_replace(monkeypatch, 1)  # its one rename
    with pytest.raises(OSError, match="Input/output error"):
        cmd_coverage(cfg, 1800.0, out)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["coverage.csv"]
    assert out.read_bytes() == before
    cmd_coverage(cfg, 1800.0, out)
    assert out.read_bytes() != before


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
def test_evaluate_past_its_file_size_limit_leaves_the_previous_pair(tmp_path):
    # a full disk in small: the process may write no file past 20,000 bytes
    out = cmd_train(config_from_dict({**TINY_RAW, "bands_mhz": [900.0, 1800.0]}),
                    tmp_path / "run")
    cmd_evaluate(out, n_flights=20, seed=1)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    limited = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (20000, 20000))\n"
        "from uavnav.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", limited, "evaluate", "--artifacts", str(out),
         "--flights", "2000", "--seed", "2"],
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("band", ["nan", "inf", "-inf"])
def test_cli_coverage_rejects_non_finite_band(tmp_path, capsys, band):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_RAW))
    out = tmp_path / "cov.csv"
    assert cli_main(["coverage", "--config", str(cfg_path), f"--band={band}",
                     "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_minus_infinite_threshold_stays_legal(tmp_path):
    # -inf means every cell is covered
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_RAW, "link": {"snr_threshold_db": -math.inf}}))
    cfg = load_config(str(path))
    assert cfg.link.snr_threshold_db == -math.inf
    assert cmd_coverage(cfg, 900.0, tmp_path / "cov.csv") == 1.0


# A boolean or a string where a number belongs. A bool used to pass as the
# number 1 or 0; a string failed with a message that did not name its key.
NOT_A_NUMBER = {
    "uav_velocity_ms bool": {"uav_velocity_ms": True},
    "obstacle_density text": {"obstacle_density": "0.1"},
    "max_altitude_m null": {"max_altitude_m": None},
    "hyper.alpha bool": {"hyper": {"alpha": True}},
    "grid.cell_size_m bool": {"grid": {"nx": 4, "ny": 4, "nz": 2, "cell_size_m": True}},
    "link.h_b_m text": {"link": {"h_b_m": "60"}},
    "schedule.decay list": {"schedule": {"decay": [0.9]}},
    "rewards.r_crash bool": {"rewards": {"r_crash": False}},
}


@pytest.mark.parametrize("case", sorted(NOT_A_NUMBER))
def test_config_refuses_non_numbers_naming_the_key(tmp_path, capsys, case):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, **NOT_A_NUMBER[case]}, indent=1))
    key_path = case.split()[0]
    key = key_path.split(".")[-1]
    line = next(i for i, text in enumerate(cfg_path.read_text().splitlines(), start=1)
                if f'"{key}"' in text)
    with pytest.raises(ConfigError) as info:
        load_config(str(cfg_path))
    assert str(info.value).startswith(f"{cfg_path}:{line}: {key_path}: expected a number")
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


# A non-integer where an integer belongs, at the top level and in a
# section. The top-level ones used to fail from TrainConfig without a file
# or line, a section's naming only its section.
NOT_AN_INTEGER = {
    "seed text": ({"seed": "3"}, "'3'"),
    "seed float": ({"seed": 1.5}, "1.5"),
    "seed null": ({"seed": None}, "None"),
    "episodes_adaptive bool": ({"episodes_adaptive": True}, "True"),
    "step_cap integral float": ({"step_cap": 10.0}, "10.0"),
    "eval_step_cap text": ({"eval_step_cap": "7"}, "'7'"),
    "grid.ny bool": ({"grid": {"nx": 4, "ny": True, "nz": 2}}, "True"),
    "grid.nx float": ({"grid": {"nx": 2.5, "ny": 4, "nz": 2}}, "2.5"),
    "grid.nz null": ({"grid": {"nx": 4, "ny": 4, "nz": None}}, "None"),
}


@pytest.mark.parametrize("case", sorted(NOT_AN_INTEGER))
def test_config_refuses_non_integers_naming_the_key(tmp_path, capsys, case):
    raw, got = NOT_AN_INTEGER[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, **raw}, indent=1))
    key_path = case.split()[0]
    key = key_path.split(".")[-1]
    line = next(i for i, text in enumerate(cfg_path.read_text().splitlines(), start=1)
                if f'"{key}"' in text)
    with pytest.raises(ConfigError) as info:
        load_config(str(cfg_path))
    assert str(info.value) == f"{cfg_path}:{line}: {key_path}: expected an integer, got {got}"
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


# Finite inputs whose outputs are not: learned values past the largest
# float, a coverage map that overflows or a flight time that does. Each
# used to pass the loader and fail later, as a bare OverflowError, a
# checkpoint that evaluate refuses or an evaluation.json holding Infinity.
# The second entry is the field the refusal names.
OVERFLOWING = {
    "rewards 1e308": (
        {"rewards": {"r_covered": 1e308, "r_arrive": 1e308, "r_closer": 1e307}},
        "rewards",
    ),
    "link.h_b_m 1e308": ({"link": {"h_b_m": 1e308}}, "link.h_b_m"),
    "grid.cell_height_m 1e300": (
        {"grid": {"nx": 4, "ny": 4, "nz": 2, "cell_height_m": 1e300}, "max_altitude_m": 1e308},
        "grid.cell_height_m",
    ),
    "grid.cell_size_m 1e308": (
        {"grid": {"nx": 4, "ny": 4, "nz": 2, "cell_size_m": 1e308}},
        "grid.cell_size_m",
    ),
    "grid cell sizes 5e-324": (
        {"grid": {"nx": 4, "ny": 4, "nz": 2, "cell_size_m": 5e-324, "cell_height_m": 5e-324}},
        "grid.cell_height_m",
    ),
    "link gains 1e308": ({"link": {"p_tx_dbm": 1e308, "g_tx_db": 1e308}}, "link"),
    "uav_velocity_ms 5e-324": ({"uav_velocity_ms": 5e-324}, "uav_velocity_ms"),
    "eval_step_cap 1e400": ({"eval_step_cap": 10**400}, "eval_step_cap"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_config_refuses_inputs_whose_outputs_overflow(tmp_path, capsys, case):
    raw, field = OVERFLOWING[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, **raw}))
    with pytest.raises(ConfigError, match=field):
        load_config(str(cfg_path))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert not out.exists()


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, as strict parsers do."""
    def refuse(literal):
        raise ValueError(f"non-standard JSON literal {literal}")

    return json.loads(text, parse_constant=refuse)


def test_extreme_finite_config_runs_to_finite_outputs(tmp_path, capsys):
    # each value a decade inside the refusals above
    raw = {
        **TINY_RAW,
        "rewards": {"r_covered": 1e307, "r_arrive": 1e307, "r_closer": 1e306},
        "link": {"h_b_m": 1e150},
        "uav_velocity_ms": 1e-300,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli_main(["evaluate", "--artifacts", str(out), "--flights", "5"]) == 0
    report = _strict_json((out / "evaluation.json").read_text())
    assert report["mean_flight_time_s"] > 1e300
    _, strategic, adaptive = load_artifacts(out)
    assert max(abs(strategic.q).max(), abs(adaptive[900.0].q).max()) > 1e306


def test_config_keeps_null_step_caps_legal():
    cfg = config_from_dict({"step_cap": None, "eval_step_cap": None})
    assert cfg.step_cap is None and cfg.eval_step_cap is None


@pytest.mark.parametrize("bands", [["900"], [None], [True]])
def test_config_rejects_non_numeric_bands(bands):
    with pytest.raises(ConfigError, match="bands_mhz"):
        config_from_dict({"bands_mhz": bands})


def test_eval_report_serialization():
    report = EvalReport(1, 100.0, 0.0, 0.0, 0.0, 0.0, 4.0, 13.3,
                        per_band={"900": EvalReport(1, 100.0, 0.0, 0.0, 0.0, 0.0, 4.0, 13.3)})
    doc = report.to_dict()
    assert doc["per_band"]["900"]["arrival_pct"] == 100.0
    json.dumps(doc)
