import csv
import dataclasses
import hashlib
import json
import math
import random
import signal
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

from uavnav.arbiter import FlightOutcome
from uavnav.cli import main as cli_main
from uavnav.config import (
    ConfigError,
    TrainConfig,
    config_from_dict,
    load_config,
    seed_stream,
)
from uavnav.gridworld import GridSpec
from uavnav.harness import (
    ArtifactError,
    EvalReport,
    FlightRecord,
    band_label,
    build_world,
    cmd_coverage,
    cmd_evaluate,
    cmd_train,
    compute_metrics,
    load_artifacts,
    run_flights,
)
from uavnav.qcore import MAX_TABLE_BYTES, Hyper, QTable, table_bytes


def rec(outcome, steps=10, outage=0, band=900.0):
    return FlightRecord(
        band_mhz=band,
        destination=(1, 1, 0),
        outcome=outcome,
        steps=steps,
        outage_steps=outage,
        min_snr_db=50.0,
        flight_time_s=steps * 50.0 / 15.0,
    )


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
    report = compute_metrics(records)
    assert report.outage_flight_pct == 1.0
    assert report.arrival_pct == 100.0


def test_metrics_all_arrived_clean():
    report = compute_metrics([rec(FlightOutcome.ARRIVED) for _ in range(40)])
    assert (report.arrival_pct, report.crash_pct, report.stepcap_pct) == (100.0, 0.0, 0.0)
    assert report.outage_flight_pct == 0.0
    assert report.mean_steps == 10.0


def test_metrics_crash_share():
    records = [rec(FlightOutcome.ARRIVED) for _ in range(90)]
    records += [rec(FlightOutcome.CRASHED) for _ in range(10)]
    report = compute_metrics(records)
    assert report.crash_pct == 10.0
    assert report.arrival_pct <= 90.0


def test_metrics_empty():
    report = compute_metrics([])
    assert report.flights == 0
    assert report.arrival_pct == report.crash_pct == report.outage_step_pct == 0.0


def test_metrics_percentage_identity_random():
    rng = random.Random(8)
    outcomes = [FlightOutcome.ARRIVED, FlightOutcome.CRASHED, FlightOutcome.STEP_CAP_HIT]
    for _ in range(100):
        n = rng.randrange(1, 60)
        records = [
            rec(outcomes[rng.randrange(3)], steps=rng.randrange(1, 30),
                outage=rng.randrange(0, 5), band=rng.choice((900.0, 1800.0)))
            for _ in range(n)
        ]
        report = compute_metrics(records)
        assert abs(report.arrival_pct + report.crash_pct + report.stepcap_pct - 100.0) < 1e-9
        for sub in report.per_band.values():
            assert abs(sub.arrival_pct + sub.crash_pct + sub.stepcap_pct - 100.0) < 1e-9
        total_outage = sum(r.outage_steps for r in records)
        total_steps = sum(r.steps for r in records)
        assert abs(report.outage_step_pct - 100.0 * total_outage / total_steps) < 1e-9


def test_metrics_per_band_split():
    records = [rec(FlightOutcome.ARRIVED, band=900.0) for _ in range(10)]
    records += [rec(FlightOutcome.CRASHED, band=1800.0) for _ in range(10)]
    report = compute_metrics(records)
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
    assert cfg.grid.region_side_m == 1000.0
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
        TrainConfig(distance_metric="chebyshev")
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
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["episodes_strategic"] == 400
    assert manifest["config_sha256"] == cfg.config_hash()
    assert manifest["files"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("strategic.npz", "adaptive_900.npz", "adaptive_2100.npz")
    }
    # reward CSV shape
    with open(out / "rewards_strategic.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["episode", "total_reward", "epsilon", "steps"]
    assert len(rows) == 401


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
    assert report.flights == 0
    assert report.arrival_pct == 0.0


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
FORMAT_EDITS = {
    "older": (lambda m: {**m, "checkpoint_format_version": 2,
                         "config": {**m["config"], "eval_flights": 100}}, "format 2"),
    "newer": (lambda m: {**m, "checkpoint_format_version": 4}, "format 4"),
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
    strategic = QTable("strategic", cfg.grid, cfg.hyper, cfg.seed, goal_conditioned=True)
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
        goal_conditioned=goal_conditioned,
        fixed_destination=None if goal_conditioned else (0, 0, 1),
    )
    with _deadline(30), pytest.raises(ConfigError, match="missions need 2"):
        cmd_train(cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()
    # one episode per agent never draws a start: that still trains
    one = dataclasses.replace(cfg, episodes_strategic=1, episodes_adaptive=1)
    with _deadline(30):
        cmd_train(one, tmp_path / "one")


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


def test_cli_train_rejects_non_int_seed(tmp_path, capsys):
    # refused before training, so no artifact exists for evaluate to refuse
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, "seed": 1.5}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "seed must be an integer" in err
    assert not out.exists()


# Each case gives one integer or boolean field a value of the wrong type
# (or, for eval_step_cap, one below its range). eval_flights is no field at
# all (``uavnav evaluate --flights`` sets the count), so it fails as unknown.
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
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE))
def test_cli_train_rejects_wrongly_typed_fields(tmp_path, capsys, case):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, **WRONG_TYPE[case]}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err
    assert ("eval_flights: unknown field" in err) == (case == "eval_flights bool")
    assert not out.exists()


# A fixed-destination planner needs a destination on the grid that is not
# the takeoff cell; neither depends on the world, so the config refuses it.
FIXED_DESTINATION = {
    "missing": ({"goal_conditioned": False}, "needs a fixed_destination"),
    "off grid": ({"fixed_destination": [9, 0, 0]}, "out of bounds"),
    "start cell": ({"fixed_destination": [0, 0, 0]}, "equals start_cell"),
}


@pytest.mark.parametrize("case", sorted(FIXED_DESTINATION))
def test_cli_train_rejects_fixed_destination(tmp_path, capsys, case):
    raw, message = FIXED_DESTINATION[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, "goal_conditioned": False, **raw}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and message in err
    assert not out.exists()


def test_cli_train_rejects_fixed_destination_on_obstacle(tmp_path, capsys):
    # the check needs the built world, so it runs before training, not in the config
    raw = {**TINY_RAW, "obstacle_density": 0.3, "seed": 0,
           "goal_conditioned": False, "fixed_destination": [0, 0, 1]}
    assert (0, 0, 1) in build_world(config_from_dict(raw)).obstacles
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "is an obstacle" in err
    assert not out.exists()


def test_config_refuses_oversized_planner_table_before_allocating(tmp_path, capsys):
    # 6,689 cells: Q[cell, dest, a] would take just over 2 GiB
    over, under = GridSpec(nx=6689, ny=1, nz=1), GridSpec(nx=6688, ny=1, nz=1)
    assert table_bytes(under, True) <= MAX_TABLE_BYTES < table_bytes(over, True)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="GiB"):
            TrainConfig(grid=over)
        with pytest.raises(ValueError, match="GiB"):
            QTable("strategic", over, Hyper(), 0, goal_conditioned=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a position-keyed planner on the same grid needs only Q[cell, a]
    TrainConfig(grid=over, goal_conditioned=False, fixed_destination=(5, 0, 0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_RAW, "grid": {"nx": 6689, "ny": 1, "nz": 1}}))
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "over the 2 GiB limit" in capsys.readouterr().err
    assert not out.exists()


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
