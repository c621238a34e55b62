"""cmd_train's jobs: same bytes at any worker count, typed failures.

The planner and each band train in independent jobs, in worker processes
when more than one CPU is usable. These tests set the usable CPU count
through ``harness._usable_cpus`` and the workers' start method through
``harness._pool_context``; a test that kills a worker does so in a fresh
process, so the pytest process itself is never the one that dies.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavnav
import uavnav.agents
import uavnav.harness as harness
from uavnav.cli import main as cli_main
from uavnav.config import TrainConfig
from uavnav.gridworld import GridSpec
from uavnav.harness import MANIFEST_NAME, cmd_train

SRC = Path(uavnav.__file__).resolve().parents[1]

# Two bands outside the COST 231 box (the default grid's 900 and 2100 MHz):
# three jobs, so a pool of two workers queues one of them.
CFG = TrainConfig(
    grid=GridSpec(nx=6, ny=6, nz=2),
    obstacle_density=0.1,
    bands_mhz=(900.0, 2100.0),
    episodes_strategic=200,
    episodes_adaptive=100,
    seed=3,
)


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: n)


def _artifacts(out):
    """Every file's bytes but the manifest's, and the manifest's ``files``."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != MANIFEST_NAME}
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    return files, manifest["files"]


def test_artifacts_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    runs = {}
    for n in (1, 2, 4):
        _use_cpus(monkeypatch, n)
        runs[n] = _artifacts(cmd_train(CFG, tmp_path / f"cpus{n}"))
    assert len(runs[1][0]) == 6  # three checkpoints, three reward CSVs
    assert runs[2] == runs[1]
    assert runs[4] == runs[1]


def _disk_full(*args):
    raise OSError(errno.ENOSPC, "No space left on device", "adaptive_2100.npz")


def test_job_exception_keeps_its_type(tmp_path, monkeypatch, capsys):
    _use_cpus(monkeypatch, 2)
    # patched outside harness, so the jobs still go to forked workers, which
    # inherit the patch
    monkeypatch.setattr(uavnav.agents, "coverage_map", _disk_full)
    with pytest.raises(OSError) as info:
        cmd_train(CFG, tmp_path / "run")
    assert info.value.errno == errno.ENOSPC

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG.to_dict()))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 28]") and "adaptive_2100.npz" in err


def test_replaced_callee_sees_every_job(tmp_path, monkeypatch):
    """A wrapper around a job's callee (a tracer, say) runs in this process."""
    _use_cpus(monkeypatch, 4)
    real = harness.train_adaptive
    seen = []

    def recorded(world, band_mhz, cfg, rng):
        seen.append((os.getpid(), band_mhz))
        return real(world, band_mhz, cfg, rng)

    monkeypatch.setattr(harness, "train_adaptive", recorded)
    wrapped = _artifacts(cmd_train(CFG, tmp_path / "wrapped"))
    assert seen == [(os.getpid(), 900.0), (os.getpid(), 2100.0)]
    monkeypatch.setattr(harness, "train_adaptive", real)
    assert _artifacts(cmd_train(CFG, tmp_path / "pooled")) == wrapped


def _train_subprocess(tmp_path, patch, cfg=None):
    """``uavnav train`` of ``cfg`` (a config dict, CFG's by default) in a
    fresh process, after running ``patch``."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg or CFG.to_dict()))
    code = "\n".join([
        "import os, sys",
        "import uavnav.harness as harness",
        patch,
        "from uavnav.cli import main",
        "sys.exit(main(sys.argv[1:]))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, "train", "--config", str(cfg_path),
         "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_dead_worker_is_an_error_line(tmp_path):
    proc = _train_subprocess(
        tmp_path,
        "harness._usable_cpus = lambda: 2\n"
        # patched outside harness, so the jobs still go to forked workers,
        # which inherit the patch
        "import uavnav.agents; uavnav.agents.coverage_map = lambda *args: os._exit(1)",
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: a training worker process died")
    assert "Traceback" not in proc.stderr and "BrokenProcessPool" not in proc.stderr
    assert not (tmp_path / "run" / MANIFEST_NAME).exists()


def _entries(path):
    """Every entry of ``path``, hidden ones included, with a file's bytes."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in path.iterdir()}


@pytest.mark.parametrize("cpus", [1, 2])
def test_failed_job_leaves_out_as_it_was(tmp_path, cpus):
    # a previous run, then one of another seed, whose planner writes other
    # bytes, while every band job raises
    cmd_train(CFG, tmp_path / "run")
    before = _entries(tmp_path / "run")
    proc = _train_subprocess(
        tmp_path,
        f"harness._usable_cpus = lambda: {cpus}\n"
        # patched outside harness, so with 2 CPUs the jobs still go to
        # forked workers, which inherit the patch
        "import uavnav.agents\n"
        "def disk_full(*args): raise OSError(28, 'No space left on device')\n"
        "uavnav.agents.coverage_map = disk_full",
        cfg={**CFG.to_dict(), "seed": 4},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines()[-1] == "error: [Errno 28] No space left on device"
    assert "Traceback" not in proc.stderr
    assert _entries(tmp_path / "run") == before
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "run"]


# An allocation the planner job cannot make: 10**15 start cells take
# 7 PiB, past the address space, so it fails even where memory is
# overcommitted. Patched outside harness, so forked workers inherit it.
UNALLOCATABLE = (
    "import numpy, uavnav.agents\n"
    "uavnav.agents._missions = lambda world, cfg, gen: (numpy.full(10**15, 0),) * 2"
)


@pytest.mark.parametrize("cpus", [1, 2])
def test_unallocatable_training_is_an_error_line(tmp_path, cpus):
    proc = _train_subprocess(
        tmp_path, f"harness._usable_cpus = lambda: {cpus}\n{UNALLOCATABLE}"
    )
    assert proc.returncode == 1, proc.stderr
    assert "Unable to allocate" in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run" / MANIFEST_NAME).exists()


# (usable CPUs, start method of the workers); one CPU trains in-process
LAUNCHES = [(1, "fork"), (3, "fork"), (3, "forkserver"), (3, "spawn")]


@pytest.mark.parametrize("cpus,method", LAUNCHES)
def test_validity_warning_once_and_same_bytes(tmp_path, monkeypatch, cpus, method):
    proc = _train_subprocess(
        tmp_path,
        f"harness._usable_cpus = lambda: {cpus}\n"
        f"import multiprocessing\n"
        f"harness._pool_context = lambda: multiprocessing.get_context({method!r})",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("HataValidityWarning") == 1, proc.stderr
    # the text the first cell of coverage_map gives, pooled or in-process
    (line,) = [s for s in proc.stderr.splitlines() if "HataValidityWarning" in s]
    assert "radio.py" in line and "(f=900 MHz, mobile height=10 m)" in line
    # workers rebuild the world from the config alone, whatever the start method
    _use_cpus(monkeypatch, 1)
    in_process = cmd_train(CFG, tmp_path / "in_process")
    assert _artifacts(tmp_path / "run") == _artifacts(in_process)
