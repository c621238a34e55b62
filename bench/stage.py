"""One benchmark stage, run in a fresh single-threaded process.

    python3 bench/stage.py setup    --config CFG [--spans FILE]
    python3 bench/stage.py train    --config CFG --out DIR [--spans FILE]
    python3 bench/stage.py evaluate --out DIR --flights N --seed S [--spans FILE]
    python3 bench/stage.py check    --out DIR --flights N

``uavnav`` must be importable (``bench/run.py`` puts ``src`` on PYTHONPATH).
The stage prints one JSON object on its last stdout line. With ``--spans``
it wraps the calls ``uavnav.harness`` makes into the other modules, records
a span around each and writes the spans to FILE.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from checks import run_checks
from tracing import Tracer, install_wrappers


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _setup(args: argparse.Namespace, tracer: Tracer | None) -> dict:
    """What every ``uavnav`` command pays first: import, config, world."""
    t0 = time.perf_counter()
    with _span(tracer, "cli.import"):
        import uavnav.cli  # noqa: F401
        from uavnav.config import load_config
        from uavnav.harness import build_world
    with _span(tracer, "config.load"):
        cfg = load_config(args.config)
    with _span(tracer, "gridworld.build"):
        build_world(cfg)
    return {"seconds": time.perf_counter() - t0}


def _train(args: argparse.Namespace, tracer: Tracer | None) -> dict:
    import uavnav

    if tracer is not None:
        install_wrappers(tracer, "train")
    t0 = time.perf_counter()
    with _span(tracer, "harness.cmd_train"):
        uavnav.cmd_train(args.config, args.out)
    return {"seconds": time.perf_counter() - t0, "peak_rss_mb": _peak_rss_mb()}


def _evaluate(args: argparse.Namespace, tracer: Tracer | None) -> dict:
    import uavnav

    if tracer is not None:
        install_wrappers(tracer, "evaluate")
    t0 = time.perf_counter()
    with _span(tracer, "harness.cmd_evaluate"):
        uavnav.cmd_evaluate(args.out, n_flights=args.flights, seed=args.seed)
    return {"seconds": time.perf_counter() - t0, "peak_rss_mb": _peak_rss_mb()}


def _check(args: argparse.Namespace, tracer: Tracer | None) -> dict:
    """Run every output check; a check that raises counts as failed."""
    from uavnav.harness import build_world, load_artifacts

    art = Path(args.out)
    cfg, strategic, adaptive = load_artifacts(art)
    world = build_world(cfg)
    with open(art / "flights.csv", newline="", encoding="utf-8") as f:
        flights = list(csv.DictReader(f))
    with open(art / "evaluation.json", encoding="utf-8") as f:
        evaluation = json.load(f)
    results = run_checks(
        cfg=cfg,
        world=world,
        tables=[strategic, *adaptive.values()],
        flights=flights,
        evaluation=evaluation,
        n_flights=args.flights,
    )
    arrived = sum(1 for row in flights if row["outcome"] == "arrived")
    return {"checks": results, "arrived_flights": arrived}


STAGES = {"setup": _setup, "train": _train, "evaluate": _evaluate, "check": _check}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=sorted(STAGES))
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--flights", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", help="trace the stage and write spans here")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.spans else None
    result = STAGES[args.stage](args, tracer)
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

