"""Command-line entry points: train, evaluate, coverage."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError
from .harness import (
    ArtifactError,
    TrainingError,
    band_label,
    cmd_coverage,
    cmd_evaluate,
    cmd_train,
)
from .qcore import CheckpointError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavnav",
        description="Train, evaluate and map dual Q-learning UAV navigation agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train both agents into an artifact dir")
    p_train.add_argument("--config", required=True, help="JSON config file")
    p_train.add_argument("--out", required=True, help="artifact output directory")
    p_train.add_argument("--seed", type=int, default=None, help="override master seed")

    p_eval = sub.add_parser("evaluate", help="fly evaluation missions from artifacts")
    p_eval.add_argument("--artifacts", required=True, help="trained artifact directory")
    p_eval.add_argument("--flights", type=int, required=True, help="flights per band")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument(
        "--no-safety",
        action="store_true",
        help="disable the obstacle-avoidance action filter",
    )
    p_eval.add_argument(
        "--normalize-q",
        action="store_true",
        help="min-max normalize per-state Q values before cross-table comparison",
    )

    p_cov = sub.add_parser("coverage", help="export a per-cell SNR/coverage CSV")
    p_cov.add_argument("--config", required=True, help="JSON config file")
    p_cov.add_argument("--band", type=float, required=True, help="carrier in MHz")
    p_cov.add_argument("--out", required=True, help="output CSV path")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            out = cmd_train(args.config, args.out, seed=args.seed)
            print(f"artifacts written to {out}")
        elif args.command == "evaluate":
            report = cmd_evaluate(
                args.artifacts,
                n_flights=args.flights,
                seed=args.seed,
                safety=not args.no_safety,
                normalize=args.normalize_q,
            )
            print(
                f"flights={report.flights} arrival={report.arrival_pct:.1f}% "
                f"crash={report.crash_pct:.1f}% stepcap={report.stepcap_pct:.1f}% "
                f"outage_flights={report.outage_flight_pct:.1f}% "
                f"outage_steps={report.outage_step_pct:.1f}%"
            )
            for label, sub_report in report.per_band.items():
                print(
                    f"  band {label} MHz: arrival={sub_report.arrival_pct:.1f}% "
                    f"crash={sub_report.crash_pct:.1f}% "
                    f"outage_flights={sub_report.outage_flight_pct:.1f}% "
                    f"outage_steps={sub_report.outage_step_pct:.1f}%"
                )
        elif args.command == "coverage":
            fraction = cmd_coverage(args.config, args.band, args.out)
            print(
                f"covered_fraction {fraction:.6f} at {band_label(args.band)} MHz "
                f"-> {args.out}"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, CheckpointError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
