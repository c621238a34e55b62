"""Spans around the calls ``uavnav.harness`` makes into the other modules.

A span is (id, name, start, end, parent) plus a few counts taken from the
wrapped call's arguments and result. Spans stay in memory and are written
once, when the stage ends. The wrappers live here, outside the program:
each replaces a module attribute that the harness looks up at call time.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Counter = Callable[[tuple, Any], dict]


def _table_counts(args: tuple, result: Any) -> dict:
    table, logs = result
    return {"steps": sum(log.steps for log in logs), "rows": table.n_states()}


def _save_counts(args: tuple, result: Any) -> dict:
    table, path = args[0], args[1]
    return {"bytes": os.path.getsize(path), "kind": table.kind, "rows": table.n_states()}


def _load_counts(args: tuple, result: Any) -> dict:
    return {"kind": result.kind, "rows": result.n_states()}


def _flight_counts(args: tuple, result: Any) -> dict:
    return {"steps": result.steps, "arrived": result.outcome.value == "arrived"}


# (stage, module, attribute, span name, counter). The harness imports these
# names into its own namespace, so that is where they are replaced;
# coverage_map is reached from cmd_train through train_adaptive, so it is
# replaced in uavnav.agents.
WRAPPED: tuple[tuple[str, str, str, str, Counter | None], ...] = (
    ("train", "uavnav.harness", "build_world", "gridworld.build", None),
    ("train", "uavnav.harness", "train_strategic", "agents.strategic", _table_counts),
    ("train", "uavnav.harness", "train_adaptive", "agents.adaptive", _table_counts),
    ("train", "uavnav.agents", "coverage_map", "radio.coverage_map", None),
    ("train", "uavnav.harness", "save_table", "qcore.save", _save_counts),
    ("evaluate", "uavnav.harness", "build_world", "gridworld.build", None),
    ("evaluate", "uavnav.harness", "load_table", "qcore.load", _load_counts),
    ("evaluate", "uavnav.harness", "execute_flight", "arbiter.flight", _flight_counts),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module_name: str, attr: str, name: str, count: Counter | None) -> bool:
        """Replace ``module.attr`` by a traced call; False when it is gone."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(name)
            return False

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    record["attrs"] = count(args, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    # The call's shape changed: keep the time, drop the counts.
                    pass
            return result

        setattr(module, attr, traced)
        return True

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"missing": self.missing, "spans": self.spans}, f)


def install_wrappers(tracer: Tracer, stage: str) -> None:
    for for_stage, module_name, attr, name, count in WRAPPED:
        if for_stage == stage:
            tracer.wrap(module_name, attr, name, count)


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _named(doc: dict, name: str) -> list[dict]:
    return [s for s in doc["spans"] if s["name"] == name]


def _total(doc: dict, name: str) -> float | None:
    found = _named(doc, name)
    return sum(_dur(s) for s in found) if found else None


def _attr_sum(doc: dict, name: str, attr: str, kind: str | None = None) -> float | None:
    found = [s for s in _named(doc, name) if kind is None or s["attrs"].get("kind") == kind]
    if not found or any(attr not in s["attrs"] for s in found):
        return None
    return sum(s["attrs"][attr] for s in found)


def _self_time(doc: dict, root_name: str) -> float | None:
    """Root span duration minus its direct children, which never overlap.

    Not measured when a wrapper is missing: its time would pass as self time.
    """
    roots = _named(doc, root_name)
    if doc["missing"] or len(roots) != 1:
        return None
    root = roots[0]
    return _dur(root) - sum(_dur(s) for s in doc["spans"] if s["parent"] == root["id"])


def _ratio(num: float | None, den: float | None, scale: float = 1.0) -> float | None:
    return None if num is None or not den else scale * num / den


def _train_layers(doc: dict) -> dict:
    out = {}
    for agent in ("strategic", "adaptive"):
        seconds = _total(doc, f"agents.{agent}")
        steps = _attr_sum(doc, f"agents.{agent}", "steps")
        out[f"agents.{agent}_s"] = seconds
        out[f"agents.{agent}_steps"] = steps
        out[f"agents.{agent}_us_per_step"] = _ratio(seconds, steps, 1e6)
    save_bytes = _attr_sum(doc, "qcore.save", "bytes")
    out["radio.coverage_map_s"] = _total(doc, "radio.coverage_map")
    out["qcore.strategic_rows"] = _attr_sum(doc, "qcore.save", "rows", "strategic")
    out["qcore.save_s"] = _total(doc, "qcore.save")
    out["qcore.save_mb"] = None if save_bytes is None else save_bytes / float(1 << 20)
    out["harness.train_self_s"] = _self_time(doc, "harness.cmd_train")
    return out


def _evaluate_layers(doc: dict) -> dict:
    flights = _named(doc, "arbiter.flight")
    seconds = _total(doc, "arbiter.flight")
    steps = _attr_sum(doc, "arbiter.flight", "steps")
    delivered = None
    if steps is not None:
        delivered = sum(s["attrs"]["steps"] for s in flights if s["attrs"]["arrived"])
    return {
        "qcore.load_s": _total(doc, "qcore.load"),
        "arbiter.flights": len(flights) or None,
        "arbiter.flight_steps": steps,
        "arbiter.flight_s": seconds,
        "arbiter.flight_us_per_step": _ratio(seconds, steps, 1e6),
        "arbiter.delivered_step_ratio": _ratio(delivered, steps),
        "harness.evaluate_self_s": _self_time(doc, "harness.cmd_evaluate"),
    }


def _median_of(rows: list[dict]) -> dict:
    keys = {k for row in rows for k in row}
    return {k: median([row[k] for row in rows if row.get(k) is not None]) for k in keys}


def layer_metrics(setups: list[dict], trains: list[dict], evaluates: list[dict]) -> dict:
    """Per-layer figures from span files, each the median over its stages.

    A layer whose spans are absent (its wrapper found nothing to wrap) is
    None, reported as not measured.
    """
    out = _median_of(
        [{"cli.import_s": _total(d, "cli.import"), "gridworld.build_s": _total(d, "gridworld.build")}
         for d in setups]
    )
    out.update(_median_of([_train_layers(d) for d in trains]))
    out.update(_median_of([_evaluate_layers(d) for d in evaluates]))
    return out
