"""Output checks and behaviour fingerprints for one workload iteration.

Standard library only, so the checks read the artifacts exactly as a
user would and share no code with the package under test.

Every check returns (attempted, failed, problems): episodes (training)
or sweep cells (comparison) attempted, how many of them failed, and one
line per failure.  An artifact that does not parse, or an episode count
that misses the budget, fails every episode of the iteration.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os

# Byte-compared artifacts (ROADMAP "behaviour"); absent ones are skipped.
FINGERPRINTED = ("metrics.csv", "episodes.csv", "trajectory.jsonl",
                 "checkpoint.json", "summary.json", "comparison.json")

# Conservation is a sum of a few hundred doubles per episode.
REL_TOL = 1e-9


def fingerprints(out_dir: str) -> dict:
    """sha256 of every byte-compared artifact present in out_dir."""
    out = {}
    for name in FINGERPRINTED:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in os.listdir(out_dir))


def _load_json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _load_csv(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def requested_bits(run_config: dict) -> float:
    """Total ground demand of one episode at demand scale 1."""
    scen = run_config["scenario"]
    n_gus = len(scen["gu_xy"]) if scen["gu_xy"] is not None else scen["n_gus"]
    return n_gus * scen["demand_bits"]


def _conserved(requested: float, delivered: float, held: float, left: float) -> bool:
    return abs(delivered + held + left - requested) <= REL_TOL * requested


def check_train(out_dir: str, budget: int) -> tuple[int, int, list]:
    """run_train artifacts: everything parses, budget episodes ran, and
    per episode the bits requested equal the bits delivered to the base
    station plus those held in UAV buffers and left at ground users after
    the episode's last slot."""
    try:
        run_config = _load_json(out_dir, "config.json")
        episodes = _load_csv(out_dir, "episodes.csv")
        slot_rows = _load_csv(out_dir, "metrics.csv")
        summary = _load_json(out_dir, "summary.json")
        _load_json(out_dir, "checkpoint.json")
        with open(os.path.join(out_dir, "trajectory.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                json.loads(line)
        requested = requested_bits(run_config)
        n_uavs = run_config["scenario"]["n_uavs"]
        ids = [int(row["episode"]) for row in episodes]
        runs = summary["episodes_run"]
        last = {}  # episode -> (slot, rows of that slot)
        for row in slot_rows:
            ep, slot = int(row["episode"]), int(row["slot"])
            prev = last.get(ep)
            if prev is None or slot > prev[0]:
                last[ep] = (slot, [row])
            elif slot == prev[0]:
                prev[1].append(row)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return budget, budget, [f"artifacts do not parse: {type(exc).__name__}: {exc}"]
    if ids != list(range(budget)) or runs != budget:
        return budget, budget, [f"ran {runs} episodes ({len(ids)} rows), budget {budget}"]
    problems = []
    for row in episodes:
        ep = int(row["episode"])
        _, rows = last.get(ep, (None, []))
        if len(rows) != n_uavs:
            problems.append(f"episode {ep}: {len(rows)} UAV rows in its last slot, want {n_uavs}")
            continue
        delivered = float(row["delivered_bits"])
        held = sum(float(r["buffer_bits"]) for r in rows)
        left = float(rows[0]["gu_backlog_total"])
        if not _conserved(requested, delivered, held, left):
            problems.append(f"episode {ep}: requested {requested!r} != delivered {delivered!r}"
                            f" + held {held!r} + left {left!r}")
    return budget, len(problems), problems


def check_sweep(out_dir: str, policies, scales) -> tuple[int, int, list]:
    """run_compare artifacts with zero training episodes: everything
    parses, one row per (policy, scale) cell, and per cell the bits
    requested equal those delivered plus those still at ground users or
    in UAV buffers at the end of the rollout."""
    cells = [(p, float(s)) for p in policies for s in scales]
    try:
        run_config = _load_json(out_dir, "config.json")
        payload = _load_json(out_dir, "comparison.json")
        _load_json(out_dir, "checkpoint.json")
        requested = requested_bits(run_config)
        rows = payload["rows"]
        got = [(row["policy"], float(row["demand_scale"])) for row in rows]
        trained = payload["train_episodes"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return len(cells), len(cells), [f"artifacts do not parse: {type(exc).__name__}: {exc}"]
    if got != cells or trained != 0:
        return len(cells), len(cells), [f"cells {got} (trained {trained}) != expected {cells}"]
    problems = []
    for row in rows:
        scale = float(row["demand_scale"])
        delivered = float(row["delivered_mean"])
        left = float(row["remaining_final_mean"])  # ground users plus UAV buffers
        if row["episodes"] != 1 or not _conserved(requested * scale, delivered, 0.0, left):
            problems.append(f"cell {row['policy']} x{scale:g}: requested {requested * scale!r}"
                            f" != delivered {delivered!r} + remaining {left!r}"
                            f" over {row['episodes']} episodes")
    return len(cells), len(problems), problems
