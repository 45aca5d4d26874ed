"""flysense benchmark: one command, three workloads, end-to-end and
per-layer metrics.  See README.md in this directory.

    python3 bench/run.py                      # every workload, timed
    python3 bench/run.py --workload desk_train --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload desk_sweep --trace 1   # per-layer metrics

Run from the repository root.  Each workload runs in fresh worker
processes (child.py) with BLAS/OpenMP pinned to one thread.  Human-readable
lines go to stdout; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The metric names and units are
those listed in BENCHMARK.json: end_to_end with --trace 0, per_layer
with --trace 1.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import THREAD_VARS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
PINS = os.path.join(BENCH, "fingerprints.json")
SETUP_SAMPLES = 5
WORKLOAD_LIMIT_S = 170  # one workload's processes, all together
# The first two iterations use seeds seed and seed+1 on every run, so
# run_s and eval_reward_mean always cover the same work whatever the
# speed; later iterations only add slot samples.
FIXED_ITERATIONS = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_sources(workloads) -> None:
    """The benchmark measures the package in this checkout; without its
    sources there is nothing to run."""
    needed = [os.path.join("src", "flysense", "__init__.py")]
    needed += sorted({WORKLOADS[w]["config"] for w in workloads})
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"bench: missing {', '.join(missing)} under {ROOT}")


def run_child(mode: str, workload: str, seed: int, out_dir: str, deadline: float, *,
              seconds: float = 0.0, min_iterations: int = 1) -> dict:
    """Run child.py to completion (killed at the monotonic deadline) and
    return its result."""
    result_path = os.path.join(out_dir, f"{mode}-result.json")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--min-iterations", str(min_iterations),
           "--out", os.path.join(out_dir, mode), "--result", result_path]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(workload: str, seed: int, out_dir: str, deadline: float) -> list:
    """Process start to first simulated slot, in fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        res = run_child("setup", workload, seed, out_dir, deadline)
        samples.append(res["first_slot_monotonic"] - t0)
    return samples


def fingerprint_report(workload: str, iterations: list) -> list:
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh).get(workload, {})
    lines = []
    for it in iterations:
        pinned = pins.get(str(it["seed"]))
        if pinned is None:
            status = "not pinned"
        elif pinned == it["fingerprints"]:
            status = f"match ({len(pinned)} artifacts)"
        else:
            differ = sorted(k for k in set(pinned) | set(it["fingerprints"])
                            if pinned.get(k) != it["fingerprints"].get(k))
            status = "MISMATCH in " + ", ".join(differ)
        lines.append(f"  fingerprints seed {it['seed']}: {status}")
    return lines


def pin_fingerprints(workload: str, iterations: list) -> None:
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    entry = pins.setdefault(workload, {})
    for it in iterations:
        entry[str(it["seed"])] = it["fingerprints"]
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def end_to_end(workload: str, setup: list, timed: dict) -> dict:
    ok = [it for it in timed["iterations"] if it["run_s"] is not None]
    if not ok:
        raise RuntimeError(f"{workload}: every iteration crashed")
    fixed = ok[:FIXED_ITERATIONS]
    kind = WORKLOADS[workload]["kind"]
    slots = timed["train_slots"] if kind == "train" else timed["eval_slots"]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.fmean(it["run_s"] for it in fixed),
        "slots_per_s": slots["per_s"],
        "slot_ms_p50": slots["ms_p50"],
        "peak_rss_mb": timed["peak_rss_mb"],
        "eval_reward_mean": statistics.fmean(it["eval_reward_mean"] for it in fixed),
    }


def describe(values: dict, units: dict, notes: dict) -> list:
    return [f"  {name:<40} {value:>14.6g} {units.get(name, ''):<7} {notes.get(name, '')}".rstrip()
            for name, value in values.items()]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, pin: bool,
                 spec: dict) -> dict:
    out_dir = os.path.join(OUT, workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    load_start = os.getloadavg()
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    if trace:
        # Same seed, one iteration each: the run_s ratio is the overhead.
        untraced = run_child("timed", workload, seed, out_dir, deadline)
        traced = run_child("traced", workload, seed, out_dir, deadline)
        children = [untraced, traced]
        base, slow = untraced["iterations"][0]["run_s"], traced["iterations"][0]["run_s"]
        metrics = dict(traced["per_layer"])
        metrics["trace_overhead_frac"] = slow / base - 1.0 if base and slow else 0.0
        wanted = spec["per_layer"]
    else:
        setup = setup_seconds(workload, seed, out_dir, deadline)
        timed = run_child("timed", workload, seed, out_dir, deadline, seconds=seconds,
                          min_iterations=FIXED_ITERATIONS)
        children = [timed]
        metrics = end_to_end(workload, setup, timed)
        wanted = spec["end_to_end"]
    iterations = [it for child in children for it in child["iterations"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"{workload}: no value for {', '.join(missing)}")
    reported = {name: metrics[name] for name in units}

    runs = "1 untraced and 1 traced iteration" if trace else f"{len(iterations)} iterations"
    lines = [f"{workload} seed {seed}: {runs}, {attempted} ops, {failed} failed"]
    if not trace:
        main_phase = "train" if WORKLOADS[workload]["kind"] == "train" else "eval"
        lines += describe(reported, units, notes={
            "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
            "run_s": f"mean of the first {FIXED_ITERATIONS} iterations",
            "eval_reward_mean": f"mean of the first {FIXED_ITERATIONS} iterations",
            "slots_per_s": f"= {main_phase}_slots_per_s",
            "slot_ms_p50": f"= {main_phase}_slot_ms_p50",
        })
        for phase in ("train", "eval"):
            st = timed[f"{phase}_slots"]
            if st["count"]:
                values = {f"{phase}_slots_per_s": st["per_s"]}
                values.update({f"{phase}_slot_ms_{p}": st[f"ms_{p}"] for p in ("p50", "p90", "p99")})
                lines += describe(values, {k: "ms" for k in values} | {f"{phase}_slots_per_s": "1/s"},
                                  {f"{phase}_slots_per_s": f"n={st['count']} slots"
                                   + (" after warm-up" if phase == "train" else "")})
    else:
        lines += describe(reported, units, {})
        lines.append(f"  {'span (traced iteration)':<40} {'calls':>10} {'ms':>10} {'self_ms':>10}")
        spans = traced["trace"]["spans"]
        for name in sorted(spans, key=lambda n: -spans[n]["self_ms"]):
            sp = spans[name]
            lines.append(f"  {name:<40} {sp['calls']:>10} {sp['ms']:>10.1f} {sp['self_ms']:>10.1f}")
    lines += describe({"ops_failed_frac": failed / attempted}, {"ops_failed_frac": "frac"},
                      {"ops_failed_frac": f"{failed} of {attempted} ops"})
    for it in iterations:
        lines += [f"  FAILED seed {it['seed']}: {p}" for p in it["problems"][:5]]
    lines += fingerprint_report(workload, children[0]["iterations"])
    env = dict(children[-1]["environment"], loadavg_at_start=load_start)
    lines.append("  environment: " + json.dumps(env, sort_keys=True))
    print("\n".join(lines), flush=True)

    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "metrics": metrics,
                   "setup_samples_s": None if trace else setup,
                   "environment": env, "children": children}, fh, indent=1, sort_keys=True)
    if pin and not failed:
        pin_fingerprints(workload, children[0]["iterations"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in reported.items()}}


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's artifact fingerprints as the pinned ones")
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    check_sources(names)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.pin, spec)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
