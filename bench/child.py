"""Worker: runs one benchmark workload in a fresh process.

Started by run.py, never by hand.  Modes:

  setup   import, load the config, construct the Trainer and stop at the
          first simulated slot; reports time.monotonic() at that slot.
  timed   iterations with seeds seed, seed+1, ... until --seconds have
          passed (at least --min-iterations), with a timestamp taken at
          every world.step entry and nothing else wrapped.
  traced  the same iterations with every layer wrapped (tracing.py).

Each iteration is one public call, harness.run_train or
harness.run_compare, with the workload seed as the run seed, followed by
the output checks.  The result goes to --result as JSON.
"""
from __future__ import annotations

import os

from workloads import THREAD_VARS, WORKLOADS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from flysense import config, harness, world  # noqa: E402

import checks  # noqa: E402
from tracing import ARB_SOURCES, POLICY_FNS, Tracer  # noqa: E402


class _FirstSlot(Exception):
    """Raised at the first world.step entry in setup mode."""


def run_iteration(wl: dict, seed: int, out_dir: str) -> dict:
    """One workload call through the public entry points, then checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    cfg = config.load_config(os.path.join(ROOT, wl["config"]))
    cfg = dataclasses.replace(cfg, seed=seed)
    if wl["kind"] == "train":
        summary = harness.run_train(cfg, out_dir, episodes=wl["episodes"])
        reward = summary["eval"]["reward_mean"]
    else:
        payload = harness.run_compare(cfg, out_dir, episodes=wl["episodes"],
                                      policies=wl["policies"], demand_scales=wl["scales"],
                                      eval_episodes=1)
        reward = sum(row["reward_mean"] for row in payload["rows"]) / len(payload["rows"])
    run_s = time.perf_counter() - t0
    if wl["kind"] == "train":
        attempted, failed, problems = checks.check_train(out_dir, wl["episodes"])
    else:
        attempted, failed, problems = checks.check_sweep(out_dir, wl["policies"], wl["scales"])
    return {
        "seed": seed, "run_s": run_s, "eval_reward_mean": reward,
        "attempted": attempted, "failed": failed, "problems": problems,
        "fingerprints": checks.fingerprints(out_dir),
        "bytes_written": checks.bytes_written(out_dir),
        "warmup": cfg.training.warmup_size,
    }


def failed_iteration(wl: dict, seed: int, exc: Exception) -> dict:
    ops = wl["episodes"] if wl["kind"] == "train" else len(wl["policies"]) * len(wl["scales"])
    return {"seed": seed, "run_s": None, "eval_reward_mean": None, "attempted": ops,
            "failed": ops, "problems": [f"{type(exc).__name__}: {exc}"],
            "fingerprints": {}, "bytes_written": 0, "warmup": 0}


def install_slot_clock(marks: list) -> None:
    """One timestamp per slot: (time, slot index in the episode, caller).
    The caller tells training slots (train_episode) from greedy
    evaluation slots (rollout)."""
    step = world.step
    clock = time.perf_counter
    frame = sys._getframe

    def clocked_step(w, actions, fm):
        marks.append((clock(), w.t, frame(1).f_code.co_name))
        return step(w, actions, fm)

    world.step = clocked_step


def slot_intervals(marks: list, warmup: int) -> tuple[list, list]:
    """Seconds between successive world.step entries of one episode:
    training slots from the one whose transition completes the replay
    warm-up (learning updates run in every such slot), and evaluation
    slots.  The last slot of each episode has no successor and is not
    counted; neither are gaps between episodes."""
    train, evals = [], []
    train_index = -1
    for (t0, slot0, who0), (t1, slot1, who1) in zip(marks, marks[1:] + [(0.0, -1, "")]):
        if who0 == "train_episode":
            train_index += 1
        if slot1 != slot0 + 1 or who1 != who0:
            continue
        if who0 == "train_episode":
            if train_index >= warmup - 1:
                train.append(t1 - t0)
        else:
            evals.append(t1 - t0)
    return train, evals


def slot_stats(intervals: list) -> dict:
    if not intervals:
        return {"count": 0}
    ms = np.asarray(intervals) * 1e3
    p50, p90, p99 = np.percentile(ms, [50, 90, 99])
    return {"count": int(ms.size), "per_s": 1e3 / float(ms.mean()),
            "ms_p50": float(p50), "ms_p90": float(p90), "ms_p99": float(p99)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def layer_metrics(tr: Tracer, iterations: list) -> dict:
    """The per-layer metric set, per iteration."""
    n = len(iterations)
    s = tr.summary()
    spans = s["spans"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0) / n

    out = {}
    for name in ("marl.update_agent", "world.step"):
        out[f"{name}.self_ms"] = span(name, "self_ms")
    for name in ("marl.update_agent", "nn.Mlp.forward", "gp.propose_point",
                 "world.step", "world.select_gu", "marl.build_cost_report"):
        out[f"{name}.calls"] = span(name, "calls")
    for name in ("marl.td_targets", "nn.Mlp.forward", "nn.Mlp.backward", "nn.Adam.step",
                 "nn.soft_update", "marl.ReplayBuffer.sample", "gp.propose_point",
                 "marl.critic_q", "world.step", "world.select_gu", "marl.observe",
                 "channel.offload", "marl.build_cost_report", "marl.expected_transmitters",
                 "harness.CsvSink.slot_row", "harness.CsvSink.episode_row",
                 "nn.save_checkpoint", "harness.write_trajectory", "config.load_config",
                 "marl.Trainer.__init__"):
        out[f"{name}.ms"] = span(name, "ms")
    for fn in POLICY_FNS:
        out[f"formation.{fn}.ms"] = span(f"formation.{fn}", "ms")
    for name, calls in s["counts"].items():
        out[f"{name}.calls"] = calls / n
    updates = tr.calls["marl.update_agent"]
    out["marl.td_targets.forwards_per_update"] = (
        tr.edges[("marl.td_targets", "nn.Mlp.forward")] / updates if updates else 0.0)
    arbitrated = sum(tr.arbitration.values())
    for src in ARB_SOURCES:
        out[f"marl.arbitrate.{src}_frac"] = tr.arbitration[src] / arbitrated if arbitrated else 0.0
    decisions = sum(tr.decisions.values())
    out["formation.relay_frac"] = (
        sum(tr.relay_decisions.values()) / decisions if decisions else 0.0)
    for fn in POLICY_FNS:
        made = tr.decisions[fn]
        out[f"formation.{fn}.relay_frac"] = tr.relay_decisions[fn] / made if made else 0.0
    out["eval.distinct_world_frac"] = (
        tr.distinct_worlds / tr.rollouts if tr.rollouts else 0.0)
    out["harness.bytes_written"] = sum(it["bytes_written"] for it in iterations) / n
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-iterations", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    if args.mode == "setup":
        def first_slot(*_):
            raise _FirstSlot(time.monotonic())
        world.step = first_slot
        try:
            run_iteration(wl, args.seed, args.out)
        except _FirstSlot as stop:
            result = {"first_slot_monotonic": stop.args[0]}
        else:
            raise RuntimeError("workload finished without simulating a slot")
    else:
        marks: list = []
        tracer = None
        if args.mode == "timed":
            install_slot_clock(marks)
        else:
            tracer = Tracer()
            tracer.install()
        iterations, train_ms, eval_ms = [], [], []
        start = time.perf_counter()
        while True:
            k = len(iterations)
            del marks[:]
            if tracer is not None:
                tracer.new_iteration()
            out_dir = os.path.join(args.out, f"iter{k}")
            try:
                it = run_iteration(wl, args.seed + k, out_dir)
            except Exception as exc:  # a crash fails the iteration's episodes
                it = failed_iteration(wl, args.seed + k, exc)
            iterations.append(it)
            train, evals = slot_intervals(marks, it["warmup"])
            train_ms += train
            eval_ms += evals
            elapsed = time.perf_counter() - start
            if (k + 1 >= args.min_iterations
                    and elapsed * (k + 2) / (k + 1) > args.seconds):
                break
        result = {
            "iterations": iterations,
            "train_slots": slot_stats(train_ms),
            "eval_slots": slot_stats(eval_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        }
        if tracer is not None:
            result["per_layer"] = layer_metrics(tracer, iterations)
            result["trace"] = tracer.summary()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
