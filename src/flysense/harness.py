"""Run drivers.

Everything here is plumbing around the trainer: deterministic CSV/JSON
outputs for a training run, frozen-actor evaluation, side-by-side policy
comparison under demand scaling, and the numeric self-check suite.  File
contents depend only on the run config (no wall-clock anywhere), so two
runs with the same seed produce byte-identical artifacts.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

from . import nn, oracles
from .config import ConfigError, RunConfig, save_config
from .formation import FormationPolicy
from .marl import Trainer


def format_cell(value) -> str:
    """Stable scalar formatting: floats via repr (shortest round-trip),
    everything else via str."""
    if isinstance(value, float):
        return repr(float(value))  # plain repr even for numpy scalars
    return str(value)


class CsvSink:
    """Collects per-slot rows into metrics.csv and per-episode rows into
    episodes.csv, both nn.atomic_file, under one output directory.  Headers
    come from the first row of each stream; later rows must use the same keys."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self._files = contextlib.ExitStack()
        self._writers = {}
        self._headers = {}

    def _write(self, stream: str, row: dict) -> None:
        if stream not in self._writers:
            fh = self._files.enter_context(
                nn.atomic_file(os.path.join(self.out_dir, stream), newline=""))
            writer = csv.writer(fh, lineterminator="\n")
            header = list(row.keys())
            writer.writerow(header)
            self._writers[stream] = writer
            self._headers[stream] = header
        header = self._headers[stream]
        if list(row.keys()) != header:
            raise ValueError(f"{stream}: row keys changed mid-stream")
        self._writers[stream].writerow([format_cell(row[k]) for k in header])

    def slot_row(self, row: dict) -> None:
        self._write("metrics.csv", row)

    def episode_row(self, row: dict) -> None:
        self._write("episodes.csv", row)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._writers.clear()
        return self._files.__exit__(*exc)


def require_count(name: str, value: int | None, least: int) -> None:
    """Reject a count override (None: the config's) before any write."""
    if value is not None and value < least:
        raise ConfigError(f"{name}: must be at least {least}, got {value}")


def _mean(values) -> float:
    """Sum in the given order over the count; every eval mean goes
    through here so the summaries keep their bytes."""
    values = list(values)
    return sum(values) / len(values)


_NET_ROLES = ("actor", "critic", "target_actor", "target_critic")


def save_agents(path: str, agents) -> None:
    nn.save_checkpoint(path, {f"{role}_{i}": getattr(a, role)
                              for i, a in enumerate(agents, start=1) for role in _NET_ROLES})


def _net_shape(net) -> str:
    return "absent" if net is None else f"{net.dims} {net.out_act}"


def load_agents_into(path: str, agents) -> None:
    """Write the parameters of networks saved by save_agents into the nets
    of an existing agent list, so a stack over them runs what was loaded
    (optimizer state is not saved).  A net that only one side has, or
    whose dims or output activation differ, raises ConfigError naming it,
    and so does a file that cannot be read or parsed as a checkpoint."""
    try:
        nets = nn.load_checkpoint(path)
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"checkpoint {path}: cannot load ({type(exc).__name__}: {exc})") from exc
    slots = {f"{role}_{i}": (a, role)
             for i, a in enumerate(agents, start=1) for role in _NET_ROLES}
    for name in sorted(nets.keys() | slots.keys()):
        got = _net_shape(nets.get(name))
        want = _net_shape(getattr(*slots[name]) if name in slots else None)
        if got != want:
            raise ConfigError(f"checkpoint {path}: network {name} is {got},"
                              f" the config builds {want}")
    for name, (a, role) in slots.items():
        getattr(a, role).params[...] = nets[name].params


def _eval_block(stats_list) -> dict:
    """The evaluation summary of a list of episode stats: summary.json's
    eval, and eval.json past its checkpoint name."""
    rows = [{
        "reward_mean": float(s.rewards.mean()),
        "sensed_bits": s.sensed,
        "delivered_bits": s.delivered,
        "energy_j": s.energy,
        "slots": s.slots,
        "completion_slot": -1 if s.completion_slot is None else s.completion_slot,
        "max_buffer_bits": s.max_buffer,
    } for s in stats_list]
    return {
        "episodes": len(rows),
        "reward_mean": _mean(r["reward_mean"] for r in rows),
        "sensed_bits_mean": _mean(r["sensed_bits"] for r in rows),
        "delivered_bits_mean": _mean(r["delivered_bits"] for r in rows),
        "rows": rows,
    }


def write_trajectory(path: str, trainer: Trainer) -> list:
    """The greedy evaluation of a training run: eval_episodes
    deterministic rollouts, the first of them written to path as JSON
    lines, a header with the scenario layout followed by one line per
    slot, enough to replay or plot the flight.  Returns the stats of
    every episode."""
    scen = trainer.scenario
    with nn.atomic_file(path) as fh:
        def emit(obj):
            fh.write(json.dumps(obj, sort_keys=True) + "\n")

        def on_slot(episode, w, slot, acts, report):
            if episode > 0:
                return
            if slot == 0:
                emit({
                    "type": "header",
                    "seed": trainer.cfg.seed,
                    "gu_seed": scen.gu_seed,
                    "n_uavs": scen.n_uavs,
                    "half_width_m": scen.half_width_m,
                    "demand_bits": scen.demand_bits,
                    "buffer_capacity_bits": scen.buffer_capacity_bits,
                    "gu_xy": [[g.pos.x, g.pos.y] for g in w.gus],
                })
            emit({
                "type": "slot",
                "slot": slot,
                "actions": [list(map(float, a)) for a in acts],
                "uav_xy": [[u.pos.x, u.pos.y] for u in w.uavs],
                "buffers": [u.buffer for u in w.uavs],
                "formation": [[int(tx), int(rx), int(ch)]
                              for tx, rx, ch in w.formation.links()],
                "gu_remaining": [g.remaining for g in w.gus],
                "sensed": report.sensed,
                "delivered_bs": report.delivered_bs,
            })

        return trainer.evaluate(trainer.train_cfg.eval_episodes, slot_cb=on_slot)


def _train(cfg: RunConfig, out_dir: str, episodes: int | None) -> tuple[Trainer, dict]:
    """Save the config, train into metrics/episodes CSVs and save the
    trained agents, all under out_dir; returns the Trainer and what
    Trainer.run returned.  A positive budget whose slots cannot fill the
    warm-up, or a learner that cannot be built, leaves nothing on disk;
    a budget of 0 episodes trains nothing on purpose."""
    tc, budget = cfg.training, cfg.training.episodes if episodes is None else episodes
    if 0 < budget and budget * tc.horizon < tc.warmup_size:  # no update could run
        raise ConfigError(f"training.warmup: {tc.warmup_size} is more than {budget} episodes"
                          f" x training.horizon {tc.horizon} slots can gather")
    trainer = Trainer(cfg)
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.json"))
    with CsvSink(out_dir) as sink:
        trained = trainer.run(episodes=episodes, sink=sink)
    save_agents(os.path.join(out_dir, "checkpoint.json"), trainer.agents)
    return trainer, trained


def run_train(cfg: RunConfig, out_dir: str, episodes: int | None = None) -> dict:
    """Full training run: metrics/episodes CSVs, network checkpoint, one
    replayable trajectory, and summary.json.  Returns the summary.  A run
    whose episodes ended before the replay reached the warm-up made no
    learner update; one line on stderr says so."""
    require_count("episodes", episodes, 1)
    trainer, trained = _train(cfg, out_dir, episodes)
    if trainer.updates == 0:
        print(f"notice: no learner update ran: {len(trainer.replay)} transitions gathered,"
              f" below training.warmup {cfg.training.warmup_size}", file=sys.stderr)
    eval_stats = write_trajectory(os.path.join(out_dir, "trajectory.jsonl"), trainer)
    summary = {**trained, "eval": _eval_block(eval_stats)}
    nn.write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_eval(cfg: RunConfig, out_dir: str, checkpoint: str,
             episodes: int | None = None) -> dict:
    """Frozen-policy evaluation of a saved checkpoint."""
    require_count("episodes", episodes, 1)
    trainer = Trainer(cfg)
    load_agents_into(checkpoint, trainer.agents)
    os.makedirs(out_dir, exist_ok=True)
    n_eval = cfg.training.eval_episodes if episodes is None else episodes
    summary = {"checkpoint": os.path.basename(checkpoint), **_eval_block(trainer.evaluate(n_eval))}
    nn.write_json(os.path.join(out_dir, "eval.json"), summary)
    return summary


def _aggregate(stats_list, horizon: int) -> dict:
    return {
        "episodes": len(stats_list),
        "completed": sum(1 for s in stats_list if s.completion_slot is not None),
        "completion_slot_mean": _mean(horizon if s.completion_slot is None
                                      else s.completion_slot for s in stats_list),
        "max_buffer_mean": _mean(s.max_buffer for s in stats_list),
        "reward_mean": _mean(float(s.rewards.mean()) for s in stats_list),
        "sensed_mean": _mean(s.sensed for s in stats_list),
        "delivered_mean": _mean(s.delivered for s in stats_list),
        "energy_mean": _mean(s.energy for s in stats_list),
        "remaining_final_mean": _mean(s.remaining_final for s in stats_list),
    }


def run_compare(cfg: RunConfig, out_dir: str, episodes: int | None = None,
                policies=FormationPolicy.KINDS, demand_scales=(1.0, 2.0, 3.0),
                eval_episodes: int | None = None) -> dict:
    """Train once under the configured policy, then sweep the frozen
    actors across formation policies and demand scales on identical
    worlds.  Writes comparison.json."""
    require_count("episodes", episodes, 0)
    require_count("eval_episodes", eval_episodes, 1)
    require_count("policies", len(policies), 1)
    require_count("demand_scales", len(demand_scales), 1)
    for kind in policies:
        if kind not in FormationPolicy.KINDS:
            raise ConfigError(f"policies: unknown formation kind {kind!r}")
    for scale in demand_scales:
        if not (math.isfinite(scale) and scale >= 0.0):
            raise ConfigError(f"demand_scales: must be finite and not negative, got {scale}")
    trainer, trained = _train(cfg, out_dir, episodes)
    n_eval = cfg.training.eval_episodes if eval_episodes is None else eval_episodes
    horizon = cfg.training.completion_cap
    rows = []
    for kind in policies:
        policy = dataclasses.replace(cfg.formation, kind=kind)
        for scale in demand_scales:
            stats = trainer.evaluate(n_eval, policy=policy, demand_scale=scale,
                                     horizon=horizon)
            rows.append({"policy": kind, "demand_scale": scale, **_aggregate(stats, horizon)})
    payload = {
        "train_episodes": trained["episodes_run"],
        "eval_horizon": horizon,
        "rows": rows,
    }
    nn.write_json(os.path.join(out_dir, "comparison.json"), payload)
    return payload


def run_oracle_checks(seed: int = 0, stream=None) -> list:
    """Run every numeric self-check, print one line per check, and return
    the CheckResult rows."""
    results = oracles.run_all(seed)
    for res in results:
        status = "ok" if res.ok else "FAIL"
        line = (f"[{status}] {res.name}: max_err={res.max_err:.3g} "
                f"tol={res.tol:.3g}")
        if res.detail:
            line += f" ({res.detail})"
        print(line, file=stream)
    return results
