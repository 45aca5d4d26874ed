"""Command-line surface: argument routing, artifact writing, exit codes."""

import dataclasses
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import types
import typing
from collections import Counter

import pytest

from flysense import cli, harness, marl, oracles
from flysense.config import RunConfig, _schema, config_to_dict, load_config, parse_config
from flysense.marl import Trainer

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
TINY = CONFIGS / "tiny.json"


def write_tiny_config(tmp_path, seed=11):
    cfg = {
        "seed": seed,
        "scenario": {"n_uavs": 2, "n_gus": 3, "demand_bits": 2e6},
        "training": {"episodes": 3, "horizon": 6, "batch_size": 8,
                     "warmup": 16, "hidden": [8, 8], "eval_episodes": 1,
                     "early_stop_enabled": False, "completion_cap": 15},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_then_eval(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "trained 3 episodes" in captured.out
    assert captured.err == ""  # its 17 transitions pass the warm-up of 16
    assert (tmp_path / "run" / "checkpoint.json").exists()

    out2 = str(tmp_path / "eval")
    code = cli.main(["eval", "--config", cfg, "--out", out2,
                     "--checkpoint", f"{out}/checkpoint.json"])
    assert code == 0
    assert "evaluated 1 episodes" in capsys.readouterr().out
    assert (tmp_path / "eval" / "eval.json").exists()


def test_train_that_made_no_update_says_so(tmp_path, capsys):
    """configs/tiny.json's episodes end early: 5 of them have 60 slots,
    past the pre-run rule's warm-up of 32, but gather 27 transitions, so
    no learner update runs.  The run still succeeds, and says so in one
    line naming the setting."""
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(TINY), "--episodes", "5",
                     "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "27 transitions" in err[0] and "training.warmup 32" in err[0]
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == ["early_stopped", "episodes_run", "eval", "final_smoothed"]


def test_seed_and_episode_overrides(tmp_path):
    cfg = write_tiny_config(tmp_path, seed=11)
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", cfg, "--seed", "13", "--episodes", "4",
                     "--out", out]) == 0
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert saved["seed"] == 13
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["episodes_run"] == 4


def test_compare_prints_rows(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = str(tmp_path / "cmp")
    code = cli.main(["compare", "--config", cfg, "--out", out,
                     "--episodes", "3", "--eval-episodes", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # 4 policies x 3 demand scales
    assert len(lines) == 12
    assert any("non_cooperative" in l for l in lines)
    assert (tmp_path / "cmp" / "comparison.json").exists()


def test_bad_config_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": {"bogus": 1}}')
    code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("override,path", [
    # Not settings, so unknown keys: the GP proposes and the learner
    # updates in every slot.
    ({"update_stride": 1}, "training.update_stride"),
    ({"bo_stride": 1}, "training.bo_stride"),
    ({"batch_size": 0, "warmup": 16}, "training.batch_size"),
    ({"replay_capacity": 4}, "training.replay_capacity"),      # below batch 8 and warm-up 16
    ({"replay_capacity": 12}, "training.replay_capacity"),     # holds a batch, not the warm-up
    # Each of these trained to exit 0 without learning what it should.
    ({"actor_lr": 0.0}, "training.actor_lr: must be positive"),
    ({"actor_lr": -0.01}, "training.actor_lr: must be positive"),
    ({"critic_lr": -1.0}, "training.critic_lr: must be positive"),
    ({"tau": 0.0}, "training.tau: must be positive"),              # targets never move
    ({"tau": 2.0}, "training.tau: must be at most 1.0"),
    ({"discount": 1.0}, "training.discount: must be below 1.0"),
    ({"discount": 1.5}, "training.discount: must be below 1.0"),
    ({"epsilon": 2.0}, "training.epsilon: must be at most 1.0"),
    ({"noise_scale": -0.1}, "training.noise_scale: must not be negative"),
    ({"early_stop_patience": -1}, "training.early_stop_patience: must not be negative"),
    ({"early_stop_min_episodes": -3}, "training.early_stop_min_episodes: must not be negative"),
    ({"early_stop_rel_tol": -0.5}, "training.early_stop_rel_tol: must not be negative"),
    ({"critic_lr": 1e300}, "training.critic_lr: must be at most 1.0"),  # trained to NaN
    ({"actor_lr": 1.5}, "training.actor_lr: must be at most 1.0"),
    # 3 episodes x 6 slots gather 18 transitions at most: no update could run
    ({"warmup": 100, "replay_capacity": 1000}, "training.warmup: 100 is more than 3 episodes"),
])
def test_learner_config_that_cannot_run_or_learn_exit_1(tmp_path, capsys, override, path):
    cfg_path = write_tiny_config(tmp_path)
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["training"].update(override)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_trainer_built_before_anything_is_written(tmp_path, capsys, monkeypatch):
    """A learner that cannot be built (a replay buffer too large for
    memory, say) exits 3 and leaves nothing under --out."""
    def no_memory(cfg):
        raise MemoryError("Unable to allocate the replay buffer")
    monkeypatch.setattr(harness, "Trainer", no_memory)
    out = tmp_path / "o"
    code = cli.main(["train", "--config", write_tiny_config(tmp_path), "--out", str(out)])
    assert code == 3
    assert "MemoryError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,override,path", [
    ("training", {"warmup": 4}, "training.warmup"),                  # below batch 8
    ("training", {"eval_episodes": 0}, "training.eval_episodes"),
    ("scenario", {"uav_xy": [[0.0, 0.0]]}, "scenario.uav_xy"),       # 2 UAVs
    ("scenario", {"gu_xy": [[0.1, 0.1], [0.2, 0.2]]}, "scenario.gu_xy"),  # 3 GUs
    ("scenario", {"n_gus": 0}, "scenario.n_gus"),
    ("channel", {"n_channels": 0}, "channel.n_channels"),
    ("scenario", {"demand_bits": -1.0}, "scenario.demand_bits"),
    ("training", {"hidden": []}, "training.hidden"),
    ("scenario", {"v_max_mps": 0.0}, "scenario.v_max_mps"),
    ("scenario", {"half_width_km": 0.0}, "scenario.half_width_km"),
    # the radius derives from coverage_snr_min_db alone
    ("scenario", {"protocol": {"coverage_radius": 50.0}}, "scenario.protocol.coverage_radius"),
    ("scenario", {"n_uavs": 0}, "scenario.n_uavs"),                        # IndexError
    ("scenario", {"buffer_capacity_bits": 0.0}, "scenario.buffer_capacity_bits"),  # 1/0
    ("training", {"hidden": [0]}, "training.hidden"),                      # OverflowError
    ("gp", {"window": 0}, "gp.window"),                                    # ValueError
    ("training", {"horizon": 0}, "training.horizon"),                      # zero-slot episodes
    ("channel", {"bandwidth": 0.0}, "channel.bandwidth"),                  # no bit ever moves
    ("gp", {"length_scale": 0.0}, "gp.length_scale"),                      # NaN posteriors
    ("channel", {"noise_dbm": 1e300}, "channel.noise_dbm"),                # OverflowError
    ("channel", {"p_uav_dbm": 1e300}, "channel.p_uav_dbm"),
    ("channel", {"q_gu_dbm": 1e300}, "channel.q_gu_dbm"),
    ("channel", {"noise_dbm": float("inf")}, "channel.noise_dbm"),         # infinite watts
    ("scenario", {"demand_bits": 10 ** 400}, "scenario.demand_bits"),      # OverflowError
    ("gp", {"signal_var": 5e-324}, "gp.signal_var"),                       # jitter underflows
    ("gp", {"signal_var": 1e-320}, "gp.signal_var"),
    ("training", {"episodes": 0}, "training.episodes"),                    # trains nothing
    ("training", {"episodes": -1}, "training.episodes"),
    ("training", {"completion_cap": 0}, "training.completion_cap"),        # zero-slot cells
    ("training", {"metrics_episode_stride": -1}, "training.metrics_episode_stride"),
    ("scenario", {"protocol": {"slot_len": 1.0}}, "scenario.protocol.slot_len"),  # unknown
    ("scenario", {"protocol": {"t_f": 0.5}}, "scenario.protocol"),         # sums to 1.2 s
    ("scenario", {"n_uavs": 1, "uav_xy": [[3.0, 0.0]]}, "scenario.uav_xy[0][0]"),  # off the field
    # JSON's NaN and Infinity parse; each ran to a NaN reward, NaN metrics
    # or a checkpoint that is not valid JSON
    ("training", {"tau": math.nan}, "training.tau: must be finite, got nan"),
    ("training", {"actor_lr": math.nan}, "training.actor_lr: must be finite, got nan"),
    ("training", {"discount": math.inf}, "training.discount: must be finite, got inf"),
    ("training", {"lam": math.nan}, "training.lam: must be finite, got nan"),
    # a station or a user off the field: ranges overflow, or no UAV can reach it
    ("scenario", {"bs_xy": [1e300, 1.0]}, "scenario.bs_xy[0]: must be at most 1.0"),
    ("scenario", {"gu_xy": [[0.1, 0.1], [1e300, 0.2], [0.3, 0.3]]},
     "scenario.gu_xy[1][0]: must be at most 1.0"),
    ("scenario", {"gu_xy": [[0.1, 0.1], [0.2, 0.2], [0.3, 2.0]]},
     "scenario.gu_xy[2][1]: must be at most 1.0"),
    # one slot's reward so large that the critic's loss overflows
    ("scenario", {"energy": {"c1": 1e300}}, "scenario.energy"),
    ("scenario", {"energy": {"c2": 1e300}}, "scenario.energy"),
    ("scenario", {"energy": {"hover_w": 1e300}}, "scenario.energy"),
    ("scenario", {"energy": {"v_floor": 1e-300}}, "scenario.energy"),
    ("training", {"weights": {"gamma_energy": 1e300}}, "training.weights.gamma_energy"),
    ("training", {"weights": {"gamma_data": 1e300}}, "training.weights.gamma_data"),
    ("training", {"weights": {"gamma_sense": 1e300}}, "training.weights.gamma_sense"),
    # a coverage radius below the altitude: no UAV ever senses a ground user
    ("scenario", {"coverage_snr_min_db": 40},                              # 53.3 m
     "scenario.coverage_snr_min_db: 40.0 dB leaves no positive, finite coverage radius "
     "of at least uav_alt_m (100.0 m)"),
    ("scenario", {"uav_alt_m": 6000},                                      # 5,332 m
     "scenario.coverage_snr_min_db: 0.0 dB leaves no positive, finite coverage radius "
     "of at least uav_alt_m (6000.0 m)"),
    # a negative power lets a slot burn more than the most observe scales by,
    # and with none at all observe divided by zero in the first slot
    ("scenario", {"energy": {"c2": -2250.0}}, "scenario.energy.c2: must not be negative"),
    ("scenario", {"energy": {"c1": 0, "c2": 0, "hover_w": 0}},
     "scenario.energy: c1, c2 and hover_w burn no energy in a slot at any speed"),
    # a UAV below the ground: a user straight under it read a signal of 0.463
    ("scenario", {"uav_alt_m": -100}, "scenario.uav_alt_m: must not be negative"),
])
def test_config_that_would_crash_or_change_the_world_exit_1(tmp_path, capsys, section,
                                                             override, path):
    cfg_path = write_tiny_config(tmp_path)
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg.setdefault(section, {}).update(override)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_with_no_sensing_signal_exit_1(tmp_path, capsys):
    """At alpha_s 20 the coverage radius is 105 m, above the 100 m
    altitude, but even a user straight below a UAV has log2(1 + SNR) 0:
    the run wrote config.json, then observe divided by zero (exit 3)."""
    cfg_path = write_tiny_config(tmp_path)
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg.setdefault("channel", {})["alpha_s"] = 20
    cfg["scenario"]["coverage_snr_min_db"] = -330
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert ("channel.alpha_s: 20.0 with q_gu, beta_s and scenario.uav_alt_m leaves no sensing "
            "signal" in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config_seed,argv", [(-1, []), (11, ["--seed", "-1"])])
def test_negative_seed_exit_1_before_running(tmp_path, capsys, config_seed, argv):
    cfg = write_tiny_config(tmp_path, seed=config_seed)
    code = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")] + argv)
    assert code == 1
    assert "seed: must not be negative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--episodes", "0", "--checkpoint", "checkpoint.json"], "--episodes"),
    (["compare", "--episodes", "0", "--eval-episodes", "0"], "--eval-episodes"),
    (["train", "--episodes", "0"], "--episodes"),
    (["train", "--episodes", "-1"], "--episodes"),
    (["compare", "--episodes", "-2"], "--episodes"),  # compare --episodes 0 stays valid
])
def test_evaluation_count_below_one_exit_1_before_running(tmp_path, capsys, argv, flag):
    cfg = write_tiny_config(tmp_path)
    code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _untrained_checkpoint(path, config):
    """checkpoint.json of a Trainer built from config, before any training."""
    harness.save_agents(str(path), Trainer(load_config(str(config))).agents)
    return str(path)


def _edit_actor_1(text, edit):
    payload = json.loads(text)
    edit(payload["nets"]["actor_1"])
    return json.dumps(payload)


# Each case maps the text of a good checkpoint to a broken one (None: no file).
_BROKEN_CHECKPOINTS = {
    "missing": None,
    "invalid-json": lambda text: text[:-1],
    "version-2": lambda text: text.replace('{"version": 1', '{"version": 2', 1),
    "no-nets": lambda text: '{"version": 1}',
    # three layers, one w and b entry: the rest would be uninitialised memory
    "one-w-and-b-entry": lambda text: _edit_actor_1(
        text, lambda net: net.update(w=net["w"][:1], b=net["b"][:1])),
    # a scalar would be broadcast over the whole weight matrix
    "scalar-w": lambda text: _edit_actor_1(text, lambda net: net["w"].__setitem__(0, 0.5)),
    # an activation the nets do not have would run as identity
    "relu-out-act": lambda text: _edit_actor_1(text, lambda net: net.update(out_act="relu")),
    # one dim and no layers would return its input
    "one-dim": lambda text: _edit_actor_1(
        text, lambda net: net.update(dims=net["dims"][:1], w=[], b=[])),
}


@pytest.mark.parametrize("case", list(_BROKEN_CHECKPOINTS))
def test_unreadable_checkpoint_exit_1_before_writing(tmp_path, capsys, case):
    cfg = write_tiny_config(tmp_path)
    ckpt = tmp_path / "ckpt.json"
    if _BROKEN_CHECKPOINTS[case] is not None:
        _untrained_checkpoint(ckpt, cfg)
        ckpt.write_text(_BROKEN_CHECKPOINTS[case](ckpt.read_text()))
    out = tmp_path / "o"
    code = cli.main(["eval", "--config", cfg, "--out", str(out), "--episodes", "1",
                     "--checkpoint", str(ckpt)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: checkpoint {ckpt}: cannot load (")
    assert not out.exists()


@pytest.mark.parametrize("saved, evaluated, hidden", [
    ("desk", "tiny", None),    # 3 UAVs, 64x64 nets into 2 UAVs, 16x16 nets
    ("tiny", "desk", None),
    ("tiny", "tiny", [8, 8]),  # same fleet, narrower hidden layers
])
def test_eval_with_a_checkpoint_that_does_not_fit_exit_1_before_writing(
        tmp_path, capsys, saved, evaluated, hidden):
    ckpt = _untrained_checkpoint(tmp_path / "ckpt.json", CONFIGS / f"{saved}.json")
    cfg = json.loads((CONFIGS / f"{evaluated}.json").read_text())
    if hidden is not None:
        cfg["training"]["hidden"] = hidden
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code = cli.main(["eval", "--config", str(cfg_path), "--out", str(out),
                     "--episodes", "1", "--checkpoint", ckpt])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "network actor_1 is [" in err
    assert not out.exists()


def test_oracle_check_exit_codes(monkeypatch, capsys):
    good = [oracles.CheckResult("a", 0.0, 1.0, True)]
    monkeypatch.setattr(oracles, "run_all", lambda seed: good)
    assert cli.main(["oracle-check"]) == 0
    bad = [oracles.CheckResult("a", 2.0, 1.0, False)]
    monkeypatch.setattr(oracles, "run_all", lambda seed: bad)
    assert cli.main(["oracle-check", "--seed", "3"]) == 2
    capsys.readouterr()

    def crash(seed):
        raise RuntimeError("check crashed")
    monkeypatch.setattr(oracles, "run_all", crash)
    assert cli.main(["oracle-check"]) == 3
    assert capsys.readouterr().err.startswith("error: RuntimeError: check crashed")


def test_oracle_check_negative_seed_exit_1_before_running(monkeypatch, capsys):
    monkeypatch.setattr(oracles, "run_all", lambda seed: pytest.fail("checks ran"))
    assert cli.main(["oracle-check", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("config error: --seed: must be at least 0")


# Integer sizes and counts get no very large value: a huge horizon or
# network is a valid request for a long or large run, not a bad config.
_BOUNDARY_VALUES = {int: (0, -1, 1), float: (0.0, -1.0, 1.0, 1e-300, 1e300)}


def _bound_values(kind, meta) -> tuple:
    """Both sides of a field's declared bound: the last value it accepts
    and the first it rejects."""
    def step(v, up: bool):
        if kind is int:
            return v + 1 if up else v - 1
        return math.nextafter(v, math.inf if up else -math.inf)

    out = ()
    if "min" in meta:
        out += (meta["min"], step(meta["min"], up=False))
    if "gt" in meta:
        out += (step(meta["gt"], up=True), meta["gt"])
    if "max" in meta:
        out += (meta["max"], step(meta["max"], up=True))
    if "lt" in meta:
        out += (step(meta["lt"], up=False), meta["lt"])
    return out


def _leaves(cls=RunConfig, path=()):
    """(key, ..., key) path, type hint (X for X | None) and metadata of
    every settable value of the config schema: the fields of the nested
    config dataclasses that are not themselves dataclasses."""
    for name, (hint, meta) in _schema(cls).items():
        if isinstance(hint, types.UnionType):  # X | None
            hint = typing.get_args(hint)[0]
        if dataclasses.is_dataclass(hint):
            yield from _leaves(hint, path + (name,))
        else:
            yield path + (name,), hint, meta


def test_readme_states_the_number_of_settable_values():
    readme = (CONFIGS.parent / "README.md").read_text()
    stated = re.search(r"`RunConfig` has (\d+) settable values", readme)
    assert stated is not None
    assert int(stated.group(1)) == len(list(_leaves()))


def _edge_layout(rng, n: int, values: tuple, meta: dict) -> list:
    """n (x, y) pairs drawn uniformly inside the layout's bounds, then one
    coordinate set to one of the given boundary values, which lie on,
    inside or outside the bounds: 4 of the 7 float values keep the layout
    in bounds."""
    layout = [[rng.uniform(meta["min"], meta["max"]) for _ in range(2)] for _ in range(n)]
    layout[rng.randrange(n)][rng.randrange(2)] = rng.choice(values)
    return layout


def _numeric_fields(base: dict) -> list:
    """(key, ..., key) path and draw(rng) -> boundary value of every
    numeric config field, tuple of integers, layout and dBm alias, read
    from the config schema: the type hints and the bounds in the field
    metadata.  A layout is drawn whole by _edge_layout: bs_xy is one pair,
    uav_xy and gu_xy hold as many pairs as the base config has UAVs and
    ground users."""
    counts = {"uav_xy": "n_uavs", "gu_xy": "n_gus"}
    scenario = parse_config(base).scenario

    def values(kind, meta):
        return tuple(dict.fromkeys(_BOUNDARY_VALUES[kind] + _bound_values(kind, meta)))

    fields = []
    for path, hint, meta in _leaves():
        args = typing.get_args(hint)
        if hint in (int, float):
            v = values(hint, meta)
            draw = lambda rng, v=v: rng.choice(v)
        elif args == (int, ...):  # layer widths
            v = values(int, meta)
            draw = lambda rng, v=v: [rng.choice(v)]
        elif args == (float, float):  # bs_xy
            v = values(float, meta)
            draw = lambda rng, v=v, meta=meta: _edge_layout(rng, 1, v, meta)[0]
        elif args == (tuple[float, float], ...):  # uav_xy, gu_xy
            v, n = values(float, meta), getattr(scenario, counts[path[-1]])
            draw = lambda rng, v=v, n=n, meta=meta: _edge_layout(rng, n, v, meta)
        else:
            continue
        fields.append((path, draw))
        if "alias_dbm" in meta:
            fields.append((path[:-1] + (meta["alias_dbm"],),
                           lambda rng: rng.choice(_BOUNDARY_VALUES[float])))
    return fields


def test_fuzzed_configs_run_or_exit_1_before_writing(tmp_path, capsys, monkeypatch):
    """Seeded fuzz over configs/tiny.json: each case sets one or two numeric
    fields or layouts to boundary values, both sides of the declared bound
    among them.  A config must either be rejected with exit 1 before
    anything is written, or run (exit 0); it must never crash mid-run
    (exit 3).  A run either makes a learner update or says on stderr that
    it made none, never both and never neither."""
    real_update, updates = marl.update_agent, []
    monkeypatch.setattr(marl, "update_agent",
                        lambda *a, **kw: updates.append(1) or real_update(*a, **kw))
    rng = random.Random(20261018)
    base = json.loads(TINY.read_text())
    fields = _numeric_fields(base)
    codes, learning_runs = Counter(), 0
    bad = []
    for case in range(400):
        cfg = json.loads(json.dumps(base))
        overrides = {}
        for path, draw in rng.sample(fields, rng.choice((1, 2))):
            value = draw(rng)
            section = cfg
            for key in path[:-1]:
                section = section.setdefault(key, {})
            section[path[-1]] = value
            overrides[".".join(path)] = value
        cfg_path = tmp_path / f"case{case}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{case}"
        updates.clear()
        code = cli.main(["train", "--config", str(cfg_path), "--episodes", "3",
                         "--out", str(out)])
        err = capsys.readouterr().err.strip()
        codes[code] += 1
        learning_runs += code == 0 and bool(updates)
        misreported = code == 0 and bool(updates) == ("notice: no learner update ran" in err)
        if code not in (0, 1) or (code == 1 and out.exists()) or misreported:
            bad.append((overrides, code, len(updates), err))
    assert bad == []
    assert codes[0] > 0 and codes[1] > 0  # the cases both run and get rejected
    assert 0 < learning_runs < codes[0]  # the runs both learn and say they did not


def _walk_values(kind, meta) -> tuple:
    """Edge values for one number: each declared bound with its neighbours
    on both sides, plus a few plain values."""
    out = (0.0, 1.0, -1.0, 1e-300, 1e300, 0.5, 2.0) if kind is float else (2, 16)
    for key in ("min", "gt", "max", "lt"):
        if key in meta:
            b = meta[key]
            out += ((b - 1, b, b + 1) if kind is int
                    else (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)))
    return tuple(dict.fromkeys(out))


def _entries(hint, value, at=()):
    """(index path, type hint) of every scalar in a value of the given type
    hint: the value itself, or each entry of a tuple, nested ones included."""
    if typing.get_origin(hint) is not tuple:
        yield at, hint
        return
    args = typing.get_args(hint)
    for k, item in enumerate(value or ()):
        yield from _entries(args[0] if args[-1] is Ellipsis else args[k], item, at + (k,))


def _walk_cases(base: dict) -> list:
    """(dotted path, config) for every number of the schema, tuple entries
    and layout coordinates included, set to each of its edge values in the
    fully spelled-out base config.  A layout that is None in the base has
    no entry to set."""
    cases = []
    for path, hint, meta in _leaves():
        value = base
        for key in path:
            value = value[key]
        for entry, kind in _entries(hint, value):
            if kind not in (int, float):
                continue
            for v in _walk_values(kind, meta):
                cfg = json.loads(json.dumps(base))
                section = cfg
                for key in (path + entry)[:-1]:
                    section = section[key]
                section[(path + entry)[-1]] = v
                cases.append((".".join(map(str, path + entry)) + f"={v!r}", cfg))
    return cases


# Runs under -W error, so that an overflow or invalid value anywhere in a
# run, even one whose result is discarded, fails its case with exit 3.
_WALK = """
import contextlib, io, json, sys
from flysense import cli
results = []
with open(sys.argv[1]) as fh:
    jobs = json.load(fh)
for cfg, out in jobs:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["train", "--config", cfg, "--out", out])
    results.append((code, err.getvalue().strip()))
print(json.dumps(results))
"""
_NOT_FINITE = re.compile(r"\b(?:nan|inf|NaN|Infinity)\b")


def test_schema_walk_past_the_warm_up_runs_finite_or_exits_1(tmp_path):
    """Every number of the schema at each of its edge values, on tiny with
    a warm-up of one batch and explicit layouts, so that their entries are
    walked too.  The layout's episodes last 6 slots, so the learner updates
    in the third.  A case either runs (exit 0) with no warning and no NaN
    or infinity in any artifact, or is rejected with exit 1 before
    anything is written."""
    raw = json.loads(TINY.read_text())
    raw["training"].update(episodes=3, warmup=16, batch_size=16)
    raw["scenario"].update(uav_xy=[[-0.9, -0.8], [-0.7, -0.9]],
                           gu_xy=[[-0.8, -0.6], [-0.6, -0.9], [-0.9, -0.3], [-0.4, -0.7]])
    cases = _walk_cases(config_to_dict(parse_config(raw)))
    jobs = []
    for k, (_, cfg) in enumerate(cases):
        (tmp_path / f"case{k}.json").write_text(json.dumps(cfg))
        jobs.append((str(tmp_path / f"case{k}.json"), str(tmp_path / f"out{k}")))
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    src = str(CONFIGS.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-W", "error", "-c", _WALK,
                           str(tmp_path / "jobs.json")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    bad = []
    for (name, _), (_, out), (code, err) in zip(cases, jobs, results):
        out = pathlib.Path(out)
        if code not in (0, 1) or (code == 1 and out.exists()):
            bad.append((name, code, err))
        elif code == 0 and any(_NOT_FINITE.search(f.read_text()) for f in out.iterdir()):
            bad.append((name, "not finite", err))
    assert bad == []
    assert {code for code, _ in results} == {0, 1}  # the cases both run and get rejected


def test_replay_capacity_beyond_memory_trains_to_the_default_bytes(tmp_path):
    """The replay's arrays grow with what is written, so a capacity far
    beyond memory trains tiny exactly as the default capacity does."""
    raw = json.loads(TINY.read_text())
    outs = []
    for capacity in (RunConfig().training.replay_capacity, 10 ** 9):
        raw["training"]["replay_capacity"] = capacity
        path = tmp_path / f"cap{capacity}.json"
        path.write_text(json.dumps(raw))
        outs.append(tmp_path / f"out{capacity}")
        assert cli.main(["train", "--config", str(path), "--out", str(outs[-1])]) == 0
    for name in ("metrics.csv", "episodes.csv", "checkpoint.json", "summary.json",
                 "trajectory.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
