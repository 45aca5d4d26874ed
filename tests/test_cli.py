"""Command-line surface: argument routing, artifact writing, exit codes."""

import dataclasses
import json
import math
import pathlib
import random
import types
import typing
from collections import Counter

import pytest

from flysense import cli, harness, oracles
from flysense.config import RunConfig

TINY = pathlib.Path(__file__).resolve().parents[1] / "configs" / "tiny.json"


def write_tiny_config(tmp_path, seed=11):
    cfg = {
        "seed": seed,
        "scenario": {"n_uavs": 2, "n_gus": 3, "demand_bits": 2e6},
        "training": {"episodes": 2, "horizon": 6, "batch_size": 8,
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
    assert "trained 2 episodes" in capsys.readouterr().out
    assert (tmp_path / "run" / "checkpoint.json").exists()

    out2 = str(tmp_path / "eval")
    code = cli.main(["eval", "--config", cfg, "--out", out2,
                     "--checkpoint", f"{out}/checkpoint.json"])
    assert code == 0
    assert "evaluated 1 episodes" in capsys.readouterr().out
    assert (tmp_path / "eval" / "eval.json").exists()


def test_seed_and_episode_overrides(tmp_path):
    cfg = write_tiny_config(tmp_path, seed=11)
    out = str(tmp_path / "run")
    cli.main(["train", "--config", cfg, "--seed", "13", "--episodes", "1",
              "--out", out])
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert saved["seed"] == 13
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["episodes_run"] == 1


def test_compare_prints_rows(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = str(tmp_path / "cmp")
    code = cli.main(["compare", "--config", cfg, "--out", out,
                     "--episodes", "1", "--eval-episodes", "1"])
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
    ({"update_stride": 0}, "training.update_stride"),
    ({"bo_stride": 0}, "training.bo_stride"),
    ({"batch_size": 0, "warmup": 16}, "training.batch_size"),
    ({"replay_capacity": 4}, "training.replay_capacity"),      # below batch 8 and warm-up 16
    ({"replay_capacity": 12}, "training.replay_capacity"),     # holds a batch, not the warm-up
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
])
def test_evaluation_count_below_one_exit_1_before_running(tmp_path, capsys, argv, flag):
    cfg = write_tiny_config(tmp_path)
    code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_checkpoint_exit_3(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    code = cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(tmp_path / "nope.json")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_oracle_check_exit_codes(monkeypatch, capsys):
    good = [oracles.CheckResult("a", 0.0, 1.0, True)]
    monkeypatch.setattr(oracles, "run_all", lambda seed: good)
    assert cli.main(["oracle-check"]) == 0
    bad = [oracles.CheckResult("a", 2.0, 1.0, False)]
    monkeypatch.setattr(oracles, "run_all", lambda seed: bad)
    assert cli.main(["oracle-check", "--seed", "3"]) == 2
    capsys.readouterr()


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
    return out


def _numeric_fields() -> list:
    """(key, ..., key) path and boundary values of every numeric config
    field, tuple of integers and dBm alias, read from the config schema:
    the type hints and the bounds in the field metadata."""
    fields = []

    def walk(cls, path):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            if isinstance(hint, types.UnionType):  # X | None
                hint = typing.get_args(hint)[0]
            if dataclasses.is_dataclass(hint):
                walk(hint, path + (f.name,))
                continue
            widths = typing.get_args(hint) == (int, ...)
            kind = int if widths else hint
            if kind not in (int, float):
                continue
            values = tuple(dict.fromkeys(_BOUNDARY_VALUES[kind]
                                         + _bound_values(kind, f.metadata)))
            fields.append((path + (f.name,), [[v] for v in values] if widths else values))
            if "alias_dbm" in f.metadata:
                fields.append((path + (f.metadata["alias_dbm"],), _BOUNDARY_VALUES[float]))

    walk(RunConfig, ())
    return fields


def test_fuzzed_configs_run_or_exit_1_before_writing(tmp_path, capsys):
    """Seeded fuzz over configs/tiny.json: each case sets one or two numeric
    fields to a boundary value, both sides of its declared bound among
    them.  A config must either be rejected with exit 1 before anything
    is written, or run (exit 0); it must never crash mid-run (exit 3)."""
    rng = random.Random(20261018)
    fields = _numeric_fields()
    base = json.loads(TINY.read_text())
    codes = Counter()
    bad = []
    for case in range(400):
        cfg = json.loads(json.dumps(base))
        overrides = {}
        for path, values in rng.sample(fields, rng.choice((1, 2))):
            value = rng.choice(values)
            section = cfg
            for key in path[:-1]:
                section = section.setdefault(key, {})
            section[path[-1]] = value
            overrides[".".join(path)] = value
        cfg_path = tmp_path / f"case{case}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{case}"
        code = cli.main(["train", "--config", str(cfg_path), "--episodes", "1",
                         "--out", str(out)])
        codes[code] += 1
        if code not in (0, 1) or (code == 1 and out.exists()):
            bad.append((overrides, code, capsys.readouterr().err.strip()))
        capsys.readouterr()
    assert bad == []
    assert codes[0] > 0 and codes[1] > 0  # the cases both run and get rejected
