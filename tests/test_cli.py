"""Command-line surface: argument routing, artifact writing, exit codes."""

import json

import pytest

from flysense import cli, harness, oracles


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
    cfg = json.loads(open(cfg_path).read())
    cfg["training"].update(override)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert path in capsys.readouterr().err
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
