"""Run drivers: CSV sinks, artifact layout, checkpoint restore, policy
comparison payloads, and the self-check printer."""

import builtins
import csv
import dataclasses
import io
import json
import os

import numpy as np
import pytest

from flysense import harness, marl, oracles, world
from flysense.config import ConfigError, RunConfig, load_config, parse_config
from flysense.harness import CsvSink, format_cell, load_agents_into, save_agents
from flysense.marl import Trainer, build_agents

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_cfg(seed=11, **training):
    base = {
        "seed": seed,
        "scenario": {"n_uavs": 2, "n_gus": 3, "demand_bits": 2e6},
        "training": {"episodes": 3, "horizon": 6, "batch_size": 8,
                     "warmup": 16, "hidden": [8, 8], "eval_episodes": 2,
                     "early_stop_enabled": False, "completion_cap": 20},
    }
    base["training"].update(training)
    return parse_config(base)


class TestFormatCell:
    def test_floats_shortest_round_trip(self):
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(0.1)) == "0.1"
        assert format_cell(1e7) == "10000000.0"
        assert float(format_cell(1 / 3)) == 1 / 3

    def test_non_floats(self):
        assert format_cell(3) == "3"
        assert format_cell(True) == "True"
        assert format_cell("a;b") == "a;b"


class TestCsvSink:
    def test_streams_and_headers(self, tmp_path):
        out = str(tmp_path / "run")
        with CsvSink(out) as sink:
            sink.slot_row({"episode": 0, "x": 0.5})
            sink.slot_row({"episode": 0, "x": -0.25})
            sink.episode_row({"episode": 0, "reward": 1.0})
        with open(f"{out}/metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["episode", "x"], ["0", "0.5"], ["0", "-0.25"]]
        with open(f"{out}/episodes.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["episode", "reward"], ["0", "1.0"]]

    def test_key_change_raises(self, tmp_path):
        with CsvSink(str(tmp_path)) as sink:
            sink.slot_row({"a": 1})
            with pytest.raises(ValueError, match="row keys changed"):
                sink.slot_row({"b": 1})


class TestCheckpointHelpers:
    def test_save_load_agents_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        agents = build_agents(2, 6, (8,), 1e-3, 1e-3, rng)
        path = str(tmp_path / "ckpt.json")
        save_agents(path, agents)
        fresh = build_agents(2, 6, (8,), 1e-3, 1e-3, np.random.default_rng(99))
        load_agents_into(path, fresh)
        for a, b in zip(agents, fresh):
            for wa, wb in zip(a.actor.ws, b.actor.ws):
                np.testing.assert_array_equal(wa, wb)
            for wa, wb in zip(a.target_critic.ws, b.target_critic.ws):
                np.testing.assert_array_equal(wa, wb)

    def test_evaluate_runs_the_loaded_actors(self, tmp_path):
        saved = Trainer(tiny_cfg(seed=12)).agents
        path = str(tmp_path / "ckpt.json")
        save_agents(path, saved)
        trainer = Trainer(tiny_cfg())
        before = trainer.evaluate(2)
        load_agents_into(path, trainer.agents)
        got = trainer.evaluate(2)

        def saved_actors(w, obs):
            return np.array([a.actor.forward(o[None])[0][0]
                             for a, o in zip(saved, obs)]).clip(-1.0, 1.0)
        want = trainer.evaluate(2, act_fn=saved_actors)
        for g, wt, b in zip(got, want, before):
            assert np.array_equal(g.rewards, wt.rewards)
            assert (g.sensed, g.energy, g.slots) == (wt.sensed, wt.energy, wt.slots)
            assert not np.array_equal(g.rewards, b.rewards)

    def test_load_missing_agent_raises(self, tmp_path):
        rng = np.random.default_rng(0)
        agents = build_agents(1, 6, (8,), 1e-3, 1e-3, rng)
        path = str(tmp_path / "ckpt.json")
        save_agents(path, agents)
        wider = build_agents(2, 6, (8,), 1e-3, 1e-3, rng)
        with pytest.raises(ConfigError, match="network actor_2 is absent"):
            load_agents_into(path, wider)


class TestRunTrain:
    def test_artifacts_and_determinism(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        s1 = harness.run_train(tiny_cfg(), out1)
        s2 = harness.run_train(tiny_cfg(), out2)
        for name in ("config.json", "metrics.csv", "episodes.csv",
                     "checkpoint.json", "trajectory.jsonl", "summary.json"):
            with open(f"{out1}/{name}", "rb") as f1, open(f"{out2}/{name}", "rb") as f2:
                assert f1.read() == f2.read(), f"{name} differs between identical runs"
        assert s1 == s2
        assert s1["episodes_run"] == 3
        assert s1["eval"]["episodes"] == 2
        assert len(s1["eval"]["rows"]) == 2

    def test_seed_changes_output(self, tmp_path):
        s1 = harness.run_train(tiny_cfg(seed=11), str(tmp_path / "a"))
        s2 = harness.run_train(tiny_cfg(seed=12), str(tmp_path / "b"))
        assert s1["eval"]["reward_mean"] != s2["eval"]["reward_mean"]

    def test_trajectory_replayable(self, tmp_path):
        out = str(tmp_path / "run")
        harness.run_train(tiny_cfg(), out)
        with open(f"{out}/trajectory.jsonl") as fh:
            lines = [json.loads(l) for l in fh]
        header, slots = lines[0], lines[1:]
        assert header["type"] == "header"
        assert header["n_uavs"] == 2
        assert len(header["gu_xy"]) == 3
        assert slots and all(l["type"] == "slot" for l in slots)
        first = slots[0]
        assert len(first["actions"]) == 2
        assert len(first["uav_xy"]) == 2
        assert all(len(link) == 3 for link in first["formation"])
        # demand only shrinks over the rollout
        rem = [sum(l["gu_remaining"]) for l in slots]
        assert all(a >= b - 1e-9 for a, b in zip(rem, rem[1:]))

    def test_trajectory_is_episode_0_of_the_one_evaluation(self, tmp_path, monkeypatch):
        rollouts = []
        real = marl.rollout
        monkeypatch.setattr(marl, "rollout",
                            lambda *a, **k: rollouts.append(1) or real(*a, **k))
        out = str(tmp_path / "run")
        summary = harness.run_train(tiny_cfg(), out)
        assert len(rollouts) == summary["eval"]["episodes"] == 2
        with open(f"{out}/trajectory.jsonl") as fh:
            header, *slots = [json.loads(l) for l in fh]
        assert header["type"] == "header"
        first = summary["eval"]["rows"][0]
        assert [l["type"] for l in slots] == ["slot"] * first["slots"]
        assert sum(sum(l["sensed"]) for l in slots) == pytest.approx(first["sensed_bits"])

    def test_metrics_columns(self, tmp_path):
        out = str(tmp_path / "run")
        harness.run_train(tiny_cfg(), out)
        with open(f"{out}/metrics.csv", newline="") as fh:
            header = next(csv.reader(fh))
        for col in ("episode", "slot", "uav_id", "x", "y", "buffer_bits",
                    "reward_total", "b_i", "c_i", "formation_links"):
            assert col in header

    def test_metrics_log_never_feeds_back_into_training(self, tmp_path, monkeypatch):
        """Logging every episode's slots, none, or every second episode's
        leaves training alone: the same seed plans the same formations,
        replays the same transitions and saves the same networks.  The
        6 x 12 slots of configs/tiny.json gather 32 transitions, just its
        warm-up; a warm-up of one batch lets the learner update in the
        last 17 slots, so later plans and rows follow the updated actors."""
        base = load_config(os.path.join(ROOT, "configs", "tiny.json"))
        base = dataclasses.replace(base, training=dataclasses.replace(
            base.training, warmup=base.training.batch_size))
        real_step, real_add, real_update = world.step, marl.ReplayBuffer.add, marl.update_agent

        def step(w, actions, fm):
            plans.append(fm.key())
            return real_step(w, actions, fm)

        def add(self, *row):
            replayed.append(b"".join(np.asarray(v, dtype=float).tobytes() for v in row))
            return real_add(self, *row)

        def update(*args):
            updates.append(1)
            return real_update(*args)

        monkeypatch.setattr(world, "step", step)
        monkeypatch.setattr(marl.ReplayBuffer, "add", add)
        monkeypatch.setattr(marl, "update_agent", update)
        runs, logged = [], []
        for stride in (1, 0, 2):
            plans, replayed, updates = [], [], []
            cfg = dataclasses.replace(base, training=dataclasses.replace(
                base.training, metrics_episode_stride=stride))
            out = tmp_path / str(stride)
            harness.run_train(cfg, str(out))
            runs.append((plans, replayed, len(updates), (out / "checkpoint.json").read_bytes()))
            metrics = out / "metrics.csv"
            rows = csv.DictReader(metrics.read_text().splitlines()) if metrics.exists() else []
            logged.append(sorted({int(row["episode"]) for row in rows}))
        assert logged == [[0, 1, 2, 3, 4, 5], [], [0, 2, 4]]
        assert len(runs[0][1]) == 32 and runs[0][2] == 2 * 17
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestAtomicArtifacts:
    """Every run artifact goes through a temp file renamed over the
    target, so a write that fails partway leaves no truncated artifact."""

    class FailingFile:
        """Passes the first write through; the second writes half its
        text and raises, like a disk that fills up mid-file."""

        def __init__(self, fh):
            self._fh = fh
            self._writes = 0

        def write(self, text):
            self._writes += 1
            if self._writes > 1:
                self._fh.write(text[:len(text) // 2])
                raise OSError("disk full")
            return self._fh.write(text)

        def __getattr__(self, attr):
            return getattr(self._fh, attr)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._fh.__exit__(*exc)

    @classmethod
    def fail_partway(cls, monkeypatch, name):
        real_open = builtins.open

        def fake_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            return cls.FailingFile(fh) if str(file).endswith(f"{name}.tmp") else fh

        monkeypatch.setattr(builtins, "open", fake_open)

    @pytest.mark.parametrize("name", ["config.json", "checkpoint.json", "summary.json",
                                      "metrics.csv", "episodes.csv", "trajectory.jsonl"])
    def test_failed_write_keeps_earlier_file_and_leaves_no_partial(self, tmp_path,
                                                                   monkeypatch, name):
        out = tmp_path / "run"
        harness.run_train(tiny_cfg(), str(out))
        before = (out / name).read_bytes()
        files = sorted(p.name for p in out.iterdir())
        fresh = tmp_path / "fresh"
        self.fail_partway(monkeypatch, name)
        for out_dir in (out, fresh):
            with pytest.raises(OSError, match="disk full"):
                harness.run_train(tiny_cfg(), str(out_dir))
        assert (out / name).read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == files
        assert not (fresh / name).exists()
        assert not any(p.name.endswith(".tmp") for p in fresh.iterdir())


class TestCountOverrides:
    @pytest.mark.parametrize("run", [
        lambda out: harness.run_train(tiny_cfg(), out, episodes=0),
        lambda out: harness.run_compare(tiny_cfg(), out, episodes=1, eval_episodes=0),
        lambda out: harness.run_compare(tiny_cfg(), out, episodes=-1),
        lambda out: harness.run_eval(tiny_cfg(), out, "checkpoint.json", episodes=0),
    ], ids=["train-0", "compare-eval-0", "compare-negative", "eval-0"])
    def test_rejected_before_anything_is_written(self, tmp_path, run):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="must be at least"):
            run(str(out))
        assert not out.exists()

    @pytest.mark.parametrize("kwargs,match", [
        ({"policies": ("eda_nf", "bogus")}, "policies: unknown formation kind 'bogus'"),
        ({"demand_scales": (float("nan"), -1.0)}, "demand_scales: .*, got nan"),
        ({"demand_scales": (1.0, -1.0)}, "demand_scales: .*, got -1.0"),
        ({"demand_scales": (float("inf"),)}, "demand_scales: .*, got inf"),
        ({"policies": ()}, "policies: must be at least 1, got 0"),
        ({"demand_scales": ()}, "demand_scales: must be at least 1, got 0"),
    ], ids=["unknown-policy", "nan-scale", "negative-scale", "infinite-scale",
            "no-policy", "no-scale"])
    def test_bad_compare_argument_rejected_before_anything_is_written(self, tmp_path,
                                                                      kwargs, match):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match=match):
            harness.run_compare(tiny_cfg(), str(out), episodes=1, **kwargs)
        assert not out.exists()

    def test_compare_budget_below_the_warm_up_rejected(self, tmp_path):
        """1 episode x 6 slots cannot gather the warm-up of 16."""
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="training.warmup: 16 is more than 1 episodes"):
            harness.run_compare(tiny_cfg(), str(out), episodes=1)
        assert not out.exists()

    def test_compare_without_training_stays_valid(self, tmp_path):
        payload = harness.run_compare(tiny_cfg(), str(tmp_path / "cmp"), episodes=0,
                                      policies=("eda_nf",), demand_scales=(1.0,),
                                      eval_episodes=1)
        assert payload["train_episodes"] == 0
        assert payload["rows"][0]["episodes"] == 1


class TestRunEval:
    def test_matches_training_eval(self, tmp_path):
        """eval.json of a run_train checkpoint is, past the checkpoint's
        name, summary.json's eval exactly: the same rollouts of the same
        actors, summarized by the same block."""
        out = str(tmp_path / "train")
        harness.run_train(tiny_cfg(), out)
        out2 = str(tmp_path / "eval")
        res = harness.run_eval(tiny_cfg(), out2, f"{out}/checkpoint.json")
        with open(f"{out}/summary.json") as fh:
            summary = json.load(fh)
        with open(f"{out2}/eval.json") as fh:
            saved = json.load(fh)
        assert saved == res
        assert saved.pop("checkpoint") == "checkpoint.json"
        assert saved == summary["eval"]


class TestRunCompare:
    def test_payload_shape(self, tmp_path):
        out = str(tmp_path / "cmp")
        payload = harness.run_compare(tiny_cfg(), out, episodes=3,
                                      policies=("eda_nf", "non_cooperative"),
                                      demand_scales=(1.0, 2.0), eval_episodes=2)
        assert payload["eval_horizon"] == 20
        rows = payload["rows"]
        assert len(rows) == 4
        assert {r["policy"] for r in rows} == {"eda_nf", "non_cooperative"}
        for row in rows:
            assert row["episodes"] == 2
            assert 0 <= row["completed"] <= 2
            assert row["completion_slot_mean"] <= 20
            assert row["remaining_final_mean"] >= 0
        with open(f"{out}/comparison.json") as fh:
            saved = json.load(fh)
        assert saved == payload

    def test_same_worlds_across_policies(self, tmp_path):
        # sensed totals at scale 1 differ only through formation effects on
        # motion; energy of slot 1 is identical because starts are shared.
        out = str(tmp_path / "cmp")
        payload = harness.run_compare(tiny_cfg(), out, episodes=3,
                                      policies=("non_cooperative", "buffer_threshold"),
                                      demand_scales=(1.0,), eval_episodes=1)
        rows = payload["rows"]
        assert rows[0]["demand_scale"] == rows[1]["demand_scale"] == 1.0


class TestOracleRunner:
    def test_prints_one_line_per_check(self, monkeypatch):
        fake = [
            oracles.CheckResult("alpha", 1e-9, 1e-6, True, "n=3"),
            oracles.CheckResult("beta", 2.0, 1e-6, False, ""),
        ]
        monkeypatch.setattr(oracles, "run_all", lambda seed: fake)
        buf = io.StringIO()
        results = harness.run_oracle_checks(0, stream=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[ok] alpha:")
        assert "n=3" in lines[0]
        assert lines[1].startswith("[FAIL] beta:")
        assert results == fake
