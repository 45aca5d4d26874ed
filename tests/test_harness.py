"""Run drivers: CSV sinks, artifact layout, checkpoint restore, policy
comparison payloads, and the self-check printer."""

import csv
import io
import json

import numpy as np
import pytest

from flysense import harness, oracles
from flysense.config import RunConfig, parse_config
from flysense.harness import CsvSink, format_cell, load_agents_into, save_agents
from flysense.marl import Trainer, build_agents


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

    def test_load_missing_agent_raises(self, tmp_path):
        rng = np.random.default_rng(0)
        agents = build_agents(1, 6, (8,), 1e-3, 1e-3, rng)
        path = str(tmp_path / "ckpt.json")
        save_agents(path, agents)
        wider = build_agents(2, 6, (8,), 1e-3, 1e-3, rng)
        with pytest.raises(ValueError, match="agent 2"):
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

    def test_metrics_columns(self, tmp_path):
        out = str(tmp_path / "run")
        harness.run_train(tiny_cfg(), out)
        with open(f"{out}/metrics.csv", newline="") as fh:
            header = next(csv.reader(fh))
        for col in ("episode", "slot", "uav_id", "x", "y", "buffer_bits",
                    "reward_total", "b_i", "c_i", "formation_links"):
            assert col in header


class TestAtomicArtifacts:
    """config.json, checkpoint.json and summary.json go through a temp
    file renamed over the target, so a write that fails partway leaves no
    truncated artifact."""

    @staticmethod
    def fail_partway(monkeypatch, name):
        real_dump = json.dump

        def dump(obj, fh, **kw):
            if fh.name.endswith(f"{name}.tmp"):
                fh.write('{"cut": ')
                raise OSError("disk full")
            real_dump(obj, fh, **kw)

        monkeypatch.setattr(json, "dump", dump)

    @pytest.mark.parametrize("name", ["config.json", "checkpoint.json", "summary.json"])
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


class TestRunEval:
    def test_matches_training_eval(self, tmp_path):
        out = str(tmp_path / "train")
        summary = harness.run_train(tiny_cfg(), out)
        out2 = str(tmp_path / "eval")
        res = harness.run_eval(tiny_cfg(), out2, f"{out}/checkpoint.json")
        assert res["reward_mean"] == pytest.approx(summary["eval"]["reward_mean"])
        with open(f"{out2}/eval.json") as fh:
            assert json.load(fh) == res


class TestRunCompare:
    def test_payload_shape(self, tmp_path):
        out = str(tmp_path / "cmp")
        payload = harness.run_compare(tiny_cfg(), out, episodes=2,
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
        payload = harness.run_compare(tiny_cfg(), out, episodes=2,
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
