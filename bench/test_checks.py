"""The output checks pass on real artifacts and flag planted corruption.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Runs the tiny config (a fraction of a second), not the benchmark
workloads.
"""
from __future__ import annotations

import csv
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from flysense import harness  # noqa: E402
from flysense.config import load_config  # noqa: E402

import checks  # noqa: E402

TINY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "configs", "tiny.json")
EPISODES = 3
POLICIES = ("eda_nf", "non_cooperative")
SCALES = (1.0, 2.0)


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("train"))
    harness.run_train(load_config(TINY), out, episodes=EPISODES)
    return out


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sweep"))
    harness.run_compare(load_config(TINY), out, episodes=0, policies=POLICIES,
                        demand_scales=SCALES, eval_episodes=1)
    return out


def _copy(src: str, dst) -> str:
    dst = str(dst)
    for name in os.listdir(src):
        with open(os.path.join(src, name), "rb") as a, open(os.path.join(dst, name), "wb") as b:
            b.write(a.read())
    return dst


def _rewrite_csv(path: str, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_clean_artifacts_pass(train_dir, sweep_dir):
    assert checks.check_train(train_dir, EPISODES) == (EPISODES, 0, [])
    assert checks.check_sweep(sweep_dir, POLICIES, SCALES) == (len(POLICIES) * len(SCALES), 0, [])


def test_lost_bits_fail_one_episode(train_dir, tmp_path):
    out = _copy(train_dir, tmp_path)

    def lose_bits(rows):
        rows[1]["delivered_bits"] = repr(float(rows[1]["delivered_bits"]) - 1000.0)
    _rewrite_csv(os.path.join(out, "episodes.csv"), lose_bits)
    attempted, failed, problems = checks.check_train(out, EPISODES)
    assert (attempted, failed) == (EPISODES, 1)
    assert problems[0].startswith("episode 1:")


def test_truncated_artifact_fails_every_episode(train_dir, tmp_path):
    out = _copy(train_dir, tmp_path)
    path = os.path.join(out, "summary.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    assert checks.check_train(out, EPISODES)[:2] == (EPISODES, EPISODES)


def test_short_run_fails_every_episode(train_dir, tmp_path):
    out = _copy(train_dir, tmp_path)
    _rewrite_csv(os.path.join(out, "episodes.csv"), lambda rows: rows.pop())
    assert checks.check_train(out, EPISODES)[:2] == (EPISODES, EPISODES)


def test_sweep_cell_with_lost_bits_fails(sweep_dir, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    path = os.path.join(out, "comparison.json")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["rows"][2]["delivered_mean"] -= 1000.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    attempted, failed, problems = checks.check_sweep(out, POLICIES, SCALES)
    assert (attempted, failed) == (len(POLICIES) * len(SCALES), 1)
    assert problems[0].startswith("cell non_cooperative x1:")


def test_fingerprints_follow_bytes(train_dir, tmp_path):
    out = _copy(train_dir, tmp_path)
    before = checks.fingerprints(out)
    assert set(before) == {"metrics.csv", "episodes.csv", "trajectory.jsonl",
                           "checkpoint.json", "summary.json"}
    with open(os.path.join(out, "metrics.csv"), "a", encoding="utf-8") as fh:
        fh.write("\n")
    after = checks.fingerprints(out)
    assert [k for k in before if before[k] != after[k]] == ["metrics.csv"]
