"""The same-bytes promise in tier-1: the benchmark's desk_sweep,
desk_train and solo_train workloads at seed 0 write artifacts whose
sha256 equal the pins in bench/fingerprints.json.

The workloads run as the benchmark worker runs them (bench/workloads.py
for the calls, bench/checks.py for the hashes, one BLAS thread) in a
subprocess, so the thread pins hold from the first numpy import.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")

_RUN = """
import dataclasses, json, os, sys
sys.path[:0] = [{src!r}, {bench!r}]
from workloads import THREAD_VARS, WORKLOADS
for var in THREAD_VARS:
    os.environ[var] = "1"
import checks
from flysense import config, harness

found = {{}}
for name in ("desk_sweep", "desk_train", "solo_train"):
    wl = WORKLOADS[name]
    out = os.path.join({out!r}, name)
    cfg = dataclasses.replace(config.load_config(os.path.join({root!r}, wl["config"])), seed=0)
    if wl["kind"] == "train":
        harness.run_train(cfg, out, episodes=wl["episodes"])
    else:
        harness.run_compare(cfg, out, episodes=wl["episodes"], policies=wl["policies"],
                            demand_scales=wl["scales"], eval_episodes=1)
    found[name] = checks.fingerprints(out)
print(json.dumps(found))
"""


def test_seed_0_artifacts_match_the_benchmark_pins(tmp_path):
    script = _RUN.format(src=os.path.join(ROOT, "src"), bench=BENCH, root=ROOT,
                         out=str(tmp_path))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    with open(os.path.join(BENCH, "fingerprints.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    for name, got in found.items():
        assert got == pins[name]["0"], name
