"""Acceptance gate.

One test per release criterion, each printing a single PASS/FAIL line.
Every criterion is bounded by a fixed count of checks, slots, reports or
episodes, not by wall-clock time; the elapsed time is only printed.  The
slow trainer-level criterion 4 stops early once its target is met.
"""

import dataclasses
import math
import pathlib
import time

import numpy as np
import pytest

from flysense import channel, formation, harness, marl, oracles, world
from flysense.channel import BS, ChannelParams, FormationMatrix
from flysense.config import load_config, parse_config
from flysense.formation import FormationPolicy
from flysense.marl import Trainer
from flysense.world import Scenario

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: numeric self-checks against independent references


def test_criterion_1_oracle_suite():
    t0 = time.time()
    results = oracles.run_all(seed=0)
    elapsed = time.time() - t0
    bad = [r.name for r in results if not r.ok]
    detail = (f"{len(results)} checks, worst " +
              ", ".join(f"{r.name}={r.max_err:.2e}" for r in results) +
              f", {elapsed:.1f}s")
    report("criterion 1 (oracle suite)", not bad, detail)
    assert not bad, f"failed checks: {bad}"


# ---------------------------------------------------------------------------
# criterion 2: simulator invariants over 1,000 random slots


def _random_formation(rng, n, k):
    """Rejection-sample a sub-channel allocation that passes validation."""
    while True:
        fm = FormationMatrix(n, k)
        for tx in range(1, n + 1):
            for rx in range(n + 1):
                if rx == tx:
                    continue
                for ch in range(k):
                    if rng.random() < 0.12:
                        fm.set_link(tx, rx, ch)
        if not channel.validate_alloc(fm):
            return fm


def _policy_formation(rng, w):
    kind = str(rng.choice(FormationPolicy.KINDS))
    policy = FormationPolicy(
        kind=kind,
        balance_threshold=float(rng.uniform(0.0, 2.0)),
        buffer_threshold_bits=float(rng.uniform(1e6, 1.5e7)),
        pair_range_m=float(rng.uniform(300.0, 3000.0)),
    )
    return marl.make_formation_fn(policy, lam=0.5)(w)


def test_criterion_2_simulator_invariants():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    slots = 0
    while slots < 1000:
        n_uavs = int(rng.integers(1, 5))
        n_gus = int(rng.integers(1, 7))
        scenario = Scenario(n_uavs=n_uavs, n_gus=n_gus,
                            demand_bits=float(rng.uniform(1e6, 2e7)),
                            gu_seed=int(rng.integers(1 << 30)))
        w = world.make_world(scenario, ChannelParams(), rng)
        for u in w.uavs:
            u.buffer = float(rng.uniform(0, scenario.buffer_capacity_bits))
        for _ in range(int(rng.integers(10, 30))):
            if rng.random() < 0.5:
                fm = _random_formation(rng, n_uavs, w.chan.n_channels)
            else:
                fm = _policy_formation(rng, w)
            actions = []
            for _ in w.uavs:
                ang = rng.uniform(-math.pi, math.pi)
                speed = float(rng.uniform(0, scenario.v_max_mps))
                actions.append((np.array([math.cos(ang), math.sin(ang)]), speed))
            before_buf = np.array([u.buffer for u in w.uavs])
            before_rem = np.array([g.remaining for g in w.gus])
            before_pos = [u.pos for u in w.uavs]  # immutable tuples
            w, rep = world.step(w, actions, fm)
            cap = scenario.buffer_capacity_bits
            # buffer bounds
            for u in w.uavs:
                assert -1e-9 <= u.buffer <= cap + 1e-9
            # GU demand monotone nonincreasing and nonnegative
            for g, prev in zip(w.gus, before_rem):
                assert -1e-9 <= g.remaining <= prev + 1e-9
            # conservation: buffered delta = sensed - delivered to the BS
            lhs = sum(u.buffer for u in w.uavs) - before_buf.sum()
            rhs = np.sum(rep.sensed) - np.sum(rep.delivered_bs)
            assert lhs == pytest.approx(rhs, abs=1e-6)
            # no UAV ships more than it had buffered at the slot start
            for i in range(n_uavs):
                out = rep.delivered_bs[i] + rep.relayed_out[i]
                assert out <= before_buf[i] + 1e-6
            # speed bound
            for u, prev in zip(w.uavs, before_pos):
                moved = math.hypot(u.pos.x - prev.x, u.pos.y - prev.y)
                assert moved <= scenario.v_max_mps * scenario.protocol.t_f + 1e-9
            slots += 1
            if slots == 1000:
                break
    elapsed = time.time() - t0
    report("criterion 2 (simulator invariants)", True,
           f"1000 random slots, zero violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: relay-pairing structure over 1,000 random status reports


def test_criterion_3_eda_nf_structure():
    rng = np.random.default_rng(31)
    params = ChannelParams()
    t0 = time.time()
    for trial in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        positions = np.zeros((n + 1, 3))
        positions[0] = (1000.0, 1000.0, 25.0)
        positions[1:, :2] = rng.uniform(-1000, 1000, size=(n, 2))
        positions[1:, 2] = 100.0
        buffers = rng.uniform(0, 2e7, size=n)
        node_range = channel.ranges(positions, positions).tolist()
        power = channel.link_power(node_range, params)
        rates = np.array([channel.point_rate(power, i + 1, BS, params) for i in range(n)])
        zero_rate = rng.random() < 0.1
        if zero_rate:
            rates[int(rng.integers(n))] = 0.0
        balance = formation.load_balance(buffers, rates)
        report_ = formation.CostReport(balance=balance,
                                       cost=rng.uniform(0, 1e8, size=n),
                                       spare_rate=np.full(n, np.inf))
        policy = FormationPolicy(
            balance_threshold=float(rng.choice([0.0, 0.5, 1.0, 5.0])),
            pair_range_m=float(rng.choice([500.0, 1000.0, 2000.0, 4000.0])),
            min_rate=None if rng.random() < 0.5 else float(rng.uniform(1e5, 5e6)),
        )
        fm = formation.eda_nf(report_, node_range, power, policy, k, params, [True] * (n + 1))
        # 1. the allocation is always feasible
        assert channel.validate_alloc(fm) == []
        # 2. every relay link joins an overloaded sender to an in-range,
        #    below-threshold receiver
        for tx, rx, ch in fm.links():
            if rx == BS:
                continue
            assert balance[tx - 1] > policy.balance_threshold
            assert balance[rx - 1] <= policy.balance_threshold
            d = float(np.linalg.norm(positions[tx][:2] - positions[rx][:2]))
            assert d < policy.pair_range_m
        # 3. no UAV receives relay links from two seekers
        relayed = [rx for tx, rx in {(tx, rx) for tx, rx, _ in fm.links()} if rx != BS]
        assert len(relayed) == len(set(relayed))
        # 4. drain-time imbalances cancel whenever every rate is finite
        if not zero_rate:
            assert abs(np.sum(balance)) < 1e-9
    elapsed = time.time() - t0
    report("criterion 3 (relay pairing structure)", True,
           f"1000 random reports, all structural checks hold, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: one learner against a scripted reference controller


def _fly_to_strongest_gu(w, obs):
    """Reference controller: head straight for the neediest ground user at
    full speed, hover once overhead."""
    acts = []
    for u in w.uavs:
        g = max(w.gus, key=lambda g: g.remaining)
        dx = g.pos.x - u.pos.x
        dy = g.pos.y - u.pos.y
        close = math.hypot(dx, dy) < 15.0
        acts.append([math.atan2(dy, dx) / math.pi, -1.0 if close else 1.0])
    return acts


def _mean_eval_reward(tr: Trainer, act_fn=None, episodes: int = 3) -> float:
    stats = tr.evaluate(episodes, act_fn=act_fn)
    return float(np.mean([s.rewards.sum() for s in stats]))


def test_criterion_4_single_agent_learning():
    t0 = time.time()
    base = load_config(str(CONFIGS / "single_agent.json"))
    chunk = 250
    per_seed = []
    for seed in (101, 202, 303):
        cfg = dataclasses.replace(
            base, seed=seed,
            training=dataclasses.replace(base.training, episodes=chunk,
                                         early_stop_enabled=False))
        tr = Trainer(cfg)
        target = _mean_eval_reward(tr, act_fn=_fly_to_strongest_gu)
        floor = target - 0.1 * abs(target)
        ran, achieved = 0, -math.inf
        while ran < 5000:
            tr.run()
            ran += chunk
            achieved = _mean_eval_reward(tr)
            if achieved >= floor:
                break
        per_seed.append((seed, ran, achieved, target))
    elapsed = time.time() - t0
    ok = all(a >= t - 0.1 * abs(t) for _, _, a, t in per_seed)
    detail = "; ".join(f"seed {s}: {a:.1f} vs scripted {t:.1f} in {r} eps"
                       for s, r, a, t in per_seed)
    report("criterion 4 (single-agent learning)", ok, f"{detail}, {elapsed:.0f}s")
    for s, r, a, t in per_seed:
        assert a >= t - 0.1 * abs(t), f"seed {s}: {a:.2f} below 90% of {t:.2f}"


# ---------------------------------------------------------------------------
# criterion 5: desk-scale orderings across planners, under a scripted fleet

_DEMAND_SCALES = (1.0, 2.0, 3.0)
_RELAY_PLANNERS = ("eda_nf", "dynamic_nf", "buffer_threshold")


def _planner_cells(cfg) -> dict:
    """(policy, demand scale) -> (completion slot, energy J) of evaluation
    episode 0 flown by the scripted controller for up to completion_cap
    slots; an episode that does not finish counts as the cap."""
    tr = Trainer(cfg)
    cap = cfg.training.completion_cap
    cells = {}
    for kind in FormationPolicy.KINDS:
        policy = dataclasses.replace(cfg.formation, kind=kind)
        for scale in _DEMAND_SCALES:
            stats, = tr.evaluate(1, policy=policy, demand_scale=scale, horizon=cap,
                                 act_fn=_fly_to_strongest_gu)
            done = cap if stats.completion_slot is None else stats.completion_slot
            cells[kind, scale] = (done, stats.energy)
    return cells


def test_criterion_5_planner_orderings():
    """Each relay planner against non_cooperative, with criterion 4's
    scripted controller flying the fleet so that only the planner differs:
    12 cells on desk.json as shipped and 12 on each of 10 sampled layouts
    (seeds 0-9, gu_xy and uav_xy unset).  On desk.json every relay planner
    finishes strictly sooner and spends strictly less energy at every
    demand.  On the sampled layouts it is not slower and spends no more
    energy in at least 8 of the 10 seeds at every demand; 8 was chosen
    after measuring 9 or 10 in every cell."""
    t0 = time.time()
    desk = load_config(str(CONFIGS / "desk.json"))
    sampled = dataclasses.replace(desk, scenario=dataclasses.replace(
        desk.scenario, gu_xy=None, uav_xy=None))
    fixed = _planner_cells(desk)
    layouts = [_planner_cells(dataclasses.replace(sampled, seed=seed)) for seed in range(10)]
    need = 8
    not_strict, held = [], {}
    for kind in _RELAY_PLANNERS:
        for scale in _DEMAND_SCALES:
            cell, base = (kind, scale), ("non_cooperative", scale)
            if not all(a < b for a, b in zip(fixed[cell], fixed[base])):
                not_strict.append(f"{kind} x{scale:g} {fixed[cell]} vs {fixed[base]}")
            held[cell] = sum(all(a <= b for a, b in zip(c[cell], c[base])) for c in layouts)
    weak = {cell: n for cell, n in held.items() if n < need}
    elapsed = time.time() - t0
    ok = not not_strict and not weak
    n_cells = len(_RELAY_PLANNERS) * len(_DEMAND_SCALES)
    report("criterion 5 (planner orderings)", ok,
           f"desk.json: {n_cells - len(not_strict)}/{n_cells} cells strictly sooner"
           f" and cheaper; sampled layouts: not slower and no more energy in"
           f" {min(held.values())}-{max(held.values())} of 10 seeds per cell"
           f" (need {need}), {elapsed:.1f}s")
    assert not_strict == []
    assert weak == {}


# ---------------------------------------------------------------------------
# criterion 6: byte-identical reruns


def test_criterion_6_determinism(tmp_path):
    cfg = parse_config({
        "seed": 17,
        "scenario": {"n_uavs": 2, "n_gus": 3, "demand_bits": 2e6},
        "training": {"episodes": 3, "horizon": 8, "batch_size": 8,
                     "warmup": 16, "hidden": [8, 8], "eval_episodes": 1,
                     "early_stop_enabled": False, "completion_cap": 20},
    })
    harness.run_train(cfg, str(tmp_path / "a"))
    harness.run_train(cfg, str(tmp_path / "b"))
    m1 = (tmp_path / "a" / "metrics.csv").read_bytes()
    m2 = (tmp_path / "b" / "metrics.csv").read_bytes()
    identical = m1 == m2
    other = harness.run_train(dataclasses.replace(cfg, seed=18), str(tmp_path / "c"))
    m3 = (tmp_path / "c" / "metrics.csv").read_bytes()
    differs = m1 != m3
    report("criterion 6 (determinism)", identical and differs,
           f"rerun identical={identical}, new seed differs={differs}")
    assert identical
    assert differs
