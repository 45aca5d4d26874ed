"""Multi-agent training stack: observations, action codecs, rewards,
arbitration, replay, and the actor-critic updates."""

import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from flysense import channel, formation, gp, marl, nn, world
from flysense.channel import ChannelParams, FormationMatrix
from flysense.config import RunConfig, load_config
from flysense.formation import FormationPolicy
from flysense.marl import (
    ACT_DIM,
    Batch,
    ReplayBuffer,
    RewardWeights,
    Trainer,
    TrainingConfig,
    arbitrate,
    bo_to_action,
    act,
    build_agents,
    build_cost_report,
    critic_q,
    decode_action,
    expected_transmitters,
    observation_dim,
    observe,
    reward,
    td_targets,
    update_agent,
)
from flysense.world import Position, Scenario, StepReport


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_world(n_uavs=2, n_gus=3, seed=0, uav_xy=None, gu_xy=None, **scenario_kw):
    scenario = Scenario(n_uavs=n_uavs, n_gus=n_gus, gu_seed=seed,
                        uav_xy=uav_xy, gu_xy=gu_xy, **scenario_kw)
    params = ChannelParams()
    w = world.make_world(scenario, params, np.random.default_rng(seed))
    return w


def zero_report(n):
    z = np.zeros(n)
    return StepReport(
        sensed=z.copy(), delivered_bs=z.copy(), relayed_out=z.copy(),
        energy=z.copy(), violations_per_uav=np.zeros(n, dtype=int),
    )


class TestObserve:
    def test_dim_formula(self):
        assert observation_dim(1) == 10
        assert observation_dim(3) == 12

    def test_vector_matches_components(self):
        # UAV parked on a GU: bearing zeros out, signal ratio caps at 1.
        w = tiny_world(n_uavs=2, n_gus=2, uav_xy=[(0.5, 0.5), (-0.5, -0.5)],
                       gu_xy=[(0.5, 0.5), (-0.2, 0.3)])
        w.uavs[0].buffer = 5e6
        w.last_energy[:] = [100.0, 1e9]
        w.formation = FormationMatrix(2, 3)
        w.formation.set_link(1, 0, 0)
        fleet = observe(w)
        assert fleet.shape == (2, observation_dim(2))
        obs = fleet[0]
        assert obs[0] == pytest.approx(0.5)
        assert obs[1] == pytest.approx(0.5)
        assert obs[2] == pytest.approx(5e6 / 2e7)
        e_norm = world.propulsion_energy(0.0, w.scenario.protocol, w.scenario.energy)
        assert obs[3] == pytest.approx(100.0 / e_norm)
        # link row: only the BS column set
        np.testing.assert_array_equal(obs[4:7], [1.0, 0.0, 0.0])
        # directly overhead -> slant range equals altitude -> ratio 1, capped
        assert obs[7] == pytest.approx(1.0)
        assert obs[8] == 0.0 and obs[9] == 0.0
        assert obs[10] == pytest.approx(1.0)  # untouched demand
        # the saturated-energy agent clamp
        assert fleet[1, 3] == 1.0

    def test_all_bounded(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            w = tiny_world(n_uavs=3, n_gus=4, seed=int(rng.integers(1 << 30)))
            for u in w.uavs:
                u.buffer = float(rng.uniform(0, 2e7))
            w.last_energy[:] = rng.uniform(0, 2000, 3)
            obs = observe(w)
            assert np.all(obs >= -1.0 - 1e-12) and np.all(obs <= 1.0 + 1e-12)

    def test_no_gu_in_range_zero_fills(self):
        # shrink coverage to 50 m so the lone GU is out of reach
        p = ChannelParams()
        w = tiny_world(n_uavs=1, n_gus=1, uav_xy=[(0.0, 0.0)], gu_xy=[(0.9, 0.9)],
                       coverage_snr_min_db=10.0 * math.log10(p.q_gu * p.beta_s / 50.0 ** 2))
        obs = observe(w)[0]
        np.testing.assert_array_equal(obs[6:], np.zeros(4))


def _reference_observe(w, i):
    """observe as first written: one UAV at a time, its target ranked by
    select_gu on the spot."""
    u = w.uavs[i]
    n = w.n_uavs
    hw = w.scenario.half_width_m
    obs = np.zeros(observation_dim(n))
    obs[0] = u.pos.x / hw
    obs[1] = u.pos.y / hw
    obs[2] = u.buffer / w.scenario.buffer_capacity_bits
    obs[3] = min(w.last_energy[i] / w.max_slot_energy, 1.0)
    obs[4:4 + n + 1] = [w.formation.has_link(i + 1, rx) for rx in range(n + 1)]
    base = 4 + n + 1
    gid = world.select_gu(w, i)
    if gid is not None:
        g = w.gus[gid]
        snr = w.sensing_snr[i][gid]
        overhead = max(u.pos.z, 1.0)
        snr_max = w.chan.q_gu * w.chan.beta_s * overhead ** -w.chan.alpha_s
        obs[base] = min(math.log2(1.0 + snr) / math.log2(1.0 + snr_max), 1.0)
        dx, dy = g.pos.x - u.pos.x, g.pos.y - u.pos.y
        norm = math.hypot(dx, dy)
        if norm > 0.0:
            obs[base + 1] = dx / norm
            obs[base + 2] = dy / norm
        obs[base + 3] = g.remaining / g.demand
    return obs


def _stepped_worlds(seed, episodes=15, slots=10):
    """Random small worlds, yielded after make_world and after every step
    under random actions and random direct formations.  Coverage radii are
    narrow (about 170 to 900 m), ground user 0 sits at UAV 1's coverage
    edge and user 1 just beyond it, and demand is small enough that users
    drain, so UAVs both with and without a target occur."""
    rng = np.random.default_rng(seed)
    params = ChannelParams()
    for _ in range(episodes):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        scen = Scenario(n_uavs=n, n_gus=m, coverage_snr_min_db=float(rng.uniform(15.0, 30.0)),
                        demand_bits=float(rng.uniform(1e5, 3e6)), gu_seed=0)
        edge = math.sqrt(world.coverage_radius_m(scen, params) ** 2 - scen.uav_alt_m ** 2)
        uav_xy = rng.uniform(-0.4, 0.4, (n, 2))
        gu_xy = rng.uniform(-1.0, 1.0, (m, 2))
        hw = scen.half_width_m
        gu_xy[0] = uav_xy[0] + (edge / hw, 0.0)
        gu_xy[1] = uav_xy[0] - (edge * (1.0 + 1e-9) / hw, 0.0)
        scen = dataclasses.replace(scen, uav_xy=uav_xy.tolist(), gu_xy=gu_xy.tolist())
        w = world.make_world(scen, params, np.random.default_rng(int(rng.integers(1 << 30))))
        yield w
        for _ in range(slots):
            decoded = [decode_action(a, scen.v_max_mps) for a in rng.uniform(-1, 1, (n, 2))]
            fm = formation.baseline_noncoop(n, params.n_channels)
            if rng.random() < 0.5:
                fm.rows[int(rng.integers(1, n + 1))][0] = [0] * params.n_channels
            w, _ = world.step(w, decoded, fm)
            yield w


def test_fleet_observe_equals_per_uav_reference_bitwise():
    with_target = without_target = 0
    for w in _stepped_worlds(seed=21):
        fleet = observe(w)
        assert fleet.shape == (w.n_uavs, observation_dim(w.n_uavs))
        for i in range(w.n_uavs):
            assert np.array_equal(fleet[i], _reference_observe(w, i))
            if w.targets[i] is None:
                without_target += 1
            else:
                with_target += 1
    assert with_target > 0 and without_target > 0


def test_stored_targets_are_select_gu_after_make_world_and_each_step():
    for w in _stepped_worlds(seed=22):
        assert w.targets == [world.select_gu(w, i) for i in range(w.n_uavs)]


def test_expected_transmitters_equal_the_coverage_rule():
    """A UAV is expected to send when it holds data or covers a user with
    data left; the stored target stands for the second half."""
    for w in _stepped_worlds(seed=23):
        want = [False] + [u.buffer > 0.0 or any(snr > world.OUT_OF_COVERAGE and g.remaining > 0.0
                                                for g, snr in zip(w.gus, w.sensing_snr[i]))
                          for i, u in enumerate(w.uavs)]
        assert expected_transmitters(w) == want


def test_dynamic_nf_formation_computes_only_the_costs(monkeypatch):
    """Under dynamic_nf the formation function builds no drain-time
    balance and asks for no point rate: the planner reads only the per-UAV
    costs.  Its links are those the planner makes from a full cost
    report's costs."""
    policy = FormationPolicy(kind="dynamic_nf")
    fn = marl.make_formation_fn(policy, lam=0.5)
    calls = Counter()
    for module, name in ((formation, "load_balance"), (channel, "point_rate")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k:
                            calls.update([name]) or real(*a, **k))
    rng = np.random.default_rng(25)
    relayed = 0
    for w in _stepped_worlds(seed=24):
        for u in w.uavs:
            u.buffer = float(rng.uniform(0.0, w.scenario.buffer_capacity_bits))
        links = fn(w).links()
        assert not calls
        costs = build_cost_report(w, lam=0.5).cost
        assert calls["point_rate"] == w.n_uavs
        calls.clear()
        want = formation.baseline_dynamic_nf(costs, w.node_range, w.link_power, policy,
                                             w.chan.n_channels, expected_transmitters(w))
        assert links == want.links()
        relayed += any(rx != channel.BS for _, rx, _ in links)
    assert relayed > 0


def test_observe_and_cost_report_rank_no_users(monkeypatch):
    w = tiny_world(n_uavs=3, n_gus=5, seed=4)
    calls = []
    real = world.select_gu
    monkeypatch.setattr(world, "select_gu", lambda *a, **k: calls.append(a) or real(*a, **k))
    observe(w)
    build_cost_report(w, lam=0.5)
    expected_transmitters(w)
    assert calls == []


def _config_agents(name, seed=3):
    cfg = load_config(os.path.join(ROOT, "configs", f"{name}.json"))
    n = cfg.scenario.n_uavs
    obs_dim = observation_dim(n)
    return n, obs_dim, build_agents(n, obs_dim, cfg.training.hidden, 1e-3, 1e-4,
                                    np.random.default_rng(seed))


@pytest.mark.parametrize("name", ["desk", "single_agent", "tiny"])
def test_fleet_act_equals_per_agent_forward_and_clamp_bitwise(name):
    n, obs_dim, agents = _config_agents(name)
    actors = nn.MlpStack(a.actor for a in agents)
    rng = np.random.default_rng(5)
    for trial in range(300):
        obs = rng.uniform(-1.0, 1.0, (n, obs_dim))
        for scale in (0.0, 0.1, 3.0):  # 3.0 pushes most actions past the box
            got = act(actors, obs, scale, np.random.default_rng(trial))
            noise_rng = np.random.default_rng(trial)
            want = []
            for i, agent in enumerate(agents):
                raw = agent.actor.forward(obs[i:i + 1])[0][0]
                if scale > 0.0:
                    raw = raw + scale * noise_rng.standard_normal(ACT_DIM)
                want.append([min(max(a, -1.0), 1.0) for a in raw.tolist()])
            assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("name", ["desk", "single_agent", "tiny"])
def test_critic_q_equals_single_vector_forwards_bitwise(name):
    n, obs_dim, agents = _config_agents(name)
    rng = np.random.default_rng(6)
    for trial in range(300):
        i = trial % n
        obs = rng.uniform(-1.0, 1.0, (n, obs_dim))
        trials = np.stack([rng.uniform(-1.0, 1.0, (n, ACT_DIM))] * 2)
        trials[1, i] = rng.uniform(-1.0, 1.0, ACT_DIM)
        critic = agents[i].critic
        want = [float(critic.forward(np.concatenate([obs.ravel(), t.ravel()])[None])[0][0, 0])
                for t in trials]
        assert critic_q(critic, obs, trials) == want


class TestActionCodec:
    def test_zero_raw(self):
        heading, speed = decode_action([0.0, 0.0], 20.0)
        np.testing.assert_allclose(heading, [1.0, 0.0])
        assert speed == pytest.approx(10.0)

    def test_extremes(self):
        heading, speed = decode_action([1.0, 1.0], 20.0)
        np.testing.assert_allclose(heading, [-1.0, 0.0], atol=1e-12)
        assert speed == pytest.approx(20.0)
        _, stopped = decode_action([0.3, -1.0], 20.0)
        assert stopped == 0.0

    def test_clips_out_of_box(self):
        h1, s1 = decode_action([5.0, 5.0], 20.0)
        h2, s2 = decode_action([1.0, 1.0], 20.0)
        np.testing.assert_allclose(h1, h2)
        assert s1 == s2

    def test_bo_round_trip(self):
        # decode(bo_to_action(p, q)) must move the UAV from p to q exactly
        rng = np.random.default_rng(3)
        for _ in range(50):
            cur = Position(*rng.uniform(-500, 500, 2), 100.0)
            ang = rng.uniform(-math.pi, math.pi)
            dist = rng.uniform(0.0, 6.0)  # reachable: 20 m/s * 0.3 s
            target = np.array([cur.x + dist * math.cos(ang),
                               cur.y + dist * math.sin(ang)])
            raw = bo_to_action(cur, target, 20.0, 0.3)
            heading, speed = decode_action(raw, 20.0)
            landed = np.array([cur.x, cur.y]) + np.array(heading) * speed * 0.3
            np.testing.assert_allclose(landed, target, atol=1e-9)

    def test_bo_caps_speed(self):
        cur = Position(0.0, 0.0, 100.0)
        raw = bo_to_action(cur, np.array([1000.0, 0.0]), 20.0, 0.3)
        _, speed = decode_action(raw, 20.0)
        assert speed == pytest.approx(20.0)

    def test_bo_stay_put(self):
        cur = Position(4.0, -2.0, 100.0)
        raw = bo_to_action(cur, np.array([4.0, -2.0]), 20.0, 0.3)
        assert raw[0] == 0.0
        _, speed = decode_action(raw, 20.0)
        assert speed == 0.0


class TestReward:
    def test_parts_frozen(self):
        rep = zero_report(2)
        rep.energy[:] = [500.0, 0.0]
        rep.delivered_bs[:] = [2e6, 0.0]
        rep.relayed_out[:] = [1e6, 0.0]
        rep.sensed[:] = [3e6, 0.0]
        rep.violations_per_uav[:] = [1, 0]
        totals, parts = reward(rep, RewardWeights())
        assert parts.energy[0] == pytest.approx(-0.5)
        assert parts.data[0] == pytest.approx(3.0)
        assert parts.sense[0] == pytest.approx(3.0)
        assert parts.penalty[0] == pytest.approx(10.0)
        assert totals[0] == pytest.approx(-0.5 + 3.0 + 3.0 - 10.0)
        # the idle agent earns exactly zero
        assert totals[1] == 0.0

    def test_weights_scale_terms(self):
        rep = zero_report(1)
        rep.sensed[0] = 2e6
        wts = RewardWeights(gamma_sense=0.25)
        totals, _ = reward(rep, wts)
        assert totals[0] == pytest.approx(0.5)

    def test_arrays_equal_the_scalar_formula_bitwise(self):
        rng = np.random.default_rng(8)
        wts = RewardWeights(gamma_energy=0.7, gamma_data=1.3, gamma_sense=0.4, mu=7.5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            rep = zero_report(n)
            rep.energy[:] = rng.uniform(0, 3000, n)
            rep.delivered_bs[:] = rng.uniform(0, 1e7, n)
            rep.relayed_out[:] = rng.uniform(0, 1e7, n)
            rep.sensed[:] = rng.uniform(0, 1e7, n)
            rep.violations_per_uav[:] = rng.integers(0, 3, n)
            totals, parts = reward(rep, wts)
            for i in range(n):
                energy = -rep.energy[i] / marl.ENERGY_UNIT
                data = (rep.delivered_bs[i] + rep.relayed_out[i]) / marl.DATA_UNIT
                sense = rep.sensed[i] / marl.DATA_UNIT
                penalty = wts.mu * float(rep.violations_per_uav[i])
                total = (wts.gamma_energy * energy + wts.gamma_data * data
                         + wts.gamma_sense * sense - penalty)
                assert (parts.energy[i], parts.data[i], parts.sense[i],
                        parts.penalty[i], totals[i]) == (energy, data, sense, penalty, total)


class TestArbitrate:
    def test_critic_picks_higher_q(self):
        a, src = arbitrate([0.1, 0.2], lambda: ([0.9, -0.9], 1.0, 2.0))
        assert src == "bo"
        np.testing.assert_allclose(a, [0.9, -0.9])
        a, src = arbitrate([0.1, 0.2], lambda: ([0.9, -0.9], 2.0, 1.0))
        assert src == "actor"
        np.testing.assert_allclose(a, [0.1, 0.2])

    def test_tie_goes_to_actor(self):
        _, src = arbitrate([0.0, 0.0], lambda: ([1.0, 1.0], 3.0, 3.0))
        assert src == "actor"

    def test_epsilon_override(self):
        rng = np.random.default_rng(0)

        def never():
            raise AssertionError("an overridden decision proposes nothing")

        a, src = arbitrate([0.0, 0.0], never, epsilon=1.0, rng=rng)
        assert src == "random"
        assert np.all(np.abs(a) <= 1.0)
        # epsilon 0 never overrides even with an rng supplied
        _, src = arbitrate([0.0, 0.0], lambda: ([1.0, 1.0], 0.0, 100.0),
                           epsilon=0.0, rng=rng)
        assert src == "bo"


def test_gp_proposes_once_per_compared_decision(monkeypatch):
    """The epsilon override is drawn first: propose_point and critic_q run
    once for each decision that compares the two actions, and never for a
    decision the override settles."""
    proposals, scored, sources = [], [], Counter()
    real_propose, real_critic_q = gp.propose_point, marl.critic_q
    real_arbitrate = marl.arbitrate
    monkeypatch.setattr(gp, "propose_point",
                        lambda *a, **k: proposals.append(1) or real_propose(*a, **k))
    monkeypatch.setattr(marl, "critic_q", lambda *a, **k: scored.append(1) or real_critic_q(*a, **k))

    def counted(*args, **kwargs):
        action, src = real_arbitrate(*args, **kwargs)
        sources[src] += 1
        return action, src

    monkeypatch.setattr(marl, "arbitrate", counted)
    Trainer(tiny_run_config(epsilon=0.4)).run()
    compared = sources["bo"] + sources["actor"]
    assert sources["random"] > 0 and compared > 0
    assert len(proposals) == len(scored) == compared


class TestReplayBuffer:
    def make(self, capacity=5, n=2, obs_dim=4, seed=0):
        return ReplayBuffer(capacity, n, obs_dim, np.random.default_rng(seed))

    def fill(self, buf, count, n=2, obs_dim=4):
        for t in range(count):
            buf.add(np.full((n, obs_dim), t), np.full((n, ACT_DIM), t),
                    np.full(n, t), np.full((n, obs_dim), t + 0.5), t % 2 == 0)

    def test_ring_overwrite(self):
        buf = self.make(capacity=5)
        self.fill(buf, 8)
        assert len(buf) == 5
        batch = buf.sample(5)
        # oldest three transitions (t=0,1,2) were overwritten
        seen = sorted(batch.rews[:, 0])
        assert seen == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_sample_without_replacement(self):
        buf = self.make(capacity=10)
        self.fill(buf, 10)
        batch = buf.sample(10)
        assert sorted(batch.rews[:, 0]) == [float(t) for t in range(10)]

    def test_sample_too_large_raises(self):
        buf = self.make()
        self.fill(buf, 3)
        with pytest.raises(ValueError):
            buf.sample(4)

    def test_sample_after_wrap_equals_fancy_index_gather_bitwise(self):
        buf = self.make(capacity=6, n=3, obs_dim=5, seed=7)
        rng = np.random.default_rng(8)
        for t in range(11):  # wraps: rows 0..4 hold transitions 6..10
            buf.add(rng.standard_normal((3, 5)), rng.uniform(-1, 1, (3, ACT_DIM)),
                    rng.standard_normal(3), rng.standard_normal((3, 5)), t % 3 == 0)
        twin = np.random.default_rng(7)  # replays the rows sample draws
        for _ in range(3):
            batch = buf.sample(4)
            idx = twin.choice(len(buf), size=4, replace=False)
            got = (batch.obs, batch.acts, batch.rews, batch.obs2, batch.done)
            for g, stored in zip(got, buf._arrays, strict=True):
                want = stored[idx]
                assert (g.dtype, g.shape) == (want.dtype, want.shape)
                assert g.tobytes() == want.tobytes()

    def test_stored_fields_align(self):
        buf = self.make(capacity=4)
        obs = np.arange(8).reshape(2, 4).astype(float)
        acts = np.array([[0.1, 0.2], [0.3, 0.4]])
        rews = np.array([1.0, -1.0])
        obs2 = obs + 100
        buf.add(obs, acts, rews, obs2, True)
        b = buf.sample(1)
        np.testing.assert_array_equal(b.obs[0], obs)
        np.testing.assert_array_equal(b.acts[0], acts)
        np.testing.assert_array_equal(b.rews[0], rews)
        np.testing.assert_array_equal(b.obs2[0], obs2)
        assert b.done[0] == 1.0


def random_batch(rng, b, n, obs_dim):
    return Batch(
        obs=rng.standard_normal((b, n, obs_dim)),
        acts=rng.uniform(-1, 1, (b, n, ACT_DIM)),
        rews=rng.standard_normal((b, n)),
        obs2=rng.standard_normal((b, n, obs_dim)),
        done=(rng.random(b) < 0.2).astype(float),
    )


def _hand_td_targets(agents, i, batch, discount):
    """Agent i's TD target of each transition, one row at a time, from
    the target nets as they are now."""
    n = batch.obs2.shape[1]
    out = []
    for k in range(len(batch.obs2)):
        next_acts = [agents[j].target_actor.forward(batch.obs2[k, j][None])[0]
                     for j in range(n)]
        x2 = np.concatenate([batch.obs2[k].ravel()[None], *next_acts], axis=1)
        q2 = agents[i].target_critic.forward(x2)[0][0, 0]
        out.append(batch.rews[k, i] + discount * (1.0 - batch.done[k]) * q2)
    return out


class TestAgentUpdates:
    def test_build_agents_shapes(self):
        agents = build_agents(3, 12, (16, 8), 1e-3, 1e-4,
                              np.random.default_rng(0))
        assert len(agents) == 3
        actor = agents[0].actor
        critic = agents[0].critic
        assert actor.ws[0].shape == (12, 16)
        assert actor.ws[-1].shape == (8, ACT_DIM)
        assert critic.ws[0].shape == (3 * (12 + ACT_DIM), 16)
        assert critic.ws[-1].shape == (8, 1)
        # targets start as exact copies but are separate objects
        assert agents[0].target_actor is not actor
        np.testing.assert_array_equal(agents[0].target_actor.ws[0], actor.ws[0])

    def test_td_targets_match_hand_loop(self):
        rng = np.random.default_rng(1)
        n, obs_dim, b = 2, 5, 7
        agents = build_agents(n, obs_dim, (8,), 1e-3, 1e-3, rng)
        batch = random_batch(rng, b, n, obs_dim)
        got = td_targets(agents, 0, batch, 0.9)
        assert list(got) == pytest.approx(_hand_td_targets(agents, 0, batch, 0.9))

    def test_td_targets_of_a_new_batch_read_the_moved_target_actors(self):
        """A round on one batch leaves target actions of that batch in its
        cache; a second batch of the same shape starts with its own."""
        rng = np.random.default_rng(6)
        n, obs_dim, b = 3, 5, 7
        agents = build_agents(n, obs_dim, (8,), 1e-2, 1e-2, rng)
        first = random_batch(rng, b, n, obs_dim)
        for i in range(n):
            update_agent(i, agents, first, 0.9, 0.5)
        second = random_batch(rng, b, n, obs_dim)
        got = td_targets(agents, 0, second, 0.9)
        assert list(got) == pytest.approx(_hand_td_targets(agents, 0, second, 0.9))

    def test_terminal_targets_drop_bootstrap(self):
        rng = np.random.default_rng(2)
        agents = build_agents(1, 4, (8,), 1e-3, 1e-3, rng)
        batch = random_batch(rng, 4, 1, 4)
        batch.done[:] = 1.0
        got = td_targets(agents, 0, batch, 0.99)
        np.testing.assert_allclose(got, batch.rews[:, 0])

    def test_critic_loss_decreases(self):
        rng = np.random.default_rng(3)
        n, obs_dim = 2, 5
        agents = build_agents(n, obs_dim, (16,), 1e-3, 1e-2, rng)
        batch = random_batch(rng, 32, n, obs_dim)
        losses = [update_agent(0, agents, batch, 0.9, 0.0)[0]
                  for _ in range(60)]
        assert losses[-1] < losses[0]

    def test_actor_climbs_critic(self):
        rng = np.random.default_rng(4)
        n, obs_dim = 2, 5
        agents = build_agents(n, obs_dim, (16,), 1e-2, 0.0, rng)
        batch = random_batch(rng, 32, n, obs_dim)
        qs = [update_agent(0, agents, batch, 0.9, 0.0)[1]
              for _ in range(40)]
        # frozen critic (lr 0): mean Q under the actor must rise
        assert qs[-1] > qs[0]

    def test_polyak_moves_targets(self):
        rng = np.random.default_rng(5)
        agents = build_agents(1, 4, (8,), 1e-2, 1e-2, rng)
        before = agents[0].target_critic.ws[0].copy()
        batch = random_batch(rng, 8, 1, 4)
        update_agent(0, agents, batch, 0.9, 0.5)
        after = agents[0].target_critic.ws[0]
        expected = 0.5 * before + 0.5 * agents[0].critic.ws[0]
        np.testing.assert_allclose(after, expected)


class TestCostReport:
    def test_balance_drains_from_buffers_and_rates(self):
        w = tiny_world(n_uavs=2, n_gus=2, uav_xy=[(0.0, 0.0), (0.5, 0.5)])
        w.uavs[0].buffer = 1e6
        w.uavs[1].buffer = 1e6
        rep = build_cost_report(w, lam=0.5)
        rates = [channel.point_rate(w.link_power, i + 1, 0, w.chan) for i in range(2)]
        drains = [1e6 / rates[0], 1e6 / rates[1]]
        assert rep.balance[0] == pytest.approx(drains[0] - drains[1])
        assert np.sum(rep.balance) == pytest.approx(0.0)

    def test_single_uav_zero_balance(self):
        w = tiny_world(n_uavs=1, n_gus=1)
        rep = build_cost_report(w, lam=0.5)
        assert rep.balance == [0.0]

    def test_cost_counts_covered_backlog(self):
        w = tiny_world(n_uavs=1, n_gus=2, uav_xy=[(0.0, 0.0)],
                       gu_xy=[(0.01, 0.0), (0.02, 0.02)])
        w.last_energy[0] = 200.0
        w.uavs[0].buffer = 1e6
        rep = build_cost_report(w, lam=0.5)
        backlog = sum(g.remaining for g in w.gus)
        want = 200.0 + 0.5 * 1e6 + backlog
        assert rep.cost[0] == pytest.approx(want)


def _reference_update(i, agents, batch, discount, tau):
    """update_agent as first written: every target actor re-run for every
    agent (N^2 forwards per batch) and full backward passes whose unused
    halves are thrown away."""
    agent = agents[i]
    b, n, obs_dim = batch.obs.shape
    x = np.concatenate([batch.obs.reshape(b, -1), batch.acts.reshape(b, -1)], axis=1)
    q, cache = agent.critic.forward(x)
    next_acts = [agents[j].target_actor.forward(batch.obs2[:, j])[0] for j in range(n)]
    x2 = np.concatenate([batch.obs2.reshape(b, -1), *next_acts], axis=1)
    q2, _ = agent.target_critic.forward(x2)
    y = batch.rews[:, i] + discount * (1.0 - batch.done) * q2[:, 0]
    diff = q[:, 0] - y
    critic_loss = float(np.mean(diff ** 2))
    grad, _ = agent.critic.backward(cache, (2.0 * diff / b)[:, None])
    agent.critic_opt.step(grad)
    a_i, actor_cache = agent.actor.forward(batch.obs[:, i])
    acts = batch.acts.copy()
    acts[:, i, :] = a_i
    x_pi = np.concatenate([batch.obs.reshape(b, -1), acts.reshape(b, -1)], axis=1)
    q_pi, critic_cache = agent.critic.forward(x_pi)
    mean_q = float(np.mean(q_pi))
    _, dx = agent.critic.backward(critic_cache, np.full((b, 1), -1.0 / b))
    da = dx[:, n * obs_dim + i * ACT_DIM: n * obs_dim + (i + 1) * ACT_DIM]
    actor_grad, _ = agent.actor.backward(actor_cache, da)
    agent.actor_opt.step(actor_grad)
    nn.soft_update(agent.target_critic, agent.critic, tau)
    nn.soft_update(agent.target_actor, agent.actor, tau)
    return critic_loss, mean_q


# The learner shapes of configs/desk.json and configs/single_agent.json:
# agents, hidden widths, batch size.
@pytest.mark.parametrize("n,hidden,b", [(3, (64, 64), 256), (1, (32, 32), 128)],
                         ids=["desk", "solo"])
def test_shared_target_actions_match_n_squared_updates_bitwise(n, hidden, b):
    obs_dim = observation_dim(n)
    rng = np.random.default_rng(41)
    agents = build_agents(n, obs_dim, hidden, 1e-3, 1e-4, np.random.default_rng(42))
    ref = build_agents(n, obs_dim, hidden, 1e-3, 1e-4, np.random.default_rng(42))
    for _ in range(4):
        batch = random_batch(rng, b, n, obs_dim)
        for i in range(n):
            got = update_agent(i, agents, batch, 0.95, 0.01)
            assert got == _reference_update(i, ref, batch, 0.95, 0.01)
    for mine, theirs in zip(agents, ref):
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert np.array_equal(getattr(mine, name).params, getattr(theirs, name).params)
        for name in ("actor_opt", "critic_opt"):
            a, r = getattr(mine, name), getattr(theirs, name)
            assert a.t == r.t
            assert np.array_equal(a._m, r._m) and np.array_equal(a._v, r._v)


def test_target_actor_forwards_per_batch(monkeypatch):
    n, obs_dim = 3, 6
    rng = np.random.default_rng(43)
    agents = build_agents(n, obs_dim, (8,), 1e-3, 1e-3, rng)
    batch = random_batch(rng, 16, n, obs_dim)
    calls = []
    for j, agent in enumerate(agents):
        forward = agent.target_actor.forward
        monkeypatch.setattr(agent.target_actor, "forward",
                            lambda x, j=j, f=forward: calls.append(j) or f(x))
    for i in range(n):
        update_agent(i, agents, batch, 0.9, 0.1)
    # all three once, then each moved target actor once more: 2N - 1
    assert calls == [0, 1, 2, 0, 1]


def _actor_step_gradient(update, i, agents, batch, monkeypatch):
    """The flat gradient that update(i, ...) hands to agent i's actor Adam."""
    got = []
    monkeypatch.setattr(agents[i].actor_opt, "step",
                        lambda grad: got.append(grad.copy()))
    update(i, agents, batch, 0.9, 0.0)
    return got[0]


def _neg_mean_q_gradient(i, agents, batch, h=1e-6):
    """Central differences of -mean Q_i over the batch, agent i acting by
    its actor, in actor i's parameters.  Critic input: every observation
    of a transition, then every agent's action."""
    actor, critic = agents[i].actor, agents[i].critic
    b = len(batch.obs)

    def loss():
        acts = batch.acts.copy()
        for k in range(b):
            acts[k, i] = actor.forward(batch.obs[k, i][None])[0][0]
        x = np.concatenate([batch.obs.reshape(b, -1), acts.reshape(b, -1)], axis=1)
        return -sum(critic.forward(x[k:k + 1])[0][0, 0] for k in range(b)) / b

    p = actor.params
    out = np.empty(p.size)
    for k in range(p.size):
        keep = p[k]
        p[k] = keep + h
        up = loss()
        p[k] = keep - h
        out[k] = (up - loss()) / (2.0 * h)
        p[k] = keep
    return out


def test_second_agents_actor_step_follows_its_own_action_gradient(monkeypatch):
    """With the critic frozen (lr 0), agent 1's actor step is the gradient
    of -mean Q_1 in actor 1's parameters, and an update whose named action
    columns are the next agent's (its action written into that slot and
    the critic's input gradient read there) is not."""
    n, obs_dim = 2, 3
    agents = build_agents(n, obs_dim, (4,), 1e-2, 0.0, np.random.default_rng(45))
    batch = random_batch(np.random.default_rng(46), 6, n, obs_dim)
    want = _neg_mean_q_gradient(1, agents, batch)
    got = _actor_step_gradient(update_agent, 1, agents, batch, monkeypatch)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    src = inspect.getsource(marl.update_agent)
    right = "cols = slice(n * obs_dim + i * ACT_DIM, n * obs_dim + (i + 1) * ACT_DIM)"
    assert src.count(right) == 1
    # one name for the x_pi write and the da read
    assert src.count("[:, cols]") == 2
    namespace = dict(vars(marl))
    exec(src.replace(right, "cols = slice(n * obs_dim + (i + 1) % n * ACT_DIM,"
                            " n * obs_dim + ((i + 1) % n + 1) * ACT_DIM)"), namespace)
    off_by_one = _actor_step_gradient(namespace["update_agent"], 1, agents, batch, monkeypatch)
    assert not np.allclose(off_by_one, want, rtol=1e-6, atol=1e-9)


def tiny_run_config(seed=11, **training_overrides):
    training = TrainingConfig(
        episodes=4, horizon=8, batch_size=8, replay_capacity=512,
        warmup=16, hidden=(8, 8), noise_scale=0.1, epsilon=0.1,
        eval_episodes=2, early_stop_enabled=False, completion_cap=30,
        metrics_episode_stride=1,
    )
    training = dataclasses.replace(training, **training_overrides)
    scenario = Scenario(n_uavs=2, n_gus=3, demand_bits=2e6)
    return RunConfig(seed=seed, scenario=scenario, training=training)


class RowSink:
    """Keeps the episode rows a training run hands its sink."""

    def __init__(self):
        self.rows = []

    def slot_row(self, row):
        pass

    def episode_row(self, row):
        self.rows.append(row)


def run_with_rows(cfg):
    sink = RowSink()
    tr = Trainer(cfg)
    return tr, tr.run(sink=sink), sink.rows


class TestTrainer:
    def test_same_seed_same_rows(self):
        t1, r1, rows1 = run_with_rows(tiny_run_config())
        t2, r2, rows2 = run_with_rows(tiny_run_config())
        assert rows1 == rows2 and r1 == r2
        for a, b in zip(t1.agents, t2.agents):
            for wa, wb in zip(a.actor.ws, b.actor.ws):
                np.testing.assert_array_equal(wa, wb)

    def test_different_seeds_differ(self):
        _, _, rows1 = run_with_rows(tiny_run_config(seed=11))
        _, _, rows2 = run_with_rows(tiny_run_config(seed=12))
        assert rows1 != rows2

    def test_row_schema(self):
        _, res, rows = run_with_rows(tiny_run_config())
        assert res == {"episodes_run": 4, "early_stopped": False,
                       "final_smoothed": rows[-1]["reward_smoothed"]}
        assert len(rows) == 4
        row = rows[0]
        for key in ("episode", "reward_mean", "reward_smoothed", "sensed_bits",
                    "delivered_bits", "energy_j", "slots", "completion_slot",
                    "bo_frac", "reward_uav1", "reward_uav2"):
            assert key in row
        assert row["slots"] <= 8

    def test_gu_layout_fixed_across_episodes(self):
        tr = Trainer(tiny_run_config())
        w1 = tr._new_world()
        w2 = tr._new_world()
        for g1, g2 in zip(w1.gus, w2.gus):
            assert g1.pos.x == g2.pos.x and g1.pos.y == g2.pos.y
        # starts still vary episode to episode
        assert any(u1.pos.x != u2.pos.x or u1.pos.y != u2.pos.y
                   for u1, u2 in zip(w1.uavs, w2.uavs))

    def test_evaluate_policy_independent_worlds(self):
        tr = Trainer(tiny_run_config())
        tr.run()
        seen = {}
        def grab(policy):
            starts = []
            tr.evaluate(2, policy=policy,
                        slot_cb=lambda k, w, s, a, r: starts.append(w.gus[0].remaining))
            return starts[0]
        # same episode index -> same world regardless of formation policy
        a = grab(FormationPolicy(kind="non_cooperative"))
        b = grab(FormationPolicy(kind="eda_nf"))
        assert a == b

    def test_evaluate_deterministic_and_order_free(self):
        tr = Trainer(tiny_run_config())
        res = tr.run()
        e1 = tr.evaluate(2)
        e2 = tr.evaluate(2)
        for s1, s2 in zip(e1, e2):
            np.testing.assert_array_equal(s1.rewards, s2.rewards)
            assert s1.sensed == s2.sensed

    def test_evaluate_names_the_episode(self):
        tr = Trainer(tiny_run_config())
        seen = []
        stats = tr.evaluate(3, slot_cb=lambda k, w, slot, acts, r: seen.append((k, slot)))
        assert seen == [(k, slot) for k, s in enumerate(stats) for slot in range(s.slots)]
        assert [k for k, slot in seen if slot == 0] == [0, 1, 2]

    @pytest.mark.parametrize("name,stepped", [("desk", 1), ("tiny", 5)])
    def test_evaluate_rolls_out_each_distinct_world_once(self, monkeypatch, name, stepped):
        """desk.json fixes uav_xy, so its five evaluation episodes are one
        world: one rollout, whose stats are those of stepping any of them.
        tiny samples UAV starts, so every episode is stepped."""
        real, calls = marl.rollout, []
        monkeypatch.setattr(marl, "rollout", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        tr = Trainer(load_config(os.path.join(ROOT, "configs", f"{name}.json")))
        rows = [{**vars(s), "rewards": s.rewards.tolist()} for s in tr.evaluate(5)]
        assert len(calls) == stepped and len(rows) == 5
        if name == "desk":
            w = tr._new_world(rng=np.random.default_rng([tr.cfg.seed, 2, 4]))
            last = real(w, lambda w, obs: act(tr.actors, obs), tr.cfg.training.horizon,
                        tr.formation_fn, tr.cfg.training.weights)
            assert rows == [{**vars(last), "rewards": last.rewards.tolist()}] * 5
        else:
            assert len({json.dumps(r) for r in rows}) == 5

    def test_early_stopping_on_flat_signal(self):
        cfg = tiny_run_config(
            episodes=60, early_stop_enabled=True,
            early_stop_min_episodes=10, early_stop_patience=5,
            early_stop_rel_tol=1e9,  # tolerance so huge no improvement counts
        )
        res = Trainer(cfg).run()
        assert res["early_stopped"]
        assert res["episodes_run"] < 60

    def test_bo_disabled_runs(self):
        _, _, rows = run_with_rows(tiny_run_config(bo_enabled=False, episodes=2))
        assert all(row["bo_frac"] == 0.0 for row in rows)

    @pytest.mark.parametrize("bo", [False, True])
    def test_gp_samples_kept_only_for_the_proposer(self, bo):
        tr = Trainer(tiny_run_config(bo_enabled=bo))
        stats = tr.train_episode(0)
        m = stats.slots if bo else 0
        assert tr.gp_x.shape == (2, m, 2) and tr.gp_y.shape == (2, m)

    def test_gp_window_equals_per_uav_windows_bitwise(self, monkeypatch):
        """gp_x and gp_y hold, row by row, the last gp.window samples a
        per-UAV window would: each slot appends the UAV's scaled position
        after the step and the Mbit it sensed, evicting the oldest, and
        the window carries over into the next episode."""
        cfg = load_config(os.path.join(ROOT, "configs", "tiny.json"))
        cfg = dataclasses.replace(cfg, gp=dataclasses.replace(cfg.gp, window=3))
        tr = Trainer(cfg)
        hw = tr.cfg.scenario.half_width_m
        windows = [[] for _ in range(cfg.scenario.n_uavs)]
        real_step = world.step

        def recorded(*args):
            w, report = real_step(*args)
            for i, (u, bits) in enumerate(zip(w.uavs, report.sensed)):
                windows[i] = (windows[i] + [((u.pos.x / hw, u.pos.y / hw), bits / 1e6)])[-3:]
            return w, report

        monkeypatch.setattr(world, "step", recorded)
        for ep in range(2):
            assert tr.train_episode(ep).slots > 3
            for i, window in enumerate(windows):
                assert np.array_equal(tr.gp_x[i], [p for p, _ in window])
                assert np.array_equal(tr.gp_y[i], [v for _, v in window])

    @pytest.mark.parametrize("kind,log,per_slot", [
        ("eda_nf", True, 2), ("eda_nf", False, 1),
        ("non_cooperative", True, 1), ("non_cooperative", False, 0),
    ])
    def test_cost_report_at_most_once_per_slot(self, monkeypatch, kind, log, per_slot):
        """Each reader of a slot's cost report builds its own, at most once
        per slot: the eda_nf plan at the top of the slot and the logged
        metrics row after the step.  So a slot builds one per eda_nf plan
        plus one per logged row, and none when neither applies."""
        cfg = dataclasses.replace(tiny_run_config(), formation=FormationPolicy(kind=kind))
        tr = Trainer(cfg)
        calls = []
        real = marl.build_cost_report
        monkeypatch.setattr(marl, "build_cost_report",
                            lambda *a, **k: calls.append(1) or real(*a, **k))

        stats = tr.train_episode(0, RowSink() if log else None)
        assert stats.slots > 0 and len(calls) == per_slot * stats.slots

    @pytest.mark.parametrize("horizon,finishes", [(8, True), (3, False)])
    def test_one_plan_per_stepped_slot(self, monkeypatch, horizon, finishes):
        """Both episode loops plan the formation at the top of every slot
        and nothing after the last one, whether the episode drained every
        user and buffer or was cut off at the horizon."""
        calls = []
        real = formation.eda_nf
        monkeypatch.setattr(formation, "eda_nf", lambda *a, **k: calls.append(1) or real(*a, **k))
        tr = Trainer(tiny_run_config(horizon=horizon))
        for run in (lambda: tr.train_episode(0), lambda: tr.evaluate(1)[0]):
            calls.clear()
            stats = run()
            assert (stats.completion_slot is not None) == finishes
            assert len(calls) == stats.slots > 0


def test_benchmark_slot_clock_hooks(monkeypatch):
    """bench/child.py counts a world.step call as a training slot only
    when its direct caller is train_episode, and as an evaluation slot
    when it is rollout; bench/tracing.py reads rollout's first four
    positional arguments.  Both loops must keep their names and the
    signature its order."""
    callers = []
    real_step = world.step

    def recording_step(w, actions, fm):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_step(w, actions, fm)

    monkeypatch.setattr(world, "step", recording_step)
    tr = Trainer(tiny_run_config(episodes=2))
    tr.run()
    assert callers and set(callers) == {"train_episode"}
    callers.clear()
    tr.evaluate(1)
    assert callers and set(callers) == {"rollout"}
    params = list(inspect.signature(marl.rollout).parameters)
    assert params[:4] == ["w", "act_fn", "horizon", "formation_fn"]


def test_benchmark_trace_targets_resolve(monkeypatch):
    """bench/tracing.py wraps each (module, attribute) of its SPANS and
    COUNTS by name; the traced benchmark breaks if one is renamed."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    tracing = importlib.import_module("tracing")
    missing = []
    for module, path in tracing.SPANS + tracing.COUNTS:
        owner = importlib.import_module(f"flysense.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


_TRACED_RUN = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from flysense import config, harness
from flysense.formation import FormationPolicy
from tracing import Tracer
tracer = Tracer()
tracer.install()
cfg = config.load_config({config!r})
harness.run_train(cfg, {out!r} + "/train", episodes=3)
harness.run_compare(cfg, {out!r} + "/compare", episodes=0, eval_episodes=1,
                    policies=FormationPolicy.KINDS, demand_scales=(1.0,))
print(json.dumps(tracer.summary()))
"""


def test_traced_benchmark_runs_train_and_compare(tmp_path):
    """bench/tracing.py reads entity fields as well as names, so a field
    change can break a traced benchmark run that the name check above
    passes, and it counts calls through module attributes, so a caller
    that bypasses one leaves its counter at 0.  Tracer.install patches
    the modules for the whole process, hence the subprocess."""
    script = _TRACED_RUN.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "bench"),
                                config=os.path.join(ROOT, "configs", "tiny.json"),
                                out=str(tmp_path))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout)
    assert summary["rollouts"] > 0
    for name in ("world.step", "marl.rollout"):
        assert summary["spans"][name]["calls"] > 0, name
    # Every planner is reached through its module attribute.
    planners = ("eda_nf", "baseline_dynamic_nf", "baseline_buffer", "baseline_noncoop")
    for name in planners:
        assert summary["spans"]["formation." + name]["calls"] > 0, name
    assert sorted(summary["decisions"]) == sorted(planners)
    # The proposer scores each of its n_rad * n_dir + 1 = 65 candidates
    # through the counted gp.expected_improvement.
    proposals = summary["spans"]["gp.propose_point"]["calls"]
    assert summary["counts"]["gp.expected_improvement"] == 65 * proposals > 0


def test_sensing_table_built_once_per_world_and_slot(monkeypatch):
    """The UAV x ground-user sensing table and the node-range and
    link-power tables are built when a world is made and once in each
    slot's fly phase, and nowhere else, during training and evaluation."""
    counts = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("make_world", "step", "sensing_table"):
        counted(world, name)
    for name in ("ranges", "link_power"):
        counted(channel, name)
    tr = Trainer(load_config(os.path.join(ROOT, "configs", "tiny.json")))
    for run in (tr.run, lambda: tr.evaluate(2)):
        counts.clear()
        run()
        passes = counts["make_world"] + counts["step"]
        assert counts["step"] > 0
        assert counts["sensing_table"] == counts["link_power"] == passes
        assert counts["ranges"] == 2 * passes  # node pairs, then UAV-user pairs
