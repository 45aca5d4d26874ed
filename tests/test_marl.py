"""Multi-agent training stack: observations, action codecs, rewards,
arbitration, replay, and the actor-critic updates."""

import dataclasses
import importlib
import inspect
import math
import os
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
    obs[4:4 + n + 1] = w.formation.phi[u.id].any(axis=1)
    base = 4 + n + 1
    gid = world.select_gu(w, i)
    if gid is not None:
        g = w.gus[gid]
        snr = float(w.sensing_snr[i, gid])
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
                fm.clear_link(int(rng.integers(1, n + 1)), 0)
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
        covered = world.in_coverage(w)
        want = [False] + [u.buffer > 0.0 or any(inside and g.remaining > 0.0
                                                for g, inside in zip(w.gus, covered[i]))
                          for i, u in enumerate(w.uavs)]
        assert expected_transmitters(w).tolist() == want


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
                raw, _ = agent.actor.forward(obs[i])
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
        want = [float(critic.forward(np.concatenate([obs.ravel(), t.ravel()]))[0][0])
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
            landed = np.array([cur.x, cur.y]) + heading * speed * 0.3
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
        a, src = arbitrate([0.1, 0.2], [0.9, -0.9], q_actor=1.0, q_bo=2.0)
        assert src == "bo"
        np.testing.assert_allclose(a, [0.9, -0.9])
        a, src = arbitrate([0.1, 0.2], [0.9, -0.9], q_actor=2.0, q_bo=1.0)
        assert src == "actor"
        np.testing.assert_allclose(a, [0.1, 0.2])

    def test_tie_goes_to_actor(self):
        _, src = arbitrate([0.0, 0.0], [1.0, 1.0], q_actor=3.0, q_bo=3.0)
        assert src == "actor"

    def test_epsilon_override(self):
        rng = np.random.default_rng(0)
        a, src = arbitrate([0.0, 0.0], [1.0, 1.0], 0.0, 100.0,
                           epsilon=1.0, rng=rng)
        assert src == "random"
        assert np.all(np.abs(a) <= 1.0)
        # epsilon 0 never overrides even with an rng supplied
        _, src = arbitrate([0.0, 0.0], [1.0, 1.0], 0.0, 100.0,
                           epsilon=0.0, rng=rng)
        assert src == "bo"


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
        got = td_targets(agents, 0, batch, discount=0.9)
        for k in range(b):
            next_acts = [agents[j].target_actor.forward(batch.obs2[k, j])[0]
                         for j in range(n)]
            x2 = np.concatenate([batch.obs2[k].ravel(), *next_acts])
            q2 = agents[0].target_critic.forward(x2)[0][0]
            want = batch.rews[k, 0] + 0.9 * (1.0 - batch.done[k]) * q2
            assert got[k] == pytest.approx(want)

    def test_terminal_targets_drop_bootstrap(self):
        rng = np.random.default_rng(2)
        agents = build_agents(1, 4, (8,), 1e-3, 1e-3, rng)
        batch = random_batch(rng, 4, 1, 4)
        batch.done[:] = 1.0
        got = td_targets(agents, 0, batch, discount=0.99)
        np.testing.assert_allclose(got, batch.rews[:, 0])

    def test_critic_loss_decreases(self):
        rng = np.random.default_rng(3)
        n, obs_dim = 2, 5
        agents = build_agents(n, obs_dim, (16,), 1e-3, 1e-2, rng)
        batch = random_batch(rng, 32, n, obs_dim)
        losses = [update_agent(0, agents, batch, 0.9, tau=0.0)[0]
                  for _ in range(60)]
        assert losses[-1] < losses[0]

    def test_actor_climbs_critic(self):
        rng = np.random.default_rng(4)
        n, obs_dim = 2, 5
        agents = build_agents(n, obs_dim, (16,), 1e-2, 0.0, rng)
        batch = random_batch(rng, 32, n, obs_dim)
        qs = [update_agent(0, agents, batch, 0.9, tau=0.0)[1]
              for _ in range(40)]
        # frozen critic (lr 0): mean Q under the actor must rise
        assert qs[-1] > qs[0]

    def test_polyak_moves_targets(self):
        rng = np.random.default_rng(5)
        agents = build_agents(1, 4, (8,), 1e-2, 1e-2, rng)
        before = agents[0].target_critic.ws[0].copy()
        batch = random_batch(rng, 8, 1, 4)
        update_agent(0, agents, batch, 0.9, tau=0.5)
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
        assert rep.balance.sum() == pytest.approx(0.0)

    def test_single_uav_zero_balance(self):
        w = tiny_world(n_uavs=1, n_gus=1)
        rep = build_cost_report(w, lam=0.5)
        assert rep.balance.shape == (1,)
        assert rep.balance[0] == 0.0

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
    grads, _ = agent.critic.backward(cache, (2.0 * diff / b)[:, None])
    agent.critic_opt.step(agent.critic, grads.flat)
    a_i, actor_cache = agent.actor.forward(batch.obs[:, i])
    acts = batch.acts.copy()
    acts[:, i, :] = a_i
    x_pi = np.concatenate([batch.obs.reshape(b, -1), acts.reshape(b, -1)], axis=1)
    _, critic_cache = agent.critic.forward(x_pi)
    _, dx = agent.critic.backward(critic_cache, np.full((b, 1), -1.0 / b))
    da = dx[:, n * obs_dim + i * ACT_DIM: n * obs_dim + (i + 1) * ACT_DIM]
    actor_grads, _ = agent.actor.backward(actor_cache, da)
    agent.actor_opt.step(agent.actor, actor_grads.flat)
    nn.soft_update(agent.target_critic, agent.critic, tau)
    nn.soft_update(agent.target_actor, agent.actor, tau)


def test_shared_target_actions_match_n_squared_updates_bitwise():
    n, obs_dim, b = 3, observation_dim(3), 256
    rng = np.random.default_rng(41)
    agents = build_agents(n, obs_dim, (64, 64), 1e-3, 1e-4, np.random.default_rng(42))
    ref = build_agents(n, obs_dim, (64, 64), 1e-3, 1e-4, np.random.default_rng(42))
    for _ in range(4):
        batch = random_batch(rng, b, n, obs_dim)
        next_acts = [None] * n
        for i in range(n):
            update_agent(i, agents, batch, 0.95, 0.01, next_acts)
            _reference_update(i, ref, batch, 0.95, 0.01)
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
    next_acts = [None] * n
    for i in range(n):
        update_agent(i, agents, batch, 0.9, 0.1, next_acts)
    # all three once, then each moved target actor once more: 2N - 1
    assert calls == [0, 1, 2, 0, 1]


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
    return Trainer(cfg).run(sink=sink), sink.rows


class TestTrainer:
    def test_same_seed_same_rows(self):
        r1, rows1 = run_with_rows(tiny_run_config())
        r2, rows2 = run_with_rows(tiny_run_config())
        assert rows1 == rows2
        for a, b in zip(r1.agents, r2.agents):
            for wa, wb in zip(a.actor.ws, b.actor.ws):
                np.testing.assert_array_equal(wa, wb)

    def test_different_seeds_differ(self):
        _, rows1 = run_with_rows(tiny_run_config(seed=11))
        _, rows2 = run_with_rows(tiny_run_config(seed=12))
        assert rows1 != rows2

    def test_row_schema(self):
        res, rows = run_with_rows(tiny_run_config())
        assert res.episodes_run == len(rows) == 4
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
                        slot_cb=lambda w, s, a, r: starts.append(w.gus[0].remaining))
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

    def test_early_stopping_on_flat_signal(self):
        cfg = tiny_run_config(
            episodes=60, early_stop_enabled=True,
            early_stop_min_episodes=10, early_stop_patience=5,
            early_stop_rel_tol=1e9,  # tolerance so huge no improvement counts
        )
        res = Trainer(cfg).run()
        assert res.early_stopped
        assert res.episodes_run < 60

    def test_bo_disabled_runs(self):
        _, rows = run_with_rows(tiny_run_config(bo_enabled=False, episodes=2))
        assert all(row["bo_frac"] == 0.0 for row in rows)

    @pytest.mark.parametrize("bo", [False, True])
    def test_gp_samples_kept_only_for_the_proposer(self, bo):
        tr = Trainer(tiny_run_config(bo_enabled=bo))
        stats = tr.train_episode(0)
        assert [len(h) for h in tr.histories] == [stats.slots if bo else 0] * 2

    @pytest.mark.parametrize("kind,log,per_slot", [
        ("eda_nf", True, 1), ("eda_nf", False, 1),
        ("non_cooperative", True, 1), ("non_cooperative", False, 0),
    ])
    def test_cost_report_at_most_once_per_slot(self, monkeypatch, kind, log, per_slot):
        cfg = dataclasses.replace(tiny_run_config(), formation=FormationPolicy(kind=kind))
        tr = Trainer(cfg)
        calls = []
        real = marl.build_cost_report
        monkeypatch.setattr(marl, "build_cost_report",
                            lambda *a, **k: calls.append(1) or real(*a, **k))

        stats = tr.train_episode(0, RowSink() if log else None)
        # plus one for the starting world's formation
        start = 1 if kind == "eda_nf" else 0
        assert len(calls) == start + per_slot * stats.slots


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
