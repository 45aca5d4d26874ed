"""Multi-agent actor-critic training with GP-guided action arbitration.

Each UAV owns an actor (its decentralized policy) and a centralized
critic that scores the joint observation/action vector.  During
training a GP surrogate over recent (position, sensed bits) samples
proposes an alternative waypoint each slot; the agent's own critic decides
whether the proposal or the actor's action is executed.  Rewards mix
energy spent, data moved toward the base station, data sensed, and a
separation penalty; energy counts in kJ and data in Mbit so the default
unit weights are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from . import channel, formation, gp, nn, world
from .channel import BS
from .formation import CostReport, FormationPolicy, RATIO_CAP
from .world import Position, StepReport, WorldState

DATA_UNIT = 1e6    # bits per reward unit (Mbit)
ENERGY_UNIT = 1e3  # joules per reward unit (kJ)
ACT_DIM = 2


def observation_dim(n_uavs: int) -> int:
    # own xy, buffer fill, last-slot energy, outgoing-link row over N+1
    # receivers, strongest-GU signal, bearing xy, that GU's remaining share
    return 4 + (n_uavs + 1) + 4


def _slot_energy_norm(proto: world.ProtocolConfig, model: world.EnergyModel, v_max: float) -> float:
    worst = max(world.propulsion_energy(0.0, proto, model),
                world.propulsion_energy(v_max, proto, model))
    return worst


def observe(w: WorldState, i: int) -> np.ndarray:
    """Local observation of UAV i; every component lies in [-1, 1]."""
    u = w.uavs[i]
    n = w.n_uavs
    hw = w.scenario.half_width_m
    obs = np.zeros(observation_dim(n))
    obs[0] = u.pos.x / hw
    obs[1] = u.pos.y / hw
    obs[2] = u.buffer / w.scenario.buffer_capacity_bits
    e_norm = _slot_energy_norm(w.protocol, w.scenario.energy, u.v_max)
    obs[3] = min(w.last_energy[i] / e_norm, 1.0)
    obs[4:4 + n + 1] = w.formation.phi[u.id].any(axis=1)
    base = 4 + n + 1
    gid = world.select_gu(u, w.gus, w.protocol, w.chan)
    if gid is not None:
        g = w.gus[gid]
        snr = channel.g2u_snr(g.pos.as_array(), u.pos.as_array(), w.chan)
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


def decode_action(raw, v_max: float):
    """Raw (-1,1)^2 action to (unit heading, speed): the first component
    is the heading angle over pi, the second maps linearly onto
    [0, v_max]."""
    a = np.clip(np.asarray(raw, dtype=float), -1.0, 1.0)
    ang = math.pi * a[0]
    speed = v_max * (a[1] + 1.0) / 2.0
    return np.array([math.cos(ang), math.sin(ang)]), speed


def act(actor: nn.Mlp, obs: np.ndarray, noise_scale: float = 0.0,
        rng: np.random.Generator | None = None) -> np.ndarray:
    """Actor output with optional Gaussian exploration noise, clamped to
    the raw action box."""
    raw, _ = actor.forward(obs)
    if noise_scale > 0.0 and rng is not None:
        raw = raw + noise_scale * rng.standard_normal(ACT_DIM)
    return np.clip(raw, -1.0, 1.0)


def bo_to_action(current: Position, proposed, v_max: float, t_f: float) -> np.ndarray:
    """Raw action whose decoded motion lands on the proposed (x, y) point,
    speed-capped at v_max."""
    dx = float(proposed[0]) - current.x
    dy = float(proposed[1]) - current.y
    dist = math.hypot(dx, dy)
    speed = min(dist / t_f, v_max)
    ang = math.atan2(dy, dx) if dist > 0.0 else 0.0
    return np.array([ang / math.pi, 2.0 * speed / v_max - 1.0])


@dataclass(frozen=True)
class RewardWeights:
    gamma_energy: float = 1.0
    gamma_data: float = 1.0
    gamma_sense: float = 1.0
    mu: float = 10.0  # per neighbor closer than d_min


@dataclass
class RewardParts:
    energy: float   # -spent kJ (already negative)
    data: float     # Mbit pushed toward the BS (direct or relayed)
    sense: float    # Mbit collected
    penalty: float  # separation penalty, subtracted


def reward(i: int, report: StepReport, weights: RewardWeights) -> tuple[float, RewardParts]:
    parts = RewardParts(
        energy=-report.energy[i] / ENERGY_UNIT,
        data=(report.delivered_bs[i] + report.relayed_out[i]) / DATA_UNIT,
        sense=report.sensed[i] / DATA_UNIT,
        penalty=weights.mu * float(report.violations_per_uav[i]),
    )
    total = (
        weights.gamma_energy * parts.energy
        + weights.gamma_data * parts.data
        + weights.gamma_sense * parts.sense
        - parts.penalty
    )
    return total, parts


def joint_input(obs_list, acts) -> np.ndarray:
    """Critic input layout: all observations then all raw actions."""
    return np.concatenate([np.asarray(obs_list, dtype=float).ravel(),
                           np.asarray(acts, dtype=float).ravel()])


def critic_q(critic: nn.Mlp, obs_list, acts) -> float:
    y, _ = critic.forward(joint_input(obs_list, acts))
    return float(y[0])


def arbitrate(a_actor, a_bo, q_actor: float, q_bo: float, epsilon: float = 0.0,
              rng: np.random.Generator | None = None):
    """Critic-refereed choice between the actor action and the GP
    proposal; ties go to the actor.  With probability epsilon a uniform
    random action overrides the comparison."""
    if epsilon > 0.0 and rng is not None and rng.random() < epsilon:
        return rng.uniform(-1.0, 1.0, ACT_DIM), "random"
    if q_bo > q_actor:
        return np.asarray(a_bo, dtype=float), "bo"
    return np.asarray(a_actor, dtype=float), "actor"


@dataclass
class Batch:
    obs: np.ndarray    # (B, N, obs_dim)
    acts: np.ndarray   # (B, N, 2)
    rews: np.ndarray   # (B, N)
    obs2: np.ndarray
    done: np.ndarray   # (B,)


class ReplayBuffer:
    """Fixed-capacity ring of joint transitions with uniform sampling."""

    def __init__(self, capacity: int, n_agents: int, obs_dim: int,
                 rng: np.random.Generator):
        self.capacity = capacity
        self.rng = rng
        # Uninitialised: sample() reads only rows add() has written.  A
        # run usually fills a small part of the capacity, and zeroing it
        # (np.zeros on recycled heap memory) would make all of it resident.
        self._obs = np.empty((capacity, n_agents, obs_dim))
        self._acts = np.empty((capacity, n_agents, ACT_DIM))
        self._rews = np.empty((capacity, n_agents))
        self._obs2 = np.empty((capacity, n_agents, obs_dim))
        self._done = np.empty(capacity)
        self._idx = 0
        self._size = 0

    def add(self, obs, acts, rews, obs2, done: bool) -> None:
        i = self._idx
        self._obs[i] = obs
        self._acts[i] = acts
        self._rews[i] = rews
        self._obs2[i] = obs2
        self._done[i] = float(done)
        self._idx = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        if batch_size > self._size:
            raise ValueError("not enough transitions buffered")
        idx = self.rng.choice(self._size, size=batch_size, replace=False)
        return Batch(self._obs[idx], self._acts[idx], self._rews[idx],
                     self._obs2[idx], self._done[idx])

    def __len__(self) -> int:
        return self._size


@dataclass
class AgentNets:
    actor: nn.Mlp
    critic: nn.Mlp
    target_actor: nn.Mlp
    target_critic: nn.Mlp
    actor_opt: nn.Adam
    critic_opt: nn.Adam


def build_agents(n_agents: int, obs_dim: int, hidden, actor_lr: float,
                 critic_lr: float, rng: np.random.Generator) -> list:
    agents = []
    critic_in = n_agents * (obs_dim + ACT_DIM)
    for _ in range(n_agents):
        actor = nn.Mlp([obs_dim, *hidden, ACT_DIM], out_act="tanh", rng=rng)
        critic = nn.Mlp([critic_in, *hidden, 1], out_act="identity", rng=rng)
        agents.append(AgentNets(
            actor=actor,
            critic=critic,
            target_actor=actor.copy(),
            target_critic=critic.copy(),
            actor_opt=nn.Adam(actor_lr),
            critic_opt=nn.Adam(critic_lr),
        ))
    return agents


def td_targets(agents: list, i: int, batch: Batch, discount: float,
               next_acts: list | None = None) -> np.ndarray:
    """One-step bootstrapped targets from the target networks; terminal
    transitions use the bare reward.

    next_acts holds each target actor's action on batch.obs2 across the
    updates of one batch: None entries are computed here and stored, and
    update_agent clears an agent's entry once its target actor moves."""
    b, n, obs_dim = batch.obs2.shape
    if next_acts is None:
        next_acts = [None] * n
    for j in range(n):
        if next_acts[j] is None:
            next_acts[j] = agents[j].target_actor.forward(batch.obs2[:, j])[0]
    x2 = np.concatenate([batch.obs2.reshape(b, -1), *next_acts], axis=1)
    q2, _ = agents[i].target_critic.forward(x2)
    return batch.rews[:, i] + discount * (1.0 - batch.done) * q2[:, 0]


def update_agent(i: int, agents: list, batch: Batch, discount: float, tau: float,
                 next_acts: list | None = None):
    """One critic step on the squared TD error, one actor step up the
    critic's value, then Polyak updates of both targets.  Agents updated
    in turn on one batch share next_acts (see td_targets).  Returns
    (critic_loss, mean_q) for logging."""
    agent = agents[i]
    b, n, obs_dim = batch.obs.shape
    if next_acts is None:
        next_acts = [None] * n
    x = np.concatenate([batch.obs.reshape(b, -1), batch.acts.reshape(b, -1)], axis=1)
    q, cache = agent.critic.forward(x)
    y = td_targets(agents, i, batch, discount, next_acts)
    diff = q[:, 0] - y
    critic_loss = float(np.mean(diff ** 2))
    grads, _ = agent.critic.backward(cache, (2.0 * diff / b)[:, None], inputs=False)
    agent.critic_opt.step(agent.critic, grads.flat)

    a_i, actor_cache = agent.actor.forward(batch.obs[:, i])
    acts = batch.acts.copy()
    acts[:, i, :] = a_i
    x_pi = np.concatenate([batch.obs.reshape(b, -1), acts.reshape(b, -1)], axis=1)
    q_pi, critic_cache = agent.critic.forward(x_pi)
    mean_q = float(np.mean(q_pi))
    _, dx = agent.critic.backward(critic_cache, np.full((b, 1), -1.0 / b), params=False)
    da = dx[:, n * obs_dim + i * ACT_DIM: n * obs_dim + (i + 1) * ACT_DIM]
    actor_grads, _ = agent.actor.backward(actor_cache, da, inputs=False)
    agent.actor_opt.step(agent.actor, actor_grads.flat)

    nn.soft_update(agent.target_critic, agent.critic, tau)
    nn.soft_update(agent.target_actor, agent.actor, tau)
    next_acts[i] = None
    return critic_loss, mean_q


@dataclass
class TrainingConfig:
    episodes: int = 20000
    horizon: int = 60
    batch_size: int = 256
    replay_capacity: int = 100000
    warmup: int | None = None          # None -> batch_size
    actor_lr: float = 1e-3
    critic_lr: float = 1e-4
    tau: float = 0.01
    discount: float = 0.95
    noise_scale: float = 0.1
    epsilon: float = 0.1               # arbitration override probability
    bo_enabled: bool = True
    bo_stride: int = 1
    update_stride: int = 1
    hidden: tuple = (64, 64)
    lam: float = 0.5                   # buffer weight in cost/objective
    weights: RewardWeights = field(default_factory=RewardWeights)
    early_stop_enabled: bool = True
    early_stop_min_episodes: int = 300
    early_stop_patience: int = 300
    early_stop_rel_tol: float = 0.01
    eval_episodes: int = 5
    metrics_episode_stride: int = 1    # 0 disables per-slot rows
    completion_cap: int = 600          # horizon for drain-everything rollouts

    @property
    def warmup_size(self) -> int:
        return self.batch_size if self.warmup is None else self.warmup


def build_cost_report(w: WorldState, lam: float, ratio_cap: float = RATIO_CAP) -> CostReport:
    """Status snapshot for the formation policies: drain-time balance from
    current buffers against each UAV's would-be direct BS rate, cost from
    last slot's energy, own buffer, and covered ground demand, and the
    spare backhaul rate each UAV could lend a seeker (BS rate minus the
    sensing intake of its current target, scaled to the offload sub-slot)."""
    n = w.n_uavs
    positions = w.positions()
    buffers = np.array([u.buffer for u in w.uavs])
    rates = np.array([channel.point_rate(positions[i + 1], positions[0], w.chan)
                      for i in range(n)])
    balance = formation.load_balance(buffers, rates, ratio_cap) if n >= 2 else np.zeros(1)
    costs = np.zeros(n)
    spare = np.zeros(n)
    sub_slots = w.protocol.t_s / w.protocol.t_o
    for i, u in enumerate(w.uavs):
        backlog = sum(g.remaining for g in w.gus
                      if world.distance(u.pos, g.pos) <= w.protocol.coverage_radius)
        costs[i] = formation.cost(w.last_energy[i], buffers[i], backlog, lam)
        gid = world.select_gu(u, w.gus, w.protocol, w.chan)
        intake = 0.0
        if gid is not None:
            g = next(g for g in w.gus if g.id == gid)
            intake = channel.g2u_rate(g.pos.as_array(), u.pos.as_array(), w.chan)
        spare[i] = max(0.0, rates[i] - intake * sub_slots)
    return CostReport(balance=balance, cost=costs, spare_rate=spare)


def expected_transmitters(w: WorldState) -> np.ndarray:
    """Per-node mask of UAVs likely to send in the coming offload sub-slot:
    anyone holding buffered data or still able to sense an unfinished
    ground user.  Lets the formation builders treat drained UAVs'
    allocations as quiet spectrum."""
    act = np.zeros(w.n_uavs + 1, dtype=bool)
    for i, u in enumerate(w.uavs):
        busy = u.buffer > 0.0
        if not busy:
            busy = any(
                g.remaining > 0.0
                and world.distance(u.pos, g.pos) <= w.protocol.coverage_radius
                for g in w.gus
            )
        act[i + 1] = busy
    return act


def make_formation_fn(policy: FormationPolicy, params: channel.ChannelParams, lam: float):
    """Returns fn(world, report=None) -> FormationMatrix implementing the
    configured policy on the live state.  A cost report the caller
    already built for this state may be passed in; otherwise the policies
    that need one build it."""
    def fn(w: WorldState, report: CostReport | None = None) -> channel.FormationMatrix:
        k = w.chan.n_channels
        positions = w.positions()
        if policy.kind == "non_cooperative":
            return formation.baseline_noncoop(w.n_uavs, k)
        active = expected_transmitters(w)
        if policy.kind == "buffer_threshold":
            buffers = np.array([u.buffer for u in w.uavs])
            return formation.baseline_buffer(buffers, positions, policy, k, params, active)
        if report is None:
            report = build_cost_report(w, lam)
        if policy.kind == "dynamic_nf":
            return formation.baseline_dynamic_nf(report, positions, policy, k, params, active)
        return formation.eda_nf(report, positions, policy, k, params, active)
    return fn


@dataclass
class EpisodeStats:
    rewards: np.ndarray        # per-agent total
    parts: RewardParts         # summed over agents and slots
    sensed: float
    delivered: float
    energy: float
    slots: int
    completion_slot: int | None
    max_buffer: float
    bo_frac: float
    remaining_curve: list = field(default_factory=list)


def _episode_done(w: WorldState) -> bool:
    return all(g.remaining <= 0.0 for g in w.gus) and all(u.buffer <= 0.0 for u in w.uavs)


def rollout(w: WorldState, act_fn, horizon: int, formation_fn, weights: RewardWeights,
            slot_cb=None, collect_curve: bool = False) -> EpisodeStats:
    """Run one episode with an arbitrary action provider
    act_fn(w, obs_list) -> (N, 2) raw actions.  No learning, no noise."""
    n = w.n_uavs
    totals = np.zeros(n)
    parts_sum = RewardParts(0.0, 0.0, 0.0, 0.0)
    sensed = delivered = energy = 0.0
    max_buffer = max(u.buffer for u in w.uavs)
    completion = None
    curve = []
    slots = 0
    for slot in range(horizon):
        obs = [observe(w, i) for i in range(n)]
        acts = np.asarray(act_fn(w, obs), dtype=float)
        decoded = [decode_action(a, w.uavs[i].v_max) for i, a in enumerate(acts)]
        w, report = world.step(w, decoded, w.formation)
        for i in range(n):
            r, parts = reward(i, report, weights)
            totals[i] += r
            parts_sum.energy += parts.energy
            parts_sum.data += parts.data
            parts_sum.sense += parts.sense
            parts_sum.penalty += parts.penalty
        sensed += report.sensed.sum()
        delivered += report.delivered_bs.sum()
        energy += report.energy.sum()
        max_buffer = max(max_buffer, max(u.buffer for u in w.uavs))
        slots = slot + 1
        if collect_curve:
            curve.append(sum(g.remaining for g in w.gus) + sum(u.buffer for u in w.uavs))
        if slot_cb is not None:
            slot_cb(w, slot, acts, report)
        w.formation = formation_fn(w)
        if _episode_done(w):
            completion = slots
            break
    return EpisodeStats(
        rewards=totals, parts=parts_sum, sensed=sensed, delivered=delivered,
        energy=energy, slots=slots, completion_slot=completion,
        max_buffer=max_buffer, bo_frac=0.0, remaining_curve=curve,
    )


def actor_policy(agents: list):
    """Deterministic decentralized policy from the trained actors."""
    def fn(w, obs):
        return np.array([act(agents[i].actor, obs[i]) for i in range(len(agents))])
    return fn


@dataclass
class TrainResult:
    agents: list
    episode_rows: list
    episodes_run: int
    early_stopped: bool
    final_smoothed: float


class Trainer:
    """Owns the networks, replay, GP histories, and all random streams of
    one training run.  Seeded identically, two trainers produce
    bit-identical metric streams."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.train_cfg: TrainingConfig = cfg.training
        scenario = cfg.scenario
        if scenario.gu_seed is None:
            layout = int(np.random.SeedSequence([cfg.seed, 1]).generate_state(1)[0])
            scenario = dc_replace(scenario, gu_seed=layout)
        self.scenario = scenario
        self.chan = cfg.channel
        ss = np.random.SeedSequence(cfg.seed)
        init_ss, self._world_ss, noise_ss, replay_ss, arb_ss = ss.spawn(5)
        init_rng = np.random.default_rng(init_ss)
        self.noise_rng = np.random.default_rng(noise_ss)
        self.arb_rng = np.random.default_rng(arb_ss)
        n = scenario.n_uavs
        self.obs_dim = observation_dim(n)
        tc = self.train_cfg
        self.agents = build_agents(n, self.obs_dim, tc.hidden, tc.actor_lr,
                                   tc.critic_lr, init_rng)
        self.replay = ReplayBuffer(tc.replay_capacity, n, self.obs_dim,
                                   np.random.default_rng(replay_ss))
        self.histories = [gp.SampleHistory(cfg.gp.window) for _ in range(n)]
        self.formation_fn = make_formation_fn(cfg.formation, cfg.channel, tc.lam)
        hw = scenario.half_width_m
        self.reach_scaled = scenario.v_max_mps * scenario.protocol.t_f / hw
        self.gp_offsets = gp.candidate_offsets(self.reach_scaled, cfg.gp)
        self.gp_bounds = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

    def _new_world(self, rng=None, demand_scale: float = 1.0) -> WorldState:
        scenario = self.scenario
        if demand_scale != 1.0:
            scenario = dc_replace(scenario, demand_bits=scenario.demand_bits * demand_scale)
        if rng is None:
            rng = np.random.default_rng(self._world_ss.spawn(1)[0])
        w = world.make_world(scenario, self.chan, rng)
        w.formation = self.formation_fn(w)
        return w

    def _bo_action(self, i: int, w: WorldState) -> np.ndarray:
        hw = self.scenario.half_width_m
        u = w.uavs[i]
        cur = np.array([u.pos.x / hw, u.pos.y / hw])
        prop = gp.propose_point(self.histories[i], cur, self.reach_scaled,
                                self.cfg.gp, bounds=self.gp_bounds,
                                offsets=self.gp_offsets)
        return bo_to_action(u.pos, prop * hw, u.v_max, w.protocol.t_f)

    def train_episode(self, ep: int, sink=None) -> EpisodeStats:
        tc = self.train_cfg
        w = self._new_world()
        n = w.n_uavs
        hw = self.scenario.half_width_m
        totals = np.zeros(n)
        parts_sum = RewardParts(0.0, 0.0, 0.0, 0.0)
        sensed = delivered = energy = 0.0
        max_buffer = 0.0
        completion = None
        bo_hits = 0
        log_slots = (sink is not None and tc.metrics_episode_stride > 0
                     and ep % tc.metrics_episode_stride == 0)
        slots = 0
        for slot in range(tc.horizon):
            obs = [observe(w, i) for i in range(n)]
            a_actor = [act(self.agents[i].actor, obs[i], tc.noise_scale, self.noise_rng)
                       for i in range(n)]
            a_exec = list(a_actor)
            if tc.bo_enabled and slot % tc.bo_stride == 0:
                base_acts = np.array(a_actor)
                for i in range(n):
                    a_bo = self._bo_action(i, w)
                    trial = base_acts.copy()
                    q_a = critic_q(self.agents[i].critic, obs, trial)
                    trial[i] = a_bo
                    q_b = critic_q(self.agents[i].critic, obs, trial)
                    a_exec[i], src = arbitrate(a_actor[i], a_bo, q_a, q_b,
                                               tc.epsilon, self.arb_rng)
                    if src == "bo":
                        bo_hits += 1
            decoded = [decode_action(a, w.uavs[i].v_max) for i, a in enumerate(a_exec)]
            w, report = world.step(w, decoded, w.formation)
            rews = np.zeros(n)
            for i in range(n):
                r, parts = reward(i, report, tc.weights)
                rews[i] = r
                parts_sum.energy += parts.energy
                parts_sum.data += parts.data
                parts_sum.sense += parts.sense
                parts_sum.penalty += parts.penalty
            obs2 = [observe(w, i) for i in range(n)]
            done = _episode_done(w)
            self.replay.add(np.array(obs), np.array(a_exec), rews, np.array(obs2), done)
            for i in range(n):
                u = w.uavs[i]
                self.histories[i].add((u.pos.x / hw, u.pos.y / hw),
                                      report.sensed[i] / DATA_UNIT)
            if len(self.replay) >= tc.warmup_size and slot % tc.update_stride == 0:
                batch = self.replay.sample(tc.batch_size)
                next_acts = [None] * n
                for i in range(n):
                    update_agent(i, self.agents, batch, tc.discount, tc.tau, next_acts)
            cost_rep = None
            if log_slots:
                cost_rep = build_cost_report(w, tc.lam)
                backlog = sum(g.remaining for g in w.gus)
                for i, u in enumerate(w.uavs):
                    r, parts = reward(i, report, tc.weights)
                    links = ";".join(f"{rx}:{ch}" for rx, ch in w.formation.out_links(u.id))
                    sink.slot_row({
                        "episode": ep, "slot": slot, "uav_id": u.id,
                        "x": u.pos.x, "y": u.pos.y, "buffer_bits": u.buffer,
                        "energy_j": u.energy_used, "reward_total": r,
                        "reward_e": parts.energy, "reward_d": parts.data,
                        "reward_s": parts.sense, "penalty": parts.penalty,
                        "b_i": cost_rep.balance[i], "c_i": cost_rep.cost[i],
                        "formation_links": links, "gu_backlog_total": backlog,
                    })
            totals += rews
            sensed += report.sensed.sum()
            delivered += report.delivered_bs.sum()
            energy += report.energy.sum()
            max_buffer = max(max_buffer, max(u.buffer for u in w.uavs))
            slots = slot + 1
            w.formation = self.formation_fn(w, cost_rep)
            if done:
                completion = slots
                break
        bo_opps = max(1, slots * n)
        return EpisodeStats(
            rewards=totals, parts=parts_sum, sensed=sensed, delivered=delivered,
            energy=energy, slots=slots, completion_slot=completion,
            max_buffer=max_buffer, bo_frac=bo_hits / bo_opps,
        )

    def run(self, episodes: int | None = None, sink=None) -> TrainResult:
        tc = self.train_cfg
        budget = tc.episodes if episodes is None else episodes
        rows = []
        ema = None
        best = -math.inf
        best_ep = 0
        stopped = False
        for ep in range(budget):
            stats = self.train_episode(ep, sink)
            mean_r = float(stats.rewards.mean())
            ema = mean_r if ema is None else 0.95 * ema + 0.05 * mean_r
            row = {
                "episode": ep,
                "reward_mean": mean_r,
                "reward_smoothed": ema,
                "sensed_bits": stats.sensed,
                "delivered_bits": stats.delivered,
                "energy_j": stats.energy,
                "slots": stats.slots,
                "completion_slot": -1 if stats.completion_slot is None else stats.completion_slot,
                "bo_frac": stats.bo_frac,
            }
            for i in range(self.scenario.n_uavs):
                row[f"reward_uav{i + 1}"] = float(stats.rewards[i])
            rows.append(row)
            if sink is not None:
                sink.episode_row(row)
            tol = tc.early_stop_rel_tol * max(1.0, abs(best)) if best > -math.inf else 0.0
            if ema > best + tol:
                best = ema
                best_ep = ep
            elif (tc.early_stop_enabled and ep + 1 >= tc.early_stop_min_episodes
                  and ep - best_ep >= tc.early_stop_patience):
                stopped = True
                break
        return TrainResult(
            agents=self.agents, episode_rows=rows, episodes_run=len(rows),
            early_stopped=stopped, final_smoothed=ema if ema is not None else 0.0,
        )

    def evaluate(self, episodes: int, agents: list | None = None,
                 policy: FormationPolicy | None = None, demand_scale: float = 1.0,
                 horizon: int | None = None, slot_cb=None,
                 collect_curve: bool = False, act_fn=None) -> list:
        """Deterministic rollouts of the trained actors (or any act_fn):
        no noise, no GP arbitration.  World seeds depend only on (run
        seed, episode), so different policies see identical scenarios."""
        agents = self.agents if agents is None else agents
        fn = (self.formation_fn if policy is None
              else make_formation_fn(policy, self.chan, self.train_cfg.lam))
        horizon = self.train_cfg.horizon if horizon is None else horizon
        act = actor_policy(agents) if act_fn is None else act_fn
        out = []
        for k in range(episodes):
            rng = np.random.default_rng([self.cfg.seed, 2, k])
            w = self._new_world(rng=rng, demand_scale=demand_scale)
            w.formation = fn(w)
            out.append(rollout(w, act, horizon, fn,
                               self.train_cfg.weights, slot_cb=slot_cb,
                               collect_curve=collect_curve))
        return out
