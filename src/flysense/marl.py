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


def observe(w: WorldState) -> np.ndarray:
    """(N, obs_dim) local observations, row i for UAV i; every component
    lies in [-1, 1].  Row i reads only UAV i's own state and its stored
    target (w.targets).  The columns that are one IEEE operation per
    entry are computed for the whole fleet; log2, hypot and the divisions
    after them stay scalar, per UAV."""
    n = w.n_uavs
    obs = np.zeros((n, observation_dim(n)))
    obs[:, :2] = w.nodes[1:, :2] / w.scenario.half_width_m
    obs[:, 2] = np.array([u.buffer for u in w.uavs]) / w.scenario.buffer_capacity_bits
    obs[:, 3] = np.minimum(w.last_energy / w.max_slot_energy, 1.0)
    obs[:, 4:5 + n] = w.formation.phi[1:].any(axis=2)
    base = 5 + n
    for i, gid in enumerate(w.targets):
        if gid is None:
            continue
        u, g = w.uavs[i], w.gus[gid]
        overhead = max(u.pos.z, 1.0)
        snr_max = w.chan.q_gu * w.chan.beta_s * overhead ** -w.chan.alpha_s
        snr = float(w.sensing_snr[i, gid])
        signal = min(math.log2(1.0 + snr) / math.log2(1.0 + snr_max), 1.0)
        dx, dy = g.pos.x - u.pos.x, g.pos.y - u.pos.y
        norm = math.hypot(dx, dy)
        bearing = (dx / norm, dy / norm) if norm > 0.0 else (0.0, 0.0)
        obs[i, base:base + 4] = (signal, *bearing, g.remaining / g.demand)
    return obs


def decode_action(raw, v_max: float):
    """Raw (-1,1)^2 action to (unit heading, speed): the first component
    is the heading angle over pi, the second maps linearly onto
    [0, v_max]."""
    heading, throttle = (min(max(float(a), -1.0), 1.0) for a in raw)
    ang = math.pi * heading
    speed = v_max * (throttle + 1.0) / 2.0
    return np.array([math.cos(ang), math.sin(ang)]), speed


def act(actors: nn.MlpStack, obs: np.ndarray, noise_scale: float = 0.0,
        rng: np.random.Generator | None = None) -> np.ndarray:
    """(N, 2) raw actions: row i is actor i's output on observation row
    i, plus optional Gaussian exploration noise, clamped to the raw action
    box.  One stacked forward equals the N single-vector forwards bit for
    bit, and the (N, 2) noise draw is the stream of N draws of 2."""
    raw = actors.forward(obs)
    if noise_scale > 0.0 and rng is not None:
        raw = raw + noise_scale * rng.standard_normal(raw.shape)
    return raw.clip(-1.0, 1.0)


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
    """Per-agent reward terms of one slot, each an (N,) array."""

    energy: np.ndarray   # -spent kJ (already negative)
    data: np.ndarray     # Mbit pushed toward the BS (direct or relayed)
    sense: np.ndarray    # Mbit collected
    penalty: np.ndarray  # separation penalty, subtracted


def reward(report: StepReport, weights: RewardWeights) -> tuple[np.ndarray, RewardParts]:
    """Every agent's reward total and its parts for one slot."""
    parts = RewardParts(
        energy=-report.energy / ENERGY_UNIT,
        data=(report.delivered_bs + report.relayed_out) / DATA_UNIT,
        sense=report.sensed / DATA_UNIT,
        penalty=weights.mu * report.violations_per_uav,
    )
    total = (
        weights.gamma_energy * parts.energy
        + weights.gamma_data * parts.data
        + weights.gamma_sense * parts.sense
        - parts.penalty
    )
    return total, parts


def critic_q(critic: nn.Mlp, obs: np.ndarray, acts: np.ndarray) -> list:
    """Q of each candidate joint action acts[r], shape (R, N, 2), under the
    (N, obs_dim) observations.  Critic input layout: all observations,
    then all raw actions.  One forward of the (R, 1, K) stack of inputs
    (gemv per row), each value equal to a single-vector forward bit for
    bit."""
    r = len(acts)
    x = np.concatenate([np.broadcast_to(obs.ravel(), (r, obs.size)),
                        acts.reshape(r, -1)], axis=1)
    y, _ = critic.forward(x[:, None, :])
    return y[:, 0, 0].tolist()


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
    # A zero count or size would crash mid-run or train nothing.
    episodes: int = 20000
    horizon: int = field(default=60, metadata={"min": 1})
    batch_size: int = field(default=256, metadata={"min": 1})
    replay_capacity: int = 100000
    warmup: int | None = None          # None -> batch_size
    actor_lr: float = 1e-3
    critic_lr: float = 1e-4
    tau: float = 0.01
    discount: float = 0.95
    noise_scale: float = 0.1
    epsilon: float = 0.1               # arbitration override probability
    bo_enabled: bool = True
    bo_stride: int = field(default=1, metadata={"min": 1})
    update_stride: int = field(default=1, metadata={"min": 1})
    hidden: tuple[int, ...] = field(default=(64, 64), metadata={"min": 1})  # layer widths
    lam: float = 0.5                   # buffer weight in cost/objective
    weights: RewardWeights = field(default_factory=RewardWeights)
    early_stop_enabled: bool = True
    early_stop_min_episodes: int = 300
    early_stop_patience: int = 300
    early_stop_rel_tol: float = 0.01
    eval_episodes: int = field(default=5, metadata={"min": 1})
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
    buffers = np.array([u.buffer for u in w.uavs])
    rates = np.array([channel.point_rate(w.link_power, i + 1, BS, w.chan) for i in range(n)])
    balance = formation.load_balance(buffers, rates, ratio_cap) if n >= 2 else np.zeros(1)
    costs = np.zeros(n)
    spare = np.zeros(n)
    sub_slots = w.scenario.protocol.t_s / w.scenario.protocol.t_o
    covered = world.in_coverage(w).tolist()
    for i in range(n):
        backlog = sum(g.remaining for g, inside in zip(w.gus, covered[i]) if inside)
        costs[i] = formation.cost(w.last_energy[i], buffers[i], backlog, lam)
        gid = w.targets[i]
        intake = 0.0 if gid is None else channel.link_rate(float(w.sensing_snr[i, gid]), w.chan)
        spare[i] = max(0.0, rates[i] - intake * sub_slots)
    return CostReport(balance=balance, cost=costs, spare_rate=spare)


def expected_transmitters(w: WorldState) -> np.ndarray:
    """Per-node mask of UAVs likely to send in the coming offload sub-slot:
    anyone holding buffered data or still able to sense an unfinished
    ground user (that is, with a stored target).  Lets the formation
    builders treat drained UAVs' allocations as quiet spectrum."""
    act = np.zeros(w.n_uavs + 1, dtype=bool)
    act[1:] = [u.buffer > 0.0 or gid is not None for u, gid in zip(w.uavs, w.targets)]
    return act


def make_formation_fn(policy: FormationPolicy, params: channel.ChannelParams, lam: float):
    """Returns fn(world, report=None) -> FormationMatrix implementing the
    configured policy on the live state.  A cost report the caller
    already built for this state may be passed in; otherwise the policies
    that need one build it."""
    def fn(w: WorldState, report: CostReport | None = None) -> channel.FormationMatrix:
        k = w.chan.n_channels
        if policy.kind == "non_cooperative":
            return formation.baseline_noncoop(w.n_uavs, k)
        tables = (w.node_range, w.link_power)
        active = expected_transmitters(w)
        if policy.kind == "buffer_threshold":
            buffers = np.array([u.buffer for u in w.uavs])
            return formation.baseline_buffer(buffers, *tables, policy, k, active)
        if report is None:
            report = build_cost_report(w, lam)
        if policy.kind == "dynamic_nf":
            return formation.baseline_dynamic_nf(report, *tables, policy, k, active)
        return formation.eda_nf(report, *tables, policy, k, params, active)
    return fn


@dataclass
class EpisodeStats:
    rewards: np.ndarray        # per-agent total
    sensed: float = 0.0
    delivered: float = 0.0
    energy: float = 0.0
    slots: int = 0
    completion_slot: int | None = None
    max_buffer: float = 0.0
    bo_frac: float = 0.0
    # ground demand plus UAV buffers after the last slot (rollout only)
    remaining_final: float | None = None

    def add_slot(self, w: WorldState, report: StepReport, rews: np.ndarray) -> None:
        """Fold one stepped slot into the episode totals."""
        self.rewards += rews
        self.sensed += report.sensed.sum()
        self.delivered += report.delivered_bs.sum()
        self.energy += report.energy.sum()
        self.max_buffer = max(self.max_buffer, max(u.buffer for u in w.uavs))
        self.slots += 1


def _episode_done(w: WorldState) -> bool:
    return all(g.remaining <= 0.0 for g in w.gus) and all(u.buffer <= 0.0 for u in w.uavs)


def rollout(w: WorldState, act_fn, horizon: int, formation_fn, weights: RewardWeights,
            slot_cb=None) -> EpisodeStats:
    """Run one episode with an arbitrary action provider
    act_fn(w, obs) -> (N, 2) raw actions, obs being observe(w).  No
    learning, no noise."""
    n = w.n_uavs
    stats = EpisodeStats(np.zeros(n), max_buffer=max(u.buffer for u in w.uavs))
    for slot in range(horizon):
        obs = observe(w)
        acts = np.asarray(act_fn(w, obs), dtype=float)
        decoded = [decode_action(a, u.v_max) for a, u in zip(acts.tolist(), w.uavs)]
        w, report = world.step(w, decoded, w.formation)
        stats.add_slot(w, report, reward(report, weights)[0])
        if slot_cb is not None:
            slot_cb(w, slot, acts, report)
        w.formation = formation_fn(w)
        if _episode_done(w):
            stats.completion_slot = stats.slots
            break
    stats.remaining_final = sum(g.remaining for g in w.gus) + sum(u.buffer for u in w.uavs)
    return stats


def actor_policy(agents: list):
    """Deterministic decentralized policy from the actors as they are
    now: they are stacked once, so later training does not reach it."""
    actors = nn.MlpStack(a.actor for a in agents)

    def fn(w, obs):
        return act(actors, obs)
    return fn


@dataclass
class TrainResult:
    agents: list
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

    def _new_world(self, rng=None, demand_scale: float = 1.0,
                   formation_fn=None) -> WorldState:
        scenario = self.scenario
        if demand_scale != 1.0:
            scenario = dc_replace(scenario, demand_bits=scenario.demand_bits * demand_scale)
        if rng is None:
            rng = np.random.default_rng(self._world_ss.spawn(1)[0])
        w = world.make_world(scenario, self.chan, rng)
        w.formation = (formation_fn or self.formation_fn)(w)
        return w

    def _bo_action(self, i: int, w: WorldState) -> np.ndarray:
        hw = self.scenario.half_width_m
        u = w.uavs[i]
        cur = np.array([u.pos.x / hw, u.pos.y / hw])
        prop = gp.propose_point(self.histories[i], cur, self.reach_scaled,
                                self.cfg.gp, bounds=self.gp_bounds,
                                offsets=self.gp_offsets)
        return bo_to_action(u.pos, prop * hw, u.v_max, w.scenario.protocol.t_f)

    def train_episode(self, ep: int, sink=None) -> EpisodeStats:
        tc = self.train_cfg
        w = self._new_world()
        n = w.n_uavs
        hw = self.scenario.half_width_m
        stats = EpisodeStats(np.zeros(n))
        bo_hits = 0
        log_slots = (sink is not None and tc.metrics_episode_stride > 0
                     and ep % tc.metrics_episode_stride == 0)
        for slot in range(tc.horizon):
            obs = observe(w)
            actors = nn.MlpStack(a.actor for a in self.agents)  # they learn
            a_actor = act(actors, obs, tc.noise_scale, self.noise_rng)
            a_exec = a_actor.copy()
            if tc.bo_enabled and slot % tc.bo_stride == 0:
                for i in range(n):
                    a_bo = self._bo_action(i, w)
                    trials = np.stack([a_actor, a_actor])
                    trials[1, i] = a_bo
                    q_a, q_b = critic_q(self.agents[i].critic, obs, trials)
                    a_exec[i], src = arbitrate(a_actor[i], a_bo, q_a, q_b,
                                               tc.epsilon, self.arb_rng)
                    if src == "bo":
                        bo_hits += 1
            decoded = [decode_action(a, u.v_max) for a, u in zip(a_exec.tolist(), w.uavs)]
            w, report = world.step(w, decoded, w.formation)
            rews, parts = reward(report, tc.weights)
            obs2 = observe(w)
            done = _episode_done(w)
            self.replay.add(obs, a_exec, rews, obs2, done)
            if tc.bo_enabled:  # only the GP proposer reads the histories
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
                    links = ";".join(f"{rx}:{ch}" for rx, ch in w.formation.out_links(u.id))
                    sink.slot_row({
                        "episode": ep, "slot": slot, "uav_id": u.id,
                        "x": u.pos.x, "y": u.pos.y, "buffer_bits": u.buffer,
                        "energy_j": u.energy_used, "reward_total": rews[i],
                        "reward_e": parts.energy[i], "reward_d": parts.data[i],
                        "reward_s": parts.sense[i], "penalty": parts.penalty[i],
                        "b_i": cost_rep.balance[i], "c_i": cost_rep.cost[i],
                        "formation_links": links, "gu_backlog_total": backlog,
                    })
            stats.add_slot(w, report, rews)
            w.formation = self.formation_fn(w, cost_rep)
            if done:
                stats.completion_slot = stats.slots
                break
        stats.bo_frac = bo_hits / max(1, stats.slots * n)
        return stats

    def run(self, episodes: int | None = None, sink=None) -> TrainResult:
        tc = self.train_cfg
        budget = tc.episodes if episodes is None else episodes
        ema = None
        best = -math.inf
        best_ep = 0
        stopped = False
        episodes_run = 0
        for ep in range(budget):
            stats = self.train_episode(ep, sink)
            episodes_run += 1
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
            agents=self.agents, episodes_run=episodes_run,
            early_stopped=stopped, final_smoothed=ema if ema is not None else 0.0,
        )

    def evaluate(self, episodes: int, policy: FormationPolicy | None = None,
                 demand_scale: float = 1.0, horizon: int | None = None,
                 slot_cb=None, act_fn=None) -> list:
        """Deterministic rollouts of the trained actors (or any act_fn):
        no noise, no GP arbitration.  World seeds depend only on (run
        seed, episode), so different policies see identical scenarios."""
        fn = (self.formation_fn if policy is None
              else make_formation_fn(policy, self.chan, self.train_cfg.lam))
        horizon = self.train_cfg.horizon if horizon is None else horizon
        act = actor_policy(self.agents) if act_fn is None else act_fn
        out = []
        for k in range(episodes):
            rng = np.random.default_rng([self.cfg.seed, 2, k])
            w = self._new_world(rng=rng, demand_scale=demand_scale, formation_fn=fn)
            out.append(rollout(w, act, horizon, fn,
                               self.train_cfg.weights, slot_cb=slot_cb))
        return out
