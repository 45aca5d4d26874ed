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
from .formation import CostReport, FormationPolicy
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
    target (w.targets).  Rows are built from Python floats and become
    one array at the end."""
    hw, cap = w.scenario.half_width_m, w.scenario.buffer_capacity_bits
    links = w.formation.rows
    rows = []
    for i, (u, e, gid) in enumerate(zip(w.uavs, w.last_energy, w.targets)):
        row = [u.pos.x / hw, u.pos.y / hw, u.buffer / cap, min(e / w.max_slot_energy, 1.0)]
        row += [1.0 if any(chs) else 0.0 for chs in links[i + 1]]
        rows.append(row)
        if gid is None:
            row += (0.0, 0.0, 0.0, 0.0)
            continue
        g = w.gus[gid]
        signal = min(math.log2(1.0 + w.sensing_snr[i][gid]) / w.max_signal, 1.0)
        dx, dy = g.pos.x - u.pos.x, g.pos.y - u.pos.y
        norm = math.hypot(dx, dy)
        bearing = (dx / norm, dy / norm) if norm > 0.0 else (0.0, 0.0)
        row += (signal, *bearing, g.remaining / g.demand)
    return np.array(rows)


def decode_action(raw, v_max: float):
    """Raw (-1,1)^2 action to (unit heading (dx, dy), speed): the first
    component is the heading angle over pi, the second maps linearly onto
    [0, v_max]."""
    heading, throttle = raw
    heading = min(max(float(heading), -1.0), 1.0)
    throttle = min(max(float(throttle), -1.0), 1.0)
    ang = math.pi * heading
    speed = v_max * (throttle + 1.0) / 2.0
    return (math.cos(ang), math.sin(ang)), speed


def act(actors: nn.MlpStack, obs: np.ndarray, noise_scale: float = 0.0,
        rng: np.random.Generator | None = None) -> np.ndarray:
    """(N, 2) raw actions: row i is actor i's output on observation row i,
    plus Gaussian noise from rng if noise_scale > 0, clamped to the raw
    action box.  One stacked forward equals the N single-vector forwards
    bit for bit, and the (N, 2) noise draw is the stream of N draws of 2."""
    raw = actors.forward(obs)
    if noise_scale > 0.0:
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
    """Per-agent reward terms of one slot, one list entry per agent."""

    energy: list   # -spent kJ (already negative)
    data: list     # Mbit pushed toward the BS (direct or relayed)
    sense: list    # Mbit collected
    penalty: list  # separation penalty, subtracted


def reward(report: StepReport, weights: RewardWeights) -> tuple[np.ndarray, RewardParts]:
    """Every agent's reward total (an array, for replay) and its parts for one slot."""
    energy = [-e / ENERGY_UNIT for e in report.energy]
    data = [(b + r) / DATA_UNIT for b, r in zip(report.delivered_bs, report.relayed_out)]
    sense = [s / DATA_UNIT for s in report.sensed]
    penalty = [weights.mu * v for v in report.violations_per_uav]
    total = [weights.gamma_energy * e + weights.gamma_data * d + weights.gamma_sense * s - p
             for e, d, s, p in zip(energy, data, sense, penalty)]
    return np.array(total), RewardParts(energy, data, sense, penalty)


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


def arbitrate(a_actor, propose, epsilon: float = 0.0,
              rng: np.random.Generator | None = None):
    """Critic-refereed choice between the actor action and the GP proposal,
    propose() -> (a_bo, q_actor, q_bo); ties go to the actor.  First, with
    probability epsilon, a uniform random action overrides: no proposal."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.uniform(-1.0, 1.0, ACT_DIM), "random"
    a_bo, q_actor, q_bo = propose()
    if q_bo > q_actor:
        return np.asarray(a_bo, dtype=float), "bo"
    return np.asarray(a_actor, dtype=float), "actor"


@dataclass
class Batch:
    """Sampled joint transitions and what the agents updated on them in
    turn share: the read-only critic input of the stored joint actions
    (all observations, then all raw actions), and next_acts, td_targets'
    target actions."""

    obs: np.ndarray    # (B, N, obs_dim)
    acts: np.ndarray   # (B, N, 2)
    rews: np.ndarray   # (B, N)
    obs2: np.ndarray
    done: np.ndarray   # (B,)
    critic_input: np.ndarray = field(init=False, repr=False)
    next_acts: list = field(init=False, repr=False)  # None until td_targets fills it

    def __post_init__(self):
        b, n = self.obs.shape[:2]
        self.next_acts = [None] * n
        self.critic_input = np.concatenate(
            [self.obs.reshape(b, -1), self.acts.reshape(b, -1)], axis=1)
        self.critic_input.flags.writeable = False


class ReplayBuffer:
    """Ring of up to capacity joint transitions with uniform sampling.
    The arrays (obs, acts, rews, obs2, done; one row per transition)
    start empty and double as rows arrive, up to capacity, so memory
    follows what was written; sample() reads only written rows."""

    def __init__(self, capacity: int, n_agents: int, obs_dim: int,
                 rng: np.random.Generator):
        self.capacity = capacity
        self.rng = rng
        self._arrays = [np.empty((0, *shape)) for shape in (
            (n_agents, obs_dim), (n_agents, ACT_DIM), (n_agents,), (n_agents, obs_dim), ())]
        self._idx = 0
        self._size = 0

    def add(self, obs, acts, rews, obs2, done: bool) -> None:
        i = self._idx
        if i == len(self._arrays[0]):  # every row written, capacity not reached
            rows = min(max(1, 2 * i), self.capacity)
            self._arrays = [np.concatenate([a, np.empty((rows - i, *a.shape[1:]))])
                            for a in self._arrays]
        for a, value in zip(self._arrays, (obs, acts, rews, obs2, float(done))):
            a[i] = value
        self._idx = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        if batch_size > self._size:
            raise ValueError("not enough transitions buffered")
        idx = self.rng.choice(self._size, size=batch_size, replace=False)
        return Batch(*(a.take(idx, axis=0) for a in self._arrays))

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
            actor_opt=nn.Adam(actor, actor_lr),
            critic_opt=nn.Adam(critic, critic_lr),
        ))
    return agents


def td_targets(agents: list, i: int, batch: Batch, discount: float) -> np.ndarray:
    """One-step bootstrapped targets from the target networks; terminal
    transitions use the bare reward.  The target actions come from
    batch.next_acts: None entries are computed here and stored there."""
    b, n, obs_dim = batch.obs2.shape
    for j in range(n):
        if batch.next_acts[j] is None:
            batch.next_acts[j] = agents[j].target_actor.forward(batch.obs2[:, j])[0]
    x2 = np.concatenate([batch.obs2.reshape(b, -1), *batch.next_acts], axis=1)
    q2, _ = agents[i].target_critic.forward(x2)
    return batch.rews[:, i] + discount * (1.0 - batch.done) * q2[:, 0]


def update_agent(i: int, agents: list, batch: Batch, discount: float, tau: float):
    """One critic step on the squared TD error, one actor step up the
    critic's value, then Polyak updates of both targets, after which
    agent i's entry of batch.next_acts is cleared.  Agents updated in
    turn on one batch share its other entries (see td_targets).  Returns
    (critic_loss, mean_q) for logging."""
    agent = agents[i]
    b, n, obs_dim = batch.obs.shape
    x = batch.critic_input
    q, cache = agent.critic.forward(x)
    y = td_targets(agents, i, batch, discount)
    diff = q[:, 0] - y
    # np.add.reduce(...) / b: np.mean's sum and division, without its wrapper
    critic_loss = float(np.add.reduce(diff ** 2) / b)
    grad, _ = agent.critic.backward(cache, (2.0 * diff / b)[:, None], inputs=False)
    agent.critic_opt.step(grad)

    a_i, actor_cache = agent.actor.forward(batch.obs[:, i])
    cols = slice(n * obs_dim + i * ACT_DIM, n * obs_dim + (i + 1) * ACT_DIM)  # agent i's action
    x_pi = x.copy()
    x_pi[:, cols] = a_i
    q_pi, critic_cache = agent.critic.forward(x_pi)
    mean_q = float(np.add.reduce(q_pi, axis=None) / b)
    _, dx = agent.critic.backward(critic_cache, np.full((b, 1), -1.0 / b), params=False)
    actor_grad, _ = agent.actor.backward(actor_cache, dx[:, cols], inputs=False)
    agent.actor_opt.step(actor_grad)

    nn.soft_update(agent.target_critic, agent.critic, tau)
    nn.soft_update(agent.target_actor, agent.actor, tau)
    batch.next_acts[i] = None
    return critic_loss, mean_q


@dataclass
class TrainingConfig:
    # A zero count or size would crash mid-run or train nothing.
    episodes: int = field(default=20000, metadata={"min": 1})
    horizon: int = field(default=60, metadata={"min": 1})
    batch_size: int = field(default=256, metadata={"min": 1})
    replay_capacity: int = 100000
    warmup: int | None = None          # None -> batch_size
    # Adam moves each weight by about lr a step, and the nets start within
    # 1/sqrt(fan_in): a rate above 1 outsteps the whole initial range.
    actor_lr: float = field(default=1e-3, metadata={"gt": 0.0, "max": 1.0})
    critic_lr: float = field(default=1e-4, metadata={"gt": 0.0, "max": 1.0})
    tau: float = field(default=0.01, metadata={"gt": 0.0, "max": 1.0})
    discount: float = field(default=0.95, metadata={"min": 0.0, "lt": 1.0})
    noise_scale: float = field(default=0.1, metadata={"min": 0.0})
    epsilon: float = field(default=0.1, metadata={"min": 0.0, "max": 1.0})  # arbitration override
    bo_enabled: bool = True
    hidden: tuple[int, ...] = field(default=(64, 64), metadata={"min": 1})  # layer widths
    lam: float = 0.5                   # buffer weight in cost/objective
    weights: RewardWeights = field(default_factory=RewardWeights)
    early_stop_enabled: bool = True
    early_stop_min_episodes: int = field(default=300, metadata={"min": 0})
    early_stop_patience: int = field(default=300, metadata={"min": 0})
    early_stop_rel_tol: float = field(default=0.01, metadata={"min": 0.0})
    eval_episodes: int = field(default=5, metadata={"min": 1})
    metrics_episode_stride: int = field(default=1, metadata={"min": 0})  # 0: no per-slot rows
    completion_cap: int = field(default=600, metadata={"min": 1})  # drain-everything horizon

    @property
    def warmup_size(self) -> int:
        return self.batch_size if self.warmup is None else self.warmup


def uav_costs(w: WorldState, lam: float) -> list:
    """Each UAV's running cost (formation.cost) from last slot's energy,
    its own buffer, and the remaining demand of the users it covers."""
    return [formation.cost(e, u.buffer, sum(g.remaining for g, snr in zip(w.gus, snrs)
                                            if snr > world.OUT_OF_COVERAGE), lam)
            for u, e, snrs in zip(w.uavs, w.last_energy, w.sensing_snr)]


def build_cost_report(w: WorldState, lam: float) -> CostReport:
    """Status snapshot for the formation policies: drain-time balance from
    current buffers against each UAV's would-be direct BS rate, the
    uav_costs, and the spare backhaul rate each UAV could lend a seeker
    (BS rate minus the sensing intake of its current target, scaled to the
    offload sub-slot)."""
    rates = [channel.point_rate(w.link_power, i + 1, BS, w.chan) for i in range(w.n_uavs)]
    balance = formation.load_balance([u.buffer for u in w.uavs], rates)
    sub_slots = w.scenario.protocol.t_s / w.scenario.protocol.t_o
    intake = [0.0 if gid is None else channel.link_rate(snrs[gid], w.chan)
              for gid, snrs in zip(w.targets, w.sensing_snr)]
    spare = [max(0.0, rate - bits * sub_slots) for rate, bits in zip(rates, intake)]
    return CostReport(balance, uav_costs(w, lam), spare)


def expected_transmitters(w: WorldState) -> list:
    """Per-node mask of UAVs likely to send in the coming offload sub-slot:
    anyone holding buffered data or still able to sense an unfinished
    ground user (that is, with a stored target).  Lets the formation
    builders treat drained UAVs' allocations as quiet spectrum."""
    return [False] + [u.buffer > 0.0 or gid is not None for u, gid in zip(w.uavs, w.targets)]


def make_formation_fn(policy: FormationPolicy, lam: float):
    """Returns fn(world) -> FormationMatrix implementing the configured
    policy on the live state alone: eda_nf builds the cost report and
    dynamic_nf computes only the uav_costs it reads."""
    def fn(w: WorldState) -> channel.FormationMatrix:
        k = w.chan.n_channels
        if policy.kind == "non_cooperative":
            return formation.baseline_noncoop(w.n_uavs, k)
        tables = (w.node_range, w.link_power)
        active = expected_transmitters(w)
        if policy.kind == "buffer_threshold":
            buffers = [u.buffer for u in w.uavs]
            return formation.baseline_buffer(buffers, *tables, policy, k, active)
        if policy.kind == "dynamic_nf":
            return formation.baseline_dynamic_nf(uav_costs(w, lam), *tables, policy, k, active)
        return formation.eda_nf(build_cost_report(w, lam), *tables, policy, k, w.chan, active)
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

    def add_slot(self, w: WorldState, report: StepReport, rews: np.ndarray) -> bool:
        """Fold one stepped slot into the episode totals.  Returns whether
        the episode is done, every user and every buffer empty, and then
        records this slot as its completion."""
        self.rewards += rews
        # np.add.reduce: the order of additions of ndarray.sum, not sum()'s
        self.sensed += np.add.reduce(report.sensed)
        self.delivered += np.add.reduce(report.delivered_bs)
        self.energy += np.add.reduce(report.energy)
        self.max_buffer = max(self.max_buffer, max(u.buffer for u in w.uavs))
        self.slots += 1
        done = all(g.remaining <= 0.0 for g in w.gus) and all(u.buffer <= 0.0 for u in w.uavs)
        if done:
            self.completion_slot = self.slots
        return done


def rollout(w: WorldState, act_fn, horizon: int, formation_fn, weights: RewardWeights,
            slot_cb=None) -> EpisodeStats:
    """Run one episode from an unplanned world with an arbitrary action
    provider act_fn(w, obs) -> (N, 2) raw actions, obs being observe(w).
    Each slot plans its formation first.  No learning, no noise."""
    stats = EpisodeStats(np.zeros(w.n_uavs))
    for slot in range(horizon):
        w.formation = formation_fn(w)
        obs = observe(w)
        acts = np.asarray(act_fn(w, obs), dtype=float)
        decoded = [decode_action(a, w.scenario.v_max_mps) for a in acts.tolist()]
        w, report = world.step(w, decoded, w.formation)
        done = stats.add_slot(w, report, reward(report, weights)[0])
        if slot_cb is not None:
            slot_cb(w, slot, acts, report)
        if done:
            break
    stats.remaining_final = sum(g.remaining for g in w.gus) + sum(u.buffer for u in w.uavs)
    return stats


class Trainer:
    """Owns the networks, replay, GP window, and all random streams of
    one training run.  Seeded identically, two trainers produce
    bit-identical metric streams.  The actors' weights live in one
    nn.MlpStack, which both training and evaluation act through.  The
    fleet's GP window is gp_x, (N, m, 2) scaled positions, and gp_y,
    (N, m) Mbit sensed there, oldest sample first; row i is UAV i's.
    updates counts the update_agent calls made so far."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.train_cfg: TrainingConfig = cfg.training
        scenario = cfg.scenario
        if scenario.gu_seed is None:
            layout = int(np.random.SeedSequence([cfg.seed, 1]).generate_state(1)[0])
            scenario = dc_replace(scenario, gu_seed=layout)
        self.scenario = scenario
        ss = np.random.SeedSequence(cfg.seed)
        init_ss, self._world_ss, noise_ss, replay_ss, arb_ss = ss.spawn(5)
        init_rng = np.random.default_rng(init_ss)
        self.noise_rng = np.random.default_rng(noise_ss)
        self.arb_rng = np.random.default_rng(arb_ss)
        n = scenario.n_uavs
        obs_dim = observation_dim(n)
        tc = self.train_cfg
        self.agents = build_agents(n, obs_dim, tc.hidden, tc.actor_lr, tc.critic_lr, init_rng)
        self.actors = nn.MlpStack(a.actor for a in self.agents)
        self.replay = ReplayBuffer(tc.replay_capacity, n, obs_dim,
                                   np.random.default_rng(replay_ss))
        self.updates = 0
        self.gp_x, self.gp_y = np.zeros((n, 0, 2)), np.zeros((n, 0))
        self.formation_fn = make_formation_fn(cfg.formation, tc.lam)
        reach_scaled = scenario.v_max_mps * scenario.protocol.t_f / scenario.half_width_m
        self.gp_offsets = gp.candidate_offsets(reach_scaled, cfg.gp)

    def _new_world(self, rng=None, demand_scale: float = 1.0) -> WorldState:
        """A fresh, unplanned world: the episode loop plans each slot."""
        scenario = self.scenario
        if demand_scale != 1.0:
            scenario = dc_replace(scenario, demand_bits=scenario.demand_bits * demand_scale)
        if rng is None:
            rng = np.random.default_rng(self._world_ss.spawn(1)[0])
        return world.make_world(scenario, self.cfg.channel, rng)

    def _bo_scored(self, i: int, w: WorldState, obs: np.ndarray, a_actor: np.ndarray):
        """UAV i's GP proposal a_bo and agent i's critic q_actor, q_bo.  The
        proposer starts from obs[i, :2], observe's scaled position, as the
        window does: cast a lower-precision copy at the replay, not in observe."""
        s = w.scenario
        prop = gp.propose_point(self.gp_x[i], self.gp_y[i], obs[i, :2], self.gp_offsets,
                                self.cfg.gp)
        a_bo = bo_to_action(w.uavs[i].pos, prop * s.half_width_m, s.v_max_mps, s.protocol.t_f)
        trials = np.stack([a_actor, a_actor])
        trials[1, i] = a_bo
        return (a_bo, *critic_q(self.agents[i].critic, obs, trials))

    def train_episode(self, ep: int, sink=None) -> EpisodeStats:
        tc = self.train_cfg
        w = self._new_world()
        n = w.n_uavs
        stats = EpisodeStats(np.zeros(n))
        bo_hits = 0
        log_slots = (sink is not None and tc.metrics_episode_stride > 0
                     and ep % tc.metrics_episode_stride == 0)
        for slot in range(tc.horizon):
            w.formation = self.formation_fn(w)
            obs = observe(w)
            a_actor = act(self.actors, obs, tc.noise_scale, self.noise_rng)
            a_exec = a_actor.copy()
            if tc.bo_enabled:
                for i in range(n):
                    a_exec[i], src = arbitrate(
                        a_actor[i], lambda i=i: self._bo_scored(i, w, obs, a_actor),
                        tc.epsilon, self.arb_rng)
                    if src == "bo":
                        bo_hits += 1
            decoded = [decode_action(a, w.scenario.v_max_mps) for a in a_exec.tolist()]
            w, report = world.step(w, decoded, w.formation)
            rews, parts = reward(report, tc.weights)
            done = stats.add_slot(w, report, rews)
            obs2 = observe(w)
            self.replay.add(obs, a_exec, rews, obs2, done)
            if tc.bo_enabled:  # only the GP proposer reads the window
                mbit = np.array(parts.sense)
                keep = self.cfg.gp.window
                self.gp_x = np.concatenate([self.gp_x, obs2[:, None, :2]], axis=1)[:, -keep:]
                self.gp_y = np.concatenate([self.gp_y, mbit[:, None]], axis=1)[:, -keep:]
            if len(self.replay) >= tc.warmup_size:
                batch = self.replay.sample(tc.batch_size)
                for i in range(n):
                    update_agent(i, self.agents, batch, tc.discount, tc.tau)
                self.updates += n
            if log_slots:
                cost_rep = build_cost_report(w, tc.lam)
                backlog = sum(g.remaining for g in w.gus)
                for i, u in enumerate(w.uavs):
                    links = ";".join(f"{rx}:{ch}" for rx, ch in w.formation.out_links(i + 1))
                    sink.slot_row({
                        "episode": ep, "slot": slot, "uav_id": i + 1,
                        "x": u.pos.x, "y": u.pos.y, "buffer_bits": u.buffer,
                        "energy_j": u.energy_used, "reward_total": rews[i],
                        "reward_e": parts.energy[i], "reward_d": parts.data[i],
                        "reward_s": parts.sense[i], "penalty": parts.penalty[i],
                        "b_i": cost_rep.balance[i], "c_i": cost_rep.cost[i],
                        "formation_links": links, "gu_backlog_total": backlog,
                    })
            if done:
                break
        stats.bo_frac = bo_hits / max(1, stats.slots * n)
        return stats

    def run(self, episodes: int | None = None, sink=None) -> dict:
        """Train for the episode budget (the config's when None), or until
        the smoothed reward stops improving.  Returns the training half
        of summary.json: episodes_run, early_stopped, final_smoothed."""
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
        return {"episodes_run": episodes_run, "early_stopped": stopped,
                "final_smoothed": ema if ema is not None else 0.0}

    def evaluate(self, episodes: int, policy: FormationPolicy | None = None,
                 demand_scale: float = 1.0, horizon: int | None = None,
                 slot_cb=None, act_fn=None) -> list:
        """Deterministic rollouts of the actors as they are now, or of any
        act_fn(w, obs) that reads nothing else: no noise, no GP arbitration.
        World seeds depend only on (run seed, episode), so policies see the
        same worlds.  The Trainer fixes gu_seed, so the seed places only UAV
        starts: with uav_xy fixed, one rollout's stats stand for all
        `episodes`.  slot_cb(episode, w, slot, acts, report) sees every stepped slot."""
        fn = (self.formation_fn if policy is None
              else make_formation_fn(policy, self.train_cfg.lam))
        horizon = self.train_cfg.horizon if horizon is None else horizon
        act_fn = act_fn or (lambda w, obs: act(self.actors, obs))
        stepped = episodes if self.scenario.uav_xy is None else min(episodes, 1)
        out = []
        for k in range(stepped):
            rng = np.random.default_rng([self.cfg.seed, 2, k])
            w = self._new_world(rng=rng, demand_scale=demand_scale)
            cb = None if slot_cb is None else (lambda *slot, k=k: slot_cb(k, *slot))
            out.append(rollout(w, act_fn, horizon, fn, self.train_cfg.weights, slot_cb=cb))
        return out + out[-1:] * (episodes - stepped)
