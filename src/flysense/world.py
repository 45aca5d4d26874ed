"""Time-slotted world for multi-UAV data offloading.

Each one-second slot splits into three phases: every UAV flies along its
commanded heading (t_f), collects data from the strongest ground user in
its coverage (t_s), then forwards buffered data along the links of the
current formation matrix (t_o).  Positions are meters, data is bits,
energy is joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import channel
from .channel import ChannelParams, FormationMatrix, FormationError


class Position(NamedTuple):
    """A point in meters; a tuple, so channel.distance takes it as is."""

    x: float
    y: float
    z: float = 0.0


@dataclass
class GroundUser:
    id: int
    pos: Position
    remaining: float   # bits still waiting for pickup
    demand: float      # bits requested at the start of the run


@dataclass
class UavState:
    id: int            # node id, 1-based (node 0 is the base station)
    pos: Position
    buffer: float = 0.0
    energy_used: float = 0.0
    v_max: float = 20.0


@dataclass(frozen=True)
class ProtocolConfig:
    """Slot timing plus the minimum UAV separation."""

    slot_len: float = 1.0
    t_f: float = 0.3
    t_s: float = 0.3
    t_o: float = 0.4
    d_min: float = 10.0            # minimum UAV separation, meters

    def __post_init__(self):
        for name in ("t_f", "t_s", "t_o"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if abs(self.t_f + self.t_s + self.t_o - self.slot_len) > 1e-9:
            raise ValueError("sub-slot durations must sum to slot_len")


@dataclass(frozen=True)
class EnergyModel:
    """Forward-flight propulsion power c1*v^3 + c2/v with a floor speed,
    plus constant hover-and-payload power while sensing/offloading."""

    c1: float = 9.26e-4
    c2: float = 2250.0
    hover_w: float = 170.0
    v_floor: float = field(default=1.0, metadata={"gt": 0.0})


@dataclass
class Scenario:
    """Static description of one service area.

    x/y coordinates in this config are scaled to [-1, 1] over the square
    field; they are converted to meters when the world is built.
    """

    # A bound broken here would crash mid-run or simulate nothing.
    half_width_km: float = field(default=1.0, metadata={"gt": 0.0})
    n_uavs: int = field(default=3, metadata={"min": 1})
    n_gus: int = field(default=8, metadata={"min": 1})
    gu_xy: tuple[tuple[float, float], ...] | None = None  # explicit scaled coords, else sampled
    gu_seed: int | None = field(default=None, metadata={"min": 0})  # None: from the run seed
    demand_bits: float = field(default=1e7, metadata={"min": 0.0})  # per-GU request (10 Mbit)
    buffer_capacity_bits: float = field(default=2e7, metadata={"gt": 0.0})
    uav_alt_m: float = 100.0
    bs_height_m: float = 25.0
    bs_xy: tuple[float, float] = (1.0, 1.0)  # scaled; upper-right corner
    uav_xy: tuple[tuple[float, float], ...] | None = None  # explicit scaled starts, else sampled
    v_max_mps: float = field(default=20.0, metadata={"gt": 0.0})
    coverage_snr_min_db: float = 0.0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    energy: EnergyModel = field(default_factory=EnergyModel)

    @property
    def half_width_m(self) -> float:
        return self.half_width_km * 1000.0


def coverage_radius_m(scenario: Scenario, params: ChannelParams) -> float:
    """Largest slant range at which the sensing SNR still meets the
    configured threshold."""
    thr = 10.0 ** (scenario.coverage_snr_min_db / 10.0)
    return (params.q_gu * params.beta_s / thr) ** (1.0 / params.alpha_s)


@dataclass
class WorldState:
    """Single-writer simulation state; all mutation goes through step().

    The geometry fields are built from the positions by place(), which
    make_world and the fly phase of step() call: positions change nowhere
    else, so every decision of a slot reads these tables.  targets holds
    each UAV's select_gu(w, i) choice for the state make_world or step
    left, so observations and the cost report rank no users again."""

    t: int
    uavs: list
    gus: list
    formation: FormationMatrix
    scenario: Scenario
    chan: ChannelParams
    bs_pos: Position
    last_energy: np.ndarray  # per-UAV propulsion J spent in the previous slot
    max_slot_energy: float   # most propulsion J one slot can burn
    gu_xyz: np.ndarray = field(init=False)       # (M, 3) user positions; users never move
    nodes: np.ndarray = field(init=False)        # (N+1, 3) positions, BS in row 0
    node_range: np.ndarray = field(init=False)   # (N+1, N+1) channel.ranges
    link_power: np.ndarray = field(init=False)   # (N+1, N+1) channel.link_power
    sensing_snr: np.ndarray = field(init=False)  # (N, M) sensing_table
    targets: list = field(init=False)            # per UAV: user id or None

    @property
    def n_uavs(self) -> int:
        return len(self.uavs)


OUT_OF_COVERAGE = -1.0  # sensing-table entry of a user outside a UAV's radius


def sensing_table(uav_xyz: np.ndarray, gu_xyz: np.ndarray, scenario: Scenario,
                  params: ChannelParams) -> np.ndarray:
    """(N, M) sensing SNR of every UAV-ground-user pair, OUT_OF_COVERAGE
    where the user lies outside the UAV's coverage radius.  The ranges
    come in one batch; the SNR keeps its scalar formula entry by entry."""
    radius = coverage_radius_m(scenario, params)
    return np.array([[channel.g2u_snr(d, params) if d <= radius else OUT_OF_COVERAGE
                      for d in row]
                     for row in channel.ranges(uav_xyz, gu_xyz).tolist()])


def place(w: WorldState) -> None:
    """Build the slot's geometry from the current positions: the node
    array, the node-range and received-power tables, and the sensing
    table."""
    nodes = np.array([w.bs_pos, *(u.pos for u in w.uavs)], dtype=float)
    nodes.flags.writeable = False
    w.nodes = nodes
    w.node_range = channel.ranges(nodes, nodes)
    w.link_power = channel.link_power(w.node_range, w.chan)
    w.sensing_snr = sensing_table(nodes[1:], w.gu_xyz, w.scenario, w.chan)


def _rank_targets(w: WorldState) -> list:
    """Every UAV's select_gu target without exclusions, on the current
    state; make_world and step store it as w.targets."""
    return [select_gu(w, i) for i in range(w.n_uavs)]


def in_coverage(w: WorldState) -> np.ndarray:
    """(N, M) mask of the ground users inside each UAV's coverage radius."""
    return w.sensing_snr > OUT_OF_COVERAGE


def make_world(scenario: Scenario, params: ChannelParams, rng: np.random.Generator) -> WorldState:
    hw = scenario.half_width_m
    layout_rng = rng if scenario.gu_seed is None else np.random.default_rng(scenario.gu_seed)
    if scenario.gu_xy is not None:
        gu_xy = np.asarray(scenario.gu_xy, dtype=float)
    else:
        gu_xy = layout_rng.uniform(-1.0, 1.0, size=(scenario.n_gus, 2))
    gus = [
        GroundUser(m, Position(x * hw, y * hw, 0.0), scenario.demand_bits, scenario.demand_bits)
        for m, (x, y) in enumerate(gu_xy)
    ]

    if scenario.uav_xy is not None:
        uav_xy = np.asarray(scenario.uav_xy, dtype=float)
    else:
        uav_xy = rng.uniform(-1.0, 1.0, size=(scenario.n_uavs, 2))
    uavs = [
        UavState(i + 1, Position(x * hw, y * hw, scenario.uav_alt_m), 0.0, 0.0, scenario.v_max_mps)
        for i, (x, y) in enumerate(uav_xy)
    ]

    bs = Position(scenario.bs_xy[0] * hw, scenario.bs_xy[1] * hw, scenario.bs_height_m)
    fm = FormationMatrix(scenario.n_uavs, params.n_channels)
    w = WorldState(
        t=0,
        uavs=uavs,
        gus=gus,
        formation=fm,
        scenario=scenario,
        chan=params,
        bs_pos=bs,
        last_energy=np.zeros(scenario.n_uavs),
        max_slot_energy=max_slot_energy(scenario),
    )
    w.gu_xyz = np.array([g.pos for g in gus], dtype=float)
    w.gu_xyz.flags.writeable = False
    place(w)
    w.targets = _rank_targets(w)
    return w


def move_uav(u: UavState, direction, speed: float, proto: ProtocolConfig, half_width_m: float) -> Position:
    """Position after flying for the fly sub-slot.

    direction must be a unit 2-vector in the horizontal plane; speed is
    clamped to the UAV's limit and the result is clamped to the field.
    Altitude never changes.
    """
    if len(direction) != 2:
        raise ValueError(f"direction must be a unit 2-vector, got {direction!r}")
    dx, dy = float(direction[0]), float(direction[1])
    if abs(math.hypot(dx, dy) - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit 2-vector, got {direction!r}")
    if speed < 0:
        raise ValueError("speed must be non-negative")
    step_m = min(float(speed), u.v_max) * proto.t_f
    x = min(max(u.pos.x + dx * step_m, -half_width_m), half_width_m)
    y = min(max(u.pos.y + dy * step_m, -half_width_m), half_width_m)
    return Position(x, y, u.pos.z)


def select_gu(w: WorldState, i: int, exclude=()) -> int | None:
    """Ground user UAV i (0-based) will serve: the strongest received
    signal (equal transmit powers, so the smallest slant range) among
    users with data left inside its coverage radius.  Ties break to the
    lowest id; returns None when nobody qualifies."""
    best_id = None
    best_snr = OUT_OF_COVERAGE
    for g, snr in zip(w.gus, w.sensing_snr[i].tolist()):
        if snr > best_snr and g.remaining > 0.0 and g.id not in exclude:
            best_snr = snr
            best_id = g.id
    return best_id


def sense(w: WorldState, i: int, gid: int) -> float:
    """Bits UAV i collects from ground user gid during the sensing
    sub-slot: the link-rate budget capped by what the user still has and
    by the UAV's free buffer space."""
    rate = channel.link_rate(float(w.sensing_snr[i, gid]), w.chan)
    free = max(w.scenario.buffer_capacity_bits - w.uavs[i].buffer, 0.0)
    return min(w.scenario.protocol.t_s * rate, w.gus[gid].remaining, free)


def gu_queue_step(g: GroundUser, drained: float) -> GroundUser:
    """Queue after one slot; drained bits leave, nothing goes negative."""
    return replace(g, remaining=max(g.remaining - drained, 0.0))


def uav_buffer_step(buffer: float, outgoing: float, incoming: float, capacity: float) -> float:
    """Buffer after one slot: sent bits leave first, then this slot's
    sensed and relayed-in bits arrive, clipped at capacity."""
    return min(max(buffer - outgoing, 0.0) + incoming, capacity)


def propulsion_energy(speed: float, proto: ProtocolConfig, model: EnergyModel) -> float:
    """Joules burned in one slot at the given commanded speed.

    Flight power follows the forward-flight model with speeds below the
    floor treated as the floor; the hover/payload draw runs for the rest
    of the slot."""
    v = max(float(speed), model.v_floor)
    p_fly = model.c1 * v ** 3 + model.c2 / v
    return p_fly * proto.t_f + model.hover_w * (proto.t_s + proto.t_o)


def max_slot_energy(scenario: Scenario) -> float:
    """Most propulsion energy (J) one slot can burn at any commanded speed
    from 0 to v_max: the floor speed or the top speed, whichever costs
    more."""
    proto, model = scenario.protocol, scenario.energy
    return max(propulsion_energy(0.0, proto, model),
               propulsion_energy(scenario.v_max_mps, proto, model))


@dataclass
class StepReport:
    """Everything that happened in one slot, indexed by 0-based UAV."""

    sensed: np.ndarray        # bits collected from ground users
    delivered_bs: np.ndarray  # bits delivered to the base station
    relayed_out: np.ndarray   # bits sent to other UAVs
    energy: np.ndarray        # propulsion J (enters the objective)
    violations_per_uav: np.ndarray  # other UAVs closer than d_min after flying


def step(w: WorldState, actions: list, fm: FormationMatrix) -> tuple[WorldState, StepReport]:
    """Advance the world one slot under the given per-UAV (direction,
    speed) commands and formation matrix.  The matrix is validated before
    anything mutates."""
    bad = channel.validate_alloc(fm)
    if bad:
        raise FormationError(f"invalid allocation at (node, channel): {bad}")
    n = len(w.uavs)
    if len(actions) != n:
        raise ValueError(f"expected {n} actions, got {len(actions)}")
    w.formation = fm
    cap = w.scenario.buffer_capacity_bits

    speeds = np.zeros(n)
    for i, (u, (direction, speed)) in enumerate(zip(w.uavs, actions)):
        u.pos = move_uav(u, direction, speed, w.scenario.protocol, w.scenario.half_width_m)
        speeds[i] = min(max(float(speed), 0.0), u.v_max)
    place(w)

    sensed = np.zeros(n)
    claimed: set = set()
    for i in range(n):
        gid = select_gu(w, i, exclude=claimed)
        if gid is None:
            continue
        claimed.add(gid)  # no later UAV reads this user, so drain it now
        sensed[i] = sense(w, i, gid)
        w.gus[gid] = gu_queue_step(w.gus[gid], sensed[i])
    w.targets = _rank_targets(w)  # offload below leaves the users alone

    buffers = np.array([u.buffer for u in w.uavs])
    free = cap - buffers - sensed
    res = channel.offload(buffers, free, w.link_power, fm, w.chan, w.scenario.protocol.t_o)

    energy = np.zeros(n)
    for i, u in enumerate(w.uavs):
        u.buffer = uav_buffer_step(u.buffer, res.outgoing[i], sensed[i] + res.incoming[i], cap)
        energy[i] = propulsion_energy(speeds[i], w.scenario.protocol, w.scenario.energy)
        u.energy_used += energy[i]

    close = w.node_range[1:, 1:] < w.scenario.protocol.d_min
    np.fill_diagonal(close, False)

    w.last_energy = energy
    w.t += 1
    report = StepReport(
        sensed=sensed,
        delivered_bs=res.to_bs,
        relayed_out=res.outgoing - res.to_bs,
        energy=energy,
        violations_per_uav=close.sum(axis=1),
    )
    return w, report


def objective_slot(w: WorldState, report: StepReport, lam) -> float:
    """Per-slot value of the system cost: propulsion energy plus weighted
    UAV backlogs plus all outstanding ground demand (lower is better)."""
    lam = np.asarray(lam, dtype=float)
    buffers = np.array([u.buffer for u in w.uavs])
    backlog = sum(g.remaining for g in w.gus)
    return float(np.sum(report.energy + lam * buffers) + backlog)
