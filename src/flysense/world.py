"""Time-slotted world for multi-UAV data offloading.

Each one-second slot splits into three phases: every UAV flies along its
commanded heading (t_f), collects data from the strongest ground user in
its coverage (t_s), then forwards buffered data along the links of the
current formation matrix (t_o).  Positions are meters, data is bits,
energy is joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import channel
from .channel import ChannelParams, FormationMatrix, FormationError


class Position(NamedTuple):
    """A point in meters."""

    x: float
    y: float
    z: float = 0.0


@dataclass
class GroundUser:
    pos: Position
    remaining: float   # bits still waiting for pickup
    demand: float      # bits requested at the start of the run


@dataclass
class UavState:
    """UAV i of WorldState.uavs is node i + 1 (node 0 is the base station)."""

    pos: Position
    buffer: float = 0.0
    energy_used: float = 0.0


SLOT_S = 1.0  # slot length, seconds


@dataclass(frozen=True)
class ProtocolConfig:
    """Slot timing plus the minimum UAV separation."""

    t_f: float = 0.3
    t_s: float = 0.3
    t_o: float = 0.4
    d_min: float = 10.0            # minimum UAV separation, meters

    def __post_init__(self):
        for name in ("t_f", "t_s", "t_o"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if abs(self.t_f + self.t_s + self.t_o - SLOT_S) > 1e-9:
            raise ValueError(f"sub-slot durations must sum to the {SLOT_S:g} s slot")


@dataclass(frozen=True)
class EnergyModel:
    """Forward-flight propulsion power c1*v^3 + c2/v with a floor speed,
    plus constant hover-and-payload power while sensing/offloading."""

    # Negative power lets one slot burn more than max_slot_energy.
    c1: float = field(default=9.26e-4, metadata={"min": 0.0})
    c2: float = field(default=2250.0, metadata={"min": 0.0})
    hover_w: float = field(default=170.0, metadata={"min": 0.0})
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
    gu_xy: tuple[tuple[float, float], ...] | None = field(  # explicit scaled coords, else sampled
        default=None, metadata={"min": -1.0, "max": 1.0})
    gu_seed: int | None = field(default=None, metadata={"min": 0})  # None: from the run seed
    demand_bits: float = field(default=1e7, metadata={"min": 0.0})  # per-GU request (10 Mbit)
    buffer_capacity_bits: float = field(default=2e7, metadata={"gt": 0.0})
    uav_alt_m: float = field(default=100.0, metadata={"min": 0.0})
    bs_height_m: float = 25.0
    bs_xy: tuple[float, float] = field(default=(1.0, 1.0), metadata={"min": -1.0, "max": 1.0})
    uav_xy: tuple[tuple[float, float], ...] | None = field(  # explicit scaled starts, else sampled
        default=None, metadata={"min": -1.0, "max": 1.0})
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


def max_signal(scenario: Scenario, params: ChannelParams) -> float:
    """log2(1 + SNR) of a ground user straight below a UAV, the closest
    any user gets (the path-loss floor for an altitude under 1 m)."""
    overhead = max(scenario.uav_alt_m, 1.0)
    return math.log2(1.0 + params.q_gu * params.beta_s * overhead ** -params.alpha_s)


@dataclass
class WorldState:
    """Single-writer simulation state; all mutation goes through step().

    place() builds the geometry tables, nested lists of Python floats,
    from the positions in make_world and in the fly phase of step():
    positions change nowhere else, so every decision of a slot reads these
    tables.  targets holds each UAV's select_gu(w, i) choice for
    the state make_world or step left, so observations and the cost
    report rank no users again."""

    t: int
    uavs: list
    gus: list
    formation: FormationMatrix
    scenario: Scenario
    chan: ChannelParams
    bs_pos: Position
    last_energy: list       # per-UAV propulsion J spent in the previous slot
    max_slot_energy: float  # most propulsion J one slot can burn
    max_signal: float       # most log2(1 + sensing SNR) a UAV can see
    gu_xyz: np.ndarray = field(init=False)  # (M, 3) user positions; users never move
    node_range: list = field(init=False)    # (N+1)x(N+1) channel.ranges, BS first
    link_power: list = field(init=False)    # (N+1)x(N+1) channel.link_power
    sensing_snr: list = field(init=False)   # NxM sensing_table
    targets: list = field(init=False)       # per UAV: user id or None

    @property
    def n_uavs(self) -> int:
        return len(self.uavs)


OUT_OF_COVERAGE = -1.0  # sensing-table entry of a user outside a UAV's radius


def sensing_table(uav_xyz: np.ndarray, gu_xyz: np.ndarray, scenario: Scenario,
                  params: ChannelParams) -> list:
    """NxM sensing SNR of every UAV-ground-user pair, OUT_OF_COVERAGE
    where the user lies outside the UAV's coverage radius.  The ranges
    come in one batch; the SNR keeps its scalar formula entry by entry."""
    radius = coverage_radius_m(scenario, params)
    return [[channel.g2u_snr(d, params) if d <= radius else OUT_OF_COVERAGE for d in row]
            for row in channel.ranges(uav_xyz, gu_xyz).tolist()]


def place(w: WorldState) -> None:
    """Build the slot's geometry from the current positions: the
    node-range and received-power tables, and the sensing table."""
    nodes = np.array([c for p in (w.bs_pos, *(u.pos for u in w.uavs)) for c in p],
                     dtype=float).reshape(-1, 3)
    w.node_range = channel.ranges(nodes, nodes).tolist()
    w.link_power = channel.link_power(w.node_range, w.chan)
    w.sensing_snr = sensing_table(nodes[1:], w.gu_xyz, w.scenario, w.chan)


def _layout(scaled_xy, n: int, rng: np.random.Generator, hw: float) -> list:
    """Meter (x, y) of n points: the configured scaled list, or else n
    uniform draws from rng, make_world's only reads of its generators."""
    if scaled_xy is None:
        return (rng.uniform(-1.0, 1.0, size=(n, 2)) * hw).tolist()
    return (np.asarray(scaled_xy, dtype=float) * hw).tolist()


def make_world(scenario: Scenario, params: ChannelParams, rng: np.random.Generator) -> WorldState:
    hw = scenario.half_width_m
    layout_rng = rng if scenario.gu_seed is None else np.random.default_rng(scenario.gu_seed)
    gus = [GroundUser(Position(x, y, 0.0), scenario.demand_bits, scenario.demand_bits)
           for x, y in _layout(scenario.gu_xy, scenario.n_gus, layout_rng, hw)]
    uavs = [UavState(Position(x, y, scenario.uav_alt_m))
            for x, y in _layout(scenario.uav_xy, scenario.n_uavs, rng, hw)]
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
        last_energy=[0.0] * scenario.n_uavs,
        max_slot_energy=max_slot_energy(scenario),
        max_signal=max_signal(scenario, params),
    )
    w.gu_xyz = np.array([g.pos for g in gus], dtype=float)
    w.gu_xyz.flags.writeable = False
    place(w)
    w.targets = [select_gu(w, i) for i in range(w.n_uavs)]
    return w


def move_uav(u: UavState, direction, speed: float, scenario: Scenario) -> Position:
    """Position after flying for the fly sub-slot.

    direction must be a unit 2-vector in the horizontal plane; speed is
    clamped to the fleet's limit (scenario.v_max_mps) and the result is
    clamped to the field.
    Altitude never changes.
    """
    if len(direction) != 2:
        raise ValueError(f"direction must be a unit 2-vector, got {direction!r}")
    dx, dy = float(direction[0]), float(direction[1])
    if not abs(math.hypot(dx, dy) - 1.0) <= 1e-9:  # written so that NaN fails
        raise ValueError(f"direction must be a unit 2-vector, got {direction!r}")
    if not speed >= 0:
        raise ValueError(f"speed must be non-negative, got {speed!r}")
    step_m = min(float(speed), scenario.v_max_mps) * scenario.protocol.t_f
    hw = scenario.half_width_m
    x = min(max(u.pos.x + dx * step_m, -hw), hw)
    y = min(max(u.pos.y + dy * step_m, -hw), hw)
    return Position(x, y, u.pos.z)


def select_gu(w: WorldState, i: int, exclude=()) -> int | None:
    """Ground user UAV i (0-based) will serve: the strongest received
    signal (equal transmit powers, so the smallest slant range) among
    users with data left inside its coverage radius.  Ties break to the
    lowest index; returns None when nobody qualifies."""
    best_id = None
    best_snr = OUT_OF_COVERAGE
    for m, snr in enumerate(w.sensing_snr[i]):
        if snr > best_snr and m not in exclude and w.gus[m].remaining > 0.0:
            best_snr = snr
            best_id = m
    return best_id


def sense(w: WorldState, i: int, gid: int) -> float:
    """Bits UAV i collects from ground user gid during the sensing
    sub-slot: the link-rate budget capped by what the user still has and
    by the UAV's free buffer space."""
    rate = channel.link_rate(w.sensing_snr[i][gid], w.chan)
    free = max(w.scenario.buffer_capacity_bits - w.uavs[i].buffer, 0.0)
    return min(w.scenario.protocol.t_s * rate, w.gus[gid].remaining, free)


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
    """Everything that happened in one slot, one list entry per 0-based UAV."""

    sensed: list        # bits collected from ground users
    delivered_bs: list  # bits delivered to the base station
    relayed_out: list   # bits sent to other UAVs
    energy: list        # propulsion J (enters the objective)
    violations_per_uav: list  # other UAVs closer than d_min after flying


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
    scen = w.scenario
    cap = scen.buffer_capacity_bits

    speeds = []
    for u, (direction, speed) in zip(w.uavs, actions):
        u.pos = move_uav(u, direction, speed, scen)
        speeds.append(min(float(speed), scen.v_max_mps))
    place(w)

    sensed = [0.0] * n
    claimed: set = set()
    for i in range(n):
        gid = select_gu(w, i, exclude=claimed)
        if gid is None:
            continue
        claimed.add(gid)  # no later UAV reads this user, so drain it now
        sensed[i] = sense(w, i, gid)  # at most what the user holds
        w.gus[gid].remaining -= sensed[i]
    w.targets = [select_gu(w, i) for i in range(n)]  # offload leaves the users alone

    buffers = [u.buffer for u in w.uavs]
    free = [cap - b - s for b, s in zip(buffers, sensed)]
    res = channel.offload(buffers, free, w.link_power, fm, w.chan, scen.protocol.t_o)

    w.last_energy = [propulsion_energy(v, scen.protocol, scen.energy) for v in speeds]
    for i, u in enumerate(w.uavs):
        u.buffer = uav_buffer_step(u.buffer, res.outgoing[i], sensed[i] + res.incoming[i], cap)
        u.energy_used += w.last_energy[i]

    d_min = scen.protocol.d_min
    close = [sum([d < d_min for j, d in enumerate(row[1:]) if j != i])
             for i, row in enumerate(w.node_range[1:])]
    w.t += 1
    return w, StepReport(sensed, res.to_bs, [o - b for o, b in zip(res.outgoing, res.to_bs)],
                         w.last_energy, close)


def objective_slot(w: WorldState, report: StepReport, lam) -> float:
    """Per-slot value of the system cost: propulsion energy plus weighted
    UAV backlogs plus all outstanding ground demand (lower is better)."""
    lam = np.asarray(lam, dtype=float)
    buffers = np.array([u.buffer for u in w.uavs])
    backlog = sum(g.remaining for g in w.gus)
    return float(np.sum(np.add(report.energy, lam * buffers)) + backlog)
