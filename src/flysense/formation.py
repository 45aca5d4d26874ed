"""Relay-formation policies.

Every policy maps per-UAV status (drain-time balance, running cost,
positions) to a formation matrix that passes the sub-channel constraint
by construction.  The main policy pairs overloaded UAVs with cheap
relays; three simpler baselines are used for comparison.  The three
relay planners start all-direct and share one greedy pairing loop
(_pair_greedy), which makes every seeker-relay decision: the pairing
range, the relay's backhaul, the interference-ranked step (_relay_pair)
and the taken set.  Each planner only names its seekers in order and how
a seeker ranks its candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import BS, ChannelParams, FormationMatrix

RATIO_CAP = 1e9  # drain-time stand-in (seconds) when a UAV has no BS rate


@dataclass
class CostReport:
    """Per-UAV status driving formation decisions, one list entry per UAV."""

    balance: list  # drain-time imbalance, sums to zero
    cost: list     # energy + weighted backlog
    # BS-link rate left over after the UAV's own sensing intake (bit/s,
    # offload-sub-slot equivalent); math.inf leaves a relay unconstrained.
    spare_rate: list


@dataclass
class FormationPolicy:
    kind: str = "eda_nf"             # one of KINDS
    balance_threshold: float = 1.0   # drain-time imbalance (seconds) before seeking a relay
    buffer_threshold_bits: float = 1e7
    pair_range_m: float = 1000.0     # one-hop neighborhood; UAVs share one altitude
    min_rate: float | None = None    # None -> require u2u >= seeker's own BS rate
    cost_margin: float = 1e6         # dynamic_nf: required cost advantage

    # In the order of a policy comparison: the main policy, then the baselines.
    KINDS = ("eda_nf", "dynamic_nf", "buffer_threshold", "non_cooperative")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown formation kind {self.kind!r}")


def load_balance(buffers: list, u2b_rates: list) -> list:
    """Drain-time imbalance of each UAV against the average of the others.

    The drain time is buffer over BS-link rate; a zero rate is replaced by
    RATIO_CAP so a cut-off UAV surfaces as maximally overloaded.  The
    entries always sum to zero; a lone UAV has no others and balance 0.
    """
    ratios = [b / r if r > 0.0 else RATIO_CAP for b, r in zip(buffers, u2b_rates)]
    n = len(ratios)
    if n < 2:
        return [0.0] * n
    total = float(np.add.reduce(ratios))  # np.sum's order of additions
    return [x - (total - x) / (n - 1) for x in ratios]


def cost(energy_j: float, buffer_bits: float, gu_backlog_bits: float, lam: float) -> float:
    """Running cost of one UAV: slot energy plus weighted own backlog plus
    the outstanding demand of the ground users it covers."""
    return energy_j + lam * buffer_bits + gu_backlog_bits


def _all_direct(n_uavs: int, n_channels: int) -> FormationMatrix:
    """UAV i on BS sub-channel i-1; UAVs beyond the last sub-channel stay
    unlinked."""
    fm = FormationMatrix(n_uavs, n_channels)
    for i in range(1, min(n_uavs, n_channels) + 1):
        fm.set_link(i, BS, i - 1)
    return fm


def _relay_pair(fm: FormationMatrix, tx: int, rx: int, power: list, active: list) -> bool:
    """Replace tx's direct BS link with a one-hop link to rx.

    The one-hop link goes on the fitting sub-channel with the least
    co-channel power at rx (active masks out transmitters known to be
    silent); among equally quiet channels the non-freed ones go first so
    the freed spectrum stays available for the backhaul.  The sub-channels
    freed at the base station are then handed to rx's own BS link where
    they still fit, so pairing widens the relay's backhaul instead of
    shrinking the total BS-bound bandwidth.  Returns False and leaves fm
    unchanged when no sub-channel fits the one-hop link.
    """
    freed = [c for r, c in fm.out_links(tx) if r == BS]
    fm.rows[tx][BS] = [0] * fm.n_channels
    fits = [c for c in range(fm.n_channels) if fm.channel_fits(tx, rx, c)]
    if not fits:
        for c in freed:
            fm.set_link(tx, BS, c)
        return False
    widen = [c for c in freed if fm.channel_fits(rx, BS, c)]
    placed = min(fits, key=lambda c: (
        channel.interference(fm, power, tx, rx, c, active), c in widen, c))
    fm.set_link(tx, rx, placed)
    for c in widen:
        if c != placed:
            fm.set_link(rx, BS, c)
    return True


def _pair_greedy(fm, seekers, rank, node_range, power, policy, active) -> FormationMatrix:
    """The one pairing loop of the relay planners.  Each seeker (0-based
    UAV index, in the planner's order, skipped once taken) is routed
    through the first candidate of rank(seeker, near, taken) that has a
    BS link and takes _relay_pair; near lists the other UAVs within the
    pairing range, and the ranking is consumed lazily so its guards run
    only as far as needed.  Both ends of a pairing are recorded as taken."""
    taken = set()
    for i in seekers:
        if i in taken:
            continue
        tx = i + 1
        near = [j for j in range(fm.n_uavs)
                if j != i and node_range[tx][j + 1] < policy.pair_range_m]
        for j in rank(i, near, taken):
            # A relay with no backhaul would strand the data.
            if fm.has_link(j + 1, BS) and _relay_pair(fm, tx, j + 1, power, active):
                taken |= {i, j}
                break
    return fm


def _point_rates_ok(policy, params, power, seeker, relay, spare_rate) -> bool:
    """Rate guards for a candidate pairing.  The relay's own BS link must
    outrun the seeker's, otherwise rerouting cannot shorten the drain, and
    the U2U hop must clear the configured floor (the seeker's direct rate
    when none is set).  The detour also has to fit into the relay's spare
    backhaul rate end to end: a relay whose BS link is already saturated
    by its own sensing would only queue the seeker's data."""
    seeker_bs = channel.point_rate(power, seeker, BS, params)
    if channel.point_rate(power, relay, BS, params) <= seeker_bs:
        return False
    if spare_rate < seeker_bs:
        return False
    floor = seeker_bs if policy.min_rate is None else policy.min_rate
    return channel.point_rate(power, seeker, relay, params) >= floor


def eda_nf(
    report: CostReport,
    node_range: list,
    power: list,
    policy: FormationPolicy,
    n_channels: int,
    params: ChannelParams,
    active: list,
) -> FormationMatrix:
    """Energy/delay-aware relay pairing.

    Start all-direct.  UAVs whose drain-time balance exceeds the threshold
    seek a relay; the rest are candidates.  The most expensive seeker is
    greedily paired with the cheapest in-range candidate: the seeker's
    BS link is replaced by a one-hop link to the relay, which keeps its
    own BS link.  Pairings that would break the sub-channel constraint,
    exceed the pairing range, fall below the minimum link rate, or exceed
    the relay's spare backhaul are skipped.  node_range and power are
    the world's node_range and link_power tables (base station first).
    """
    balance, cost, spare = report.balance, report.cost, report.spare_rate
    seekers = sorted((i for i in range(len(balance)) if balance[i] > policy.balance_threshold),
                     key=lambda i: (-cost[i], i))

    def rank(i, near, taken):
        relays = sorted((j for j in near if j not in taken
                         and balance[j] <= policy.balance_threshold), key=lambda j: (cost[j], j))
        return (j for j in relays
                if _point_rates_ok(policy, params, power, i + 1, j + 1, spare[j]))
    return _pair_greedy(_all_direct(len(balance), n_channels), seekers, rank,
                        node_range, power, policy, active)


def baseline_noncoop(n_uavs: int, n_channels: int) -> FormationMatrix:
    """Every UAV keeps a direct BS link; no relaying ever."""
    return _all_direct(n_uavs, n_channels)


def baseline_buffer(
    buffers: list,
    node_range: list,
    power: list,
    policy: FormationPolicy,
    n_channels: int,
    active: list,
) -> FormationMatrix:
    """Relay whenever the own buffer passes a fixed threshold, to the
    nearest UAV that is still below it (within the pairing range)."""
    below = [b <= policy.buffer_threshold_bits for b in buffers]

    def rank(i, near, taken):  # a relay may serve several seekers
        return sorted((j for j in near if below[j]), key=lambda j: (node_range[i + 1][j + 1], j))
    return _pair_greedy(_all_direct(len(buffers), n_channels),
                        [i for i in range(len(buffers)) if not below[i]], rank,
                        node_range, power, policy, active)


def baseline_dynamic_nf(
    cost: list,
    node_range: list,
    power: list,
    policy: FormationPolicy,
    n_channels: int,
    active: list,
) -> FormationMatrix:
    """Cost-only pairing: a UAV relays through an in-range neighbor whose
    per-UAV cost (CostReport.cost) undercuts its own by the configured
    margin.  Pairings are exclusive, most expensive UAV first."""
    def rank(i, near, taken):
        return sorted((j for j in near if j not in taken
                       and cost[j] < cost[i] - policy.cost_margin), key=lambda j: (cost[j], j))
    return _pair_greedy(_all_direct(len(cost), n_channels),
                        sorted(range(len(cost)), key=lambda i: (-cost[i], i)), rank,
                        node_range, power, policy, active)
