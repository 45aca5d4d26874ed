"""Relay-formation policies.

Every policy maps per-UAV status (drain-time balance, running cost,
positions) to a formation matrix that passes the sub-channel constraint
by construction.  The main policy pairs overloaded UAVs with cheap
relays; three simpler baselines are used for comparison.  The three
relay planners start all-direct and place every relay through the same
interference-ranked step (_relay_pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import BS, ChannelParams, FormationMatrix

RATIO_CAP = 1e9  # drain-time stand-in (seconds) when a UAV has no BS rate


@dataclass
class CostReport:
    """Per-UAV status driving formation decisions."""

    balance: np.ndarray  # drain-time imbalance, sums to zero
    cost: np.ndarray     # energy + weighted backlog
    # BS-link rate left over after the UAV's own sensing intake (bit/s,
    # offload-sub-slot equivalent); np.inf leaves a relay unconstrained.
    spare_rate: np.ndarray


@dataclass
class FormationPolicy:
    kind: str = "eda_nf"             # eda_nf | non_cooperative | buffer_threshold | dynamic_nf
    balance_threshold: float = 1.0   # drain-time imbalance (seconds) before seeking a relay
    buffer_threshold_bits: float = 1e7
    pair_range_m: float = 1000.0     # one-hop neighborhood; UAVs share one altitude
    min_rate: float | None = None    # None -> require u2u >= seeker's own BS rate
    cost_margin: float = 1e6         # dynamic_nf: required cost advantage

    KINDS = ("eda_nf", "non_cooperative", "buffer_threshold", "dynamic_nf")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown formation kind {self.kind!r}")


def load_balance(buffers, u2b_rates, ratio_cap: float = RATIO_CAP) -> np.ndarray:
    """Drain-time imbalance of each UAV against the average of the others.

    The drain time is buffer over BS-link rate; a zero rate is replaced by
    ratio_cap so a cut-off UAV surfaces as maximally overloaded.  The
    entries always sum to zero.
    """
    buffers = np.asarray(buffers, dtype=float)
    rates = np.asarray(u2b_rates, dtype=float)
    n = buffers.size
    if n < 2:
        raise ValueError("need at least two UAVs to balance")
    ratios = np.where(rates > 0.0, buffers / np.where(rates > 0.0, rates, 1.0), ratio_cap)
    total = ratios.sum()
    others_mean = (total - ratios) / (n - 1)
    return ratios - others_mean


def cost(energy_j: float, buffer_bits: float, gu_backlog_bits: float, lam: float) -> float:
    """Running cost of one UAV: slot energy plus weighted own backlog plus
    the outstanding demand of the ground users it covers."""
    return float(energy_j) + float(lam) * float(buffer_bits) + float(gu_backlog_bits)


def _all_direct(n_uavs: int, n_channels: int) -> FormationMatrix:
    """UAV i on BS sub-channel i-1; UAVs beyond the last sub-channel stay
    unlinked."""
    fm = FormationMatrix(n_uavs, n_channels)
    for i in range(1, min(n_uavs, n_channels) + 1):
        fm.set_link(i, BS, i - 1)
    return fm


def _relay_pair(fm: FormationMatrix, tx: int, rx: int, power: np.ndarray,
                active: np.ndarray | None) -> bool:
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
    fm.clear_link(tx, BS)
    fits = [c for c in range(fm.n_channels) if fm.channel_fits(tx, rx, c)]
    if not fits:
        for c in freed:
            fm.set_link(tx, BS, c)
        return False
    widenable = {c for c in freed if fm.channel_fits(rx, BS, c)}
    placed = min(fits, key=lambda c: (
        channel.interference(fm, power, tx, rx, c, active), c in widenable, c))
    fm.set_link(tx, rx, placed)
    for c in freed:
        if c != placed and fm.channel_fits(rx, BS, c):
            fm.set_link(rx, BS, c)
    return True


def _pair_first(fm, tx, candidates, power, active) -> int | None:
    """Route tx through the first candidate (0-based UAV index, lazily
    consumed) that has a BS link and takes _relay_pair; None if none does."""
    for j in candidates:
        rx = j + 1
        if not fm.has_link(rx, BS):
            continue  # a relay with no backhaul would strand the data
        if _relay_pair(fm, tx, rx, power, active):
            return j
    return None


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
    node_range: np.ndarray,
    power: np.ndarray,
    policy: FormationPolicy,
    n_channels: int,
    params: ChannelParams,
    active: np.ndarray | None = None,
) -> FormationMatrix:
    """Energy/delay-aware relay pairing.

    Start all-direct.  UAVs whose drain-time balance exceeds the threshold
    seek a relay; the rest are candidates.  The most expensive seeker is
    greedily paired with the cheapest in-range candidate: the seeker's
    BS link is replaced by a one-hop link to the relay, which keeps its
    own BS link.  Pairings that would break the sub-channel constraint,
    exceed the pairing range, fall below the minimum link rate, or exceed
    the relay's spare backhaul are skipped.  node_range and power are
    the channel.ranges and channel.link_power node tables (base station
    first).
    """
    n = report.balance.size
    fm = _all_direct(n, n_channels)
    seekers = [i for i in range(n) if report.balance[i] > policy.balance_threshold]
    relays = [i for i in range(n) if report.balance[i] <= policy.balance_threshold]
    seekers.sort(key=lambda i: (-report.cost[i], i))
    relays.sort(key=lambda i: (report.cost[i], i))
    for i in seekers:
        tx = i + 1
        # Lazy: the guards of later candidates run only if earlier ones fail.
        guarded = (j for j in relays
                   if node_range[tx, j + 1] < policy.pair_range_m
                   and _point_rates_ok(policy, params, power, tx, j + 1,
                                       float(report.spare_rate[j])))
        j = _pair_first(fm, tx, guarded, power, active)
        if j is not None:
            relays.remove(j)
    return fm


def baseline_noncoop(n_uavs: int, n_channels: int) -> FormationMatrix:
    """Every UAV keeps a direct BS link; no relaying ever."""
    return _all_direct(n_uavs, n_channels)


def baseline_buffer(
    buffers: np.ndarray,
    node_range: np.ndarray,
    power: np.ndarray,
    policy: FormationPolicy,
    n_channels: int,
    active: np.ndarray | None = None,
) -> FormationMatrix:
    """Relay whenever the own buffer passes a fixed threshold, to the
    nearest UAV that is still below it (within the pairing range)."""
    buffers = np.asarray(buffers, dtype=float)
    n = buffers.size
    fm = _all_direct(n, n_channels)
    for i in range(n):
        if buffers[i] <= policy.buffer_threshold_bits:
            continue
        tx = i + 1
        gaps = {j: node_range[tx, j + 1]
                for j in range(n) if j != i and buffers[j] <= policy.buffer_threshold_bits}
        order = sorted(gaps, key=lambda j: (gaps[j], j))
        _pair_first(fm, tx, [j for j in order if gaps[j] < policy.pair_range_m],
                    power, active)
    return fm


def baseline_dynamic_nf(
    report: CostReport,
    node_range: np.ndarray,
    power: np.ndarray,
    policy: FormationPolicy,
    n_channels: int,
    active: np.ndarray | None = None,
) -> FormationMatrix:
    """Cost-only pairing: a UAV relays through an in-range neighbor whose
    cost undercuts its own by the configured margin.  Pairings are
    exclusive, most expensive UAV first."""
    n = report.cost.size
    fm = _all_direct(n, n_channels)
    free = set(range(n))
    for i in sorted(range(n), key=lambda i: (-report.cost[i], i)):
        if i not in free:
            continue
        tx = i + 1
        candidates = sorted((j for j in free if j != i
                             and report.cost[j] < report.cost[i] - policy.cost_margin
                             and node_range[tx, j + 1] < policy.pair_range_m),
                            key=lambda j: (report.cost[j], j))
        j = _pair_first(fm, tx, candidates, power, active)
        if j is not None:
            free.discard(i)
            free.discard(j)
    return fm

