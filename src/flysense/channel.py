"""Link rates and sub-channel bookkeeping for the UAV relay network.

One index convention everywhere: node 0 is the base station (receive
only), nodes 1..N are UAVs.  Positions are (x, y, z) row vectors in
meters, powers are watts, rates are bit/s.  Spectral efficiency uses
log base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BS = 0  # receiver index of the base station in formation matrices

# Path-loss floor so coincident nodes do not divide by zero.
_MIN_PATH_M = 1.0


class FormationError(ValueError):
    """Raised when a formation matrix breaks the sub-channel constraint."""


@dataclass(frozen=True)
class ChannelParams:
    """Radio parameters shared by all links.

    beta_u is the U2U/U2B reference power gain at 1 m.  beta_s is the
    ground-to-UAV reference gain already divided by the receiver noise
    power, so sensing SNR is q_gu * beta_s * d**-alpha_s with no
    separate noise term.
    """

    n_channels: int = field(default=3, metadata={"min": 1})
    # Rates take log2 of power ratios and the coverage radius a root of
    # one: a zero or negative quantity crashes them or moves no bits.
    bandwidth: float = field(default=1e6, metadata={"gt": 0.0})  # Hz per sub-channel
    noise: float = field(default=1e-12,  # W (-90 dBm)
                         metadata={"gt": 0.0, "alias_dbm": "noise_dbm"})
    alpha_u: float = field(default=2.0, metadata={"gt": 0.0})
    alpha_s: float = field(default=2.0, metadata={"gt": 0.0})
    beta_u: float = field(default=1.4248291449703749e-4, metadata={"gt": 0.0})
    beta_s: float = field(default=1.4248291449703749e8, metadata={"gt": 0.0})
    p_uav: float = field(default=0.19952623149688797,  # W (23 dBm), per sub-channel
                         metadata={"gt": 0.0, "alias_dbm": "p_uav_dbm"})
    q_gu: float = field(default=0.19952623149688797,   # W (23 dBm)
                        metadata={"gt": 0.0, "alias_dbm": "q_gu_dbm"})


class FormationMatrix:
    """Binary allocation of sub-channels to directed links, held as
    nested lists rows[tx][rx][ch] of 0/1.

    A matrix starts empty and gains links through set_link, which keeps
    row 0 (base-station transmit) and the diagonal zero.
    """

    def __init__(self, n_uavs: int, n_channels: int):
        self.n_uavs = int(n_uavs)
        self.n_channels = int(n_channels)
        nodes = range(self.n_uavs + 1)
        self.rows = [[[0] * self.n_channels for _ in nodes] for _ in nodes]

    def set_link(self, tx: int, rx: int, ch: int) -> None:
        if tx == BS or tx == rx:
            raise ValueError(f"illegal link {tx}->{rx}")
        self.rows[tx][rx][ch] = 1

    def has_link(self, tx: int, rx: int) -> bool:
        return any(self.rows[tx][rx])

    def links(self) -> list[tuple[int, int, int]]:
        """All (tx, rx, ch) assignments in ascending order."""
        return [(tx, rx, ch) for tx, row in enumerate(self.rows)
                for rx, chs in enumerate(row) if 1 in chs for ch, on in enumerate(chs) if on]

    def out_links(self, tx: int) -> list[tuple[int, int]]:
        """(rx, ch) pairs carrying traffic away from node tx."""
        return [(rx, ch) for rx, chs in enumerate(self.rows[tx])
                for ch, on in enumerate(chs) if on]

    def channel_fits(self, tx: int, rx: int, ch: int) -> bool:
        """True if adding tx->rx on ch keeps both endpoints within the
        one-use-per-node-per-channel limit: neither sends or receives on ch."""
        rows = self.rows
        return not any(rows[m][node][ch] or rows[node][m][ch]
                       for node in (tx, rx) for m in range(len(rows)))

    def key(self) -> bytes:
        """One byte per entry of rows in (tx, rx, ch) order: the bytes of
        the int8 (N+1, N+1, K) matrix."""
        return bytes(on for row in self.rows for chs in row for on in chs)


def validate_alloc(fm: FormationMatrix) -> list[tuple[int, int]]:
    """Check the per-node sub-channel constraint.

    Every node may use each sub-channel for at most one purpose, either
    receiving from one transmitter or transmitting to one receiver.
    Returns the sorted list of violating (node, channel) pairs; empty
    means the allocation is feasible.
    """
    use = {}
    for tx, rx, ch in fm.links():
        use[tx, ch] = use.get((tx, ch), 0) + 1
        use[rx, ch] = use.get((rx, ch), 0) + 1
    return sorted(key for key, count in use.items() if count > 1)


def ranges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) separations (m) of every row of a from every row
    of b in one pass.  Entry [i, j] equals np.linalg.norm(a[i] - b[j]) bit
    for bit: vecdot over float64 rows is the same fused dot product as
    ndarray.dot, where (d * d).sum(-1) or einsum would round differently."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.vecdot(diff, diff))


def _gain(d: float, beta: float, alpha: float) -> float:
    # max(d, _MIN_PATH_M) without the builtin call, NaN included
    return beta * (_MIN_PATH_M if _MIN_PATH_M > d else d) ** -alpha


def link_power(node_range: list, params: ChannelParams) -> list:
    """Received power (W) p_uav * gain(d) of every node pair, from the
    nested-list node-range table.  The path loss keeps its scalar formula
    entry by entry: np.power rounds differently from Python's ** on some
    inputs."""
    p, beta, alpha = params.p_uav, params.beta_u, params.alpha_u
    return [[p * _gain(d, beta, alpha) for d in row] for row in node_range]


def link_rate(snr: float, params: ChannelParams) -> float:
    """Rate (bit/s) of one sub-channel at the given SNR or SINR."""
    return params.bandwidth * math.log2(1.0 + snr)


def interference(
    fm: FormationMatrix,
    power: list,
    tx: int,
    rx: int,
    ch: int,
    active: list,
) -> float:
    """Aggregate co-channel power (W) hitting rx on sub-channel ch, read
    from the link_power table.

    Sums over every other active transmitter on ch; the link under test
    (tx -> rx) itself is excluded.  active is a per-node mask of
    transmitters that actually have data this sub-slot; silent nodes
    radiate nothing even if they hold an allocation.
    """
    total = 0.0
    for m, row in enumerate(fm.rows):
        if m == tx or not active[m]:
            continue
        for n, chs in enumerate(row):
            if chs[ch] and n != rx:
                total += power[m][rx]
    return total


def u2u_rate(
    fm: FormationMatrix,
    power: list,
    tx: int,
    rx: int,
    params: ChannelParams,
    active: list,
) -> float:
    """Achievable rate (bit/s) of the tx -> rx link under the current
    allocation, summed over its assigned sub-channels and degraded by
    co-channel interference from the active transmitters."""
    signal = power[tx][rx]
    rate = 0.0
    for ch, on in enumerate(fm.rows[tx][rx]):
        if on:
            sinr = signal / (params.noise + interference(fm, power, tx, rx, ch, active))
            rate += link_rate(sinr, params)
    return rate


def point_rate(power: list, tx: int, rx: int, params: ChannelParams) -> float:
    """Interference-free single-channel rate (bit/s) of the tx -> rx node
    pair.

    Used for what-if comparisons (relay guards, drain-time balance) where
    no allocation exists yet."""
    return link_rate(power[tx][rx] / params.noise, params)


def g2u_snr(d: float, params: ChannelParams) -> float:
    """Sensing SNR over slant range d (m).  Ground uplinks are orthogonal
    to the relay sub-channels, so there is no interference term."""
    return params.q_gu * _gain(d, params.beta_s, params.alpha_s)


@dataclass
class OffloadReport:
    """Bits moved during one offloading sub-slot, indexed by 0-based UAV."""

    outgoing: list
    incoming: list
    to_bs: list


def offload(
    buffers: list,
    free_space: list,
    power: list,
    fm: FormationMatrix,
    params: ChannelParams,
    t_o: float,
) -> OffloadReport:
    """Move buffered bits along every allocated link for one sub-slot.

    buffers[i] is UAV i+1's backlog at the start of the slot; bits sensed
    during the current slot are not yet sendable.  One pass serves the
    links into the base station in ascending tx, then the U2U links in
    ascending (tx, rx).  Each link carries the least of rate * t_o, what
    its sender still holds and what its receiver accepts.  The station
    accepts anything; a UAV accepts free_space plus whatever it has
    drained to the station (departures precede arrivals in the queue
    recursion), so no bits are ever silently dropped; refused bits simply
    stay with the sender.  UAVs with nothing buffered transmit nothing, so
    their allocated links contribute no co-channel interference this
    sub-slot.  power is the link_power table of the current positions,
    and fm must already pass validate_alloc (world.step checks it before
    anything mutates).
    """
    n = fm.n_uavs
    remaining = list(buffers)
    accept = [math.inf] + [max(f, 0.0) for f in free_space]  # by node: the BS takes anything
    active = [False] + [b > 0.0 for b in remaining]
    outgoing = [0.0] * n
    incoming = [0.0] * n
    to_bs = [0.0] * n
    uavs = range(1, n + 1)
    service = [(tx, BS) for tx in uavs] + [(tx, rx) for tx in uavs for rx in uavs if rx != tx]
    for tx, rx in service:
        if not any(fm.rows[tx][rx]):
            continue
        amount = min(u2u_rate(fm, power, tx, rx, params, active) * t_o,
                     remaining[tx - 1], accept[rx])
        remaining[tx - 1] -= amount
        outgoing[tx - 1] += amount
        accept[rx] -= amount
        if rx == BS:  # a drain frees the sender's space for relayed-in bits
            accept[tx] += amount
            to_bs[tx - 1] += amount
        else:
            incoming[rx - 1] += amount
    return OffloadReport(outgoing, incoming, to_bs)
