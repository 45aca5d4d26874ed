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
    """Binary allocation phi[tx, rx, ch] of sub-channels to directed links.

    Row 0 (base-station transmit) and the diagonal are structurally zero.
    """

    def __init__(self, n_uavs: int, n_channels: int, phi: np.ndarray | None = None):
        self.n_uavs = int(n_uavs)
        self.n_channels = int(n_channels)
        shape = (n_uavs + 1, n_uavs + 1, n_channels)
        if phi is None:
            phi = np.zeros(shape, dtype=np.int8)
        else:
            phi = np.asarray(phi, dtype=np.int8)
            if phi.shape != shape:
                raise FormationError(f"expected phi shape {shape}, got {phi.shape}")
            if phi[BS].any():
                raise FormationError("base station cannot transmit")
            if np.einsum("iik->ik", phi).any():
                raise FormationError("self links are not allowed")
            if not np.isin(phi, (0, 1)).all():
                raise FormationError("phi entries must be 0 or 1")
        self.phi = phi

    def set_link(self, tx: int, rx: int, ch: int) -> None:
        if tx == BS or tx == rx:
            raise ValueError(f"illegal link {tx}->{rx}")
        self.phi[tx, rx, ch] = 1

    def clear_link(self, tx: int, rx: int, ch: int | None = None) -> None:
        if ch is None:
            self.phi[tx, rx, :] = 0
        else:
            self.phi[tx, rx, ch] = 0

    def has_link(self, tx: int, rx: int) -> bool:
        return bool(self.phi[tx, rx].any())

    def links(self) -> list[tuple[int, int, int]]:
        """All (tx, rx, ch) assignments in ascending order."""
        return [tuple(ix) for ix in np.argwhere(self.phi == 1)]

    def out_links(self, tx: int) -> list[tuple[int, int]]:
        """(rx, ch) pairs carrying traffic away from node tx."""
        return [(rx, ch) for rx, ch in np.argwhere(self.phi[tx] == 1)]

    def usage(self, node: int, ch: int) -> int:
        """Incoming plus outgoing assignments of node on one sub-channel."""
        return sum(self.phi[:, node, ch].tolist()) + sum(self.phi[node, :, ch].tolist())

    def channel_fits(self, tx: int, rx: int, ch: int) -> bool:
        """True if adding tx->rx on ch keeps both endpoints within the
        one-use-per-node-per-channel limit."""
        return self.usage(tx, ch) == 0 and self.usage(rx, ch) == 0

    def key(self) -> bytes:
        return self.phi.tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormationMatrix)
            and self.phi.shape == other.phi.shape
            and (self.phi == other.phi).all()
        )


def validate_alloc(fm: FormationMatrix) -> list[tuple[int, int]]:
    """Check the per-node sub-channel constraint.

    Every node may use each sub-channel for at most one purpose, either
    receiving from one transmitter or transmitting to one receiver.
    Returns the list of violating (node, channel) pairs; empty means the
    allocation is feasible.
    """
    phi = fm.phi
    use = phi.sum(axis=0) + phi.sum(axis=1)  # (node, ch): in + out
    if use.max() <= 1:
        return []
    return [tuple(ix) for ix in np.argwhere(use > 1)]


def distance(a, b) -> float:
    """Separation (m) of two (x, y, z) points: np.linalg.norm's arithmetic
    (a dot product, then a correctly rounded square root) without its
    dispatch cost.  The scalar reference for ranges()."""
    d = np.subtract(a, b, dtype=float)
    return math.sqrt(d.dot(d))


def ranges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) separations (m) of every row of a from every row
    of b in one pass.  Entry [i, j] equals distance(a[i], b[j]) bit for
    bit: vecdot over float64 rows is the same fused dot product as
    ndarray.dot, where (d * d).sum(-1) or einsum would round differently."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.vecdot(diff, diff))


def _gain(d: float, beta: float, alpha: float) -> float:
    return beta * max(d, _MIN_PATH_M) ** -alpha


def link_power(node_range: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Received power (W) p_uav * gain(d) of every node pair, from the
    node-range table.  The path loss keeps its scalar formula entry by
    entry: np.power rounds differently from Python's ** on some inputs."""
    p, beta, alpha = params.p_uav, params.beta_u, params.alpha_u
    return np.array([[p * _gain(d, beta, alpha) for d in row]
                     for row in node_range.tolist()])


def link_rate(snr: float, params: ChannelParams) -> float:
    """Rate (bit/s) of one sub-channel at the given SNR or SINR."""
    return params.bandwidth * math.log2(1.0 + snr)


def interference(
    fm: FormationMatrix,
    power: np.ndarray,
    tx: int,
    rx: int,
    ch: int,
    active=None,
) -> float:
    """Aggregate co-channel power (W) hitting rx on sub-channel ch, read
    from the link_power table.

    Sums over every other active transmitter on ch; the link under test
    (tx -> rx) itself is excluded.  active, when given, is a per-node
    mask of transmitters that actually have data this sub-slot; silent
    nodes radiate nothing even if they hold an allocation.
    """
    total = 0.0
    for m, n in zip(*np.nonzero(fm.phi[:, :, ch])):
        if m == tx or n == rx:
            continue
        if active is not None and not active[m]:
            continue
        total += power[m, rx]
    return total


def u2u_rate(
    fm: FormationMatrix,
    power: np.ndarray,
    tx: int,
    rx: int,
    params: ChannelParams,
    active=None,
) -> float:
    """Achievable rate (bit/s) of the tx -> rx link under the current
    allocation, summed over its assigned sub-channels and degraded by
    co-channel interference from the active transmitters."""
    signal = power[tx, rx]
    rate = 0.0
    for ch in range(fm.n_channels):
        if not fm.phi[tx, rx, ch]:
            continue
        sinr = signal / (params.noise + interference(fm, power, tx, rx, ch, active))
        rate += link_rate(sinr, params)
    return rate


def point_rate(power: np.ndarray, tx: int, rx: int, params: ChannelParams) -> float:
    """Interference-free single-channel rate (bit/s) of the tx -> rx node
    pair.

    Used for what-if comparisons (relay guards, drain-time balance) where
    no allocation exists yet."""
    return link_rate(power[tx, rx] / params.noise, params)


def g2u_snr(d: float, params: ChannelParams) -> float:
    """Sensing SNR over slant range d (m).  Ground uplinks are orthogonal
    to the relay sub-channels, so there is no interference term."""
    return params.q_gu * _gain(d, params.beta_s, params.alpha_s)


@dataclass
class OffloadReport:
    """Bits moved during one offloading sub-slot, indexed by 0-based UAV."""

    outgoing: np.ndarray
    incoming: np.ndarray
    to_bs: np.ndarray


def offload(
    buffers: np.ndarray,
    free_space: np.ndarray,
    power: np.ndarray,
    fm: FormationMatrix,
    params: ChannelParams,
    t_o: float,
) -> OffloadReport:
    """Move buffered bits along every allocated link for one sub-slot.

    buffers[i] is UAV i+1's backlog at the start of the slot; bits sensed
    during the current slot are not yet sendable.  Each link carries up to
    rate * t_o bits and a sender never ships more than it holds.  Links
    into the base station are served first: the station accepts anything,
    and every bit a UAV drains frees that much buffer for relayed traffic
    in the same sub-slot (departures precede arrivals in the queue
    recursion).  U2U links then run in ascending (tx, rx) order; a
    receiver accepts at most free_space[rx] plus whatever it just drained,
    so no bits are ever silently dropped; refused bits simply stay with
    the sender.  UAVs with nothing buffered transmit nothing, so their
    allocated links contribute no co-channel interference this sub-slot.
    power is the link_power table of the current positions, and fm must
    already pass validate_alloc (world.step checks it before anything
    mutates).
    """
    n = fm.n_uavs
    remaining = np.asarray(buffers, dtype=float).copy()
    accept = np.asarray(free_space, dtype=float).clip(min=0.0).copy()
    active = np.zeros(n + 1, dtype=bool)
    active[1:] = remaining > 0.0
    outgoing = np.zeros(n)
    incoming = np.zeros(n)
    to_bs = np.zeros(n)
    linked = fm.phi.any(axis=2).tolist()
    for tx in range(1, n + 1):
        if not linked[tx][BS]:
            continue
        capacity = u2u_rate(fm, power, tx, BS, params, active) * t_o
        amount = min(capacity, remaining[tx - 1])
        if amount <= 0.0:
            continue
        remaining[tx - 1] -= amount
        accept[tx - 1] += amount
        outgoing[tx - 1] += amount
        to_bs[tx - 1] += amount
    for tx in range(1, n + 1):
        for rx in range(1, n + 1):
            if rx == tx or not linked[tx][rx]:
                continue
            capacity = u2u_rate(fm, power, tx, rx, params, active) * t_o
            amount = min(capacity, remaining[tx - 1], accept[rx - 1])
            if amount <= 0.0:
                continue
            remaining[tx - 1] -= amount
            outgoing[tx - 1] += amount
            incoming[rx - 1] += amount
            accept[rx - 1] -= amount
    return OffloadReport(outgoing, incoming, to_bs)
