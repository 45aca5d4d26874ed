"""Channel model and sub-channel allocation tests.

Expected values are restated here with plain math (math.log2, explicit
path-loss products) so an error in the library cannot hide in the test.
"""

import math

import numpy as np
import pytest

from flysense.channel import (
    BS,
    ChannelParams,
    FormationError,
    FormationMatrix,
    distance,
    g2u_snr,
    interference,
    link_power,
    link_rate,
    offload,
    point_rate,
    ranges,
    u2u_rate,
    validate_alloc,
)

P = ChannelParams()


def power_table(positions):
    """link_power of the node rows, as the world builds it each slot."""
    positions = np.asarray(positions, dtype=float)
    return link_power(ranges(positions, positions), P)


def test_default_link_budget_constants():
    # free-space reference gain at 1 m for a 2 GHz carrier, (c / 4 pi f)^2
    # with the usual round c = 3e8 m/s
    expected = (3e8 / (4.0 * math.pi * 2e9)) ** 2
    np.testing.assert_allclose(P.beta_u, expected, rtol=1e-12)
    # sensing gain is the same reference pre-divided by the -90 dBm noise
    np.testing.assert_allclose(P.beta_s, P.beta_u / P.noise, rtol=1e-12)
    np.testing.assert_allclose(P.p_uav, 10 ** (23 / 10) / 1000, rtol=1e-12)
    assert P.n_channels == 3 and P.bandwidth == 1e6


class TestFormationMatrix:
    def test_structure_validation(self):
        fm = FormationMatrix(2, 3)
        fm.set_link(1, BS, 0)
        fm.set_link(2, 1, 1)
        assert fm.has_link(1, BS) and fm.has_link(2, 1)
        assert sorted(fm.links()) == [(1, 0, 0), (2, 1, 1)]

    def test_rejects_bs_transmit_and_self_links(self):
        phi = np.zeros((3, 3, 2), dtype=np.int8)
        phi[0, 1, 0] = 1  # base station never transmits
        with pytest.raises(FormationError):
            FormationMatrix(2, 2, phi)
        phi = np.zeros((3, 3, 2), dtype=np.int8)
        phi[1, 1, 0] = 1
        with pytest.raises(FormationError):
            FormationMatrix(2, 2, phi)

    def test_channel_fits_counts_both_roles(self):
        fm = FormationMatrix(2, 1)
        fm.set_link(1, BS, 0)
        # node 1 already uses channel 0 as a transmitter
        assert not fm.channel_fits(2, 1, 0)
        # and the BS already uses it as a receiver
        assert not fm.channel_fits(2, BS, 0)


def test_validate_alloc_flags_each_node_channel_overuse():
    phi = np.zeros((4, 4, 2), dtype=np.int8)
    phi[1, 0, 0] = 1
    phi[2, 1, 0] = 1  # node 1: tx on ch0 and rx on ch0 -> violation
    fm = FormationMatrix(3, 2, phi)
    assert validate_alloc(fm) == [(1, 0)]


def test_validate_alloc_random_matches_literal_recount():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        phi = np.zeros((n + 1, n + 1, k), dtype=np.int8)
        for _ in range(int(rng.integers(0, 6))):
            tx = int(rng.integers(1, n + 1))
            rx = int(rng.integers(0, n + 1))
            ch = int(rng.integers(0, k))
            if rx != tx:
                phi[tx, rx, ch] = 1
        fm = FormationMatrix(n, k, phi)
        bad = set(validate_alloc(fm))
        expect = set()
        for node in range(n + 1):
            for ch in range(k):
                used = sum(int(phi[node, r, ch]) for r in range(n + 1))
                used += sum(int(phi[t, node, ch]) for t in range(n + 1))
                if used > 1:
                    expect.add((node, ch))
        assert bad == expect


def test_point_rate_closed_form():
    a = np.array([0.0, 0.0, 100.0])
    b = np.array([300.0, 0.0, 500.0])  # 500 m apart
    sinr = P.p_uav * P.beta_u / 500.0**2 / P.noise
    np.testing.assert_allclose(sinr, 113.71631592914879, rtol=1e-12)
    np.testing.assert_allclose(point_rate(power_table([a, b]), 0, 1, P),
                               1e6 * math.log2(1 + sinr), rtol=1e-12)


def test_u2u_rate_equals_point_rate_without_interference():
    positions = np.array([[1000.0, 1000.0, 25.0], [0.0, 0.0, 100.0], [500.0, 0.0, 100.0]])
    fm = FormationMatrix(2, 3)
    fm.set_link(1, BS, 0)
    np.testing.assert_allclose(
        u2u_rate(fm, power_table(positions), 1, BS, P),
        point_rate(power_table(positions), 1, BS, P), rtol=1e-12
    )


def test_u2u_rate_sums_over_assigned_subchannels():
    positions = np.array([[1000.0, 1000.0, 25.0], [0.0, 0.0, 100.0], [500.0, 0.0, 100.0]])
    fm = FormationMatrix(2, 3)
    fm.set_link(1, BS, 0)
    fm.set_link(1, BS, 1)
    np.testing.assert_allclose(
        u2u_rate(fm, power_table(positions), 1, BS, P),
        2 * point_rate(power_table(positions), 1, BS, P), rtol=1e-12
    )


def test_cochannel_interference_matches_hand_formula():
    bs = [1000.0, 1000.0, 25.0]
    u1 = [0.0, 0.0, 100.0]
    u2 = [500.0, 500.0, 100.0]
    positions = np.array([bs, u1, u2])
    fm = FormationMatrix(2, 1)
    fm.set_link(1, BS, 0)
    fm.set_link(2, 1, 0)  # illegal at node 1, but rates are still defined
    d_sig = math.dist(u1, bs)
    d_int = math.dist(u2, bs)
    sig = P.p_uav * P.beta_u * d_sig**-2
    inter = P.p_uav * P.beta_u * d_int**-2
    power = power_table(positions)
    np.testing.assert_allclose(interference(fm, power, 1, BS, 0), inter, rtol=1e-12)
    got = u2u_rate(fm, power, 1, BS, P)
    np.testing.assert_allclose(got, 1e6 * math.log2(1 + sig / (P.noise + inter)), rtol=1e-12)
    np.testing.assert_allclose(got, 319268.8118659811, rtol=1e-9)


def test_interference_excludes_own_signal_and_other_channels():
    positions = np.array(
        [[1000.0, 1000.0, 25.0], [0.0, 0.0, 100.0], [500.0, 500.0, 100.0], [-500.0, 0.0, 100.0]]
    )
    power = power_table(positions)
    fm = FormationMatrix(3, 2)
    fm.set_link(1, BS, 0)
    assert interference(fm, power, 1, BS, 0) == 0.0
    # a transmission on another sub-channel never interferes
    fm.set_link(2, BS, 1)
    assert interference(fm, power, 1, BS, 0) == 0.0
    # a valid co-channel link elsewhere is heard at the BS
    fm.set_link(3, 2, 0)
    np.testing.assert_allclose(
        interference(fm, power, 1, BS, 0),
        P.p_uav * P.beta_u * math.dist(positions[3], positions[0]) ** -2,
        rtol=1e-12,
    )


def test_silent_transmitters_do_not_interfere():
    positions = np.array(
        [[1000.0, 1000.0, 25.0], [0.0, 0.0, 100.0], [500.0, 500.0, 100.0], [600.0, 400.0, 100.0]]
    )
    fm = FormationMatrix(3, 1)
    fm.set_link(1, BS, 0)
    fm.set_link(3, 2, 0)
    active = np.array([False, True, False, False])  # node 3 has nothing buffered
    power = power_table(positions)
    assert interference(fm, power, 1, BS, 0, active) == 0.0
    np.testing.assert_allclose(
        u2u_rate(fm, power, 1, BS, P, active),
        point_rate(power, 1, BS, P),
        rtol=1e-12,
    )
    # offload with an empty co-channel sender reaches the clean-link rate
    buffers = np.array([1e9, 0.0, 0.0])
    rep = offload(buffers, np.full(3, 1e7), power, fm, P, t_o=0.4)
    np.testing.assert_allclose(
        rep.to_bs[0], point_rate(power, 1, BS, P) * 0.4, rtol=1e-12
    )


def test_g2u_snr_and_sense_rate_closed_form():
    uav = np.array([0.0, 0.0, 100.0])
    gu = np.array([0.0, 0.0, 0.0])
    snr = g2u_snr(distance(gu, uav), P)
    np.testing.assert_allclose(snr, 2842.9078982287197, rtol=1e-12)
    np.testing.assert_allclose(link_rate(snr, P), 11473659.027776841, rtol=1e-12)


def test_distance_is_linalg_norm_bitwise():
    """Every gain and range rests on distance; it must stay np.linalg.norm
    of the difference to the last bit, for arrays and plain tuples."""
    rng = np.random.default_rng(9)
    for _ in range(2000):
        a, b = rng.uniform(-5000.0, 5000.0, (2, 3))
        want = float(np.linalg.norm(a - b))
        assert distance(a, b) == want
        assert distance(tuple(a.tolist()), tuple(b.tolist())) == want


class TestOffload:
    def power(self):
        return power_table([[1000.0, 1000.0, 25.0], [0.0, 0.0, 100.0], [200.0, 0.0, 100.0]])

    def test_refuses_more_than_slot_start_buffer(self):
        power = self.power()
        fm = FormationMatrix(2, 3)
        fm.set_link(1, BS, 0)
        buffers = np.array([1500.0, 0.0])
        rep = offload(buffers, np.array([1e7, 1e7]), power, fm, P, t_o=0.4)
        np.testing.assert_allclose(rep.outgoing, [1500.0, 0.0])
        np.testing.assert_allclose(rep.to_bs.sum(), 1500.0)

    def test_receiver_acceptance_capped_by_free_space(self):
        power = self.power()
        fm = FormationMatrix(2, 3)
        fm.set_link(1, 2, 0)
        buffers = np.array([5e6, 0.0])
        rep = offload(buffers, np.array([0.0, 1000.0]), power, fm, P, t_o=0.4)
        np.testing.assert_allclose(rep.incoming, [0.0, 1000.0])
        np.testing.assert_allclose(rep.outgoing, [1000.0, 0.0])

    def test_bs_served_before_relay_links(self):
        power = self.power()
        fm = FormationMatrix(2, 3)
        fm.set_link(1, 2, 0)
        fm.set_link(1, BS, 1)
        buffers = np.array([100.0, 0.0])
        rep = offload(buffers, np.array([1e7, 1e7]), power, fm, P, t_o=0.4)
        # everything fits on the BS link, which is served first
        np.testing.assert_allclose(rep.to_bs[0], 100.0)
        np.testing.assert_allclose(rep.incoming[1], 0.0)

    def test_full_relay_accepts_what_it_drained(self):
        # receiver has zero spare capacity, but its own BS delivery in the
        # same sub-slot frees room for relayed bits (departures before
        # arrivals in the queue update)
        power = self.power()
        fm = FormationMatrix(2, 3)
        fm.set_link(2, BS, 0)
        fm.set_link(1, 2, 1)
        buffers = np.array([5e6, 3000.0])
        rep = offload(buffers, np.array([1e7, 0.0]), power, fm, P, t_o=0.4)
        np.testing.assert_allclose(rep.to_bs[1], 3000.0)
        np.testing.assert_allclose(rep.incoming[1], 3000.0)

    def test_conservation_random(self):
        """Bits are conserved: outgoing equals incoming plus BS deliveries,
        and no link carries more than its capacity."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            positions = np.vstack(
                [
                    np.array([1000.0, 1000.0, 25.0]),
                    np.column_stack(
                        [rng.uniform(-1000, 1000, n), rng.uniform(-1000, 1000, n), np.full(n, 100.0)]
                    ),
                ]
            )
            fm = FormationMatrix(n, k)
            for tx in range(1, n + 1):
                rx = int(rng.integers(0, n + 1))
                ch = int(rng.integers(0, k))
                if rx != tx and fm.channel_fits(tx, rx, ch):
                    fm.set_link(tx, rx, ch)
            buffers = rng.uniform(0, 2e7, n)
            if rng.random() < 0.3:
                buffers[rng.integers(0, n)] = 0.0
            free = rng.uniform(0, 2e7, n)
            power = power_table(positions)
            rep = offload(buffers.copy(), free.copy(), power, fm, P, t_o=0.4)
            np.testing.assert_allclose(
                rep.outgoing.sum(), rep.incoming.sum() + rep.to_bs.sum(), rtol=0, atol=1e-6
            )
            assert np.all(rep.outgoing <= buffers + 1e-9)
            # a receiver may accept beyond its pre-slot spare capacity only
            # by as much as it delivered to the BS this sub-slot
            assert np.all(rep.incoming <= free + rep.to_bs + 1e-9)
            # no UAV sends more than its links carry in the sub-slot
            active = np.concatenate([[False], buffers > 0.0])
            for tx in range(1, n + 1):
                cap = sum(u2u_rate(fm, power, tx, rx, P, active) * 0.4
                          for rx in range(n + 1) if rx != tx and fm.has_link(tx, rx))
                assert rep.outgoing[tx - 1] <= cap + 1e-6
