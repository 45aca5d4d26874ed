"""Relay-formation policies: balance math, pairing rules and baselines,
and the exhaustive offload check."""

import numpy as np
import pytest

from flysense import channel, formation
from flysense.channel import BS, ChannelParams, point_rate, validate_alloc
from flysense.formation import (
    RATIO_CAP,
    CostReport,
    FormationPolicy,
    baseline_buffer,
    baseline_dynamic_nf,
    baseline_noncoop,
    cost,
    eda_nf,
    load_balance,
)
from flysense.oracles import check_offload

P = ChannelParams()


class TestLoadBalance:
    def test_two_uavs(self):
        b = load_balance([4.0, 2.0], [1.0, 1.0])
        np.testing.assert_allclose(b, [2.0, -2.0])

    def test_three_uavs_against_mean_of_others(self):
        b = load_balance([6.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(b, [4.0, -2.0, -2.0])

    def test_sums_to_zero_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            buffers = rng.uniform(0, 2e7, n)
            rates = rng.uniform(1e5, 1e7, n)
            b = load_balance(buffers, rates)
            np.testing.assert_allclose(np.sum(b), 0.0, atol=1e-6)

    def test_zero_rate_uses_cap(self):
        b = load_balance([1.0, 1.0], [0.0, 1.0])
        np.testing.assert_allclose(b[0], RATIO_CAP - 1.0)

    def test_lone_uav_balances_zero(self):
        # no other UAV to drain against: the single entry still sums to zero
        assert load_balance([1.0], [1.0]) == [0.0]
        assert load_balance([5e6], [0.0]) == [0.0]


def test_cost_components():
    assert cost(2.0, 4.0, 1.0, lam=0.5) == pytest.approx(2.0 + 2.0 + 1.0)


def _positions(*uav_xy, bs=(1000.0, 1000.0, 25.0)):
    rows = [np.asarray(bs, dtype=float)]
    rows += [np.array([x, y, 100.0]) for x, y in uav_xy]
    return np.vstack(rows)


def _tables(positions):
    """The (node_range, link_power) pair a world builds for the planners."""
    node_range = channel.ranges(positions, positions).tolist()
    return node_range, channel.link_power(node_range, P)


def _placed(*uav_xy):
    return _tables(_positions(*uav_xy))


def _everyone(n_uavs):
    """The transmitter mask of a fleet whose every UAV sends."""
    return [True] * (n_uavs + 1)


class TestEdaNf:
    def test_balanced_fleet_stays_direct(self):
        report = CostReport(balance=np.zeros(3), cost=np.ones(3), spare_rate=np.full(3, np.inf))
        fm = eda_nf(report, *_placed((0, 0), (100, 0), (0, 100)), FormationPolicy(), 3, P,
                    _everyone(3))
        assert sorted(fm.links()) == [(1, 0, 0), (2, 0, 1), (3, 0, 2)]

    def test_overloaded_uav_routes_through_cheapest_relay(self):
        # UAV 1 far from the BS and overloaded; 2 and 3 are candidates and
        # 3 is cheaper.
        report = CostReport(balance=np.array([5.0, -2.5, -2.5]), cost=np.array([9.0, 2.0, 1.0]),
                            spare_rate=np.full(3, np.inf))
        pos = _positions((-800, -800), (-400, -400), (-300, -500))
        fm = eda_nf(report, *_tables(pos), FormationPolicy(), 3, P, _everyone(3))
        assert not fm.has_link(1, BS)
        assert fm.has_link(1, 3)
        assert fm.has_link(3, BS) and fm.has_link(2, BS)
        assert validate_alloc(fm) == []

    def test_freed_subchannel_widens_relay_backhaul(self):
        report = CostReport(balance=np.array([5.0, -5.0]), cost=np.array([9.0, 1.0]),
                            spare_rate=np.full(2, np.inf))
        fm = eda_nf(report, *_placed((-500, -500), (0, 0)), FormationPolicy(), 3, P, _everyone(2))
        # seeker keeps one link to the relay; the relay now holds two BS
        # sub-channels (its own plus the seeker's former one)
        assert fm.has_link(1, 2) and not fm.has_link(1, BS)
        assert len([1 for rx, ch in fm.out_links(2) if rx == BS]) == 2
        assert validate_alloc(fm) == []

    def test_threshold_gates_seeking(self):
        report = CostReport(balance=np.array([0.5, -0.5]), cost=np.array([9.0, 1.0]),
                            spare_rate=np.full(2, np.inf))
        fm = eda_nf(report, *_placed((-500, -500), (0, 0)),
                    FormationPolicy(balance_threshold=1.0), 3, P, _everyone(2))
        assert fm.has_link(1, BS) and fm.has_link(2, BS) and not fm.has_link(1, 2)

    def test_out_of_range_relay_skipped(self):
        report = CostReport(balance=np.array([5.0, -5.0]), cost=np.array([9.0, 1.0]),
                            spare_rate=np.full(2, np.inf))
        pol = FormationPolicy(pair_range_m=100.0)
        fm = eda_nf(report, *_placed((-500, -500), (0, 0)), pol, 3, P, _everyone(2))
        assert fm.has_link(1, BS) and not fm.has_link(1, 2)

    def test_min_rate_guard_blocks_weak_pairs(self):
        report = CostReport(balance=np.array([5.0, -5.0]), cost=np.array([9.0, 1.0]),
                            spare_rate=np.full(2, np.inf))
        pol = FormationPolicy(min_rate=1e12)
        fm = eda_nf(report, *_placed((-500, -500), (0, 0)), pol, 3, P, _everyone(2))
        assert fm.has_link(1, BS) and not fm.has_link(1, 2)

    def test_slower_relay_backhaul_blocks_pairing(self):
        # the only candidate sits farther from the BS than the seeker, so
        # rerouting through it could not shorten the drain
        report = CostReport(balance=np.array([5.0, -5.0]), cost=np.array([9.0, 1.0]),
                            spare_rate=np.full(2, np.inf))
        fm = eda_nf(report, *_placed((-500, -500), (-900, -900)), FormationPolicy(), 3, P,
                    _everyone(2))
        assert fm.has_link(1, BS) and not fm.has_link(1, 2)

    def test_saturated_relay_backhaul_blocks_pairing(self):
        # the candidate's BS link is faster, but its reported spare rate
        # (backhaul minus own sensing intake) cannot absorb the detour
        pos = _positions((-500, -500), (0, 0))
        seeker_bs = point_rate(_tables(pos)[1], 1, BS, P)
        report = CostReport(
            balance=np.array([5.0, -5.0]),
            cost=np.array([9.0, 1.0]),
            spare_rate=np.array([0.0, 0.5 * seeker_bs]),
        )
        fm = eda_nf(report, *_tables(pos), FormationPolicy(), 3, P, _everyone(2))
        assert fm.has_link(1, BS) and not fm.has_link(1, 2)
        report.spare_rate[1] = 2.0 * seeker_bs
        fm = eda_nf(report, *_tables(pos), FormationPolicy(), 3, P, _everyone(2))
        assert fm.has_link(1, 2)

    def test_pairing_picks_clean_subchannel_and_widens(self):
        # with a spare sub-channel the one-hop link lands on it rather than
        # on one already carrying a direct link, and the freed sub-channel
        # still widens the relay's backhaul
        report = CostReport(balance=np.array([5.0, -2.5, -2.5]), cost=np.array([9.0, 2.0, 1.0]),
                            spare_rate=np.full(3, np.inf))
        pos = _positions((-600, -600), (-400, -400), (600, 600))
        fm = eda_nf(report, *_tables(pos), FormationPolicy(pair_range_m=3000.0), 4, P, _everyone(3))
        assert fm.rows[1][3][3] == 1
        assert sorted(ch for rx, ch in fm.out_links(3) if rx == BS) == [0, 2]
        assert validate_alloc(fm) == []

    def test_each_relay_serves_one_seeker(self):
        # two seekers, two relays: the costlier seeker takes the cheaper
        # relay, and the other seeker, though it ranks that relay first
        # too, gets the other one
        report = CostReport(balance=np.array([4.0, 3.0, -3.5, -3.5]),
                            cost=np.array([9.0, 8.0, 2.0, 1.0]), spare_rate=np.full(4, np.inf))
        pos = _positions((-800, -800), (-800, -600), (-400, -400), (-300, -500))
        fm = eda_nf(report, *_tables(pos), FormationPolicy(), 4, P, _everyone(4))
        relays = sorted((tx, rx) for tx, rx, _ in fm.links() if rx != BS)
        assert relays == [(1, 4), (2, 3)]
        assert validate_alloc(fm) == []

    def test_relay_must_keep_backhaul(self):
        # with a single sub-channel the relay's own BS link is the only
        # allocation; pairing would strand the seeker's data
        report = CostReport(balance=np.array([5.0, -5.0]), cost=np.array([9.0, 1.0]),
                            spare_rate=np.full(2, np.inf))
        fm = eda_nf(report, *_placed((-500, -500), (0, 0)), FormationPolicy(), 1, P, _everyone(2))
        links = sorted(fm.links())
        assert (1, 0, 0) in links or (2, 0, 0) in links
        assert validate_alloc(fm) == []

    def test_structural_invariants_random(self):
        """Any report: the output passes the sub-channel validator, every
        relay link points from above-threshold to at-or-below-threshold
        balance, and pairs stay inside the range limit."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            pol = FormationPolicy(balance_threshold=float(rng.uniform(0, 2)))
            raw = rng.uniform(0, 10, n)
            balance = raw - raw.mean()  # sums to zero like the real one
            report = CostReport(balance=balance, cost=rng.uniform(0, 10, n),
                                spare_rate=np.full(n, np.inf))
            pos = _positions(*[(x, y) for x, y in rng.uniform(-1000, 1000, (n, 2))])
            fm = eda_nf(report, *_tables(pos), pol, k, P, _everyone(n))
            assert validate_alloc(fm) == []
            for tx, rx, ch in fm.links():
                if rx == BS:
                    continue
                assert balance[tx - 1] > pol.balance_threshold
                assert balance[rx - 1] <= pol.balance_threshold
                d = float(np.linalg.norm(pos[tx][:2] - pos[rx][:2]))
                assert d < pol.pair_range_m


class TestBaselines:
    def test_noncoop_is_all_direct(self):
        # UAV i on BS sub-channel i-1; with more UAVs than sub-channels
        # the extras go unlinked
        for n in range(1, 7):
            for k in range(1, 5):
                fm = baseline_noncoop(n, k)
                assert sorted(fm.links()) == [(i, 0, i - 1) for i in range(1, min(n, k) + 1)]

    def test_buffer_threshold_uses_nearest_below_threshold(self):
        pol = FormationPolicy(buffer_threshold_bits=1e6)
        buffers = np.array([5e6, 1e5, 1e5])
        pos = _positions((0, 0), (300, 0), (100, 0))
        fm = baseline_buffer(buffers, *_tables(pos), pol, 3, _everyone(3))
        assert fm.has_link(1, 3) and not fm.has_link(1, BS)
        assert validate_alloc(fm) == []

    def test_buffer_threshold_allows_shared_relay(self):
        pol = FormationPolicy(buffer_threshold_bits=1e6, pair_range_m=2000.0)
        buffers = np.array([5e6, 5e6, 1e5])
        pos = _positions((0, 0), (200, 0), (100, 0))
        fm = baseline_buffer(buffers, *_tables(pos), pol, 3, _everyone(3))
        assert fm.has_link(1, 3) and fm.has_link(2, 3)

    def test_buffer_threshold_structural_invariants_random(self):
        """Any buffers and transmitter mask: the output passes the
        sub-channel validator, and each relay link runs from above the
        threshold to at or below it, inside the range limit.  A seeker
        masked silent lets an earlier seeker's hop into a shared relay
        take the seeker's BS sub-channel, which the relay then cannot
        also send on when that seeker's own pairing frees it."""
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 6))
            pol = FormationPolicy(buffer_threshold_bits=1e6, pair_range_m=1500.0)
            buffers = rng.uniform(0, 2e6, n)
            pos = _positions(*[(x, y) for x, y in rng.uniform(-1000, 1000, (n, 2))])
            active = [False] + (rng.random(n) < 0.5).tolist()
            fm = baseline_buffer(buffers, *_tables(pos), pol, k, active)
            assert validate_alloc(fm) == []
            for tx, rx, ch in fm.links():
                if rx != BS:
                    assert buffers[tx - 1] > 1e6 >= buffers[rx - 1]
                    assert np.linalg.norm(pos[tx][:2] - pos[rx][:2]) < pol.pair_range_m

    def _record_pairs(self, monkeypatch):
        """Every _relay_pair call of the planners as (tx, rx, returned,
        matrix bytes before, matrix bytes after)."""
        calls = []
        real = formation._relay_pair

        def recorded(fm, tx, rx, power, active):
            before = fm.key()
            ok = real(fm, tx, rx, power, active)
            calls.append((tx, rx, ok, before, fm.key()))
            return ok
        monkeypatch.setattr(formation, "_relay_pair", recorded)
        return calls

    def test_buffer_threshold_skips_relay_with_no_free_subchannel(self, monkeypatch):
        """4 UAVs on 2 sub-channels: 3 and 4 are full and unlinked, UAV 1 is
        the nearest relay of both.  UAV 3's hop takes UAV 1's only free
        sub-channel, so no sub-channel fits 4 -> 1: the pairing is refused
        with the matrix unchanged, and UAV 4 goes to UAV 2 instead."""
        calls = self._record_pairs(monkeypatch)
        pol = FormationPolicy(buffer_threshold_bits=1e6)
        buffers = [1e5, 1e5, 5e6, 5e6]
        pos = _positions((0, 0), (0, 300), (100, 0), (-100, 0))
        fm = baseline_buffer(buffers, *_tables(pos), pol, 2, _everyone(4))
        assert [c[:3] for c in calls] == [(3, 1, True), (4, 1, False), (4, 2, True)]
        assert calls[1][3] == calls[1][4]
        assert sorted(fm.links()) == [(1, BS, 0), (2, BS, 1), (3, 1, 1), (4, 2, 0)]
        assert validate_alloc(fm) == []

    def test_refused_pairing_restores_the_direct_link(self, monkeypatch):
        """3 UAVs on 3 sub-channels, 1 and 2 full, 3 the relay.  UAV 2's
        power at UAV 3 is 0.0 (what a very large alpha_u underflows to), so
        UAV 1's hop ties on interference and takes UAV 2's BS sub-channel 1,
        and UAV 3 widens its backhaul onto the freed sub-channel 0.  Nothing
        then fits 2 -> 3: UAV 2 gets its direct link on sub-channel 1 back."""
        calls = self._record_pairs(monkeypatch)
        pol = FormationPolicy(buffer_threshold_bits=1e6)
        node_range, power = _tables(_positions((0, 0), (200, 0), (100, 0)))
        power[2][3] = 0.0
        fm = baseline_buffer([5e6, 5e6, 1e5], node_range, power, pol, 3, _everyone(3))
        assert [c[:3] for c in calls] == [(1, 3, True), (2, 3, False)]
        assert calls[1][3] == calls[1][4]
        assert sorted(fm.links()) == [(1, 3, 1), (2, BS, 1), (3, BS, 0), (3, BS, 2)]
        assert validate_alloc(fm) == []

    def test_dynamic_nf_requires_margin_and_exclusivity(self):
        pol = FormationPolicy(cost_margin=1.0)
        pos = _positions((0, 0), (100, 0), (200, 0))
        fm = baseline_dynamic_nf([10.0, 5.0, 0.5], *_tables(pos), pol, 3, _everyone(3))
        # most expensive first: 1 grabs 3; 2 cannot reuse 3
        assert fm.has_link(1, 3)
        assert not fm.has_link(2, 3) and fm.has_link(2, BS)
        assert validate_alloc(fm) == []


def _transmitter_order_offload(buffers, free_space, power, fm, params, t_o):
    """Planted mutation of channel.offload: links are served in (tx, rx)
    order, so a relay hop into a UAV runs before that UAV drains to the
    base station and finds only the space it had at the start."""
    n = fm.n_uavs
    left = np.asarray(buffers, dtype=float).copy()
    accept = np.asarray(free_space, dtype=float).clip(min=0.0)
    active = np.concatenate([[False], left > 0.0])
    outgoing, incoming, to_bs = np.zeros(n), np.zeros(n), np.zeros(n)
    for tx in range(1, n + 1):
        for rx in range(n + 1):
            if rx == tx or not fm.has_link(tx, rx):
                continue
            bits = min(channel.u2u_rate(fm, power, tx, rx, params, active) * t_o, left[tx - 1])
            if rx == BS:
                accept[tx - 1] += bits
                to_bs[tx - 1] += bits
            else:
                bits = min(bits, accept[rx - 1])
                accept[rx - 1] -= bits
                incoming[rx - 1] += bits
            left[tx - 1] -= bits
            outgoing[tx - 1] += bits
    return channel.OffloadReport(outgoing, incoming, to_bs)


def _loud_silent_offload(buffers, free_space, power, fm, params, t_o):
    """Planted mutation of channel.offload: it ignores its active mask, so
    a UAV with an empty buffer still interferes on its allocated links."""
    real = channel.u2u_rate
    with pytest.MonkeyPatch.context() as m:
        m.setattr(channel, "u2u_rate", lambda fm, power, tx, rx, params, active:
                  real(fm, power, tx, rx, params, [True] * (fm.n_uavs + 1)))
        return channel.offload(buffers, free_space, power, fm, params, t_o)


class TestBruteForce:
    """check_offload: channel.offload on every allocation of small worlds
    against the restated service rule."""

    def test_matches_independent_enumeration(self):
        res = check_offload(np.random.default_rng(2))
        assert res.ok, res.detail

    @pytest.mark.parametrize("seed", [0, 2])
    def test_oracle_flags_transmitter_order_service(self, seed):
        res = check_offload(np.random.default_rng(seed), offload_fn=_transmitter_order_offload)
        assert not res.ok

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_oracle_flags_interference_from_silent_uavs(self, seed):
        res = check_offload(np.random.default_rng(seed), offload_fn=_loud_silent_offload)
        assert not res.ok
