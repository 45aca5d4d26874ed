"""World dynamics: movement, sensing, queues, energy, and full slots."""

import math

import numpy as np
import pytest

from flysense.channel import (
    BS,
    ChannelParams,
    FormationError,
    FormationMatrix,
    _gain,
    g2u_snr,
    interference,
    point_rate,
    u2u_rate,
)
from flysense.world import (
    EnergyModel,
    Position,
    SLOT_S,
    ProtocolConfig,
    Scenario,
    UavState,
    WorldState,
    coverage_radius_m,
    make_world,
    move_uav,
    objective_slot,
    propulsion_energy,
    select_gu,
    sense,
    step,
    uav_buffer_step,
)
from test_channel import distance

P = ChannelParams()
PROTO = ProtocolConfig()
SCEN = Scenario()  # 1 km half-width, 20 m/s speed limit
ENERGY = EnergyModel()


def test_distance_is_euclidean_meters():
    a = Position(0.0, 0.0, 100.0)
    b = Position(300.0, 0.0, 500.0)
    assert distance(a, b) == 500.0


def test_protocol_sub_slots_partition_the_second():
    assert PROTO.t_f + PROTO.t_s + PROTO.t_o == pytest.approx(SLOT_S)
    with pytest.raises(ValueError):
        ProtocolConfig(t_f=0.5, t_s=0.3, t_o=0.4)


def test_coverage_radius_closed_form():
    scen = Scenario()
    # 0 dB SNR threshold: r = (q * beta_s) ** (1 / alpha)
    np.testing.assert_allclose(
        coverage_radius_m(scen, P), math.sqrt(P.q_gu * P.beta_s), rtol=1e-12
    )
    np.testing.assert_allclose(coverage_radius_m(scen, P), 5331.892626665244, rtol=1e-12)


class TestMoveUav:
    def u(self):
        return UavState(Position(0.0, 0.0, 100.0))

    def test_straight_flight_covers_speed_times_subslot(self):
        pos = move_uav(self.u(), (1.0, 0.0), 20.0, SCEN)
        assert pos.x == pytest.approx(6.0) and pos.y == 0.0 and pos.z == 100.0

    def test_speed_clamped_to_uav_limit(self):
        pos = move_uav(self.u(), (1.0, 0.0), 300.0, SCEN)
        assert pos.x == pytest.approx(6.0)

    def test_clamped_to_field(self):
        u = UavState(Position(999.0, 0.0, 100.0))
        pos = move_uav(u, (1.0, 0.0), 20.0, SCEN)
        assert pos.x == 1000.0

    def test_rejects_non_unit_direction_and_negative_speed(self):
        with pytest.raises(ValueError):
            move_uav(self.u(), (1.0, 1.0), 5.0, SCEN)
        with pytest.raises(ValueError):
            move_uav(self.u(), (1.0, 0.0), -1.0, SCEN)

    @pytest.mark.parametrize("direction,speed", [((math.nan, math.nan), 5.0),
                                                 ((1.0, 0.0), math.nan)])
    def test_rejects_nan_direction_or_speed(self, direction, speed):
        with pytest.raises(ValueError):
            move_uav(self.u(), direction, speed, SCEN)


def _placed_world(uav_xy, gu_xy, demand_bits=1e6, **scenario):
    """World on a 1 km half-width field (scaled coordinates x 1000 m)."""
    scen = Scenario(n_uavs=len(uav_xy), n_gus=len(gu_xy), uav_xy=uav_xy, gu_xy=gu_xy,
                    demand_bits=demand_bits, **scenario)
    return make_world(scen, P, np.random.default_rng(0))


def _snr_db_for_radius(radius_m):
    """coverage_snr_min_db that puts the coverage edge at radius_m."""
    return 10.0 * math.log10(P.q_gu * P.beta_s / radius_m ** P.alpha_s)


class TestSelectGu:
    def test_closest_user_wins_and_ties_break_low(self):
        w = _placed_world([(0.0, 0.0)], [(0.5, 0.0), (0.1, 0.0), (-0.1, 0.0)])
        assert select_gu(w, 0) == 1  # same range as 2, lower id
        assert select_gu(w, 0, exclude={1}) == 2

    def test_skips_drained_and_out_of_coverage(self):
        w = _placed_world([(0.0, 0.0)], [(0.1, 0.0), (0.5, 0.0)],
                          coverage_snr_min_db=_snr_db_for_radius(150.0))
        w.gus[0].remaining = 0.0
        assert select_gu(w, 0) is None


class TestSensingTable:
    def test_each_pair_is_the_scalar_snr_or_minus_one(self):
        """Bit for bit g2u_snr(distance(uav, gu)) inside the coverage
        radius and exactly -1 outside, at the start and after flying."""
        rng = np.random.default_rng(17)
        outside = inside = 0
        for trial in range(40):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            scen = Scenario(n_uavs=n, n_gus=m, gu_seed=trial,
                            coverage_snr_min_db=float(rng.uniform(0.0, 40.0)))
            w = make_world(scen, P, np.random.default_rng(trial))
            radius = coverage_radius_m(scen, P)
            for t in range(3):
                assert [len(row) for row in w.sensing_snr] == [m] * n
                for i, u in enumerate(w.uavs):
                    for k, g in enumerate(w.gus):
                        d = distance(u.pos, g.pos)
                        want = g2u_snr(d, P) if d <= radius else -1.0
                        assert w.sensing_snr[i][k] == want
                        inside += d <= radius
                        outside += d > radius
                acts = [((1.0, 0.0), float(rng.uniform(0, 20))) for _ in range(n)]
                w, _ = step(w, acts, w.formation)
        assert inside > 0 and outside > 0


def _scalar_power(a, b):
    return P.p_uav * _gain(distance(a, b), P.beta_u, P.alpha_u)


def _scalar_interference(phi, positions, tx, rx, ch, active):
    """Co-channel power at rx under the int8 matrix phi, restated pair by
    pair from positions."""
    total = 0.0
    for m, n, k in zip(*np.nonzero(phi)):
        if k != ch or m == tx or n == rx or not active[m]:
            continue
        total += _scalar_power(positions[m], positions[rx])
    return total


def _scalar_u2u_rate(phi, positions, tx, rx, active):
    signal = _scalar_power(positions[tx], positions[rx])
    rate = 0.0
    for ch in range(phi.shape[2]):
        if phi[tx, rx, ch]:
            sinr = signal / (P.noise + _scalar_interference(phi, positions, tx, rx, ch, active))
            rate += P.bandwidth * math.log2(1.0 + sinr)
    return rate


class TestNodeTables:
    """The slot's batched geometry equals the scalar formulas bit for bit.
    The ranges come from np.vecdot, which matches ndarray.dot (and so
    distance) only while numpy and the BLAS compute both as the
    same fused dot product; a change there fails here before any run
    artifact drifts."""

    def worlds(self):
        """Random worlds, each with two coincident UAVs and one 0.4 m from
        them (below the 1 m path-loss floor), at the start and after
        flying."""
        rng = np.random.default_rng(41)
        for trial in range(30):
            n, m = int(rng.integers(3, 6)), int(rng.integers(1, 7))
            xy = rng.uniform(-1.0, 1.0, (n, 2))
            xy[1] = xy[0]
            xy[2] = xy[0] + (0.0004, 0.0)
            scen = Scenario(n_uavs=n, n_gus=m, gu_seed=trial, uav_xy=xy.tolist(),
                            coverage_snr_min_db=float(rng.uniform(0.0, 40.0)))
            w = make_world(scen, P, np.random.default_rng(trial))
            for _ in range(3):
                yield w, rng
                acts = [((1.0, 0.0), float(rng.uniform(0, 20))) for _ in range(n)]
                w, _ = step(w, acts, w.formation)

    def test_range_power_and_sensing_entries_are_the_scalar_formulas(self):
        floored = 0
        for w, _ in self.worlds():
            nodes = [w.bs_pos, *(u.pos for u in w.uavs)]
            for table in (w.node_range, w.link_power):
                assert [len(row) for row in table] == [len(nodes)] * len(nodes)
            for a, pa in enumerate(nodes):
                for b, pb in enumerate(nodes):
                    assert w.node_range[a][b] == distance(pa, pb)
                    assert w.link_power[a][b] == _scalar_power(pa, pb)
                    floored += a != b and distance(pa, pb) < 1.0
            radius = coverage_radius_m(w.scenario, P)
            for i, u in enumerate(w.uavs):
                for k, g in enumerate(w.gus):
                    d = distance(u.pos, g.pos)
                    assert w.sensing_snr[i][k] == (g2u_snr(d, P) if d <= radius else -1.0)
        assert floored > 0

    def test_rates_from_the_power_table_equal_the_positions_formulas(self):
        for w, rng in self.worlds():
            n, k = w.n_uavs, P.n_channels
            positions = np.array([w.bs_pos, *(u.pos for u in w.uavs)], dtype=float)
            phi = (rng.random((n + 1, n + 1, k)) < 0.3).astype(np.int8)
            phi[BS] = 0
            for node in range(n + 1):
                phi[node, node] = 0
            fm = FormationMatrix(n, k)  # rates are defined on any matrix
            for tx, rx, ch in zip(*np.nonzero(phi)):
                fm.set_link(int(tx), int(rx), int(ch))
            active = np.concatenate([[False], rng.random(n) < 0.7])
            for tx in range(n + 1):
                for rx in range(n + 1):
                    snr = _scalar_power(positions[tx], positions[rx]) / P.noise
                    assert point_rate(w.link_power, tx, rx, P) == P.bandwidth * math.log2(1.0 + snr)
                    if tx == rx:
                        continue
                    for mask in ([True] * (n + 1), active):
                        assert (u2u_rate(fm, w.link_power, tx, rx, P, mask)
                                == _scalar_u2u_rate(phi, positions, tx, rx, mask))
                        for ch in range(k):
                            assert (interference(fm, w.link_power, tx, rx, ch, mask)
                                    == _scalar_interference(phi, positions, tx, rx, ch, mask))


def test_sense_rate_budget_and_caps():
    w = _placed_world([(0.0, 0.0)], [(0.0, 0.0)], demand_bits=1e9)
    np.testing.assert_allclose(sense(w, 0, 0), 3442097.7083330527, rtol=1e-12)
    # capped by the user's remaining data
    w.gus[0].remaining = 1000.0
    assert sense(w, 0, 0) == 1000.0
    # capped by free buffer space
    w.gus[0].remaining = 1e9
    w.uavs[0].buffer = 2e7 - 500.0
    assert sense(w, 0, 0) == 500.0


def test_queue_and_buffer_steps():
    """A slot drains the sensed user by exactly what was sensed, to zero
    when the budget exceeds what it holds.  TestStep.test_one_slot_accounting
    and criterion 2 of tests/test_acceptance.py cover draining in fleets."""
    for demand in (1e9, 1000.0):
        w = _placed_world([(0.0, 0.0)], [(0.0, 0.0)], demand_bits=demand)
        budget = sense(w, 0, 0)  # the UAV hovers, so the slot senses this
        w, rep = step(w, [((1.0, 0.0), 0.0)], FormationMatrix(1, P.n_channels))
        assert rep.sensed == [budget] and w.gus[0].remaining == demand - budget
    assert w.gus[0].remaining == 0.0
    assert uav_buffer_step(5.0, 2.0, 1.0, 100.0) == 4.0
    assert uav_buffer_step(5.0, 2.0, 4.0, 6.0) == 6.0  # capacity clip
    assert uav_buffer_step(5.0, 9.0, 1.0, 100.0) == 1.0  # cannot go negative


def test_propulsion_energy_closed_form():
    # hover and sub-floor speeds draw the same as the 1 m/s floor
    np.testing.assert_allclose(propulsion_energy(0.0, PROTO, ENERGY), 794.0002778, rtol=1e-12)
    np.testing.assert_allclose(
        propulsion_energy(0.0, PROTO, ENERGY), propulsion_energy(1.0, PROTO, ENERGY), rtol=0
    )
    np.testing.assert_allclose(propulsion_energy(20.0, PROTO, ENERGY), 154.9724, rtol=1e-12)
    v = 5.0
    expect = (9.26e-4 * v**3 + 2250.0 / v) * 0.3 + 170.0 * 0.7
    np.testing.assert_allclose(propulsion_energy(v, PROTO, ENERGY), expect, rtol=1e-12)


def test_make_world_layout_is_reproducible_and_scaled():
    scen = Scenario(half_width_km=1.0, n_uavs=2, n_gus=5, gu_seed=99)
    w1 = make_world(scen, P, np.random.default_rng(1))
    w2 = make_world(scen, P, np.random.default_rng(2))
    # ground users come from gu_seed, not the world rng
    assert [(g.pos.x, g.pos.y) for g in w1.gus] == [(g.pos.x, g.pos.y) for g in w2.gus]
    assert all(abs(g.pos.x) <= 1000.0 and g.pos.z == 0.0 for g in w1.gus)
    assert all(u.pos.z == 100.0 for u in w1.uavs)
    assert (w1.bs_pos.x, w1.bs_pos.y, w1.bs_pos.z) == (1000.0, 1000.0, 25.0)
    # different world rng -> different UAV spawns
    assert (w1.uavs[0].pos.x, w1.uavs[0].pos.y) != (w2.uavs[0].pos.x, w2.uavs[0].pos.y)


def test_make_world_reads_its_generator_for_unset_layouts_only():
    """The episode generator feeds the user layout when neither gu_xy nor
    gu_seed is set, then the UAV starts when uav_xy is unset, and nothing
    else.  So with gu_seed set and uav_xy fixed, two generators start one
    world, which lets Trainer.evaluate roll such a world out once."""
    fixed = ((0.2, 0.0), (-0.5, 0.5))

    def start(seed, **layout):
        rng = np.random.default_rng(seed)
        w = make_world(Scenario(n_uavs=2, n_gus=3, **layout), P, rng)
        return (w.uavs, w.gus, w.node_range, w.sensing_snr, w.targets), rng.random()

    assert start(1, gu_seed=7, uav_xy=fixed)[0] == start(2, gu_seed=7, uav_xy=fixed)[0]
    assert start(1, gu_seed=7, uav_xy=fixed)[1] == np.random.default_rng(1).random()
    assert start(1, gu_seed=7)[0][0] != start(2, gu_seed=7)[0][0]
    rng = np.random.default_rng(1)
    gu_xy, uav_xy = rng.uniform(-1.0, 1.0, size=(3, 2)), rng.uniform(-1.0, 1.0, size=(2, 2))
    (uavs, gus, *_), after = start(1)
    assert [g.pos[:2] for g in gus] == [tuple(xy) for xy in (gu_xy * 1000.0).tolist()]
    assert [u.pos[:2] for u in uavs] == [tuple(xy) for xy in (uav_xy * 1000.0).tolist()]
    assert after == rng.random()


@pytest.mark.parametrize("layout", [{}, {"uav_xy": ((0.2, 0.0), (-0.999, 0.5)),
                                         "gu_xy": ((0.1, 0.1), (0.3, -0.2), (-0.7, 0.9))}])
def test_positions_are_python_floats(layout):
    """Sampled and explicit layouts start every coordinate as a Python
    float, and a step keeps it one, clamped to the field or not (README,
    "Design rules")."""
    scen = Scenario(n_uavs=2, n_gus=3, **layout)
    w = make_world(scen, P, np.random.default_rng(4))

    def coordinates():
        return [c for p in (w.bs_pos, *(u.pos for u in w.uavs), *(g.pos for g in w.gus))
                for c in p]

    assert all(type(c) is float for c in coordinates())
    # UAV 2 of the explicit layout flies 6 m west from 1 m inside the edge
    w, _ = step(w, [((0.0, 1.0), 5.0), ((-1.0, 0.0), 20.0)], FormationMatrix(2, P.n_channels))
    assert all(type(c) is float for c in coordinates())


def _small_world(seed=0, n_uavs=2, n_gus=3):
    scen = Scenario(n_uavs=n_uavs, n_gus=n_gus, gu_seed=seed + 1000)
    return make_world(scen, P, np.random.default_rng(seed))


class TestStep:
    def test_rejects_bad_matrix_before_mutating(self):
        w = _small_world()
        fm = FormationMatrix(2, 3)
        fm.set_link(1, 0, 0)
        fm.set_link(2, 0, 0)  # BS reuses channel 0
        x_before = w.uavs[0].pos.x
        with pytest.raises(FormationError):
            step(w, [((1.0, 0.0), 5.0)] * 2, fm)
        assert w.uavs[0].pos.x == x_before

    def test_one_slot_accounting(self):
        """Sensing drains users into buffers; the first offload happens a
        slot later because only slot-start bits are sendable."""
        w = _small_world()
        demand_before = sum(g.remaining for g in w.gus)
        fm = FormationMatrix(2, 3)
        fm.set_link(1, BS, 0)
        fm.set_link(2, BS, 1)
        w, rep = step(w, [((1.0, 0.0), 0.0)] * 2, fm)
        assert np.sum(rep.delivered_bs) == 0.0
        drained = demand_before - sum(g.remaining for g in w.gus)
        np.testing.assert_allclose(np.sum(rep.sensed), drained, rtol=1e-12)
        np.testing.assert_allclose(
            [u.buffer for u in w.uavs], rep.sensed, rtol=1e-12
        )
        w, rep2 = step(w, [((1.0, 0.0), 0.0)] * 2, fm)
        assert np.sum(rep2.delivered_bs) > 0.0

    def test_conservation_and_bounds_random(self):
        """Random worlds and actions: buffers stay inside [0, capacity],
        user queues never grow, realized speed respects v_max, and total
        new bits equal sensed minus delivered."""
        rng = np.random.default_rng(5)
        for trial in range(30):
            w = _small_world(seed=trial, n_uavs=int(rng.integers(1, 4)))
            fm = w.formation
            for t in range(5):
                before_buf = sum(u.buffer for u in w.uavs)
                before_rem = [g.remaining for g in w.gus]
                before_pos = [(u.pos.x, u.pos.y) for u in w.uavs]
                acts = []
                for _ in w.uavs:
                    ang = rng.uniform(-np.pi, np.pi)
                    acts.append(((math.cos(ang), math.sin(ang)), rng.uniform(0, 25)))
                w, rep = step(w, acts, fm)
                cap = w.scenario.buffer_capacity_bits
                for i, u in enumerate(w.uavs):
                    assert -1e-9 <= u.buffer <= cap + 1e-9
                    dx = math.hypot(u.pos.x - before_pos[i][0], u.pos.y - before_pos[i][1])
                    assert dx <= w.scenario.v_max_mps * w.scenario.protocol.t_f + 1e-9
                for g, rb in zip(w.gus, before_rem):
                    assert g.remaining <= rb + 1e-9
                delta = sum(u.buffer for u in w.uavs) - before_buf
                np.testing.assert_allclose(
                    delta, np.sum(rep.sensed) - np.sum(rep.delivered_bs), rtol=0, atol=1e-6
                )

    def test_proximity_violations_counted_per_pair(self):
        scen = Scenario(n_uavs=2, n_gus=1, gu_seed=3, uav_xy=((0.0, 0.0), (0.001, 0.0)))
        w = make_world(scen, P, np.random.default_rng(0))
        w2, rep = step(w, [((1.0, 0.0), 0.0), ((1.0, 0.0), 0.0)], w.formation)
        assert rep.violations_per_uav == [1, 1]


def test_objective_slot_weighs_energy_buffers_and_backlog():
    w = _small_world()
    w.uavs[0].buffer = 4.0
    w.uavs[1].buffer = 2.0
    for g in w.gus:
        g.remaining = 1.0
    rep_energy = np.array([1.0, 2.0])

    class R:
        energy = rep_energy

    got = objective_slot(w, R(), lam=0.5)
    assert got == pytest.approx(1.0 + 2.0 + 0.5 * 6.0 + 3.0)
