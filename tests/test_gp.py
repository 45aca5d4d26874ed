"""Gaussian-process surrogate and expected-improvement proposer."""

import math

import numpy as np
import pytest

from flysense.gp import (
    MIN_SIGNAL_VAR,
    GpConfig,
    SampleHistory,
    _factor,
    _kernel_matrix,
    candidate_offsets,
    expected_improvement,
    posterior,
    propose_point,
)
from flysense.oracles import (
    check_expected_improvement,
    check_gp_posterior,
    dense_gp_posterior,
    mc_expected_improvement,
)

CFG = GpConfig()
FIELD = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
UNBOUNDED = (np.full(2, -np.inf), np.full(2, np.inf))


def kernel(p, q, cfg=CFG) -> float:
    """One entry of the kernel matrix the posterior builds."""
    return float(_kernel_matrix(np.array([p], dtype=float), np.array([q], dtype=float), cfg)[0, 0])


class TestKernel:
    def test_unit_at_zero_distance(self):
        p = np.array([0.3, -0.2])
        assert kernel(p, p) == pytest.approx(CFG.signal_var)

    def test_e_minus_one_at_sqrt2_lengthscales(self):
        p = np.zeros(2)
        q = np.array([CFG.length_scale * math.sqrt(2.0), 0.0])
        assert kernel(p, q) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_symmetric_and_decreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = rng.uniform(-1, 1, (2, 2))
            assert kernel(p, q) == pytest.approx(kernel(q, p), rel=1e-12)
            far = q + (q - p) * 2.0
            assert kernel(p, far) <= kernel(p, q) + 1e-12


class TestSampleHistory:
    def test_window_evicts_oldest(self):
        h = SampleHistory(3)
        for i in range(5):
            h.add((float(i), 0.0), float(i))
        assert len(h) == 3
        np.testing.assert_allclose(h.values(), [2.0, 3.0, 4.0])
        np.testing.assert_allclose(h.positions()[:, 0], [2.0, 3.0, 4.0])

    def test_rejects_negative_observations(self):
        h = SampleHistory(3)
        with pytest.raises(ValueError):
            h.add((0.0, 0.0), -1.0)


class TestPosterior:
    def test_empty_history_returns_prior(self):
        mean, var = posterior(SampleHistory(5), np.zeros((3, 2)), CFG)
        np.testing.assert_array_equal(mean, [CFG.prior_mean] * 3)
        np.testing.assert_array_equal(var, [CFG.signal_var] * 3)

    def test_interpolates_observations(self):
        h = SampleHistory(5)
        h.add((0.2, 0.1), 3.0)
        h.add((-0.5, 0.4), 1.0)
        mean, var = posterior(h, np.array([[0.2, 0.1], [-0.5, 0.4]]), CFG)
        np.testing.assert_allclose(mean, [3.0, 1.0], atol=1e-3)
        assert (var < 1e-3).all()

    def test_kernel_matrix_matches_axis_sum_bitwise(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (50, 2))
        b = rng.uniform(-1, 1, (65, 2))
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        want = CFG.signal_var * np.exp(-0.5 * sq / CFG.length_scale ** 2)
        assert np.array_equal(_kernel_matrix(a, b, CFG), want)

    def test_matches_dense_solve_random(self):
        """Cholesky path against an explicit-inverse reference, several
        queries per window."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = int(rng.integers(1, 9))
            pts = rng.uniform(-1, 1, (m, 2))
            vals = rng.uniform(0, 4, m)
            h = SampleHistory(50)
            for p, v in zip(pts, vals):
                h.add(p, v)
            queries = rng.uniform(-1, 1, (int(rng.integers(2, 9)), 2))
            mean, var = posterior(h, queries, CFG)
            ref_mean, ref_var = dense_gp_posterior(pts, vals, queries, CFG)
            np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-8)
            np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-8)

    def test_oracle_check_passes(self):
        res = check_gp_posterior(np.random.default_rng(0))
        assert res.ok and res.max_err <= res.tol
        assert res.detail == "65 queries per window"

    def test_oracle_check_catches_bias(self):
        """The self-check must fail loudly for a subtly wrong posterior."""

        def biased(history, queries, cfg):
            mean, var = posterior(history, queries, cfg)
            return mean + 0.01, var

        res = check_gp_posterior(np.random.default_rng(0), posterior_fn=biased)
        assert not res.ok

    def test_oracle_check_catches_a_posterior_right_only_for_one_query(self):
        """A variance that sums v*v over every query instead of per
        column is right for a single query; the batched check the
        proposer's form gets fails it, a query-at-a-time check does not."""

        def pooled(history, queries, cfg):
            x, chol = _factor(history, cfg)
            resid = history.values() - cfg.prior_mean
            alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid))
            k_star = _kernel_matrix(x, queries, cfg)
            v = np.linalg.solve(chol, k_star)
            var = cfg.signal_var - np.einsum("ij,ij->", v, v)
            return cfg.prior_mean + k_star.T @ alpha, np.maximum(var, 0.0)

        def one_at_a_time(history, queries, cfg):
            rows = [pooled(history, q[None], cfg) for q in queries]
            return (np.concatenate([m for m, _ in rows]),
                    np.concatenate([np.broadcast_to(v, 1) for _, v in rows]))

        assert check_gp_posterior(np.random.default_rng(0), posterior_fn=one_at_a_time).ok
        assert not check_gp_posterior(np.random.default_rng(0), posterior_fn=pooled).ok


class TestExpectedImprovement:
    def test_closed_form_unit_case(self):
        got = expected_improvement(1.0, 1.0)
        assert got == pytest.approx(1.0833154705876864, rel=1e-12)

    def test_zero_variance_keeps_positive_gap(self):
        assert expected_improvement(0.5, 0.0) == pytest.approx(0.5)
        assert expected_improvement(-0.5, 0.0) == 0.0

    def test_monotone_in_mean(self):
        assert expected_improvement(0.9 - 1.0, 0.5) > expected_improvement(0.5 - 1.0, 0.5)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mean = rng.uniform(-2, 2)
            var = rng.uniform(0.01, 2)
            f_star = rng.uniform(-2, 2)
            ref = mc_expected_improvement(mean, math.sqrt(var), f_star, 400000, rng)
            got = expected_improvement(mean - f_star, math.sqrt(var))
            assert got == pytest.approx(ref, abs=4e-3)

    def test_oracle_check_catches_wrong_tail(self):
        def wrong(gap, sigma):
            return max(gap, 0.0)  # ignores the sigma term

        res = check_expected_improvement(np.random.default_rng(0), ei_fn=wrong)
        assert not res.ok


class TestProposePoint:
    def cfg(self):
        return GpConfig()

    def test_empty_history_stays_put(self):
        cur = np.array([0.1, -0.2])
        got = propose_point(SampleHistory(10), cur, candidate_offsets(0.2, self.cfg()),
                            self.cfg(), FIELD)
        np.testing.assert_allclose(got, cur)

    def test_moves_toward_better_samples(self):
        h = SampleHistory(50)
        # rewards grow to the east
        for x in np.linspace(-0.5, 0.5, 8):
            h.add((x, 0.0), x + 0.5)
        cur = np.array([0.0, 0.0])
        got = propose_point(h, cur, candidate_offsets(0.2, self.cfg()), self.cfg(), FIELD)
        assert got[0] > cur[0]

    @pytest.mark.parametrize("noise_jitter,signal_var",
                             [(0.0, 1.0), (1e-30, 1.0), (0.0, MIN_SIGNAL_VAR)])
    def test_repeated_position_factors_without_jitter(self, noise_jitter, signal_var):
        # One position twice makes the kernel matrix singular; the retries
        # escalate from a floor relative to signal_var, not from the
        # configured jitter.
        cfg = GpConfig(noise_jitter=noise_jitter, signal_var=signal_var)
        h = SampleHistory(10)
        for p, v in (((0.1, 0.2), 1.0), ((0.1, 0.2), 2.0), ((0.3, 0.2), 0.5)):
            h.add(p, v)
        got = propose_point(h, (0.1, 0.2), candidate_offsets(0.1, cfg), cfg, FIELD)
        assert np.isfinite(got).all()
        mean, _ = posterior(h, np.array([[0.1, 0.2]]), cfg)
        assert mean[0] == pytest.approx(1.5, abs=1e-2)

    def test_candidates_respect_reach_and_bounds(self):
        rng = np.random.default_rng(9)
        h = SampleHistory(50)
        for _ in range(12):
            h.add(rng.uniform(-1, 1, 2), float(rng.uniform(0, 3)))
        for _ in range(20):
            cur = rng.uniform(-1, 1, 2)
            reach = float(rng.uniform(0.05, 0.5))
            got = propose_point(h, cur, candidate_offsets(reach, self.cfg()), self.cfg(), FIELD)
            clipped_dist = np.linalg.norm(np.clip(got, *FIELD) - got)
            assert clipped_dist == 0.0
            assert np.linalg.norm(got - cur) <= reach * math.sqrt(2.0) + 1e-9

    def test_zero_variance_tie_stays_put(self):
        cur = np.array([0.3, -0.4])
        for prior_mean in (0.0, 0.5):
            cfg = GpConfig(signal_var=0.0, prior_mean=prior_mean)
            got = propose_point(SampleHistory(10), cur, candidate_offsets(0.2, cfg), cfg, FIELD)
            assert np.array_equal(got, cur)
            assert np.array_equal(got, _reference_propose(SampleHistory(10), cur, 0.2, cfg,
                                                          FIELD))

    def test_matches_scalar_ei_loop_on_random_windows(self):
        rng = np.random.default_rng(31)
        for trial in range(30):
            cfg = GpConfig(window=int(rng.integers(1, 40)), n_dir=int(rng.integers(1, 20)),
                           n_rad=int(rng.integers(1, 6)))
            h = SampleHistory(cfg.window)
            for _ in range(int(rng.integers(0, 60))):
                h.add(rng.uniform(-1, 1, 2), float(rng.exponential(1.0)))
            cur = rng.uniform(-1, 1, 2)
            reach = float(rng.uniform(0.01, 0.5))
            box = FIELD if trial % 2 else UNBOUNDED
            want = _reference_propose(h, cur, reach, cfg, box)
            got = propose_point(h, cur, candidate_offsets(reach, cfg), cfg, box)
            assert np.array_equal(got, want)

    def test_incumbent_is_the_best_sample(self):
        """The improvement is measured over the window's best value: a
        reference with another incumbent proposes differently on some
        windows, the best value on none."""
        rng = np.random.default_rng(17)
        cfg = self.cfg()
        moved = 0
        for _ in range(20):
            h = SampleHistory(cfg.window)
            for _ in range(int(rng.integers(1, 12))):
                h.add(rng.uniform(-1, 1, 2), float(rng.exponential(1.0)))
            cur = rng.uniform(-1, 1, 2)
            got = propose_point(h, cur, candidate_offsets(0.3, cfg), cfg, FIELD)
            assert np.array_equal(got, _reference_propose(h, cur, 0.3, cfg, FIELD))
            low = _reference_propose(h, cur, 0.3, cfg, FIELD, f_star=float(h.values().min()))
            moved += not np.array_equal(got, low)
        assert moved > 0


def _reference_propose(history, current, reach, cfg, bounds, f_star=None):
    """The per-candidate loop propose_point replaced: polar grid built
    point by point, one expected_improvement call per candidate from the
    posterior's mean and variance.  The incumbent defaults to the best
    sample, 0 for an empty window."""
    current = np.asarray(current, dtype=float)
    cands = [current]
    for ri in range(1, cfg.n_rad + 1):
        r = reach * ri / cfg.n_rad
        for di in range(cfg.n_dir):
            ang = 2.0 * math.pi * di / cfg.n_dir
            cands.append(current + r * np.array([math.cos(ang), math.sin(ang)]))
    cands = np.clip(np.array(cands), bounds[0], bounds[1])
    if f_star is None:
        f_star = max(history.values().tolist(), default=0.0)
    means, variances = posterior(history, cands, cfg)
    best_idx, best_ei = 0, -math.inf
    for idx in range(len(cands)):
        ei = expected_improvement(float(means[idx]) - f_star,
                                  math.sqrt(max(float(variances[idx]), 0.0)))
        if ei > best_ei:
            best_ei, best_idx = ei, idx
    return cands[best_idx]
