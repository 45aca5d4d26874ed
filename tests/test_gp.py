"""Gaussian-process surrogate and expected-improvement proposer."""

import math

import numpy as np
import pytest

from flysense.gp import (
    MIN_SIGNAL_VAR,
    GpConfig,
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
EMPTY = np.zeros((0, 2)), np.zeros(0)


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


class TestPosterior:
    def test_empty_history_returns_prior(self):
        mean, var = posterior(*EMPTY, np.zeros((3, 2)), CFG)
        np.testing.assert_array_equal(mean, [CFG.prior_mean] * 3)
        np.testing.assert_array_equal(var, [CFG.signal_var] * 3)

    def test_interpolates_observations(self):
        x = np.array([[0.2, 0.1], [-0.5, 0.4]])
        mean, var = posterior(x, np.array([3.0, 1.0]), x, CFG)
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
            queries = rng.uniform(-1, 1, (int(rng.integers(2, 9)), 2))
            mean, var = posterior(pts, vals, queries, CFG)
            ref_mean, ref_var = dense_gp_posterior(pts, vals, queries, CFG)
            np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-8)
            np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-8)

    def test_oracle_check_passes(self):
        res = check_gp_posterior(np.random.default_rng(0))
        assert res.ok and res.max_err <= res.tol
        assert res.detail == "65 queries per window"

    def test_oracle_check_catches_bias(self):
        """The self-check must fail loudly for a subtly wrong posterior."""

        def biased(x, y, queries, cfg):
            mean, var = posterior(x, y, queries, cfg)
            return mean + 0.01, var

        res = check_gp_posterior(np.random.default_rng(0), posterior_fn=biased)
        assert not res.ok

    def test_oracle_check_catches_a_posterior_right_only_for_one_query(self):
        """A variance that sums v*v over every query instead of per
        column is right for a single query; the batched check the
        proposer's form gets fails it, a query-at-a-time check does not."""

        def pooled(x, y, queries, cfg):
            chol = _factor(x, cfg)
            resid = y - cfg.prior_mean
            alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid))
            k_star = _kernel_matrix(x, queries, cfg)
            v = np.linalg.solve(chol, k_star)
            var = cfg.signal_var - np.einsum("ij,ij->", v, v)
            return cfg.prior_mean + k_star.T @ alpha, np.maximum(var, 0.0)

        def one_at_a_time(x, y, queries, cfg):
            rows = [pooled(x, y, q[None], cfg) for q in queries]
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
        got = propose_point(*EMPTY, cur, candidate_offsets(0.2, self.cfg()), self.cfg())
        np.testing.assert_allclose(got, cur)

    def test_moves_toward_better_samples(self):
        # rewards grow to the east
        east = np.linspace(-0.5, 0.5, 8)
        x, y = np.stack([east, np.zeros(8)], axis=1), east + 0.5
        cur = np.array([0.0, 0.0])
        got = propose_point(x, y, cur, candidate_offsets(0.2, self.cfg()), self.cfg())
        assert got[0] > cur[0]

    @pytest.mark.parametrize("noise_jitter,signal_var",
                             [(0.0, 1.0), (1e-30, 1.0), (0.0, MIN_SIGNAL_VAR)])
    def test_repeated_position_factors_without_jitter(self, noise_jitter, signal_var):
        # One position twice makes the kernel matrix singular; the retries
        # escalate from a floor relative to signal_var, not from the
        # configured jitter.
        cfg = GpConfig(noise_jitter=noise_jitter, signal_var=signal_var)
        x, y = np.array([[0.1, 0.2], [0.1, 0.2], [0.3, 0.2]]), np.array([1.0, 2.0, 0.5])
        got = propose_point(x, y, (0.1, 0.2), candidate_offsets(0.1, cfg), cfg)
        assert np.isfinite(got).all()
        mean, _ = posterior(x, y, np.array([[0.1, 0.2]]), cfg)
        assert mean[0] == pytest.approx(1.5, abs=1e-2)

    def test_candidates_respect_reach_and_bounds(self):
        rng = np.random.default_rng(9)
        x, y = rng.uniform(-1, 1, (12, 2)), rng.uniform(0, 3, 12)
        for _ in range(20):
            cur = rng.uniform(-1, 1, 2)
            reach = float(rng.uniform(0.05, 0.5))
            got = propose_point(x, y, cur, candidate_offsets(reach, self.cfg()), self.cfg())
            assert (np.abs(got) <= 1.0).all()
            assert np.linalg.norm(got - cur) <= reach * math.sqrt(2.0) + 1e-9

    def test_zero_variance_tie_stays_put(self):
        cur = np.array([0.3, -0.4])
        for prior_mean in (0.0, 0.5):
            cfg = GpConfig(signal_var=0.0, prior_mean=prior_mean)
            got = propose_point(*EMPTY, cur, candidate_offsets(0.2, cfg), cfg)
            assert np.array_equal(got, cur)
            assert np.array_equal(got, _reference_propose(*EMPTY, cur, 0.2, cfg))

    def test_matches_scalar_ei_loop_on_random_windows(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            cfg = GpConfig(n_dir=int(rng.integers(1, 20)), n_rad=int(rng.integers(1, 6)))
            m = int(rng.integers(0, 40))
            x, y = rng.uniform(-1, 1, (m, 2)), rng.exponential(1.0, m)
            cur = rng.uniform(-1, 1, 2)
            reach = float(rng.uniform(0.01, 0.5))
            want = _reference_propose(x, y, cur, reach, cfg)
            got = propose_point(x, y, cur, candidate_offsets(reach, cfg), cfg)
            assert np.array_equal(got, want)

    def test_incumbent_is_the_best_sample(self):
        """The improvement is measured over the window's best value: a
        reference with another incumbent proposes differently on some
        windows, the best value on none."""
        rng = np.random.default_rng(17)
        cfg = self.cfg()
        moved = 0
        for _ in range(20):
            m = int(rng.integers(1, 12))
            x, y = rng.uniform(-1, 1, (m, 2)), rng.exponential(1.0, m)
            cur = rng.uniform(-1, 1, 2)
            got = propose_point(x, y, cur, candidate_offsets(0.3, cfg), cfg)
            assert np.array_equal(got, _reference_propose(x, y, cur, 0.3, cfg))
            low = _reference_propose(x, y, cur, 0.3, cfg, f_star=float(y.min()))
            moved += not np.array_equal(got, low)
        assert moved > 0


def _reference_propose(x, y, current, reach, cfg, f_star=None):
    """The per-candidate loop propose_point replaced: polar grid built
    point by point and clipped to the field, one expected_improvement call
    per candidate from the posterior's mean and variance.  The incumbent
    defaults to the best sample, 0 for an empty window."""
    current = np.asarray(current, dtype=float)
    cands = [current]
    for ri in range(1, cfg.n_rad + 1):
        r = reach * ri / cfg.n_rad
        for di in range(cfg.n_dir):
            ang = 2.0 * math.pi * di / cfg.n_dir
            cands.append(current + r * np.array([math.cos(ang), math.sin(ang)]))
    cands = np.clip(np.array(cands), -1.0, 1.0)
    if f_star is None:
        f_star = max(y.tolist(), default=0.0)
    means, variances = posterior(x, y, cands, cfg)
    best_idx, best_ei = 0, -math.inf
    for idx in range(len(cands)):
        ei = expected_improvement(float(means[idx]) - f_star,
                                  math.sqrt(max(float(variances[idx]), 0.0)))
        if ei > best_ei:
            best_ei, best_idx = ei, idx
    return cands[best_idx]
