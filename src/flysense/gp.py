"""Gaussian-process surrogate over sensed-data yield by location.

Each UAV keeps a sliding window of (position, bits collected) samples.
A squared-exponential GP conditioned on that window scores candidate
waypoints by expected improvement over the best observation, which gives
the trajectory proposals fed to the action arbitration.  The module is
unit-agnostic: positions and length scale just have to share units.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np


# Relative to signal_var, the least jitter a retried factorization adds.
JITTER_FLOOR = float(np.finfo(float).eps)
# Below this signal_var the jitter floor is no normal float, so no retry
# can factor a window that holds one position twice.
MIN_SIGNAL_VAR = float(np.finfo(float).tiny) / JITTER_FLOOR


@dataclass(frozen=True)
class GpConfig:
    # A bound broken here would crash a proposal or give NaN posteriors.
    length_scale: float = field(default=0.3, metadata={"gt": 0.0})  # units of sample positions
    signal_var: float = field(default=1.0, metadata={"min": MIN_SIGNAL_VAR})
    noise_jitter: float = field(default=1e-6, metadata={"min": 0.0})  # relative to signal_var
    prior_mean: float = 0.0
    window: int = field(default=50, metadata={"min": 1})  # samples kept
    n_dir: int = field(default=16, metadata={"min": 1})   # candidate headings
    n_rad: int = field(default=4, metadata={"min": 1})    # candidate radii per heading


class SampleHistory:
    """Sliding window of planar samples; appending past capacity evicts
    the oldest.  Values are non-negative data amounts."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._items: deque = deque(maxlen=capacity)

    def add(self, position, value: float) -> None:
        if value < 0:
            raise ValueError("sample values must be non-negative")
        p = np.asarray(position, dtype=float).reshape(-1)[:2]
        self._items.append((p.copy(), float(value)))

    def positions(self) -> np.ndarray:
        if not self._items:
            return np.zeros((0, 2))
        return np.array([p for p, _ in self._items])

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self._items])

    def __len__(self) -> int:
        return len(self._items)


def kernel(p, q, cfg: GpConfig) -> float:
    """Squared-exponential covariance between two points."""
    p = np.asarray(p, dtype=float).reshape(-1)[:2]
    q = np.asarray(q, dtype=float).reshape(-1)[:2]
    sq = float(np.sum((p - q) ** 2))
    return cfg.signal_var * math.exp(-0.5 * sq / cfg.length_scale ** 2)


@dataclass
class Posterior:
    mean: float
    var: float


def _kernel_matrix(a: np.ndarray, b: np.ndarray, cfg: GpConfig) -> np.ndarray:
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    k = dx * dx
    k += dy * dy
    k *= -0.5
    k /= cfg.length_scale ** 2
    np.exp(k, out=k)
    k *= cfg.signal_var
    return k


def _factor(history: SampleHistory, cfg: GpConfig):
    """Cholesky of the windowed kernel matrix, escalating the jitter by
    decades (up to six) if the factorization fails.  The retries start
    from at least JITTER_FLOOR * signal_var, so a zero or negligible
    noise_jitter still escalates."""
    x = history.positions()
    gram = _kernel_matrix(x, x, cfg)
    jitter = cfg.noise_jitter * cfg.signal_var
    for _ in range(7):
        try:
            chol = np.linalg.cholesky(gram + jitter * np.eye(len(x)))
            return x, chol
        except np.linalg.LinAlgError:
            jitter = max(jitter, JITTER_FLOOR * cfg.signal_var) * 10.0
    raise np.linalg.LinAlgError("kernel matrix not positive definite even after jitter escalation")


def _posterior_many(history: SampleHistory, queries: np.ndarray, cfg: GpConfig):
    queries = np.atleast_2d(np.asarray(queries, dtype=float))[:, :2]
    if len(history) == 0:
        mean = np.full(len(queries), cfg.prior_mean)
        var = np.full(len(queries), cfg.signal_var)
        return mean, var
    x, chol = _factor(history, cfg)
    resid = history.values() - cfg.prior_mean
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid))
    k_star = _kernel_matrix(x, queries, cfg)
    mean = cfg.prior_mean + k_star.T @ alpha
    v = np.linalg.solve(chol, k_star)
    var = cfg.signal_var - np.einsum("ij,ij->j", v, v)
    return mean, np.maximum(var, 0.0)


def posterior(history: SampleHistory, query, cfg: GpConfig) -> Posterior:
    """GP mean and variance at one query point given the current window.
    With an empty window this is just the prior."""
    mean, var = _posterior_many(history, np.asarray(query, dtype=float).reshape(1, -1), cfg)
    return Posterior(float(mean[0]), float(var[0]))


def best_observed(history: SampleHistory) -> float:
    """Incumbent value for the improvement criterion; 0 when empty."""
    if len(history) == 0:
        return 0.0
    return float(history.values().max())


_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT_2))


def _ei(gap: float, sigma: float) -> float:
    """Expected improvement from the posterior's margin over the
    incumbent (mean - f_star) and its standard deviation."""
    if sigma == 0.0:
        return max(gap, 0.0)
    z = gap / sigma
    return gap * _norm_cdf(z) + sigma * _norm_pdf(z)


def expected_improvement(post: Posterior, f_star: float) -> float:
    """E[max(f - f_star, 0)] for f ~ N(post.mean, post.var)."""
    return _ei(post.mean - f_star, math.sqrt(max(post.var, 0.0)))


def candidate_offsets(reach: float, cfg: GpConfig) -> np.ndarray:
    """The (n_rad * n_dir, 2) polar grid of candidate moves: n_dir
    headings at each of n_rad radii out to reach, innermost ring first."""
    out = np.empty((cfg.n_rad * cfg.n_dir, 2))
    k = 0
    for ri in range(1, cfg.n_rad + 1):
        r = reach * ri / cfg.n_rad
        for di in range(cfg.n_dir):
            ang = 2.0 * math.pi * di / cfg.n_dir
            out[k] = r * math.cos(ang), r * math.sin(ang)
            k += 1
    return out


def propose_point(
    history: SampleHistory,
    current,
    reach: float,
    cfg: GpConfig,
    bounds: tuple | None = None,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Waypoint with the highest expected improvement among reachable
    candidates.

    Candidates are the current point plus a polar grid of n_dir headings
    by n_rad radii out to reach, clipped to bounds when given.  A caller
    proposing repeatedly with one reach may pass that grid precomputed
    as offsets = candidate_offsets(reach, cfg).  Ties keep the earliest
    candidate, so an uninformative posterior proposes staying put.
    """
    current = np.asarray(current, dtype=float).reshape(-1)[:2]
    if offsets is None:
        offsets = candidate_offsets(reach, cfg)
    cands = np.empty((len(offsets) + 1, 2))
    cands[0] = current
    np.add(current, offsets, out=cands[1:])
    if bounds is not None:
        lo, hi = bounds
        cands = np.clip(cands, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    f_star = best_observed(history)
    means, variances = _posterior_many(history, cands, cfg)
    gaps = (means - f_star).tolist()
    sigmas = np.sqrt(variances).tolist()
    best_idx = 0
    best_ei = -math.inf
    for idx in range(len(cands)):
        ei = _ei(gaps[idx], sigmas[idx])
        if ei > best_ei:
            best_ei = ei
            best_idx = idx
    return cands[best_idx]
