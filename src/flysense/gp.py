"""Gaussian-process surrogate over sensed-data yield by location.

A window is an (m, 2) array of positions in the field scaled to
[-1, 1] and the (m,) array of bits collected at them, oldest first.  A
squared-exponential GP conditioned on a window scores candidate
waypoints by expected improvement over the best observation, which gives
the trajectory proposals fed to the action arbitration.  There is one
function per computation: posterior conditions the window on a (Q, 2)
batch of query points through one Cholesky factor (Rasmussen & Williams
2006, Alg. 2.1), expected_improvement scores one candidate (Jones,
Schonlau & Welch 1998), and propose_point runs both over its candidate
grid.  The length scale is in the positions' units.
"""

from __future__ import annotations

import math
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


def _kernel_matrix(a: np.ndarray, b: np.ndarray, cfg: GpConfig) -> np.ndarray:
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return cfg.signal_var * np.exp(-0.5 * (dx * dx + dy * dy) / cfg.length_scale ** 2)


def _factor(x: np.ndarray, cfg: GpConfig) -> np.ndarray:
    """Cholesky of the kernel matrix of the (m, 2) window positions,
    escalating the jitter by decades (up to six) if the factorization
    fails.  The retries start from at least JITTER_FLOOR * signal_var, so
    a zero or negligible noise_jitter still escalates."""
    gram = _kernel_matrix(x, x, cfg)
    jitter = cfg.noise_jitter * cfg.signal_var
    for _ in range(7):
        try:
            return np.linalg.cholesky(gram + jitter * np.eye(len(x)))
        except np.linalg.LinAlgError:
            jitter = max(jitter, JITTER_FLOOR * cfg.signal_var) * 10.0
    raise np.linalg.LinAlgError("kernel matrix not positive definite even after jitter escalation")


def posterior(x: np.ndarray, y: np.ndarray, queries: np.ndarray,
              cfg: GpConfig) -> tuple[np.ndarray, np.ndarray]:
    """GP means and variances at the (Q, 2) query points given the window
    of (m, 2) positions x and (m,) values y, as two (Q,) arrays; an empty
    window (a 0x0 factor, an empty k_star) gives the prior exactly."""
    chol = _factor(x, cfg)
    resid = y - cfg.prior_mean
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid))
    k_star = _kernel_matrix(x, queries, cfg)
    mean = cfg.prior_mean + k_star.T @ alpha
    v = np.linalg.solve(chol, k_star)
    var = cfg.signal_var - np.einsum("ij,ij->j", v, v)
    return mean, np.maximum(var, 0.0)


_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT_2))


def expected_improvement(gap: float, sigma: float) -> float:
    """E[max(f - f_star, 0)] for f ~ N(mean, sigma**2), from the
    posterior's margin over the incumbent (gap = mean - f_star) and its
    standard deviation."""
    if sigma == 0.0:
        return max(gap, 0.0)
    z = gap / sigma
    return gap * _norm_cdf(z) + sigma * _norm_pdf(z)


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


def propose_point(x: np.ndarray, y: np.ndarray, current, offsets: np.ndarray,
                  cfg: GpConfig) -> np.ndarray:
    """Waypoint with the highest expected improvement over the best
    observation in the window x, y (0 with an empty window) among
    reachable candidates.

    Candidates are the current point plus the moves in offsets, the grid
    candidate_offsets(reach, cfg) built once by the caller, clipped to
    the scaled field [-1, 1]^2.  Ties keep the earliest candidate, so an
    uninformative posterior proposes staying put.
    """
    cands = np.empty((len(offsets) + 1, 2))
    cands[0] = current
    np.add(current, offsets, out=cands[1:])
    cands = np.clip(cands, -1.0, 1.0)
    f_star = float(y.max()) if len(y) else 0.0
    means, variances = posterior(x, y, cands, cfg)
    gaps = (means - f_star).tolist()
    sigmas = np.sqrt(variances).tolist()
    best_idx, best_ei = 0, -math.inf
    for idx in range(len(cands)):
        ei = expected_improvement(gaps[idx], sigmas[idx])
        if ei > best_ei:
            best_ei, best_idx = ei, idx
    return cands[best_idx]
