"""Independent cross-checks for the numerical core.

Every routine here recomputes a quantity through a deliberately
different path than the production code: dense matrix inversion instead
of Cholesky solves, Monte-Carlo instead of closed forms, finite
differences instead of backprop, and literal constraint loops instead of
vectorized sums.  The check_* functions return result rows that the CLI
and the test suite both consume; the functions under test are injectable
so corruption is detectable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel, formation, gp, nn, world
from .channel import BS, ChannelParams, FormationMatrix


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "max_err": self.max_err, "tol": self.tol,
                "ok": self.ok, "detail": self.detail}


def dense_gp_posterior(positions: np.ndarray, values: np.ndarray, query,
                       cfg: gp.GpConfig) -> tuple[float, float]:
    """Textbook GP regression with an explicit matrix inverse."""
    x = np.atleast_2d(positions)
    q = np.asarray(query, dtype=float).reshape(-1)[:2]
    n = len(x)
    gram = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            gram[a, b] = gp.kernel(x[a], x[b], cfg)
    gram += cfg.noise_jitter * cfg.signal_var * np.eye(n)
    k_star = np.array([gp.kernel(x[a], q, cfg) for a in range(n)])
    inv = np.linalg.inv(gram)
    mean = cfg.prior_mean + k_star @ inv @ (np.asarray(values) - cfg.prior_mean)
    var = gp.kernel(q, q, cfg) - k_star @ inv @ k_star
    return float(mean), float(max(var, 0.0))


def mc_expected_improvement(mu: float, sigma: float, f_star: float,
                            n_draws: int, rng: np.random.Generator) -> float:
    draws = mu + sigma * rng.standard_normal(n_draws)
    return float(np.maximum(draws - f_star, 0.0).mean())


def finite_diff_param_grads(net: nn.Mlp, x: np.ndarray, dy: np.ndarray,
                            h: float = 1e-5) -> list:
    """Central-difference gradients of sum(y * dy) for every parameter."""
    def objective() -> float:
        y, _ = net.forward(x)
        return float(np.sum(y * dy))

    grads = []
    for w, b in zip(net.ws, net.bs):
        gw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            keep = w[idx]
            w[idx] = keep + h
            plus = objective()
            w[idx] = keep - h
            minus = objective()
            w[idx] = keep
            gw[idx] = (plus - minus) / (2 * h)
        gb = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            keep = b[idx]
            b[idx] = keep + h
            plus = objective()
            b[idx] = keep - h
            minus = objective()
            b[idx] = keep
            gb[idx] = (plus - minus) / (2 * h)
        grads.append((gw, gb))
    return grads


def finite_diff_input_grad(net: nn.Mlp, x: np.ndarray, dy: np.ndarray,
                           h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float).copy()
    gx = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        keep = x[idx]
        x[idx] = keep + h
        plus = float(np.sum(net.forward(x)[0] * dy))
        x[idx] = keep - h
        minus = float(np.sum(net.forward(x)[0] * dy))
        x[idx] = keep
        gx[idx] = (plus - minus) / (2 * h)
    return gx


def alloc_ok_literal(phi: np.ndarray, n_uavs: int, n_channels: int) -> bool:
    """The sub-channel constraint written as plain double sums."""
    for node in range(n_uavs + 1):
        for ch in range(n_channels):
            incoming = 0
            for m in range(n_uavs + 1):
                if m != node:
                    incoming += int(phi[m][node][ch])
            outgoing = 0
            for j in range(n_uavs + 1):
                if j != node:
                    outgoing += int(phi[node][j][ch])
            if incoming + outgoing > 1:
                return False
    return True


def _link_slots(n_uavs: int, n_channels: int) -> list:
    return [(tx, rx, ch)
            for tx in range(1, n_uavs + 1)
            for rx in range(n_uavs + 1) if rx != tx
            for ch in range(n_channels)]


def enumerate_valid_allocs_constructive(n_uavs: int, n_channels: int) -> set:
    """Valid allocations built compositionally: per channel, any set of
    node-disjoint directed links (BS receive-only); channels combine
    freely.  Returns matrix byte keys."""
    per_channel_links = [(tx, rx) for tx in range(1, n_uavs + 1)
                         for rx in range(n_uavs + 1) if rx != tx]
    channel_configs = []
    for r in range(len(per_channel_links) + 1):
        for combo in itertools.combinations(per_channel_links, r):
            used = []
            for tx, rx in combo:
                used += [tx, rx]
            if len(set(used)) == len(used):
                channel_configs.append(combo)
    keys = set()
    for assignment in itertools.product(channel_configs, repeat=n_channels):
        phi = np.zeros((n_uavs + 1, n_uavs + 1, n_channels), dtype=np.int8)
        for ch, combo in enumerate(assignment):
            for tx, rx in combo:
                phi[tx, rx, ch] = 1
        keys.add(phi.tobytes())
    return keys


def check_gp_posterior(rng: np.random.Generator, posterior_fn=None,
                       tol: float = 1e-8) -> CheckResult:
    posterior_fn = posterior_fn or gp.posterior
    cfg = gp.GpConfig(length_scale=0.4, signal_var=1.3, noise_jitter=1e-6, window=10)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        hist = gp.SampleHistory(cfg.window)
        pts = rng.uniform(-1, 1, size=(n, 2))
        vals = rng.uniform(0, 3, size=n)
        for p, v in zip(pts, vals):
            hist.add(p, v)
        query = rng.uniform(-1, 1, size=2)
        post = posterior_fn(hist, query, cfg)
        mean_ref, var_ref = dense_gp_posterior(pts, vals, query, cfg)
        scale = max(abs(mean_ref), abs(var_ref), 1.0)
        worst = max(worst, abs(post.mean - mean_ref) / scale,
                    abs(post.var - var_ref) / scale)
    return CheckResult("gp_posterior_vs_dense", worst, tol, worst <= tol)


def check_expected_improvement(rng: np.random.Generator, ei_fn=None,
                               n_draws: int = 1_000_000, tol: float = 1e-2) -> CheckResult:
    ei_fn = ei_fn or gp.expected_improvement
    cases = [(1.0, 1.0, 0.0)]
    for _ in range(9):
        cases.append((float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2.0)),
                      float(rng.uniform(-2, 2))))
    worst = 0.0
    for mu, sigma, f_star in cases:
        closed = ei_fn(gp.Posterior(mu, sigma ** 2), f_star)
        mc = mc_expected_improvement(mu, sigma, f_star, n_draws, rng)
        worst = max(worst, abs(closed - mc))
    return CheckResult("expected_improvement_vs_mc", worst, tol, worst <= tol)


def check_mlp_gradients(rng: np.random.Generator, n_seeds: int = 10,
                        tol: float = 1e-4) -> CheckResult:
    """Backprop vs central differences for the actor and critic shapes,
    in each gradient mode the learner uses: parameters only, input only,
    and both."""
    shapes = [
        ([12, 16, 16, 2], "tanh"),
        ([42, 16, 16, 1], "identity"),
    ]
    modes = ((True, True), (True, False), (False, True))

    def rel_err(a, b) -> float:
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        return float((np.abs(a - b) / denom).max())

    worst = 0.0
    for _ in range(n_seeds):
        for dims, out_act in shapes:
            net = nn.Mlp(dims, out_act=out_act, rng=rng)
            x = rng.uniform(-1, 1, size=dims[0])
            dy = rng.uniform(-1, 1, size=dims[-1])
            _, cache = net.forward(x)
            fd = finite_diff_param_grads(net, x, dy)
            fx = finite_diff_input_grad(net, x, dy)
            for params, inputs in modes:
                grads, dx = net.backward(cache, dy, params=params, inputs=inputs)
                if (grads is None) == params or (dx is None) == inputs:
                    worst = math.inf
                    continue
                if params:
                    for (gw, gb), (fw, fb) in zip(grads, fd):
                        worst = max(worst, rel_err(gw, fw), rel_err(gb, fb))
                if inputs:
                    worst = max(worst, rel_err(dx, fx))
    return CheckResult("mlp_grads_vs_finite_diff", worst, tol, worst <= tol)


def check_alloc_validator(validate_fn=None, max_uavs: int = 3,
                          max_channels: int = 2) -> CheckResult:
    """validate_alloc against the literal constraint over every matrix."""
    validate_fn = validate_fn or channel.validate_alloc
    mismatches = 0
    total = 0
    for n in range(1, max_uavs + 1):
        for k in range(1, max_channels + 1):
            slots = _link_slots(n, k)
            txs = np.array([s[0] for s in slots])
            rxs = np.array([s[1] for s in slots])
            chs = np.array([s[2] for s in slots])
            for pattern in range(2 ** len(slots)):
                bits = (pattern >> np.arange(len(slots))) & 1
                phi = np.zeros((n + 1, n + 1, k), dtype=np.int8)
                phi[txs, rxs, chs] = bits
                fm = FormationMatrix(n, k, phi)
                ok_fast = not validate_fn(fm)
                ok_lit = alloc_ok_literal(phi, n, k)
                total += 1
                if ok_fast != ok_lit:
                    mismatches += 1
    return CheckResult("alloc_validator_vs_literal", float(mismatches), 0.0,
                       mismatches == 0, detail=f"{total} matrices")


def _independent_best_formation(w, lam) -> tuple[bytes, float]:
    """Exhaustive scoring via the constructive enumerator and a plain
    re-statement of the offload service rule."""
    n = len(w.uavs)
    k = w.chan.n_channels
    lam_arr = np.broadcast_to(np.asarray(lam, dtype=float), (n,))
    positions = w.positions()
    cap = w.scenario.buffer_capacity_bits
    backlog = sum(g.remaining for g in w.gus)
    keys = enumerate_valid_allocs_constructive(n, k)
    shape = (n + 1, n + 1, k)
    scored = []
    for key in keys:
        phi = np.frombuffer(key, dtype=np.int8).reshape(shape)
        fm = FormationMatrix(n, k, phi.copy())
        left = np.array([u.buffer for u in w.uavs], dtype=float)
        accept = np.maximum(cap - left, 0.0)
        new_buf = left.copy()
        for tx in range(1, n + 1):
            for rx in range(n + 1):
                if rx == tx or not phi[tx, rx].any():
                    continue
                cap_bits = channel.u2u_rate(fm, positions, tx, rx, w.chan) * w.protocol.t_o
                amt = min(cap_bits, left[tx - 1])
                if rx != BS:
                    amt = min(amt, accept[rx - 1])
                left[tx - 1] -= amt
                new_buf[tx - 1] -= amt
                if rx != BS:
                    new_buf[rx - 1] += amt
                    accept[rx - 1] -= amt
        total = float(np.dot(lam_arr, np.minimum(new_buf, cap))) + backlog
        scored.append((total, _matrix_sort_key(key, shape), key))
    scored.sort(key=lambda t: (t[0], t[1]))
    return scored


def _matrix_sort_key(key: bytes, shape) -> tuple:
    """Enumeration order used by the exhaustive search: lexicographic over
    the (tx, rx, ch) link slots."""
    phi = np.frombuffer(key, dtype=np.int8).reshape(shape)
    slots = _link_slots(shape[0] - 1, shape[2])
    return tuple(int(phi[tx, rx, ch]) for tx, rx, ch in slots)


def check_brute_force(rng: np.random.Generator, brute_fn=None) -> CheckResult:
    """brute_force_formation against the independent enumerator on random
    small worlds.  Costs must agree to 1e-9 relative; the chosen matrix
    must agree whenever the optimum is not a near-tie."""
    brute_fn = brute_fn or formation.brute_force_formation
    worst = 0.0
    mismatched = 0
    for trial in range(6):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        scen = world.Scenario(n_uavs=n, n_gus=2, gu_seed=int(rng.integers(1 << 30)))
        params = ChannelParams(n_channels=k)
        w = world.make_world(scen, params, np.random.default_rng(int(rng.integers(1 << 30))))
        for u in w.uavs:
            u.buffer = float(rng.uniform(0, scen.buffer_capacity_bits))
        fm, cost = brute_fn(w, 0.5)
        scored = _independent_best_formation(w, 0.5)
        ref_cost, _, ref_key = scored[0]
        scale = max(abs(ref_cost), 1.0)
        worst = max(worst, abs(cost - ref_cost) / scale)
        runner_up_gap = (scored[1][0] - ref_cost) / scale if len(scored) > 1 else 1.0
        if fm.key() != ref_key and runner_up_gap > 1e-9:
            mismatched += 1
    ok = worst <= 1e-9 and mismatched == 0
    return CheckResult("brute_force_vs_enumeration", worst, 1e-9, ok,
                       detail=f"{mismatched} matrix mismatches")


def run_all(seed: int = 0, **overrides) -> list:
    """Every oracle check with one seeded stream; returns CheckResult rows."""
    rng = np.random.default_rng(seed)
    return [
        check_gp_posterior(rng, posterior_fn=overrides.get("posterior_fn")),
        check_expected_improvement(rng, ei_fn=overrides.get("ei_fn")),
        check_mlp_gradients(rng),
        check_alloc_validator(validate_fn=overrides.get("validate_fn")),
        check_brute_force(rng, brute_fn=overrides.get("brute_fn")),
    ]
