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

from . import channel, gp, nn, world
from .channel import BS, ChannelParams, FormationMatrix


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    ok: bool
    detail: str = ""


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


def _central_diff(arr: np.ndarray, objective, h: float) -> np.ndarray:
    """Central-difference gradient of objective() in every entry of arr,
    perturbing arr in place one entry at a time."""
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        keep = arr[idx]
        arr[idx] = keep + h
        plus = objective()
        arr[idx] = keep - h
        minus = objective()
        arr[idx] = keep
        grad[idx] = (plus - minus) / (2 * h)
    return grad


def finite_diff_param_grads(net: nn.Mlp, x: np.ndarray, dy: np.ndarray,
                            h: float = 1e-5) -> list:
    """Central-difference gradients of sum(y * dy) for every parameter."""
    def objective() -> float:
        return float(np.sum(net.forward(x)[0] * dy))

    return [(_central_diff(w, objective, h), _central_diff(b, objective, h))
            for w, b in zip(net.ws, net.bs)]


def finite_diff_input_grad(net: nn.Mlp, x: np.ndarray, dy: np.ndarray,
                           h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float).copy()
    return _central_diff(x, lambda: float(np.sum(net.forward(x)[0] * dy)), h)


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
            slots = [(tx, rx, ch) for tx in range(1, n + 1)
                     for rx in range(n + 1) if rx != tx for ch in range(k)]
            txs, rxs, chs = np.array(slots).T
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


def _restated_offload(w, fm: FormationMatrix) -> np.ndarray:
    """Post-slot buffers after one offloading sub-slot on w's buffers
    under fm, by a plain re-statement of the offload service rule: links
    into the BS are served before UAV-to-UAV links; each bit a UAV drains
    to the BS frees that much of its buffer for relayed-in bits; a UAV
    with an empty buffer is a silent transmitter; nobody ships more than
    it held at the start."""
    n = len(w.uavs)
    cap = w.scenario.buffer_capacity_bits
    start = np.array([u.buffer for u in w.uavs], dtype=float)
    talking = np.concatenate([[False], start > 0.0])  # node mask, BS silent
    # BS-bound links first, then U2U links, each in ascending (tx, rx)
    order = sorted(((tx, rx) for tx in range(1, n + 1) for rx in range(n + 1) if rx != tx),
                   key=lambda link: (link[1] != BS, link))
    left = start.copy()
    room = np.maximum(cap - start, 0.0)
    new_buf = start.copy()
    for tx, rx in order:
        if not fm.phi[tx, rx].any():
            continue
        cap_bits = (channel.u2u_rate(fm, w.link_power, tx, rx, w.chan, talking)
                    * w.scenario.protocol.t_o)
        amt = min(cap_bits, left[tx - 1])
        if rx == BS:
            room[tx - 1] += amt
        else:
            amt = min(amt, room[rx - 1])
            room[rx - 1] -= amt
            new_buf[rx - 1] += amt
        left[tx - 1] -= amt
        new_buf[tx - 1] -= amt
    return np.minimum(new_buf, cap)


def _random_small_world(rng: np.random.Generator):
    """1-3 UAVs with random buffers on 1-2 sub-channels; one UAV's
    buffer is empty, so it holds allocations but transmits nothing."""
    n = int(rng.integers(1, 4))
    k = int(rng.integers(1, 3))
    scen = world.Scenario(n_uavs=n, n_gus=2, gu_seed=int(rng.integers(1 << 30)))
    w = world.make_world(scen, ChannelParams(n_channels=k),
                         np.random.default_rng(int(rng.integers(1 << 30))))
    for u in w.uavs:
        u.buffer = float(rng.uniform(0, scen.buffer_capacity_bits))
    w.uavs[int(rng.integers(n))].buffer = 0.0
    return w


def _relay_world(rng: np.random.Generator, sender: int):
    """Two UAVs on 2 sub-channels, on the diagonal of a wide field that
    runs away from the base-station corner.  The sender (0-based index)
    sits far out; the receiver sits 1.45-1.9x nearer the base station,
    full.  At this low SNR two short hops beat one long one, and the
    receiver can only take what it drains in the same sub-slot."""
    far = float(rng.uniform(1.4, 2.0))  # scaled offset from the BS corner
    near = far / float(rng.uniform(1.45, 1.9))
    xy = [(1.0 - far, 1.0 - far), (1.0 - near, 1.0 - near)]
    if sender == 1:
        xy.reverse()
    scen = world.Scenario(n_uavs=2, n_gus=2, gu_seed=int(rng.integers(1 << 30)),
                          half_width_km=float(rng.uniform(4.0, 8.0)), uav_xy=tuple(xy))
    w = world.make_world(scen, ChannelParams(n_channels=2),
                         np.random.default_rng(int(rng.integers(1 << 30))))
    w.uavs[sender].buffer = float(rng.uniform(0, scen.buffer_capacity_bits))
    w.uavs[1 - sender].buffer = scen.buffer_capacity_bits
    return w


def check_offload(rng: np.random.Generator, offload_fn=None) -> CheckResult:
    """channel.offload, followed by world.uav_buffer_step, against the
    restated service rule (_restated_offload) on every allocation of the
    constructive enumerator, in random small worlds and in relay worlds
    (see _relay_world), each relay direction three times.  Post-slot
    buffers must agree to 1e-9 of the buffer capacity."""
    offload_fn = offload_fn or channel.offload
    worlds = itertools.chain((_random_small_world(rng) for _ in range(6)),
                             (_relay_world(rng, t % 2) for t in range(6)))
    worst = 0.0
    allocs = 0
    for w in worlds:
        n, k = len(w.uavs), w.chan.n_channels
        cap = w.scenario.buffer_capacity_bits
        buffers = np.array([u.buffer for u in w.uavs])
        for key in enumerate_valid_allocs_constructive(n, k):
            phi = np.frombuffer(key, dtype=np.int8).reshape(n + 1, n + 1, k)
            fm = FormationMatrix(n, k, phi.copy())
            res = offload_fn(buffers, cap - buffers, w.link_power, fm, w.chan,
                             w.scenario.protocol.t_o)
            got = [world.uav_buffer_step(buffers[i], res.outgoing[i], res.incoming[i], cap)
                   for i in range(n)]
            gap = np.abs(np.subtract(got, _restated_offload(w, fm))).max()
            worst = max(worst, float(gap) / cap)
            allocs += 1
    return CheckResult("offload_vs_restated_rule", worst, 1e-9, worst <= 1e-9,
                       detail=f"{allocs} allocations")


def run_all(seed: int = 0, **overrides) -> list:
    """Every oracle check with one seeded stream; returns CheckResult rows."""
    rng = np.random.default_rng(seed)
    return [
        check_gp_posterior(rng, posterior_fn=overrides.get("posterior_fn")),
        check_expected_improvement(rng, ei_fn=overrides.get("ei_fn")),
        check_mlp_gradients(rng),
        check_alloc_validator(validate_fn=overrides.get("validate_fn")),
        check_offload(rng, offload_fn=overrides.get("offload_fn")),
    ]
