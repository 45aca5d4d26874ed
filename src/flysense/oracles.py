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


def dense_gp_posterior(positions, values, queries, cfg: gp.GpConfig) -> tuple[list, list]:
    """Textbook GP regression with an explicit matrix inverse and the
    squared-exponential kernel in plain floats: the mean and variance at
    each query point."""
    def kernel(p, q) -> float:
        sq = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        return cfg.signal_var * math.exp(-0.5 * sq / cfg.length_scale ** 2)

    pts, qs = np.asarray(positions).tolist(), np.asarray(queries).tolist()
    gram = np.array([[kernel(a, b) for b in pts] for a in pts])
    inv = np.linalg.inv(gram + cfg.noise_jitter * cfg.signal_var * np.eye(len(pts)))
    resid = np.asarray(values) - cfg.prior_mean
    k_stars = [np.array([kernel(a, q) for a in pts]) for q in qs]
    return ([float(cfg.prior_mean + k @ inv @ resid) for k in k_stars],
            [max(float(kernel(q, q) - k @ inv @ k), 0.0) for q, k in zip(qs, k_stars)])


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
                            h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of sum(y * dy) in net.params, one flat
    vector laid out like it: what Adam.step consumes."""
    return _central_diff(net.params, lambda: float(np.sum(net.forward(x)[0] * dy)), h)


def finite_diff_input_grad(net: nn.Mlp, x: np.ndarray, dy: np.ndarray,
                           h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float).copy()
    return _central_diff(x, lambda: float(np.sum(net.forward(x)[0] * dy)), h)


def alloc_ok_literal(phi, n_uavs: int, n_channels: int):
    """The sub-channel constraint written as plain double sums; entries of
    phi[tx][rx][ch] may be arrays, one 0/1 per matrix, to score many."""
    ok = True
    for node in range(n_uavs + 1):
        for ch in range(n_channels):
            incoming = 0
            for m in range(n_uavs + 1):
                if m != node:
                    incoming = incoming + phi[m][node][ch]
            outgoing = 0
            for j in range(n_uavs + 1):
                if j != node:
                    outgoing = outgoing + phi[node][j][ch]
            ok = ok & (incoming + outgoing <= 1)
    return ok


def enumerate_valid_allocs_constructive(n_uavs: int, n_channels: int):
    """Valid allocations built compositionally: per channel, any set of
    node-disjoint directed links (BS receive-only); channels combine
    freely.  Yields each matrix once, built with set_link."""
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
    for assignment in itertools.product(channel_configs, repeat=n_channels):
        fm = FormationMatrix(n_uavs, n_channels)
        for ch, combo in enumerate(assignment):
            for tx, rx in combo:
                fm.set_link(tx, rx, ch)
        yield fm


def check_gp_posterior(rng: np.random.Generator, posterior_fn=None,
                       tol: float = 1e-8) -> CheckResult:
    """gp.posterior against dense_gp_posterior on random windows, each
    queried in one batch as the proposer queries it: a random point and
    the default candidate grid (65 points) around it."""
    posterior_fn = posterior_fn or gp.posterior
    cfg = gp.GpConfig(length_scale=0.4, signal_var=1.3, noise_jitter=1e-6)
    offsets = gp.candidate_offsets(0.5, cfg)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        pts = rng.uniform(-1, 1, size=(n, 2))
        vals = rng.uniform(0, 3, size=n)
        query = rng.uniform(-1, 1, size=2)
        queries = np.vstack([query, query + offsets])
        means, variances = posterior_fn(pts, vals, queries, cfg)
        mean_ref, var_ref = dense_gp_posterior(pts, vals, queries, cfg)
        scale = np.maximum(np.maximum(np.abs(mean_ref), np.abs(var_ref)), 1.0)
        err = np.maximum(np.abs(np.subtract(means, mean_ref)),
                         np.abs(np.subtract(variances, var_ref))) / scale
        worst = max(worst, float(err.max()))
    return CheckResult("gp_posterior_vs_dense", worst, tol, worst <= tol,
                       detail=f"{len(queries)} queries per window")


def check_expected_improvement(rng: np.random.Generator, ei_fn=None,
                               n_draws: int = 1_000_000, tol: float = 1e-2) -> CheckResult:
    ei_fn = ei_fn or gp.expected_improvement
    cases = [(1.0, 1.0, 0.0)]
    for _ in range(9):
        cases.append((float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2.0)),
                      float(rng.uniform(-2, 2))))
    worst = 0.0
    for mu, sigma, f_star in cases:
        closed = ei_fn(mu - f_star, sigma)
        mc = mc_expected_improvement(mu, sigma, f_star, n_draws, rng)
        worst = max(worst, abs(closed - mc))
    return CheckResult("expected_improvement_vs_mc", worst, tol, worst <= tol)


def check_mlp_gradients(rng: np.random.Generator, n_seeds: int = 10,
                        tol: float = 1e-4) -> CheckResult:
    """Backprop vs central differences for the actor and critic shapes,
    in the two gradient modes the learner uses (parameters only, input
    only) and in the default that computes both."""
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
            x = rng.uniform(-1, 1, size=(1, dims[0]))
            dy = rng.uniform(-1, 1, size=(1, dims[-1]))
            _, cache = net.forward(x)
            fd = finite_diff_param_grads(net, x, dy)
            fx = finite_diff_input_grad(net, x, dy)
            for params, inputs in modes:
                grad, dx = net.backward(cache, dy, params=params, inputs=inputs)
                if (grad is None) == params or (dx is None) == inputs:
                    worst = math.inf
                    continue
                if params:
                    worst = max(worst, rel_err(grad, fd))
                if inputs:
                    worst = max(worst, rel_err(dx, fx))
    return CheckResult("mlp_grads_vs_finite_diff", worst, tol, worst <= tol)


def check_alloc_validator(validate_fn=None, max_uavs: int = 3,
                          max_channels: int = 2) -> CheckResult:
    """validate_alloc against the literal constraint over every matrix:
    bit s of a pattern switches link slot s on.  The literal sums score
    all patterns at once; validate_fn sees one matrix counted up."""
    validate_fn = validate_fn or channel.validate_alloc
    mismatches = 0
    total = 0
    for n in range(1, max_uavs + 1):
        for k in range(1, max_channels + 1):
            slots = [(tx, rx, ch) for tx in range(1, n + 1)
                     for rx in range(n + 1) if rx != tx for ch in range(k)]
            patterns = np.arange(2 ** len(slots))
            phi = [[[0] * k for _ in range(n + 1)] for _ in range(n + 1)]
            for s, (tx, rx, ch) in enumerate(slots):
                phi[tx][rx][ch] = ((patterns >> s) & 1).astype(np.int8)
            ok_lit = alloc_ok_literal(phi, n, k).tolist()
            fm = FormationMatrix(n, k)
            for pattern, want in enumerate(ok_lit):
                # pattern - 1 -> pattern: clear the low one bits, set the next
                for s, (tx, rx, ch) in enumerate(slots if pattern else ()):
                    fm.rows[tx][rx][ch] = pattern >> s & 1
                    if fm.rows[tx][rx][ch]:
                        break
                total += 1
                if (not validate_fn(fm)) != want:
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
        if not fm.has_link(tx, rx):
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
        buffers = [u.buffer for u in w.uavs]
        for fm in enumerate_valid_allocs_constructive(n, k):
            res = offload_fn(buffers, [cap - b for b in buffers], w.link_power, fm, w.chan,
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
