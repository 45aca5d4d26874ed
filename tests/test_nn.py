"""MLP forward/backward, Adam, target mixing, and checkpoints."""

import os

import numpy as np
import pytest

from flysense.nn import Adam, Mlp, load_checkpoint, save_checkpoint, soft_update
from flysense.oracles import (
    check_mlp_gradients,
    finite_diff_input_grad,
    finite_diff_param_grads,
)


def _net(dims, out_act="identity", seed=0):
    return Mlp(dims, out_act=out_act, rng=np.random.default_rng(seed))


# Reference implementations: the per-layer code the flat-vector versions
# replaced.  They must agree bit for bit.


def _reference_backward(net, cache, dy):
    acts, single = cache
    g = np.atleast_2d(np.asarray(dy, dtype=float))
    last = net.n_layers - 1
    if net.out_act == "tanh":
        g = g * (1.0 - acts[-1] ** 2)
    grads = [None] * net.n_layers
    for l in range(last, -1, -1):
        grads[l] = (acts[l].T @ g, g.sum(axis=0))
        g = g @ net.ws[l].T
        if l > 0:
            g = g * (1.0 - acts[l] ** 2)
    return grads, (g[0] if single else g)


class _LayerNet:
    """Separate per-layer arrays holding a copy of a net's parameters."""

    def __init__(self, net):
        self.ws = [w.copy() for w in net.ws]
        self.bs = [b.copy() for b in net.bs]

    def soft_update(self, online, tau):
        for tw, ow in zip(self.ws, online.ws):
            tw *= 1.0 - tau
            tw += tau * ow
        for tb, ob in zip(self.bs, online.bs):
            tb *= 1.0 - tau
            tb += tau * ob


class _ReferenceAdam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = self.v = None

    def step(self, net, grads):
        if self.m is None:
            self.m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.ws, net.bs)]
            self.v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(net.ws, net.bs)]
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for l, (dw, db) in enumerate(grads):
            for params, grad, m, v in (
                (net.ws[l], dw, self.m[l][0], self.v[l][0]),
                (net.bs[l], db, self.m[l][1], self.v[l][1]),
            ):
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad ** 2
                params -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class TestForward:
    def test_shapes_for_single_and_batch(self):
        net = _net([4, 8, 2], out_act="tanh")
        y1, _ = net.forward(np.zeros(4))
        yb, _ = net.forward(np.zeros((5, 4)))
        assert y1.shape == (2,)
        assert yb.shape == (5, 2)

    def test_tanh_output_bounded(self):
        net = _net([3, 16, 2], out_act="tanh", seed=2)
        rng = np.random.default_rng(0)
        y, _ = net.forward(rng.uniform(-50, 50, (100, 3)))
        assert np.all(np.abs(y) <= 1.0)

    def test_identity_output_is_affine_in_last_hidden(self):
        net = _net([2, 4, 1], out_act="identity", seed=3)
        y, (acts, _) = net.forward(np.ones((1, 2)))
        np.testing.assert_allclose(y, acts[-2] @ net.ws[-1] + net.bs[-1], rtol=1e-12)

    def test_init_scale_follows_fan_in(self):
        net = _net([100, 50, 1], seed=4)
        lim = 1.0 / np.sqrt(100)
        assert np.abs(net.ws[0]).max() <= lim + 1e-12
        assert np.abs(net.ws[1]).max() <= 1.0 / np.sqrt(50) + 1e-12

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            _net([2, 2], out_act="relu")


class TestBackward:
    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            dims = [3, 8, 5, 2]
            act = "tanh" if trial % 2 else "identity"
            net = _net(dims, out_act=act, seed=trial)
            x = rng.uniform(-1, 1, (4, 3))
            dy = rng.uniform(-1, 1, (4, 2))
            _, cache = net.forward(x)
            grads, dx = net.backward(cache, dy)
            ref = finite_diff_param_grads(net, x, dy)
            for (dw, db), (rw, rb) in zip(grads, ref):
                np.testing.assert_allclose(dw, rw, atol=1e-6)
                np.testing.assert_allclose(db, rb, atol=1e-6)
            np.testing.assert_allclose(dx, finite_diff_input_grad(net, x, dy), atol=1e-6)

    @pytest.mark.parametrize("params,inputs", [(True, False), (False, True), (True, True)])
    def test_each_gradient_mode_matches_finite_differences(self, params, inputs):
        rng = np.random.default_rng(22)
        for trial in range(4):
            net = _net([3, 8, 5, 2], out_act="tanh" if trial % 2 else "identity", seed=trial)
            x = rng.uniform(-1, 1, (4, 3))
            dy = rng.uniform(-1, 1, (4, 2))
            _, cache = net.forward(x)
            grads, dx = net.backward(cache, dy, params=params, inputs=inputs)
            assert (grads is None) != params
            assert (dx is None) != inputs
            if params:
                for (dw, db), (rw, rb) in zip(grads, finite_diff_param_grads(net, x, dy)):
                    np.testing.assert_allclose(dw, rw, atol=1e-6)
                    np.testing.assert_allclose(db, rb, atol=1e-6)
            if inputs:
                np.testing.assert_allclose(dx, finite_diff_input_grad(net, x, dy), atol=1e-6)

    def test_modes_agree_bitwise_with_old_backward(self):
        rng = np.random.default_rng(23)
        for out_act in ("identity", "tanh"):
            net = _net([6, 16, 16, 3], out_act=out_act, seed=1)
            x = rng.uniform(-1, 1, (9, 6))
            dy = rng.uniform(-1, 1, (9, 3))
            _, cache = net.forward(x)
            ref_grads, ref_dx = _reference_backward(net, cache, dy)
            grads, dx = net.backward(cache, dy)
            only_grads, none_dx = net.backward(cache, dy, inputs=False)
            none_grads, only_dx = net.backward(cache, dy, params=False)
            assert none_dx is None and none_grads is None
            for got in (grads, only_grads):
                for (dw, db), (rw, rb) in zip(got, ref_grads):
                    assert np.array_equal(dw, rw) and np.array_equal(db, rb)
                assert np.shares_memory(got.flat, got[0][0])
            assert np.array_equal(dx, ref_dx) and np.array_equal(only_dx, ref_dx)

    def test_oracle_check_passes(self):
        res = check_mlp_gradients(np.random.default_rng(0))
        assert res.ok, res.detail


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        net = _net([2, 2], seed=5)
        w_before = net.ws[0].copy()
        opt = Adam(lr=1e-3)
        opt.step(net, np.ones_like(net.params))
        np.testing.assert_allclose(net.ws[0], w_before - 1e-3, atol=1e-9)

    def test_fits_a_small_regression(self):
        net = _net([2, 8, 1], seed=6)
        opt = Adam(lr=1e-2)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (16, 2))
        y = (x[:, :1] - 0.5 * x[:, 1:]) ** 2
        losses = []
        for _ in range(300):
            pred, cache = net.forward(x)
            diff = pred - y
            losses.append(float((diff**2).mean()))
            grads, _ = net.backward(cache, 2.0 * diff / len(x))
            opt.step(net, grads.flat)
        assert losses[-1] < 0.1 * losses[0]


def test_adam_and_polyak_match_per_layer_loops_bitwise():
    rng = np.random.default_rng(12)
    net = _net([5, 16, 16, 2], out_act="tanh", seed=12)
    target = net.copy()
    ref, ref_target = _LayerNet(net), _LayerNet(target)
    opt, ref_opt = Adam(lr=1e-2), _ReferenceAdam(lr=1e-2)
    x = rng.uniform(-1, 1, (8, 5))
    for _ in range(5):
        _, cache = net.forward(x)
        grads, _ = net.backward(cache, rng.uniform(-1, 1, (8, 2)))
        ref_opt.step(ref, [(dw.copy(), db.copy()) for dw, db in grads])
        opt.step(net, grads.flat)
        ref_target.soft_update(ref, 0.05)
        soft_update(target, net, 0.05)
        for mine, theirs in ((net, ref), (target, ref_target)):
            for a, b in zip(mine.ws + mine.bs, theirs.ws + theirs.bs):
                assert np.array_equal(a, b)
    flat_m = np.concatenate([a.ravel() for pair in ref_opt.m for a in pair])
    flat_v = np.concatenate([a.ravel() for pair in ref_opt.v for a in pair])
    assert np.array_equal(opt._m, flat_m) and np.array_equal(opt._v, flat_v)


def test_flat_params_view_layout():
    net = _net([3, 4, 2], seed=13)
    assert net.params.size == 3 * 4 + 4 + 4 * 2 + 2
    np.testing.assert_array_equal(net.params[:12], net.ws[0].ravel())
    np.testing.assert_array_equal(net.params[12:16], net.bs[0])
    np.testing.assert_array_equal(net.params[16:24], net.ws[1].ravel())
    np.testing.assert_array_equal(net.params[24:], net.bs[1])
    net.ws[1][0, 0] = 7.0
    assert net.params[16] == 7.0


def test_soft_update_polyak_mix():
    online = _net([2, 2], seed=7)
    target = _net([2, 2], seed=8)
    w_t = target.ws[0].copy()
    soft_update(target, online, tau=0.1)
    np.testing.assert_allclose(target.ws[0], 0.9 * w_t + 0.1 * online.ws[0], rtol=1e-12)
    soft_update(target, online, tau=1.0)
    np.testing.assert_allclose(target.ws[0], online.ws[0], rtol=0)


def test_copy_is_independent():
    net = _net([2, 3, 1], seed=9)
    dup = net.copy()
    dup.ws[0][0, 0] += 1.0
    assert net.ws[0][0, 0] != dup.ws[0][0, 0]


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    actor = _net([4, 8, 2], out_act="tanh", seed=10)
    critic = _net([6, 8, 1], seed=11)
    path = os.path.join(tmp_path, "ckpt.json")
    save_checkpoint(path, {"actor": actor, "critic": critic})
    loaded = load_checkpoint(path)
    for name, net in (("actor", actor), ("critic", critic)):
        for w, lw in zip(net.ws, loaded[name].ws):
            assert (w == lw).all()
        for b, lb in zip(net.bs, loaded[name].bs):
            assert (b == lb).all()
    x = np.full(4, 0.3)
    assert (actor.forward(x)[0] == loaded["actor"].forward(x)[0]).all()


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write('{"version": 99, "nets": {}}')
    with pytest.raises(ValueError):
        load_checkpoint(path)
