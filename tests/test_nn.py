"""MLP forward/backward, Adam, target mixing, and checkpoints."""

import os

import numpy as np
import pytest

from flysense.nn import (
    Adam,
    Mlp,
    MlpStack,
    _layer_views,
    load_checkpoint,
    save_checkpoint,
    soft_update,
)
from flysense.oracles import (
    check_mlp_gradients,
    finite_diff_input_grad,
    finite_diff_param_grads,
)


def _net(dims, out_act="identity", seed=0):
    return Mlp(dims, out_act=out_act, rng=np.random.default_rng(seed))


# Reference implementations: the per-layer code the flat-vector versions
# replaced.  They must agree bit for bit.


def _reference_backward(net, acts, dy):
    """Per-layer (dW, db) pairs and dx."""
    g = np.asarray(dy, dtype=float)
    last = len(net.ws) - 1
    if net.out_act == "tanh":
        g = g * (1.0 - acts[-1] ** 2)
    grads = [None] * len(net.ws)
    for l in range(last, -1, -1):
        grads[l] = (acts[l].T @ g, g.sum(axis=0))
        g = g @ net.ws[l].T
        if l > 0:
            g = g * (1.0 - acts[l] ** 2)
    return grads, g


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
        y1, _ = net.forward(np.zeros((1, 4)))
        yb, _ = net.forward(np.zeros((5, 4)))
        ys, _ = net.forward(np.zeros((5, 1, 4)))
        assert y1.shape == (1, 2)
        assert yb.shape == (5, 2)
        assert ys.shape == (5, 1, 2)

    def test_tanh_output_bounded(self):
        net = _net([3, 16, 2], out_act="tanh", seed=2)
        rng = np.random.default_rng(0)
        y, _ = net.forward(rng.uniform(-50, 50, (100, 3)))
        assert np.all(np.abs(y) <= 1.0)

    def test_identity_output_is_affine_in_last_hidden(self):
        net = _net([2, 4, 1], out_act="identity", seed=3)
        y, acts = net.forward(np.ones((1, 2)))
        np.testing.assert_allclose(y, acts[-2] @ net.ws[-1] + net.bs[-1], rtol=1e-12)

    def test_init_scale_follows_fan_in(self):
        net = _net([100, 50, 1], seed=4)
        lim = 1.0 / np.sqrt(100)
        assert np.abs(net.ws[0]).max() <= lim + 1e-12
        assert np.abs(net.ws[1]).max() <= 1.0 / np.sqrt(50) + 1e-12

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            _net([2, 2], out_act="relu")


# Actor and critic shapes of the shipped configs (desk, single_agent,
# tiny): actors obs_dim -> hidden -> 2 with tanh, critics N*(obs_dim + 2)
# -> hidden -> 1.
ACTOR_SHAPES = ([12, 64, 64, 2], [10, 32, 32, 2], [11, 16, 16, 2])
CRITIC_SHAPES = ([42, 64, 64, 1], [12, 32, 32, 1], [26, 16, 16, 1])


class TestRowForwards:
    """Row-wise forwards run each row as its own one-row input (gemv per
    row), so they must equal the forward of each row alone as a
    (1, fan_in) batch bit for bit."""

    @pytest.mark.parametrize("dims", ACTOR_SHAPES + CRITIC_SHAPES)
    def test_stack_rows_equal_each_nets_single_vector_forward(self, dims):
        rng = np.random.default_rng(dims[0])
        out_act = "tanh" if dims[-1] == 2 else "identity"
        for trial in range(200):
            n = 1 + trial % 3
            nets = [_net(dims, out_act=out_act, seed=1000 * trial + k) for k in range(n)]
            x = rng.uniform(-1.5, 1.5, (n, dims[0]))
            want = np.array([net.forward(row[None])[0][0] for net, row in zip(nets, x)])
            assert np.array_equal(MlpStack(nets).forward(x), want)

    @pytest.mark.parametrize("dims", CRITIC_SHAPES)
    def test_one_row_stack_forward_equals_single_vector_forwards(self, dims):
        rng = np.random.default_rng(dims[0])
        for trial in range(200):
            net = _net(dims, seed=trial)
            x = rng.uniform(-1.5, 1.5, (2 + trial % 3, dims[0]))
            want = np.array([net.forward(row[None])[0][0] for row in x])
            y, _ = net.forward(x[:, None, :])
            assert np.array_equal(y[:, 0, :], want)

    def test_updates_through_the_nets_reach_their_stack(self):
        nets = [_net([3, 4, 2], out_act="tanh", seed=k) for k in range(2)]
        want = [net.params.copy() for net in nets]
        stack = MlpStack(nets)
        for net, params in zip(nets, want):
            assert np.array_equal(net.params, params)
        x = np.ones((2, 3))
        before = stack.forward(x)
        grad, _ = nets[0].backward(nets[0].forward(x[:1])[1], np.ones((1, 2)), inputs=False)
        Adam(nets[0], 0.1).step(grad)
        soft_update(nets[1], _net([3, 4, 2], out_act="tanh", seed=9), 0.5)
        after = stack.forward(x)
        assert not np.any(after == before)
        assert np.array_equal(after, [net.forward(row[None])[0][0] for net, row in zip(nets, x)])

    def test_adam_made_before_the_stack_moves_its_row(self):
        """Building a stack rebinds each net's params to a row; an Adam
        made before that keeps the net, so its step moves the row."""
        nets = [_net([3, 4, 2], out_act="tanh", seed=k) for k in range(2)]
        opt = Adam(nets[0], 0.1)
        stack = MlpStack(nets)
        x = np.ones((2, 3))
        before = stack.forward(x)
        grad, _ = nets[0].backward(nets[0].forward(x[:1])[1], np.ones((1, 2)), inputs=False)
        opt.step(grad)
        after = stack.forward(x)
        assert not np.any(after[0] == before[0])
        assert np.array_equal(after[1], before[1])
        assert np.array_equal(after[0], nets[0].forward(x[:1])[0][0])

    def test_stack_rejects_mixed_nets(self):
        with pytest.raises(ValueError):
            MlpStack([_net([3, 4, 2]), _net([3, 5, 2])])
        with pytest.raises(ValueError):
            MlpStack([_net([3, 4, 2]), _net([3, 4, 2], out_act="tanh")])


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
            grad, dx = net.backward(cache, dy)
            np.testing.assert_allclose(grad, finite_diff_param_grads(net, x, dy), atol=1e-6)
            np.testing.assert_allclose(dx, finite_diff_input_grad(net, x, dy), atol=1e-6)

    @pytest.mark.parametrize("params,inputs", [(True, False), (False, True), (True, True)])
    def test_each_gradient_mode_matches_finite_differences(self, params, inputs):
        rng = np.random.default_rng(22)
        for trial in range(4):
            net = _net([3, 8, 5, 2], out_act="tanh" if trial % 2 else "identity", seed=trial)
            x = rng.uniform(-1, 1, (4, 3))
            dy = rng.uniform(-1, 1, (4, 2))
            _, cache = net.forward(x)
            grad, dx = net.backward(cache, dy, params=params, inputs=inputs)
            assert (grad is None) != params
            assert (dx is None) != inputs
            if params:
                np.testing.assert_allclose(grad, finite_diff_param_grads(net, x, dy), atol=1e-6)
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
            ref_flat = np.concatenate([a.ravel() for pair in ref_grads for a in pair])
            grad, dx = net.backward(cache, dy)
            grad = grad.copy()  # the next parameter backward overwrites it
            only_grad, none_dx = net.backward(cache, dy, inputs=False)
            none_grad, only_dx = net.backward(cache, dy, params=False)
            assert none_dx is None and none_grad is None
            for got in (grad, only_grad):
                assert got.shape == net.params.shape and np.array_equal(got, ref_flat)
            assert np.array_equal(dx, ref_dx) and np.array_equal(only_dx, ref_dx)

    def test_parameter_backward_fills_the_nets_own_buffer(self):
        rng = np.random.default_rng(24)
        for out_act in ("identity", "tanh"):
            net = _net([6, 16, 16, 3], out_act=out_act, seed=2)
            x = rng.uniform(-1, 1, (9, 6))
            _, cache = net.forward(x)
            own = None
            for params, inputs in ((True, True), (True, False)):
                dy = rng.uniform(-1, 1, (9, 3))
                ref_grads, _ = _reference_backward(net, cache, dy)
                ref_flat = np.concatenate([a.ravel() for pair in ref_grads for a in pair])
                grad, _ = net.backward(cache, dy, params=params, inputs=inputs)
                own = grad if own is None else own
                assert grad is own and not np.shares_memory(grad, net.params)
                assert grad.tobytes() == ref_flat.tobytes()
            kept = own.copy()
            net.backward(cache, rng.uniform(-1, 1, (9, 3)), params=False)
            assert own.tobytes() == kept.tobytes()

    def test_copied_loaded_and_stacked_nets_each_own_their_buffer(self):
        net = _net([3, 4, 2], out_act="tanh", seed=15)
        stacked = [_net([3, 4, 2], out_act="tanh", seed=k) for k in (16, 17)]
        x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        for k, member in enumerate(stacked):  # buffers made before the rebind
            member.backward(member.forward(x)[1], np.full((2, 2), k + 1.0))
        MlpStack(stacked)
        nets = [net, net.copy(), Mlp.from_dict(net.to_dict()), *stacked]
        grads, refs = [], []
        for k, member in enumerate(nets):
            _, cache = member.forward(x)
            dy = np.full((2, 2), 0.5 * (k + 1))
            grads.append(member.backward(cache, dy, inputs=False)[0])
            ref = _reference_backward(member, cache, dy)[0]
            refs.append(np.concatenate([a.ravel() for pair in ref for a in pair]))
        for k, grad in enumerate(grads):
            assert grad.tobytes() == refs[k].tobytes()
            others = grads[:k] + grads[k + 1:] + [m.params for m in nets]
            assert not any(np.shares_memory(grad, o) for o in others)

    def test_oracle_check_passes(self):
        res = check_mlp_gradients(np.random.default_rng(0))
        assert res.ok, res.detail

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_oracle_check_flags_a_scaled_weight_gradient(self, monkeypatch, layer):
        """Planted mutation of Mlp.backward: one layer's weight block of
        the flat gradient comes out 1% too large."""
        real = Mlp.backward

        def scaled(self, acts, dy, params=True, inputs=True):
            grad, dx = real(self, acts, dy, params=params, inputs=inputs)
            if grad is not None:
                dw = _layer_views(grad, self.dims)[0][layer]
                dw *= 1.01
            return grad, dx

        monkeypatch.setattr(Mlp, "backward", scaled)
        assert not check_mlp_gradients(np.random.default_rng(0)).ok

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_oracle_check_flags_a_column_major_weight_block(self, monkeypatch, layer):
        """Planted mutation of Mlp.backward: one layer's weight gradient
        is written into the flat vector column-major, not row-major like
        params.  Every value is right, only the layout is wrong."""
        real = Mlp.backward

        def column_major(self, acts, dy, params=True, inputs=True):
            grad, dx = real(self, acts, dy, params=params, inputs=inputs)
            if grad is not None:
                dw = _layer_views(grad, self.dims)[0][layer]
                dw.reshape(-1)[:] = dw.ravel(order="F")
            return grad, dx

        monkeypatch.setattr(Mlp, "backward", column_major)
        assert not check_mlp_gradients(np.random.default_rng(0)).ok


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        net = _net([2, 2], seed=5)
        w_before = net.ws[0].copy()
        opt = Adam(net, lr=1e-3)
        opt.step(np.ones_like(net.params))
        np.testing.assert_allclose(net.ws[0], w_before - 1e-3, atol=1e-9)

    def test_fits_a_small_regression(self):
        net = _net([2, 8, 1], seed=6)
        opt = Adam(net, lr=1e-2)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (16, 2))
        y = (x[:, :1] - 0.5 * x[:, 1:]) ** 2
        losses = []
        for _ in range(300):
            pred, cache = net.forward(x)
            diff = pred - y
            losses.append(float((diff**2).mean()))
            grad, _ = net.backward(cache, 2.0 * diff / len(x))
            opt.step(grad)
        assert losses[-1] < 0.1 * losses[0]


def test_adam_and_polyak_match_per_layer_loops_bitwise():
    rng = np.random.default_rng(12)
    net = _net([5, 16, 16, 2], out_act="tanh", seed=12)
    target = net.copy()
    ref, ref_target = _LayerNet(net), _LayerNet(target)
    opt, ref_opt = Adam(net, lr=1e-2), _ReferenceAdam(lr=1e-2)
    x = rng.uniform(-1, 1, (8, 5))
    for _ in range(5):
        _, cache = net.forward(x)
        grad, _ = net.backward(cache, rng.uniform(-1, 1, (8, 2)))
        layers = zip(*_layer_views(grad, net.dims))
        ref_opt.step(ref, [(dw.copy(), db.copy()) for dw, db in layers])
        opt.step(grad)
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
    x = np.full((1, 4), 0.3)
    assert (actor.forward(x)[0] == loaded["actor"].forward(x)[0]).all()


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write('{"version": 99, "nets": {}}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("broken", [
    lambda d: d.update(w=d["w"][:1], b=d["b"][:1]),  # one entry for two layers
    lambda d: d.update(w=[0.5, d["w"][1]]),          # a scalar for a (2, 3) matrix
    lambda d: d["b"][1].append(0.0),                 # a bias one too long
])
def test_from_dict_rejects_entries_that_do_not_fill_every_layer(broken):
    data = _net([2, 3, 1], seed=14).to_dict()
    broken(data)
    with pytest.raises(ValueError):
        Mlp.from_dict(data)


@pytest.mark.parametrize("shape, match", [
    ({"out_act": "relu"}, "unknown output activation"),
    ({"dims": [2], "w": [], "b": []}, "at least input and output dims"),
], ids=["relu-out-act", "one-dim"])
def test_from_dict_rejects_what_the_constructor_rejects(shape, match):
    """A loaded net gets the checks a built one does: an unknown output
    activation would run as identity, one dim would make a net with no
    layers that returns its input."""
    data = {**_net([2, 3, 1], seed=14).to_dict(), **shape}
    with pytest.raises(ValueError, match=match):
        Mlp.from_dict(data)
