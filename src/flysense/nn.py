"""Minimal dense networks with exact analytic backprop.

Just enough machinery for small actor/critic heads: tanh hidden layers,
tanh or identity output, Adam, Polyak target updates, and a JSON
checkpoint format that round-trips parameters bit-exactly.  Inputs may
be single vectors or batches (rows).

Parameter layout: every net keeps all of its parameters in one flat
vector, ``params``.  Layer l occupies one contiguous run of it, its
weights first, row-major as a (fan_in, fan_out) matrix, then its
fan_out biases; layer l + 1 follows directly.  ``ws[l]`` and ``bs[l]``
are views into that vector, so writing through them writes the
parameters, and a whole-net update (Adam, Polyak) is one vector
operation.  Gradients from ``backward`` use the same layout.
"""

from __future__ import annotations

import json

import numpy as np

_ACTIVATIONS = ("identity", "tanh")


def _layer_views(flat: np.ndarray, dims) -> tuple[list, list]:
    """Per-layer (fan_in, fan_out) weight and bias views into flat."""
    ws, bs = [], []
    off = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        ws.append(flat[off:off + d_in * d_out].reshape(d_in, d_out))
        off += d_in * d_out
        bs.append(flat[off:off + d_out])
        off += d_out
    return ws, bs


def _n_params(dims) -> int:
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


class ParamGrads(list):
    """Parameter gradients: a per-layer list of (dW, db) views into the
    flat vector ``flat``, which is laid out like ``Mlp.params``."""

    def __init__(self, flat: np.ndarray, dims):
        super().__init__(zip(*_layer_views(flat, dims)))
        self.flat = flat


class Mlp:
    """Fully connected net: y = act_out(W_L ... tanh(x W_1 + b_1) ...).

    Weights are (fan_in, fan_out) and initialized uniformly in
    +-1/sqrt(fan_in) from the supplied generator.
    """

    def __init__(self, dims, out_act: str = "identity", rng: np.random.Generator | None = None):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        if out_act not in _ACTIVATIONS:
            raise ValueError(f"unknown output activation {out_act!r}")
        rng = rng or np.random.default_rng()
        self.dims = [int(d) for d in dims]
        self.out_act = out_act
        self._bind(np.empty(_n_params(self.dims)))
        for w, b in zip(self.ws, self.bs):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        self.ws, self.bs = _layer_views(params, self.dims)

    @property
    def n_layers(self) -> int:
        return len(self.ws)

    def forward(self, x):
        """Returns (y, cache); feed the cache to backward unchanged."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = np.atleast_2d(x)
        acts = [a]
        last = self.n_layers - 1
        for l, (w, b) in enumerate(zip(self.ws, self.bs)):
            a = a @ w
            a += b
            if l < last or self.out_act == "tanh":
                np.tanh(a, out=a)
            acts.append(a)
        y = acts[-1][0] if single else acts[-1]
        return y, (acts, single)

    def backward(self, cache, dy, params: bool = True, inputs: bool = True):
        """Gradients of sum(y * dy) w.r.t. the parameters and the input.

        Returns (grads, dx).  grads is a ParamGrads when params is true
        and None otherwise; dx is None unless inputs is true.  Only the
        requested gradients are computed.
        """
        acts, single = cache
        g = np.atleast_2d(np.asarray(dy, dtype=float))
        if self.out_act == "tanh":
            g = g * _tanh_slope(acts[-1])
        grads = ParamGrads(np.empty(self.params.size), self.dims) if params else None
        for l in range(self.n_layers - 1, -1, -1):
            if params:
                dw, db = grads[l]
                np.matmul(acts[l].T, g, out=dw)
                g.sum(axis=0, out=db)
            if l > 0:
                g = g @ self.ws[l].T
                g *= _tanh_slope(acts[l])
            elif inputs:
                g = g @ self.ws[l].T
        if not inputs:
            return grads, None
        return grads, g[0] if single else g

    def copy(self) -> "Mlp":
        dup = Mlp.__new__(Mlp)
        dup.dims = list(self.dims)
        dup.out_act = self.out_act
        dup._bind(self.params.copy())
        return dup

    def to_dict(self) -> dict:
        return {
            "dims": self.dims,
            "out_act": self.out_act,
            "w": [w.tolist() for w in self.ws],
            "b": [b.tolist() for b in self.bs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Mlp":
        net = cls.__new__(cls)
        net.dims = [int(d) for d in data["dims"]]
        net.out_act = data["out_act"]
        net._bind(np.empty(_n_params(net.dims)))
        for w, b, w_raw, b_raw in zip(net.ws, net.bs, data["w"], data["b"]):
            w[...] = np.array(w_raw, dtype=float)
            b[...] = np.array(b_raw, dtype=float)
        return net


def _tanh_slope(a: np.ndarray) -> np.ndarray:
    """1 - a**2, the tanh derivative given its output a."""
    s = a * a
    np.subtract(1.0, s, out=s)
    return s


class Adam:
    """Standard Adam bound to one network's flat parameter vector."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = None
        self._v = None

    def step(self, net: Mlp, grad: np.ndarray) -> None:
        """One update of net.params from a flat gradient laid out like it
        (ParamGrads.flat)."""
        if self._m is None:
            self._m = np.zeros_like(net.params)
            self._v = np.zeros_like(net.params)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad ** 2
        net.params -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """Polyak blend: target <- (1 - tau) * target + tau * online."""
    target.params *= 1.0 - tau
    target.params += tau * online.params


def save_checkpoint(path, nets: dict) -> None:
    """Write named networks to a JSON file; floats survive bit-exactly."""
    payload = {"version": 1, "nets": {name: net.to_dict() for name, net in nets.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    return {name: Mlp.from_dict(data) for name, data in payload["nets"].items()}
