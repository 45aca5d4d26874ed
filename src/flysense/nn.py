"""Minimal dense networks with exact analytic backprop.

Just enough machinery for small actor/critic heads: tanh hidden layers,
tanh or identity output, Adam, Polyak target updates, and a JSON
checkpoint format that round-trips parameters bit-exactly.  Inputs are
batches: (R, fan_in) rows, or an (R, 1, fan_in) stack of one-row inputs.

Row-wise forwards: ``Mlp.forward`` on an (R, 1, fan_in) stack, and
``MlpStack.forward`` (which makes that stack from an (R, fan_in) input),
run one matrix-vector product (gemv) per row, so every output row
equals the forward of that row alone as a (1, fan_in) batch, bit for
bit.  A 2-D (R, fan_in) batch goes through one matrix-matrix product
(gemm), whose sums round differently on most rows.

Parameter layout: every net keeps all of its parameters in one flat
vector, ``params``.  Layer l occupies one contiguous run of it, its
weights first, row-major as a (fan_in, fan_out) matrix, then its
fan_out biases; layer l + 1 follows directly.  ``ws[l]`` and ``bs[l]``
are views into that vector, so writing through them writes the
parameters, and a whole-net update (Adam, Polyak) is one vector
operation.  ``backward`` returns the parameter gradient as one flat
vector in the same layout.  The nets of an ``MlpStack`` are rows of one
(N, P) matrix.

Gradient ownership: each net owns one flat gradient buffer, made at its
first parameter backward (a copy, a net loaded by ``from_dict`` and a
net rebound into an ``MlpStack`` each make their own).  ``backward``
fills and returns that buffer, so the returned gradient is overwritten
by the same net's next parameter backward; copy it to keep it.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

_ACTIVATIONS = ("identity", "tanh")


def _layer_views(flat: np.ndarray, dims) -> tuple[list, list]:
    """Per-layer (fan_in, fan_out) weight and bias views into flat, along
    its last axis; leading axes (one row per net) are kept."""
    lead = flat.shape[:-1]
    ws, bs = [], []
    off = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        ws.append(flat[..., off:off + d_in * d_out].reshape(*lead, d_in, d_out))
        off += d_in * d_out
        bs.append(flat[..., off:off + d_out])
        off += d_out
    return ws, bs


def _layers(ws, bs, out_act: str, a: np.ndarray) -> list:
    """Activations [a, h_1, ..., y] of input a through the layers ws, bs:
    tanh hidden layers, out_act at the last."""
    acts = [a]
    last = len(ws) - 1
    for l, (w, b) in enumerate(zip(ws, bs)):
        a = a @ w
        a += b
        if l < last or out_act == "tanh":
            np.tanh(a, out=a)
        acts.append(a)
    return acts


def _n_params(dims) -> int:
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


class Mlp:
    """Fully connected net: y = act_out(W_L ... tanh(x W_1 + b_1) ...).

    Weights are (fan_in, fan_out) and initialized uniformly in
    +-1/sqrt(fan_in) from the supplied generator.
    """

    def __init__(self, dims, out_act: str = "identity", *, rng: np.random.Generator):
        self._shape(dims, out_act)
        for w, b in zip(self.ws, self.bs):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _shape(self, dims, out_act: str, params: np.ndarray | None = None) -> "Mlp":
        """Check and set dims and out_act, then bind params (fresh storage
        when None): the one path by which every net is made."""
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        if out_act not in _ACTIVATIONS:
            raise ValueError(f"unknown output activation {out_act!r}")
        self.dims = [int(d) for d in dims]
        self.out_act = out_act
        self._bind(np.empty(_n_params(self.dims)) if params is None else params)
        return self

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        self.ws, self.bs = _layer_views(params, self.dims)
        self._grad = None  # (flat, weight views, bias views), made by backward

    def forward(self, x):
        """Returns (y, acts) of a batch x; feed acts to backward unchanged."""
        acts = _layers(self.ws, self.bs, self.out_act, np.asarray(x, dtype=float))
        return acts[-1], acts

    def backward(self, acts, dy, params: bool = True, inputs: bool = True):
        """Gradients of sum(y * dy) w.r.t. the parameters and the input of
        a 2-D batch.

        Returns (grad, dx): grad is the net's own flat gradient buffer,
        laid out like params and overwritten by its next parameter
        backward, None unless params is true; dx is None unless inputs is
        true.  Only the requested gradients are computed.
        """
        g = np.asarray(dy, dtype=float)
        if self.out_act == "tanh":
            g = g * _tanh_slope(acts[-1])
        grad = None
        if params:
            if self._grad is None:
                flat = np.empty(self.params.size)
                self._grad = (flat, *_layer_views(flat, self.dims))
            grad, dws, dbs = self._grad
        for l in range(len(self.ws) - 1, -1, -1):
            if params:
                np.matmul(acts[l].T, g, out=dws[l])
                np.add.reduce(g, axis=0, out=dbs[l])  # g.sum without its wrapper
            if l > 0:
                g = g @ self.ws[l].T
                g *= _tanh_slope(acts[l])
            elif inputs:
                g = g @ self.ws[l].T
        return grad, g if inputs else None

    def copy(self) -> "Mlp":
        return Mlp.__new__(Mlp)._shape(self.dims, self.out_act, self.params.copy())

    def to_dict(self) -> dict:
        return {
            "dims": self.dims,
            "out_act": self.out_act,
            "w": [w.tolist() for w in self.ws],
            "b": [b.tolist() for b in self.bs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Mlp":
        net = cls.__new__(cls)._shape(data["dims"], data["out_act"])
        if len(data["w"]) != len(net.ws) or len(data["b"]) != len(net.bs):
            raise ValueError(f"dims {net.dims} need {len(net.ws)} w and b entries")
        for dst, raw in zip(net.ws + net.bs, data["w"] + data["b"]):
            src = np.array(raw, dtype=float)
            if src.shape != dst.shape:
                raise ValueError(f"dims {net.dims} need a {dst.shape} entry, got {src.shape}")
            dst[...] = src
        return net


class MlpStack:
    """N nets of one shape that hold their weights together and run as one
    forward.  Building a stack moves the nets' parameters into the rows of
    one (N, P) matrix and rebinds net k to row k, so every later update
    through a net (Adam, Polyak, a loaded checkpoint) is what the stack
    computes next.  forward maps an (N, fan_in) input to (N, fan_out),
    row k through net k, equal to net k's forward of that row as a
    (1, fan_in) batch bit for bit."""

    def __init__(self, nets):
        nets = list(nets)
        dims, self.out_act = nets[0].dims, nets[0].out_act
        if any(net.dims != dims or net.out_act != self.out_act for net in nets):
            raise ValueError("stacked nets must share dims and output activation")
        params = np.stack([net.params for net in nets])
        for net, row in zip(nets, params):
            net._bind(row)
        self.ws, bs = _layer_views(params, dims)
        self.bs = [b[:, None, :] for b in bs]

    def forward(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=float)[:, None, :]
        return _layers(self.ws, self.bs, self.out_act, a)[-1][:, 0, :]


def _tanh_slope(a: np.ndarray) -> np.ndarray:
    """1 - a**2, the tanh derivative given its output a."""
    s = a * a
    np.subtract(1.0, s, out=s)
    return s


class Adam:
    """Standard Adam bound to one network, which step(grad) updates.  It
    keeps the net, not its params, so a net rebound into an MlpStack after
    the optimiser was made moves its row.  Moments come at the first step."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, net: Mlp, lr: float):
        self.net = net
        self.lr = lr
        self.t = 0
        self._m = None
        self._v = None

    def step(self, grad: np.ndarray) -> None:
        """One update of the net's params from a flat gradient laid out
        like them (the grad of Mlp.backward): the textbook moments and
        bias-corrected step (Kingma & Ba 2015, Alg. 1)."""
        params = self.net.params
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * np.square(grad)
        params -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def soft_update(target: Mlp, online: Mlp, tau: float) -> None:
    """Polyak blend: target <- (1 - tau) * target + tau * online."""
    target.params *= 1.0 - tau
    target.params += tau * online.params


@contextlib.contextmanager
def atomic_file(path, newline: str | None = None):
    """Text file for path: a temp file renamed over path on a clean exit
    and removed on an exception, so no partial file is ever left."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, payload) -> None:
    """payload as indented JSON with sorted keys, written atomically."""
    with atomic_file(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_checkpoint(path, nets: dict) -> None:
    """Write named networks to a JSON file atomically, floats bit-exact, with
    json.dump's bytes from json.dumps (its C encoder) one net at a time."""
    with atomic_file(path) as fh:
        fh.write('{"version": 1, "nets": {')
        for k, (name, net) in enumerate(nets.items()):
            fh.write(f"{', ' if k else ''}{json.dumps(name)}: {json.dumps(net.to_dict())}")
        fh.write("}}")


def load_checkpoint(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    return {name: Mlp.from_dict(data) for name, data in payload["nets"].items()}
