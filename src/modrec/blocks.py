"""Shared neural building blocks: the Module base, linear layers, transformer
encoder layers."""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .numerics import Parameter

FF_MULT = 4  # transformer feed-forward width, in multiples of d


def xavier(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _find_params(obj):
    if isinstance(obj, Parameter):
        return [obj]
    if isinstance(obj, Module):
        obj = vars(obj).values()
    elif isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return []
    return [p for value in obj for p in _find_params(value)]


class Module:
    """Base of every layer, tower and model that owns Parameters. params()
    finds them among the attributes in assignment order, which is the
    optimizer's and the checkpoint's, looking inside Modules, lists, tuples
    and dict values."""

    def params(self):
        return _find_params(self)


class Linear(Module):
    def __init__(self, rng, d_in, d_out, name):
        self.W = Parameter(xavier(rng, d_in, d_out), f"{name}.W")
        self.b = Parameter(np.zeros(d_out), f"{name}.b")

    def __call__(self, x):
        return nm.linear(x, self.W, self.b)


class MlpHead(Module):
    """Two-layer head with a LeakyReLU between the layers."""

    def __init__(self, rng, d, name):
        self.l1 = Linear(rng, d, d, f"{name}.l1")
        self.l2 = Linear(rng, d, d, f"{name}.l2")

    def __call__(self, x):
        return self.l2(nm.leaky_relu(self.l1(x)))


class TransformerLayer(Module):
    """Post-norm encoder layer: masked multi-head self-attention + FFN."""

    def __init__(self, rng, d, heads, name):
        if d % heads != 0:
            raise ValueError(f"hidden size {d} not divisible by {heads} heads")
        self.heads = heads
        self.dh = d // heads
        self.wq = Linear(rng, d, d, f"{name}.wq")
        self.wk = Linear(rng, d, d, f"{name}.wk")
        self.wv = Linear(rng, d, d, f"{name}.wv")
        self.wo = Linear(rng, d, d, f"{name}.wo")
        self.ff1 = Linear(rng, d, FF_MULT * d, f"{name}.ff1")
        self.ff2 = Linear(rng, FF_MULT * d, d, f"{name}.ff2")
        self.ln1_g = Parameter(np.ones(d), f"{name}.ln1.g")
        self.ln1_b = Parameter(np.zeros(d), f"{name}.ln1.b")
        self.ln2_g = Parameter(np.ones(d), f"{name}.ln2.g")
        self.ln2_b = Parameter(np.zeros(d), f"{name}.ln2.b")

    def __call__(self, x, mask=None, drop=0.0, rng=None, rows=None):
        """x: (N, L, d); mask: additive, broadcastable to (N, heads, L, L).

        `rows`, an (N, R) index of the positions the caller reads, makes the
        layer compute those R output rows only: keys and values still cover
        all L positions, the (L, L) mask is cut to mask[rows], and the output
        is (N, R, d). Dropout still draws its mask for all L positions.
        """
        n, length, d = x.shape
        h, dh = self.heads, self.dh

        def split_heads(t):
            t = nm.reshape(t, (n, -1, h, dh))
            return nm.permute(t, (0, 2, 1, 3))

        xq, sel = x, {}
        if rows is not None:
            xq, sel = nm.take_steps(x, rows), {"rows": rows, "length": length}
            if mask is not None:
                mask = np.asarray(mask)[rows][:, None]
        q = split_heads(self.wq(xq))
        k = split_heads(self.wk(x))
        v = split_heads(self.wv(x))
        att = nm.masked_attention(q, k, v, mask, 1.0 / np.sqrt(dh))
        att = nm.reshape(nm.permute(att, (0, 2, 1, 3)), xq.shape)
        att = nm.dropout(self.wo(att), drop, rng, **sel)
        x = nm.layer_norm(nm.add(xq, att), self.ln1_g, self.ln1_b)
        ff = nm.dropout(self.ff2(nm.relu(self.ff1(x))), drop, rng, **sel)
        return nm.layer_norm(nm.add(x, ff), self.ln2_g, self.ln2_b)


class TransformerStack(Module):
    def __init__(self, rng, d, heads, layers, name):
        self.layers = [
            TransformerLayer(rng, d, heads, f"{name}.layer{i}") for i in range(layers)
        ]

    def __call__(self, x, mask=None, drop=0.0, rng=None, rows=None):
        """Only the last layer takes `rows` (see TransformerLayer): the
        layers before it compute every position, which its keys read."""
        if not self.layers:
            return x if rows is None else nm.take_steps(x, rows)
        for layer in self.layers[:-1]:
            x = layer(x, mask=mask, drop=drop, rng=rng)
        return self.layers[-1](x, mask=mask, drop=drop, rng=rng, rows=rows)
