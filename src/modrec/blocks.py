"""Shared neural building blocks: linear layers, transformer encoder layers."""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .numerics import Parameter


def xavier(rng, fan_in, fan_out, shape=None):
    if shape is None:
        shape = (fan_in, fan_out)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    def __init__(self, rng, d_in, d_out, name):
        self.W = Parameter(xavier(rng, d_in, d_out), f"{name}.W")
        self.b = Parameter(np.zeros(d_out), f"{name}.b")

    def __call__(self, x):
        return nm.linear(x, self.W, self.b)

    def params(self):
        return [self.W, self.b]


class MlpHead:
    """Two-layer head with a LeakyReLU between the layers."""

    def __init__(self, rng, d, name, slope=0.01):
        self.l1 = Linear(rng, d, d, f"{name}.l1")
        self.l2 = Linear(rng, d, d, f"{name}.l2")
        self.slope = slope

    def __call__(self, x):
        return self.l2(nm.leaky_relu(self.l1(x), self.slope))

    def params(self):
        return self.l1.params() + self.l2.params()


class TransformerLayer:
    """Post-norm encoder layer: masked multi-head self-attention + FFN."""

    def __init__(self, rng, d, heads, name, ff_mult=4):
        if d % heads != 0:
            raise ValueError(f"hidden size {d} not divisible by {heads} heads")
        self.d = d
        self.heads = heads
        self.dh = d // heads
        self.wq = Linear(rng, d, d, f"{name}.wq")
        self.wk = Linear(rng, d, d, f"{name}.wk")
        self.wv = Linear(rng, d, d, f"{name}.wv")
        self.wo = Linear(rng, d, d, f"{name}.wo")
        self.ff1 = Linear(rng, d, ff_mult * d, f"{name}.ff1")
        self.ff2 = Linear(rng, ff_mult * d, d, f"{name}.ff2")
        self.ln1_g = Parameter(np.ones(d), f"{name}.ln1.g")
        self.ln1_b = Parameter(np.zeros(d), f"{name}.ln1.b")
        self.ln2_g = Parameter(np.ones(d), f"{name}.ln2.g")
        self.ln2_b = Parameter(np.zeros(d), f"{name}.ln2.b")

    def __call__(self, x, mask=None, drop=0.0, rng=None):
        """x: (N, L, d); mask: additive, broadcastable to (N, heads, L, L)."""
        n, length, d = x.shape
        h, dh = self.heads, self.dh

        def split_heads(t):
            t = nm.reshape(t, (n, length, h, dh))
            return nm.permute(t, (0, 2, 1, 3))

        q = split_heads(self.wq(x))
        k = split_heads(self.wk(x))
        v = split_heads(self.wv(x))
        att = nm.masked_attention(q, k, v, mask, 1.0 / np.sqrt(dh))
        att = nm.reshape(nm.permute(att, (0, 2, 1, 3)), (n, length, d))
        att = self.wo(att)
        if drop > 0.0:
            att = nm.dropout(att, drop, rng)
        x = nm.layer_norm(nm.add(x, att), self.ln1_g, self.ln1_b)
        ff = self.ff2(nm.relu(self.ff1(x)))
        if drop > 0.0:
            ff = nm.dropout(ff, drop, rng)
        return nm.layer_norm(nm.add(x, ff), self.ln2_g, self.ln2_b)

    def params(self):
        out = []
        for lin in (self.wq, self.wk, self.wv, self.wo, self.ff1, self.ff2):
            out.extend(lin.params())
        out.extend([self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b])
        return out


class TransformerStack:
    def __init__(self, rng, d, heads, layers, name, ff_mult=4):
        self.layers = [
            TransformerLayer(rng, d, heads, f"{name}.layer{i}", ff_mult)
            for i in range(layers)
        ]

    def __call__(self, x, mask=None, drop=0.0, rng=None):
        for layer in self.layers:
            x = layer(x, mask=mask, drop=drop, rng=rng)
        return x

    def params(self):
        return [p for layer in self.layers for p in layer.params()]
