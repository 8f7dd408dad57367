"""User sequence encoders: causal self-attention (default) and a GRU variant.

Sequences are right-padded; the user vector is the encoder output at the
last real position. With a causal mask, right padding can never leak into
real positions, so batched and one-by-one encodings agree to rounding only:
the matrix products run on other shapes, and BLAS may sum in another order.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .blocks import Module, TransformerStack, xavier
from .numerics import MASKED, Parameter

BACKBONES = ("self_attention", "recurrent")


def causal_mask(length):
    """Additive lower-triangular mask: queries cannot attend to later keys."""
    mask = np.full((length, length), MASKED)
    return np.triu(mask, k=1)


class SelfAttentionSeqTower(Module):
    def __init__(self, rng, d, max_len, layers=2, heads=2, name="seq"):
        self.max_len = max_len
        self.pos = Parameter(0.1 * rng.normal(size=(max_len, d)), f"{name}.pos")
        self.encoder = TransformerStack(rng, d, heads, layers, f"{name}.sa")

    def encode_batch(self, item_vecs, lengths, drop=0.0, rng=None):
        """item_vecs: (B, T, d) right-padded; lengths: (B,) real lengths."""
        b, t, d = item_vecs.shape
        if t > self.max_len:
            raise ValueError(f"sequence length {t} exceeds max_len {self.max_len}")
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any(lengths < 1):
            raise ValueError("empty sequence")
        x = nm.add(item_vecs, nm.take_rows(self.pos, np.arange(t)))
        # the last layer computes only the row read: the last real position
        x = self.encoder(x, mask=causal_mask(t), drop=drop, rng=rng, rows=(lengths - 1)[:, None])
        return nm.reshape(x, (b, d))


class GruSeqTower(Module):
    def __init__(self, rng, d, layers=1, name="seq"):
        self.cells = []
        for i in range(layers):
            cell = {}
            for gate in ("r", "z", "n"):
                cell[f"Wx{gate}"] = Parameter(xavier(rng, d, d), f"{name}.gru{i}.Wx{gate}")
                cell[f"Wh{gate}"] = Parameter(xavier(rng, d, d), f"{name}.gru{i}.Wh{gate}")
                cell[f"b{gate}"] = Parameter(np.zeros(d), f"{name}.gru{i}.b{gate}")
            self.cells.append(cell)

    def encode_batch(self, item_vecs, lengths, drop=0.0, rng=None):
        """item_vecs: (B, T, d) right-padded; lengths: (B,) real lengths.
        `drop` is accepted for the common interface; the GRU applies none."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any(lengths < 1):
            raise ValueError("empty sequence")
        x = item_vecs
        for cell in self.cells:
            x = nm.gru_layer(x, lengths, **cell)
        return nm.take_steps(x, lengths - 1)


def build_seq_tower(cfg_model, rng, branch, max_len):
    if cfg_model.backbone == "self_attention":
        return SelfAttentionSeqTower(
            rng,
            cfg_model.d,
            max_len,
            layers=cfg_model.seq_layers,
            heads=cfg_model.heads,
            name=f"seq_{branch}",
        )
    if cfg_model.backbone == "recurrent":
        return GruSeqTower(rng, cfg_model.d, layers=cfg_model.gru_layers, name=f"seq_{branch}")
    raise ValueError(f"unknown backbone {cfg_model.backbone!r}; expected one of {BACKBONES}")
