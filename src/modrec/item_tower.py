"""Item encoders: turn raw per-item features into final branch embeddings.

The default tower runs one joint transformer over the concatenation
[visual patches | ID | text tokens] with an asymmetric mask: the ID slot
attends to everything, but modality slots cannot attend to the ID slot.
The same tower can instead run separate per-modality transformers or plain
MLP transforms; an ID-embedding-only tower covers the classical baseline.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .blocks import Linear, MlpHead, Module, TransformerStack
from .numerics import MASKED, Parameter, Tensor

ID_INIT_MODES = ("avg_modal", "text", "image", "random")
ID_INIT_SCALE = 0.1  # std of a randomly initialised ID table


def build_id_isolation_mask(n_v, n_t, id_mask=True):
    """Additive (L, L) mask over [visual 0..n_v | id n_v+1 | text n_v+2..].

    With id_mask on, the ID column is blocked for every row except the ID
    row itself; everything else is fully visible.
    """
    if n_v < 1 or n_t < 1:
        raise ValueError("n_v and n_t must be >= 1")
    side = n_v + n_t + 3
    mask = np.zeros((side, side))
    if id_mask:
        id_col = n_v + 1
        mask[:, id_col] = MASKED
        mask[id_col, id_col] = 0.0
    return mask


def init_id_table(catalog, mode, seed=0):
    """Build the learnable per-item ID table under the chosen init mode."""
    if mode not in ID_INIT_MODES:
        raise ValueError(f"unknown id init mode {mode!r}; expected one of {ID_INIT_MODES}")
    if mode == "avg_modal":
        if catalog.d_v != catalog.d_t:
            raise ValueError("avg_modal init requires d_v == d_t")
        data = 0.5 * (catalog.visual_cls + catalog.textual_cls)
    elif mode == "text":
        data = catalog.textual_cls.copy()
    elif mode == "image":
        data = catalog.visual_cls.copy()
    else:
        rng = np.random.default_rng(seed)
        data = ID_INIT_SCALE * rng.normal(size=(catalog.n_items, catalog.d_v))
    return Parameter(data, "id_table")


# Transformer stacks each fst variant builds, in construction (RNG draw) order.
_STACKS = {"imt": ("fused",), "separate": ("sep_v", "sep_t"), "dnn": ()}


class ItemTower(Module):
    """Visual and textual branches plus an optional ID branch.

    Every variant projects each input to d and ends each branch in an MLP
    head; only the encoding step between them depends on `fst`:
    "imt" runs one joint transformer over [visual | ID | text] under the
    ID isolation mask, "separate" runs one transformer per modality and
    leaves the ID branch untransformed, and "dnn" feeds the modality cls
    rows straight to the heads. Passing `id_table=None` drops the ID branch.
    """

    def __init__(
        self,
        catalog,
        id_table,
        d,
        rng,
        fst="imt",
        layers=2,
        heads=2,
        id_mask=True,
    ):
        if fst not in _STACKS:
            raise ValueError(f"unknown fst variant {fst!r}; expected one of {tuple(_STACKS)}")
        self.catalog = catalog
        self.d = d
        self.fst = fst
        self.proj_v = Linear(rng, catalog.d_v, d, "item.proj_v")
        self.proj_t = Linear(rng, catalog.d_t, d, "item.proj_t")
        self.encoders = [
            TransformerStack(rng, d, heads, layers, f"item.{stack}") for stack in _STACKS[fst]
        ]
        self.head_v = MlpHead(rng, d, "item.head_v")
        self.head_t = MlpHead(rng, d, "item.head_t")
        # params() follows assignment order, so the ID branch comes last.
        self.id_table = id_table
        self.mask = None  # only an imt joint sequence with an ID slot is masked
        if id_table is not None:
            self.proj_id = Linear(rng, id_table.shape[1], d, "item.proj_id")
            self.head_id = MlpHead(rng, d, "item.head_id")
            if fst == "imt":
                self.mask = build_id_isolation_mask(catalog.n_v, catalog.n_t, id_mask)

    def item_embeddings(self, item_idx, drop=0.0, rng=None):
        item_idx = np.asarray(item_idx, dtype=np.int64)
        cat, n = self.catalog, len(item_idx)
        eid = None
        if self.id_table is not None:
            eid = self.proj_id(nm.take_rows(self.id_table, item_idx))
        if self.fst == "dnn":
            v_cls = self.proj_v(Tensor(cat.visual_cls[item_idx]))
            t_cls = self.proj_t(Tensor(cat.textual_cls[item_idx]))
        else:
            ev = self.proj_v(Tensor(cat.visual[item_idx]))
            et = self.proj_t(Tensor(cat.textual[item_idx]))
        # Each stack computes only the slots read below, in its last layer.
        if self.fst == "separate":
            ev = self.encoders[0](ev, drop=drop, rng=rng, rows=np.full((n, 1), cat.n_v))
            et = self.encoders[1](et, drop=drop, rng=rng, rows=np.zeros((n, 1), np.int64))
            v_cls = nm.reshape(ev, (n, self.d))
            t_cls = nm.reshape(et, (n, self.d))
        elif self.fst == "imt":
            # slots: visual 0..n_v (cls last) | ID, if any | text (cls first)
            parts = [ev, et] if eid is None else [ev, nm.reshape(eid, (n, 1, self.d)), et]
            slots = [cat.n_v, cat.n_v + len(parts) - 1] + ([] if eid is None else [cat.n_v + 1])
            x = self.encoders[0](nm.concat(parts, axis=1), mask=self.mask, drop=drop, rng=rng,
                                 rows=np.tile(slots, (n, 1)))
            v_cls = nm.take_steps(x, np.zeros(n, np.int64))
            t_cls = nm.take_steps(x, np.ones(n, np.int64))
            if eid is not None:
                eid = nm.take_steps(x, np.full(n, 2))
        out = {"v": self.head_v(v_cls), "t": self.head_t(t_cls)}
        if eid is not None:
            out["id"] = self.head_id(eid)
        return out


class IdOnlyTower(Module):
    """Classical ID embedding lookup; the table itself is the item embedding."""

    def __init__(self, n_items, d, rng):
        self.id_table = Parameter(ID_INIT_SCALE * rng.normal(size=(n_items, d)), "item.id_table")

    def item_embeddings(self, item_idx, drop=0.0, rng=None):
        return {"id": nm.take_rows(self.id_table, np.asarray(item_idx, dtype=np.int64))}


def build_item_tower(catalog, cfg_model, rng, id_init_seed=0):
    """Construct the item tower matching the model config (see config module)."""
    branches = cfg_model.branch_list
    if branches == ("id",):
        return IdOnlyTower(catalog.n_items, cfg_model.d, rng)
    id_table = None
    if "id" in branches:
        id_table = init_id_table(catalog, cfg_model.id_init, seed=id_init_seed)
    return ItemTower(
        catalog,
        id_table,
        cfg_model.d,
        rng,
        fst=cfg_model.fst,
        layers=cfg_model.item_layers,
        heads=cfg_model.heads,
        id_mask=cfg_model.id_mask,
    )
