import numpy as np
import pytest

from conftest import finite_difference_check, tsum
from modrec import numerics as nm
from modrec.config import ModelCfg
from modrec.datagen import Catalog
from modrec.item_tower import (
    IdOnlyTower,
    ItemTower,
    build_id_isolation_mask,
    build_item_tower,
    init_id_table,
)
from modrec.numerics import MASKED


def small_catalog(n_items=12, n_v=2, n_t=2, d_v=8, d_t=8, seed=0):
    rng = np.random.default_rng(seed)
    return Catalog(
        n_items,
        rng.normal(size=(n_items, n_v + 1, d_v)),
        rng.normal(size=(n_items, n_t + 1, d_t)),
        n_v=n_v,
        n_t=n_t,
        d_v=d_v,
        d_t=d_t,
    )


# -- the asymmetric mask ----------------------------------------------------------


def test_mask_smallest_layout():
    mask = build_id_isolation_mask(1, 1)
    assert mask.shape == (5, 5)
    blocked = {(i, j) for i, j in zip(*np.nonzero(mask == MASKED))}
    assert blocked == {(0, 2), (1, 2), (3, 2), (4, 2)}


def test_mask_wider_layout():
    mask = build_id_isolation_mask(2, 3)
    assert mask.shape == (8, 8)
    id_col = 3
    for row in range(8):
        expected = 0.0 if row == id_col else MASKED
        assert mask[row, id_col] == expected
    # nothing outside the ID column is restricted
    rest = np.delete(mask, id_col, axis=1)
    assert np.all(rest == 0.0)


def test_mask_blocked_count():
    for n_v, n_t in [(1, 1), (2, 3), (4, 8)]:
        mask = build_id_isolation_mask(n_v, n_t)
        assert int((mask == MASKED).sum()) == (n_v + 1) + (n_t + 1)


def test_mask_disabled_is_all_zero():
    assert np.all(build_id_isolation_mask(3, 2, id_mask=False) == 0.0)


def test_mask_rejects_empty_modalities():
    with pytest.raises(ValueError):
        build_id_isolation_mask(0, 1)


# -- ID table initialisation ------------------------------------------------------


def test_id_init_avg_modal_example():
    cat = small_catalog(n_items=1, d_v=2, d_t=2)
    cat.visual[0, -1, :] = [2.0, 0.0]
    cat.textual[0, 0, :] = [0.0, 2.0]
    table = init_id_table(cat, "avg_modal")
    np.testing.assert_array_equal(table.data, [[1.0, 1.0]])


def test_id_init_text_and_image_copy_cls_rows():
    cat = small_catalog()
    np.testing.assert_array_equal(init_id_table(cat, "text").data, cat.textual_cls)
    np.testing.assert_array_equal(init_id_table(cat, "image").data, cat.visual_cls)


def test_id_init_random_is_seeded():
    cat = small_catalog()
    a = init_id_table(cat, "random", seed=3)
    b = init_id_table(cat, "random", seed=3)
    c = init_id_table(cat, "random", seed=4)
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.shape == (cat.n_items, cat.d_v)


def test_id_init_avg_modal_needs_matching_dims():
    cat = small_catalog(d_v=8, d_t=6)
    with pytest.raises(ValueError, match="d_v == d_t"):
        init_id_table(cat, "avg_modal")
    with pytest.raises(ValueError, match="unknown"):
        init_id_table(cat, "bogus")


# -- fused tower: isolation guarantees --------------------------------------------


def make_fused(id_mask=True, include_id=True, seed=0):
    cat = small_catalog(seed=seed)
    table = init_id_table(cat, "random", seed=1) if include_id else None
    rng = np.random.default_rng(2)
    tower = ItemTower(cat, table, d=8, rng=rng, id_mask=id_mask)
    return cat, tower


def test_masked_tower_modality_outputs_ignore_id_values():
    _, tower = make_fused(id_mask=True)
    idx = np.arange(6)
    before = tower.item_embeddings(idx)
    tower.id_table.data += np.random.default_rng(5).normal(size=tower.id_table.shape)
    after = tower.item_embeddings(idx)
    np.testing.assert_array_equal(before["v"].data, after["v"].data)
    np.testing.assert_array_equal(before["t"].data, after["t"].data)
    assert not np.array_equal(before["id"].data, after["id"].data)


def test_masked_tower_modality_gradients_wrt_id_are_zero():
    _, tower = make_fused(id_mask=True)
    out = tower.item_embeddings(np.arange(4))
    tsum(nm.add(out["v"], out["t"])).backward()
    np.testing.assert_array_equal(tower.id_table.grad, np.zeros(tower.id_table.shape))
    np.testing.assert_array_equal(tower.proj_id.W.grad, np.zeros(tower.proj_id.W.shape))


def test_unmasked_tower_lets_id_leak_into_modalities():
    _, tower = make_fused(id_mask=False)
    idx = np.arange(6)
    before = tower.item_embeddings(idx)
    tower.id_table.data += 1.0
    after = tower.item_embeddings(idx)
    assert not np.array_equal(before["v"].data, after["v"].data)
    assert not np.array_equal(before["t"].data, after["t"].data)


def test_fused_tower_without_id_branch():
    _, tower = make_fused(include_id=False)
    out = tower.item_embeddings(np.arange(3))
    assert set(out) == {"v", "t"}
    assert out["v"].shape == (3, 8)


def test_fused_tower_gradients_match_finite_differences():
    _, tower = make_fused(id_mask=True)
    w = nm.Tensor(np.random.default_rng(7).normal(size=(3, 8)))
    params = [tower.proj_v.W, tower.head_id.l1.W, tower.id_table,
              tower.encoders[0].layers[0].wq.W]

    def build():
        out = tower.item_embeddings(np.array([0, 3, 5]))
        mix = nm.add(nm.add(out["v"], out["t"]), out["id"])
        return tsum(nm.mul(mix, w))

    finite_difference_check(build, params, max_coords=8)


# -- other tower variants ---------------------------------------------------------


def test_separate_tower_layer_counts_and_id_independence():
    cat = small_catalog()
    table = init_id_table(cat, "random", seed=1)
    rng = np.random.default_rng(0)
    tower = ItemTower(cat, table, d=8, rng=rng, fst="separate", layers=2)
    assert len(tower.encoders[0].layers) == 2 and len(tower.encoders[1].layers) == 2
    idx = np.arange(5)
    before = tower.item_embeddings(idx)
    tower.id_table.data += 1.0
    after = tower.item_embeddings(idx)
    np.testing.assert_array_equal(before["v"].data, after["v"].data)
    np.testing.assert_array_equal(before["t"].data, after["t"].data)


def test_separate_tower_draws_dropout_for_visual_then_text():
    cat = small_catalog()
    tower = ItemTower(cat, init_id_table(cat, "random", seed=1), d=8,
                      rng=np.random.default_rng(0), fst="separate", layers=1)
    idx = np.arange(5)
    out = tower.item_embeddings(idx, drop=0.3, rng=np.random.default_rng(9))
    rng = np.random.default_rng(9)
    # each stack computes only its cls row: the visual last, the text first
    ev = tower.encoders[0](tower.proj_v(nm.Tensor(cat.visual[idx])), drop=0.3, rng=rng,
                           rows=np.full((5, 1), cat.n_v))
    et = tower.encoders[1](tower.proj_t(nm.Tensor(cat.textual[idx])), drop=0.3, rng=rng,
                           rows=np.zeros((5, 1), dtype=np.int64))
    v_cls = nm.take_steps(ev, np.zeros(5, dtype=np.int64))
    t_cls = nm.take_steps(et, np.zeros(5, dtype=np.int64))
    np.testing.assert_array_equal(out["v"].data, tower.head_v(v_cls).data)
    np.testing.assert_array_equal(out["t"].data, tower.head_t(t_cls).data)


@pytest.mark.parametrize("include_id", [True, False])
def test_fused_tower_reads_each_branch_from_its_own_slot(include_id):
    cat, tower = make_fused(include_id=include_id)
    idx = np.arange(4)
    out = tower.item_embeddings(idx)
    parts = [tower.proj_v(nm.Tensor(cat.visual[idx]))]
    if include_id:
        eid = tower.proj_id(nm.take_rows(tower.id_table, idx))
        parts.append(nm.reshape(eid, (4, 1, 8)))
    parts.append(tower.proj_t(nm.Tensor(cat.textual[idx])))
    x = tower.encoders[0](nm.concat(parts, axis=1), mask=tower.mask)
    slot = {"v": cat.n_v, "id": cat.n_v + 1, "t": cat.n_v + len(parts) - 1}
    assert set(out) == ({"v", "t", "id"} if include_id else {"v", "t"})
    for branch in out:
        head = getattr(tower, f"head_{branch}")
        expected = head(nm.take_steps(x, np.full(4, slot[branch])))
        np.testing.assert_array_equal(out[branch].data, expected.data)


@pytest.mark.parametrize("fst, stacks", [
    ("imt", ["fused"]), ("separate", ["sep_v", "sep_t"]), ("dnn", []),
])
def test_item_tower_parameter_order(fst, stacks):
    cat = small_catalog()
    tower = ItemTower(cat, init_id_table(cat, "random", seed=1), d=8,
                      rng=np.random.default_rng(0), fst=fst, layers=1)
    blocks = []
    for p in tower.params():
        block = p.name.split(".")[1] if "." in p.name else p.name
        if not blocks or blocks[-1] != block:
            blocks.append(block)
    assert blocks == ["proj_v", "proj_t", *stacks, "head_v", "head_t",
                      "id_table", "proj_id", "head_id"]


def test_mlp_tower_uses_cls_rows_only():
    cat = small_catalog()
    table = init_id_table(cat, "random", seed=1)
    tower = ItemTower(cat, table, d=8, rng=np.random.default_rng(0), fst="dnn")
    idx = np.arange(4)
    before = tower.item_embeddings(idx)
    cat.visual[:, 0, :] += 10.0  # a patch row, not the cls row
    after = tower.item_embeddings(idx)
    np.testing.assert_array_equal(before["v"].data, after["v"].data)


def test_id_only_tower_is_a_plain_lookup():
    tower = IdOnlyTower(10, 4, np.random.default_rng(0))
    out = tower.item_embeddings(np.array([2, 2, 7]))
    assert set(out) == {"id"}
    np.testing.assert_array_equal(out["id"].data[0], out["id"].data[1])


# -- builder dispatch -------------------------------------------------------------


def test_build_item_tower_dispatch():
    cat = small_catalog()
    rng = np.random.default_rng(0)
    for fst in ("imt", "separate", "dnn"):
        tower = build_item_tower(cat, ModelCfg(d=8, fst=fst), rng)
        assert isinstance(tower, ItemTower) and tower.fst == fst
    assert isinstance(build_item_tower(cat, ModelCfg(d=8, branches="id"), rng), IdOnlyTower)
    with pytest.raises(ValueError):
        build_item_tower(cat, ModelCfg(d=8, fst="nope"), rng)


def test_build_item_tower_respects_branch_subset():
    cat = small_catalog()
    tower = build_item_tower(cat, ModelCfg(d=8, branches="v,t"), np.random.default_rng(0))
    assert set(tower.item_embeddings(np.arange(2))) == {"v", "t"}
    assert tower.id_table is None


@pytest.mark.parametrize("branches", ["v,t,id", "v,t"])
def test_build_item_tower_rejects_unknown_fst(branches):
    with pytest.raises(ValueError, match="fst"):
        build_item_tower(small_catalog(), ModelCfg(d=8, fst="cnn", branches=branches),
                         np.random.default_rng(0))
