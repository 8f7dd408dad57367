import numpy as np
import pytest

from conftest import finite_difference_check, tsum
from modrec import numerics as nm
from modrec.config import ModelCfg
from modrec.numerics import MASKED, Tensor
from modrec.seq_tower import (
    GruSeqTower,
    SelfAttentionSeqTower,
    build_seq_tower,
    causal_mask,
)


def towers(d=6, max_len=8):
    rng = np.random.default_rng(0)
    return [
        SelfAttentionSeqTower(rng, d, max_len, layers=2, heads=2),
        GruSeqTower(rng, d, layers=1),
    ]


def pad_batch(rows, d):
    t = max(len(r) for r in rows)
    out = np.zeros((len(rows), t, d))
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out, np.array([len(r) for r in rows])


def test_causal_mask_layout():
    mask = causal_mask(3)
    assert np.all(mask[np.tril_indices(3)] == 0.0)
    assert mask[0, 1] == MASKED and mask[0, 2] == MASKED and mask[1, 2] == MASKED


@pytest.mark.parametrize("tower", towers(), ids=["self_attention", "recurrent"])
def test_length_one_sequence(tower):
    x = np.random.default_rng(1).normal(size=(1, 1, 6))
    out = tower.encode_batch(Tensor(x), np.array([1]))
    assert out.shape == (1, 6)
    assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("tower", towers(), ids=["self_attention", "recurrent"])
def test_future_positions_never_affect_earlier_readout(tower):
    rng = np.random.default_rng(2)
    seq = rng.normal(size=(5, 6))
    # readout at position j must ignore every row after j
    for j in range(4):
        base = tower.encode_batch(Tensor(seq[None, : j + 1]), np.array([j + 1])).data[0]
        bumped = seq.copy()
        bumped[j + 1 :] += 10.0
        batched, lengths = pad_batch([bumped], 6)
        out = tower.encode_batch(Tensor(batched), np.array([j + 1]))
        np.testing.assert_allclose(out.data[0], base, rtol=0, atol=1e-10)


@pytest.mark.parametrize("tower", towers(), ids=["self_attention", "recurrent"])
def test_batched_matches_single(tower):
    rng = np.random.default_rng(3)
    rows = [rng.normal(size=(n, 6)) for n in (1, 4, 7, 3)]
    batched, lengths = pad_batch(rows, 6)
    out = tower.encode_batch(Tensor(batched), lengths)
    for i, row in enumerate(rows):
        single = tower.encode_batch(Tensor(row[None]), np.array([len(row)]))
        np.testing.assert_allclose(out.data[i], single.data[0], rtol=0, atol=1e-10)


@pytest.mark.parametrize("tower", towers(), ids=["self_attention", "recurrent"])
def test_row_order_does_not_matter(tower):
    rng = np.random.default_rng(4)
    rows = [rng.normal(size=(n, 6)) for n in (2, 5, 3)]
    batched, lengths = pad_batch(rows, 6)
    fwd = tower.encode_batch(Tensor(batched), lengths).data
    perm = [2, 0, 1]
    batched2, lengths2 = pad_batch([rows[i] for i in perm], 6)
    rev = tower.encode_batch(Tensor(batched2), lengths2).data
    np.testing.assert_allclose(rev, fwd[perm], rtol=0, atol=1e-10)


@pytest.mark.parametrize("tower", towers(), ids=["self_attention", "recurrent"])
def test_gradients_match_finite_differences(tower):
    rng = np.random.default_rng(5)
    rows = [rng.normal(size=(n, 6)) for n in (3, 5)]
    batched, lengths = pad_batch(rows, 6)
    w = Tensor(rng.normal(size=(2, 6)))
    params = tower.params()[:3]

    def build():
        out = tower.encode_batch(Tensor(batched), lengths)
        return tsum(nm.mul(out, w))

    finite_difference_check(build, params, max_coords=8)


def test_overlong_sequence_rejected():
    tower = SelfAttentionSeqTower(np.random.default_rng(0), 6, max_len=4)
    with pytest.raises(ValueError, match="max_len"):
        tower.encode_batch(Tensor(np.zeros((1, 5, 6))), np.array([5]))


@pytest.mark.parametrize("tower", towers(), ids=["self_attention", "recurrent"])
def test_empty_sequence_rejected(tower):
    with pytest.raises(ValueError, match="empty"):
        tower.encode_batch(Tensor(np.zeros((2, 3, 6))), np.array([3, 0]))


def test_builder_names_keep_branch_towers_disjoint():
    cfg = ModelCfg(d=8)
    rng = np.random.default_rng(0)
    towers = {b: build_seq_tower(cfg, rng, b, max_len=5) for b in ("v", "t", "id")}
    names = [p.name for tw in towers.values() for p in tw.params()]
    assert len(names) == len(set(names))
    ids = {id(p) for tw in towers.values() for p in tw.params()}
    assert len(ids) == len(names)


def test_builder_backbone_dispatch():
    rng = np.random.default_rng(0)
    assert isinstance(build_seq_tower(ModelCfg(d=8), rng, "v", max_len=5),
                      SelfAttentionSeqTower)
    assert isinstance(
        build_seq_tower(ModelCfg(d=8, backbone="recurrent"), rng, "v", max_len=5),
        GruSeqTower,
    )
    with pytest.raises(ValueError):
        build_seq_tower(ModelCfg(d=8, backbone="lstm"), rng, "v", max_len=5)
