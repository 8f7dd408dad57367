import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import exclude_items, recall_ndcg, unrolled_gru_layer
from modrec import numerics as nm
from modrec import trainer
from modrec.config import ExperimentConfig
from modrec.datagen import Batch, make_batches
from modrec.trainer import (
    ABLATIONS,
    ablation_config,
    build_model,
    ensemble_key,
    evaluate,
    load_checkpoint,
    popularity_groups,
    rank_full_catalog,
    save_checkpoint,
    step_loss,
    train,
    write_metrics_json,
)


def tiny_cfg(**kw):
    cfg = ExperimentConfig()
    cfg.data.max_len = 15
    cfg.model.d = 8
    cfg.model.item_layers = 1
    cfg.model.seq_layers = 1
    cfg.train.batch_size = 32
    cfg.train.epochs = 1
    cfg.eval.ks = [10]
    cfg.eval.groups = 2
    for k, v in kw.items():
        section, name = k.split("__")
        setattr(getattr(cfg, section), name, v)
    return cfg


# -- ranking metrics ----------------------------------------------------------------


def test_recall_ndcg_spot_values():
    assert recall_ndcg(1, 10) == (1.0, 1.0)
    recall, ndcg = recall_ndcg(3, 10)
    assert recall == 1.0 and abs(ndcg - 0.5) < 1e-12
    assert recall_ndcg(11, 10) == (0.0, 0.0)
    with pytest.raises(ValueError):
        recall_ndcg(0, 10)


def test_rank_basic_order_and_exclusion():
    scores = np.array([0.1, 0.9, 0.5])
    # order 1, 2, 0; without item 1: 2, 0
    assert [rank_full_catalog(scores, t) for t in (1, 2, 0)] == [1, 2, 3]
    assert [rank_full_catalog(exclude_items(scores, {1}), t) for t in (2, 0)] == [1, 2]


def test_rank_tie_break_by_item_index():
    scores = np.array([1.0, 2.0, 2.0, 0.0])
    # order 1, 2, 0, 3
    assert [rank_full_catalog(scores, t) for t in (1, 2, 0, 3)] == [1, 2, 3, 4]
    assert rank_full_catalog(exclude_items(scores, {1}), target=2) == 1


def test_rank_rejects_excluded_target():
    with pytest.raises(ValueError, match="excluded"):
        rank_full_catalog(exclude_items(np.ones(3), {0}), target=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            rank_full_catalog(np.array([1.0, bad, 0.0]), target=1)


def test_rank_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(3, 25))
        # coarse score grid so ties actually occur
        scores = rng.integers(0, 4, size=n).astype(float)
        excl = set(rng.choice(n, size=int(rng.integers(0, n - 1)), replace=False).tolist())
        target = int(rng.choice([i for i in range(n) if i not in excl]))
        ordered = sorted((i for i in range(n) if i not in excl), key=lambda i: (-scores[i], i))
        rank = rank_full_catalog(exclude_items(scores, excl), target)
        assert rank == ordered.index(target) + 1
        for k in (1, 5):
            metrics = trainer._metrics_for_ranks(np.array([rank]), [k])
            recall, ndcg = metrics[f"recall@{k}"], metrics[f"ndcg@{k}"]
            assert recall == float(target in ordered[:k])
            expected = 1.0 / np.log2(rank + 1.0) if rank <= k else 0.0
            assert abs(ndcg - expected) < 1e-12


def test_popularity_groups_example_and_errors():
    groups = popularity_groups(np.array([0, 0, 1, 2, 3, 4]), 2)
    np.testing.assert_array_equal(groups, [0, 0, 1, 1, 2, 2])
    with pytest.raises(ValueError):
        popularity_groups(np.array([0, 1, 2, 3]), 1)
    with pytest.raises(ValueError):
        popularity_groups(np.array([0, 0, 0, 1]), 3)


def test_popularity_groups_properties():
    rng = np.random.default_rng(1)
    pop = rng.integers(1, 100, size=53)  # all warm
    groups = popularity_groups(pop, 8)
    assert not np.any(groups == 0)
    sizes = np.bincount(groups)[1:]
    assert sizes.max() - sizes.min() <= 1


# -- model assembly and the training step --------------------------------------------


def test_build_model_tower_layout(tiny_data):
    catalog, _ = tiny_data
    model = build_model(tiny_cfg(), catalog)
    assert set(model.seq_towers) == {"v", "t", "id"}
    assert ensemble_key(model) == "ensemble"
    early = build_model(tiny_cfg(train__fusion="early"), catalog)
    assert set(early.seq_towers) == {"fused"}
    solo = build_model(tiny_cfg(model__branches="id"), catalog)
    assert ensemble_key(solo) == "id"


def test_seq_towers_take_max_len_from_data(tiny_data):
    # the GRU towers have no length limit
    catalog, _ = tiny_data
    model = build_model(tiny_cfg(data__max_len=20), catalog)
    assert {tower.max_len for tower in model.seq_towers.values()} == {20}


def _linear(name):
    return [f"{name}.W", f"{name}.b"]


def _stack(name, depth):
    out = []
    for i in range(depth):
        layer = f"{name}.layer{i}"
        for lin in ("wq", "wk", "wv", "wo", "ff1", "ff2"):
            out += _linear(f"{layer}.{lin}")
        out += [f"{layer}.ln1.g", f"{layer}.ln1.b", f"{layer}.ln2.g", f"{layer}.ln2.b"]
    return out


def _head(name):
    return _linear(f"{name}.l1") + _linear(f"{name}.l2")


def _gru(name):
    return [f"{name}.gru0.{w}{g}" for g in "rzn" for w in ("Wx", "Wh", "b")]


@pytest.mark.parametrize("overrides", [{}, {"model__backbone": "recurrent"},
                                       {"model__branches": "id"}])
def test_parameter_order_is_the_checkpoint_order(tiny_data, overrides):
    # Adam's state and the checkpoint keys follow this order; it must not move.
    catalog, _ = tiny_data
    model = build_model(tiny_cfg(**overrides), catalog)
    branches = model.cfg.model.branch_list
    if branches == ("id",):
        expected = ["item.id_table"]
    else:
        expected = (_linear("item.proj_v") + _linear("item.proj_t") + _stack("item.fused", 1)
                    + _head("item.head_v") + _head("item.head_t")
                    + ["id_table"] + _linear("item.proj_id") + _head("item.head_id"))
    for b in branches:
        if model.cfg.model.backbone == "recurrent":
            expected += _gru(f"seq_{b}")
        else:
            expected += [f"seq_{b}.pos"] + _stack(f"seq_{b}.sa", 1)
    assert [p.name for p in model.params()] == expected
    assert list(model.state()) == expected


def test_state_roundtrip_and_mismatch_errors(tiny_data):
    catalog, _ = tiny_data
    model = build_model(tiny_cfg(), catalog)
    state = model.state()
    some = model.params()[0]
    some.data += 1.0
    model.load_state(state)
    np.testing.assert_array_equal(some.data, state[some.name])
    with pytest.raises(KeyError):
        model.load_state({k: v for k, v in state.items() if k != some.name})
    bad = dict(state)
    bad[some.name] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        model.load_state(bad)


def test_load_state_rejects_parameters_the_model_lacks(tiny_data):
    # a deeper model's checkpoint holds every parameter of a shallower one
    catalog, _ = tiny_data
    deep = build_model(tiny_cfg(model__item_layers=2, model__seq_layers=2), catalog).state()
    model = build_model(tiny_cfg(), catalog)
    before = model.state()
    extra = [name for name in deep if name not in before]
    assert extra and before.keys() < deep.keys()
    with pytest.raises(ValueError, match=f"holds {len(extra)} parameters .* first {extra[0]}"):
        model.load_state(deep)
    for name, data in model.state().items():  # nothing was loaded
        np.testing.assert_array_equal(data, before[name])


def test_checkpoint_roundtrip(tmp_path, tiny_data):
    catalog, _ = tiny_data
    model = build_model(tiny_cfg(), catalog)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    expected = model.state()
    for p in model.params():
        p.data = p.data + 0.5
    load_checkpoint(path, model)
    for name, data in model.state().items():
        np.testing.assert_array_equal(data, expected[name])


def first_batch(dataset, cfg):
    return next(make_batches(dataset, cfg.train.batch_size, seed=0))


def test_branch_logits_match_a_per_row_reference(tiny_data):
    """Columns are the batch's distinct targets in ascending order; each logit is
    the row's debiased score, masked on the row's other history items."""
    catalog, dataset = tiny_data
    cfg = tiny_cfg()
    model = build_model(cfg, catalog)
    batch = first_batch(dataset, cfg)
    logits, target_cols = trainer._branch_logits(model, batch, dataset.pop)
    candidates = sorted(set(batch.targets.tolist()))
    assert [candidates[j] for j in target_cols] == batch.targets.tolist()
    mask = [[nm.MASKED if c in excl and c != t else 0.0 for c in candidates]
            for excl, t in zip(batch.exclusion_sets, batch.targets)]
    with nm.no_grad():
        embs = model.item_embeddings(np.arange(catalog.n_items))
    for key, tower in model.seq_towers.items():
        e = embs[key].data
        h = np.stack([
            tower.encode_batch(nm.Tensor(e[p][None]), np.array([len(p)])).data[0]
            for p in batch.prefixes
        ])
        want = h @ e[candidates].T - np.log(np.maximum(dataset.pop[candidates], 1)) + mask
        np.testing.assert_allclose(logits[key].data, want, rtol=1e-9, atol=1e-9)


def test_step_loss_collaborative_report(tiny_data):
    catalog, dataset = tiny_data
    cfg = tiny_cfg()
    model = build_model(cfg, catalog)
    total, row = step_loss(model, first_batch(dataset, cfg), dataset.pop, epoch=0)
    ce = [row[f"ce_{m}"] for m in ("v", "t", "id")]
    kl = [row[f"kl_{m}"] for m in ("v", "t", "id")]
    assert all(v > 0.0 for v in ce + kl)
    assert row["ramp_w"] == 0.0  # ramp starts at zero
    assert abs(row["total"] - sum(ce)) < 1e-9
    total.backward()  # the combined loss must be differentiable end to end


def test_step_loss_late_fusion_single_ce(tiny_data):
    catalog, dataset = tiny_data
    cfg = tiny_cfg(train__fusion="late", distill__enabled=False)
    model = build_model(cfg, catalog)
    _, row = step_loss(model, first_batch(dataset, cfg), dataset.pop, epoch=0)
    assert row["ce_ensemble"] > 0.0
    assert row["ce_v"] == row["ce_t"] == row["ce_id"] == row["ce_fused"] == 0.0
    assert row["kl_v"] == row["kl_t"] == row["kl_id"] == row["kl_row_mean"] == 0.0


def test_step_loss_distillation_kicks_in_after_epoch_zero(tiny_data):
    catalog, dataset = tiny_data
    cfg = tiny_cfg(distill__alpha=4.0)
    model = build_model(cfg, catalog)
    _, row = step_loss(model, first_batch(dataset, cfg), dataset.pop, epoch=2)
    assert 0.0 < row["ramp_w"] < 1.0
    ce = sum(row[f"ce_{m}"] for m in ("v", "t", "id"))
    kl = sum(row[f"kl_{m}"] for m in ("v", "t", "id"))
    assert abs(row["total"] - (ce + row["ramp_w"] * kl)) < 1e-9


@pytest.mark.parametrize("overrides", [
    {},
    {"train__fusion": "late"},
    {"train__fusion": "early"},
    {"model__branches": "id"},
])
def test_step_loss_row_holds_the_loss_columns(tiny_data, overrides):
    """Every model path reports exactly the losscurve.csv columns but step
    and epoch, so no loss is dropped when train() writes the row, and the
    row's sums agree with its per-branch terms."""
    catalog, dataset = tiny_data
    cfg = tiny_cfg(**overrides)
    model = build_model(cfg, catalog)
    batch = first_batch(dataset, cfg)
    _, row = step_loss(model, batch, dataset.pop, epoch=1)
    assert set(row) == set(trainer.LOSS_COLUMNS) - {"step", "epoch"}
    ce = sum(v for c, v in row.items() if c.startswith("ce_") and c != "ce_row_mean")
    kl = sum(v for c, v in row.items() if c.startswith("kl_") and c != "kl_row_mean")
    assert ce > 0.0 and row["ce_row_mean"] == pytest.approx(ce / len(batch.prefixes))
    assert row["kl_row_mean"] == pytest.approx(kl)
    assert row["total"] == pytest.approx(ce + row["ramp_w"] * kl)
    assert (kl > 0.0) == (overrides == {})  # only collaborative fusion distills


# -- evaluation ----------------------------------------------------------------------


def test_evaluate_report_structure(tiny_data):
    catalog, dataset = tiny_data
    model = build_model(tiny_cfg(), catalog)
    report = evaluate(model, catalog, dataset, split="test", ks=(5, 10), n_groups=2)
    assert set(report["branches"]) == {"v", "t", "id", "ensemble"}
    assert report["n_users"] == dataset.n_users
    assert set(report["groups"]) == {"0", "1", "2"}
    counts = sum(g["user_count"] for g in report["groups"].values())
    assert counts == dataset.n_users
    for m in report["branches"].values():
        assert set(m) == {"recall@5", "ndcg@5", "recall@10", "ndcg@10"}
        assert all(0.0 <= v <= 1.0 for v in m.values())
    with pytest.raises(ValueError):
        evaluate(model, catalog, dataset, split="train")


def test_evaluate_single_branch_has_no_ensemble(tiny_data):
    catalog, dataset = tiny_data
    model = build_model(tiny_cfg(model__branches="id"), catalog)
    report = evaluate(model, catalog, dataset, n_groups=0)
    assert set(report["branches"]) == {"id"}
    assert "groups" not in report


@pytest.mark.parametrize("split", ["val", "test"])
def test_evaluate_ranks_match_per_user_brute_force(tiny_data, monkeypatch, split):
    """Each rank equals a one-user ranking over the catalog minus every item of
    the user's input row other than the target, with ties by ascending index."""
    catalog, dataset = tiny_data
    model = build_model(tiny_cfg(), catalog)
    users = range(60)
    if split == "val":
        rows = [list(dataset.train[u]) for u in users]
        targets = [int(dataset.val[u]) for u in users]
    else:
        rows = [list(dataset.train[u]) + [int(dataset.val[u])] for u in users]
        targets = [int(dataset.test[u]) for u in users]
    assert any(t in row for row, t in zip(rows, targets))  # a target inside its own input
    scores = {}
    with nm.no_grad():
        embs = model.item_embeddings(np.arange(catalog.n_items))
        for key, tower in model.seq_towers.items():
            e = embs[key].data
            scores[key] = [
                tower.encode_batch(nm.Tensor(e[row][None]), np.array([len(row)])).data[0] @ e.T
                for row in rows
            ]
    # the mean as every path forms it: the sum in tower order, times 1/n
    scores["ensemble"] = [sum(per_user[1:], per_user[0]) * (1.0 / len(per_user))
                          for per_user in zip(*scores.values())]
    expected = []
    for key_scores in scores.values():  # evaluate's order: towers, then ensemble
        for s, row, t in zip(key_scores, rows, targets):
            visible = [j for j in range(catalog.n_items) if j == t or j not in row]
            expected.append(sorted(visible, key=lambda j: (-s[j], j)).index(t) + 1)

    seen = []
    monkeypatch.setattr(trainer, "rank_full_catalog",
                        lambda *args: seen.append(rank_full_catalog(*args)) or seen[-1])
    evaluate(model, catalog, dataset, split=split, n_groups=0, user_limit=len(users))
    assert seen == expected


class ScoreRows:
    """Stand-in sequence tower: hands out the rows of a fixed user-vector
    matrix, one chunk per call, in the order `evaluate` asks for them."""

    def __init__(self, vecs):
        self.vecs, self.served = vecs, 0

    def encode_batch(self, item_vecs, lengths, drop=0.0, rng=None):
        out = self.vecs[self.served : self.served + len(lengths)]
        self.served += len(lengths)
        return nm.Tensor(out)


@pytest.mark.parametrize("split", ["val", "test"])
def test_evaluate_block_masking_matches_brute_force_on_ties(monkeypatch, split):
    """Integer scores (many ties), rows with duplicate items and targets inside
    their own row, several chunks: evaluate's exclusion pairs and per-chunk
    masking, then one rank per row, give the brute-force sorted order."""
    rng = np.random.default_rng(5)
    n_users, n_items = 40, 30
    # identity item embeddings: each key's scores are its user vectors exactly
    vecs = {key: rng.integers(0, 4, size=(n_users, n_items)).astype(float) for key in "ab"}
    model = SimpleNamespace(
        seq_towers={key: ScoreRows(v) for key, v in vecs.items()},
        item_embeddings=lambda idx, **kw: {key: nm.Tensor(np.eye(n_items)[idx]) for key in vecs},
    )
    train_rows = [rng.integers(0, n_items, size=int(rng.integers(1, 9))).tolist()
                  for _ in range(n_users)]
    val, test = rng.integers(0, n_items, size=(2, n_users))
    for u in range(0, n_users, 3):  # a target inside its own input row
        if split == "val":
            val[u] = train_rows[u][-1]
        else:
            test[u] = train_rows[u][0]
    dataset = SimpleNamespace(n_users=n_users, train=train_rows, val=val, test=test)
    rows = train_rows if split == "val" else [r + [int(v)] for r, v in zip(train_rows, val)]
    targets = val if split == "val" else test
    assert any(len(set(r)) < len(r) for r in rows)  # duplicate items

    scores = dict(vecs, ensemble=(vecs["a"] + vecs["b"]) * 0.5)
    expected = []
    for start in range(0, n_users, 7):  # evaluate's order: chunks, then keys, then users
        for key_scores in scores.values():
            for u in range(start, min(start + 7, n_users)):
                s, row, t = key_scores[u], rows[u], targets[u]
                visible = [j for j in range(n_items) if j == t or j not in row]
                expected.append(sorted(visible, key=lambda j: (-s[j], j)).index(t) + 1)

    seen = []
    monkeypatch.setattr(trainer, "EVAL_CHUNK", 7)  # 6 chunks, the last one partial
    monkeypatch.setattr(trainer, "rank_full_catalog",
                        lambda *args: seen.append(rank_full_catalog(*args)) or seen[-1])
    evaluate(model, SimpleNamespace(n_items=n_items), dataset, split=split, n_groups=0)
    assert seen == expected


@pytest.mark.parametrize("branches, key",
                         [("id", "id"), ("v,t,id", "t"), ("v,t,id", "ensemble")])
def test_evaluate_names_the_key_whose_scores_overflow(tiny_data, monkeypatch, branches, key):
    catalog, dataset = tiny_data
    model = build_model(tiny_cfg(model__branches=branches), catalog)
    unseen = max(set(range(catalog.n_items)).difference(*dataset.train, dataset.val))
    keys = list(model.seq_towers) if key == "ensemble" else [key]
    d = model.cfg.model.d
    # user vectors of s against one item row of s give that item the score
    # d * s^2: for one key it overflows; for the ensemble it is 1e308 in each
    # branch, finite, and the branches' sum overflows
    s = math.sqrt(1e308 / d) if key == "ensemble" else 1e300
    inner_embs = trainer._all_item_embeddings

    def huge_item(model, n_items):
        embs = inner_embs(model, n_items)
        for k in keys:
            embs[k][unseen] = s
        return embs

    monkeypatch.setattr(trainer, "_all_item_embeddings", huge_item)
    for k in keys:
        monkeypatch.setattr(model.seq_towers[k], "encode_batch",
                            lambda x, lengths, **kw: nm.Tensor(np.full((len(lengths), d), s)))
    with np.errstate(over="ignore"), pytest.raises(nm.NonFiniteError,
                                                   match=f"non-finite {key} scores"):
        evaluate(model, catalog, dataset, split="test", n_groups=0)


def test_pad_rows_matches_a_per_row_copy():
    rng = np.random.default_rng(2)
    rows = [rng.integers(0, 50, size=int(rng.integers(1, 12))).tolist() for _ in range(30)]
    idx, lengths = trainer._pad_rows(rows)
    expected = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for i, r in enumerate(rows):
        expected[i, : len(r)] = r
    np.testing.assert_array_equal(idx, expected)
    np.testing.assert_array_equal(lengths, [len(r) for r in rows])


def test_val_and_test_splits_use_different_targets(tiny_data):
    catalog, dataset = tiny_data
    model = build_model(tiny_cfg(), catalog)
    val = evaluate(model, catalog, dataset, split="val", n_groups=0, user_limit=40)
    test = evaluate(model, catalog, dataset, split="test", n_groups=0, user_limit=40)
    assert val["n_users"] == test["n_users"] == 40
    assert val["branches"] != test["branches"]


# -- training loop --------------------------------------------------------------------


def test_train_smoke_and_model_selection(tiny_data):
    catalog, dataset = tiny_data
    cfg = tiny_cfg(train__epochs=2)
    result = train(cfg, catalog, dataset)
    assert len(result.val_history) == 2
    assert result.best_epoch in (0, 1)
    assert result.best_val_recall > 0.0
    key = ensemble_key(result.model)
    assert 0.0 <= result.test_metrics["branches"][key]["recall@10"] <= 1.0
    assert len(result.loss_log) == 2 * int(np.ceil(dataset.n_users / 32))


def test_train_zero_epochs_yields_no_metrics(tiny_data):
    catalog, dataset = tiny_data
    result = train(tiny_cfg(train__epochs=0), catalog, dataset)
    assert result.loss_log == [] and result.test_metrics == {}


def test_a_one_row_batch_warns_that_its_loss_is_zero(tiny_data):
    catalog, dataset = tiny_data
    assert dataset.n_users % 53 == 1  # the last batch holds a single row
    with pytest.warns(UserWarning, match="collapsed"):
        train(tiny_cfg(train__batch_size=53), catalog, dataset)


def test_divergence_names_the_op(tiny_data):
    # q k^T overflows in the item tower's attention
    catalog, dataset = tiny_data
    huge = dataclasses.replace(catalog, visual=catalog.visual * 1e200)
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match="diverged at epoch 0 step 0: non-finite masked_attention scores"):
        train(tiny_cfg(), huge, dataset)


def test_train_is_deterministic(tiny_data):
    catalog, dataset = tiny_data
    cfg = tiny_cfg()
    a = train(cfg, catalog, dataset)
    b = train(cfg, catalog, dataset)
    assert a.loss_log == b.loss_log
    assert a.test_metrics == b.test_metrics


def test_early_fusion_trains_and_evaluates(tiny_data):
    catalog, dataset = tiny_data
    result = train(tiny_cfg(train__fusion="early"), catalog, dataset)
    assert set(result.model.seq_towers) == {"fused"}
    assert set(result.loss_log[0]) >= {"ce_fused", "total"}
    assert "fused" in result.test_metrics["branches"]


@pytest.mark.parametrize("branches", ["v,t,id", "v,t"])
def test_early_fusion_scores_the_embeddings_it_trains_on(tiny_data, branches):
    catalog, _ = tiny_data
    model = build_model(tiny_cfg(train__fusion="early", model__branches=branches), catalog)
    idx = np.array([5, 0, catalog.n_items - 1, 5, 17])
    embs = model.item_embeddings(idx)
    branch_list = model.cfg.model.branch_list
    mean = embs[branch_list[0]]
    for b in branch_list[1:]:
        mean = nm.add(mean, embs[b])
    np.testing.assert_array_equal(
        embs["fused"].data, nm.mul(mean, 1.0 / len(branch_list)).data
    )
    catalog_embs = trainer._all_item_embeddings(model, catalog.n_items)
    assert set(catalog_embs) == {"fused"}
    np.testing.assert_array_equal(embs["fused"].data, catalog_embs["fused"][idx])


def test_fused_gru_trains_like_the_unrolled_chain(tiny_data, monkeypatch):
    catalog, dataset = tiny_data
    cfg = tiny_cfg(model__branches="id", model__backbone="recurrent",
                   model__gru_layers=2, train__epochs=2)
    fused = train(cfg, catalog, dataset)
    monkeypatch.setattr(nm, "gru_layer", unrolled_gru_layer)
    chained = train(cfg, catalog, dataset)
    assert fused.loss_log == chained.loss_log
    assert fused.test_metrics == chained.test_metrics


@pytest.mark.slow
def test_collaborative_ce_decreases_over_early_epochs():
    from modrec.datagen import generate_synthetic

    per_seed = []
    for seed in (0, 1, 2):
        cfg = ExperimentConfig()
        cfg.seed = seed
        cfg.train.epochs = 5
        cfg.eval.val_users = 200
        cfg.eval.ks = [10]
        catalog, dataset = generate_synthetic(seed=seed)
        result = train(cfg, catalog, dataset)
        by_epoch = {}
        for row in result.loss_log:
            by_epoch.setdefault(row["epoch"], []).append(row["ce_row_mean"])
        per_seed.append([float(np.mean(by_epoch[e])) for e in range(5)])
    medians = np.median(np.array(per_seed), axis=0)
    assert all(b < a for a, b in zip(medians, medians[1:])), medians


# -- ablation matrix -------------------------------------------------------------------


def test_ablation_config_mapping():
    base = ExperimentConfig()
    assert ablation_config(base, "text_init").model.id_init == "text"
    assert ablation_config(base, "image_init").model.id_init == "image"
    assert ablation_config(base, "random_init").model.id_init == "random"
    assert ablation_config(base, "no_id_mask").model.id_mask is False
    sep2 = ablation_config(base, "separate_fst_2")
    assert sep2.model.fst == "separate" and sep2.model.item_layers == 2
    assert ablation_config(base, "separate_fst_1").model.item_layers == 1
    nd = ablation_config(base, "no_distill")
    assert nd.train.fusion == "late" and nd.distill.enabled is False
    assert ablation_config(base, "no_id").model.branch_list == ("v", "t")
    # the base config is never mutated
    assert base.model.id_init == "avg_modal" and base.train.fusion == "collaborative"
    with pytest.raises(ValueError):
        ablation_config(base, "bogus")
    assert "full" in ABLATIONS


def test_ablation_full_row_matches_standalone_run(tiny_data):
    catalog, dataset = tiny_data
    cfg = tiny_cfg()
    cells = [({"variant": "full"}, ablation_config(cfg, "full"))]
    rows = trainer.run_grid(cells, catalog, dataset)
    standalone = train(cfg, catalog, dataset)
    key = ensemble_key(standalone.model)
    expected = standalone.test_metrics["branches"][key]
    assert rows[0]["variant"] == "full"
    assert {k: v for k, v in rows[0].items() if k != "variant"} == expected


# -- artifacts -------------------------------------------------------------------------


def test_metrics_json_bytes_are_reproducible(tmp_path):
    report = {"branches": {"id": {"recall@10": 0.25}}, "n_users": 4}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_metrics_json(a, report)
    write_metrics_json(b, {"n_users": 4, "branches": {"id": {"recall@10": 0.25}}})
    assert a.read_bytes() == b.read_bytes()
