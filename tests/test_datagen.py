import dataclasses

import numpy as np
import pytest

from modrec import datagen
from modrec.config import DataCfg
from modrec.datagen import (
    Catalog,
    generate_synthetic,
    load_dataset,
    load_features,
    make_batches,
    save_catalog,
    split_leave_one_out,
)


def test_split_definition():
    ds = split_leave_one_out([[0, 1, 2, 3, 4, 5]])
    assert ds.train == [[0, 1, 2, 3]]
    assert ds.pop.tolist() == [1, 1, 1, 1, 0, 0]
    assert split_leave_one_out([[0, 1, 2, 3, 4, 5]], n_items=8).pop.size == 8
    assert ds.val.tolist() == [4]
    assert ds.test.tolist() == [5]


def test_split_truncates_to_most_recent():
    seq = list(range(20))
    ds = split_leave_one_out([seq], max_len=15)
    assert ds.sequences[0] == seq[-15:]
    assert ds.train == [seq[5:18]]


@pytest.mark.parametrize("max_len", [2, 0, -4])
def test_split_rejects_max_len_below_3(max_len):
    with pytest.raises(ValueError, match=f"max_len must be at least 3, got {max_len}"):
        split_leave_one_out([list(range(1, 11))], max_len=max_len)


def test_split_filters_short_users():
    ds = split_leave_one_out([[0, 1, 2], [0, 1, 2, 3, 4, 5]])
    assert ds.n_users == 1


def test_pop_counts_train_prefixes_only():
    ds = split_leave_one_out([
        [7, 1, 7, 2, 3, 4],  # 7 twice in prefix [7,1,7,2]
        [7, 5, 1, 2, 8, 9],  # 8 = val, 9 = test
    ])
    assert ds.pop[7] == 3
    assert ds.pop[8] == 0 and ds.pop[9] == 0  # cold: only val/test occurrences
    assert ds.pop[4] == 0  # test target of user 0


def test_split_reconstructs_sequences():
    seqs = [[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8]]
    ds = split_leave_one_out(seqs)
    for i in range(ds.n_users):
        assert ds.train[i] + [ds.val[i], ds.test[i]] == ds.sequences[i]


def test_generator_determinism():
    a = generate_synthetic(n_items=100, n_users=50, n_clusters=8, seed=5)
    b = generate_synthetic(n_items=100, n_users=50, n_clusters=8, seed=5)
    np.testing.assert_array_equal(a[0].visual, b[0].visual)
    np.testing.assert_array_equal(a[0].textual, b[0].textual)
    assert a[1].sequences == b[1].sequences


def test_generator_takes_the_data_config_fields():
    fields = dataclasses.asdict(DataCfg(n_items=40, n_users=12, n_clusters=4, max_len=8))
    fields.pop("source")
    catalog, ds = generate_synthetic(seed=2, **fields)
    assert catalog.n_items == 40 and ds.n_users == 12
    assert max(len(seq) for seq in ds.sequences) == 8
    for bad in ({"source": "synthetic"}, {"min_len": 3}):
        with pytest.raises(TypeError):
            generate_synthetic(**bad)


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_synthetic(n_items=4, n_clusters=8)
    with pytest.raises(ValueError):
        generate_synthetic(n_v=0)


@pytest.mark.parametrize("key, value", [
    ("n_pref", 0), ("p_intra", 1.5), ("n_clusters", 9), ("max_len", 2),
])
def test_generator_checks_its_fields_like_the_config(key, value):
    """generate_synthetic validates its DataCfg through config.validate(), so a
    direct call fails with the same message as `--set data.<key>=...`."""
    with pytest.raises(ValueError, match=f"data.{key} must"):
        generate_synthetic(**{"n_items": 8, "n_users": 4, "n_clusters": 2, key: value})


def test_degenerate_clustering_gives_unique_features():
    catalog, _ = generate_synthetic(
        n_items=40, n_users=30, n_clusters=40, item_noise=0.0, row_noise=0.0, seed=1
    )
    cls = catalog.visual_cls
    dists = np.linalg.norm(cls[:, None, :] - cls[None, :, :], axis=-1)
    dists[np.diag_indices_from(dists)] = np.inf
    assert dists.min() > 0.1


def test_cluster_signal_predicts_next_item():
    # With p_intra=0.8 and >= 8 clusters, the test item's cluster should match
    # the majority cluster of the user's prefix for well over 60% of users.
    rng = np.random.default_rng(0)
    catalog, ds = generate_synthetic(
        n_items=400, n_users=600, n_clusters=16, seed=3, p_intra=0.8
    )
    # recover clusters from visual features by nearest centroid over k-means-free
    # ground truth: items were planted around per-cluster centroids, so items of
    # one cluster are mutually closer; use the catalog's own geometry.
    from scipy.cluster.vq import kmeans2

    codes, labels = kmeans2(catalog.visual_cls, 16, seed=1, minit="++")
    hits = 0
    for u in range(ds.n_users):
        prefix_labels = labels[ds.train[u]]
        majority = np.bincount(prefix_labels).argmax()
        hits += labels[ds.test[u]] == majority
    assert hits / ds.n_users > 0.6


def test_single_cluster_content_cannot_beat_popularity():
    catalog, ds = generate_synthetic(
        n_items=300, n_users=400, n_clusters=1, seed=2, cold_frac=0.0
    )

    def recall10(scores_fn):
        hits = 0
        for u in range(ds.n_users):
            scores = scores_fn(u)
            top = np.argsort(-scores, kind="stable")[:10]
            hits += ds.test[u] in top
        return hits / ds.n_users

    cls = catalog.visual_cls
    content = recall10(lambda u: cls @ cls[ds.train[u]].mean(axis=0))
    popularity = recall10(lambda u: ds.pop.astype(float))
    assert content <= popularity


def test_batches_partition_and_exclusions():
    ds = split_leave_one_out([[i, 1, 2, 3, 4, 5] for i in range(10, 20)])
    batches = list(make_batches(ds, 4, seed=0))
    assert [len(b.prefixes) for b in batches] == [4, 4, 2]
    for b in batches:
        for prefix, target, excl in zip(b.prefixes, b.targets, b.exclusion_sets):
            assert set(prefix) <= excl
            assert target not in prefix  # target is the item right after the row


def test_batches_deterministic_and_target_follows_prefix():
    ds = split_leave_one_out([[100 + i, i, 2, 3, 4, 5, 6] for i in range(20)])
    a = list(make_batches(ds, 8, seed=9))
    b = list(make_batches(ds, 8, seed=9))
    for x, y in zip(a, b):
        assert x.prefixes == y.prefixes
        np.testing.assert_array_equal(x.targets, y.targets)
    for batch in a:
        for prefix, target in zip(batch.prefixes, batch.targets):
            full = next(t for t in ds.train if t[: len(prefix)] == prefix)
            assert full[len(prefix)] == target


def test_batch_size_one_rejected():
    ds = split_leave_one_out([[0, 1, 2, 3, 4, 5]])
    with pytest.raises(ValueError):
        next(make_batches(ds, 1, seed=0))


def test_catalog_roundtrip(tmp_path):
    catalog, ds = generate_synthetic(n_items=30, n_users=20, n_clusters=4, seed=4,
                                     n_v=2, n_t=3, d_v=6, d_t=5)
    save_catalog(tmp_path, catalog, ds.sequences)
    loaded = load_features(tmp_path)
    np.testing.assert_array_equal(loaded.visual, catalog.visual)
    np.testing.assert_array_equal(loaded.textual, catalog.textual)
    _, ds2 = load_dataset(tmp_path)
    assert ds2.sequences == ds.sequences


def test_loader_detects_shape_mismatch(tmp_path):
    catalog, ds = generate_synthetic(n_items=10, n_users=20, n_clusters=2, seed=4,
                                     n_v=2, n_t=2, d_v=4, d_t=4)
    save_catalog(tmp_path, catalog, ds.sequences)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"d_v": 4', '"d_v": 8'))
    with pytest.raises(ValueError, match="expected"):
        load_features(tmp_path)


@pytest.mark.parametrize("bad_id", [-1, 10])
def test_loader_rejects_item_ids_outside_the_catalog(tmp_path, bad_id):
    catalog, ds = generate_synthetic(n_items=10, n_users=20, n_clusters=2, seed=4,
                                     n_v=2, n_t=2, d_v=4, d_t=4)
    sequences = [list(seq) for seq in ds.sequences]
    sequences[3][1] = bad_id
    save_catalog(tmp_path, catalog, sequences)
    with pytest.raises(ValueError, match="interactions.csv"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_loader_rejects_non_finite_features(tmp_path, bad):
    catalog, ds = generate_synthetic(n_items=10, n_users=20, n_clusters=2, seed=4,
                                     n_v=2, n_t=2, d_v=4, d_t=4)
    catalog.textual[3, 1, 2] = bad
    save_catalog(tmp_path, catalog, ds.sequences)
    with pytest.raises(ValueError, match="textual.f64"):
        load_features(tmp_path)


def test_loader_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_features(tmp_path)


def test_catalog_validates_shapes():
    with pytest.raises(ValueError):
        Catalog(2, np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), n_v=9, n_t=2, d_v=4, d_t=4)
