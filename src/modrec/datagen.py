"""Synthetic multi-modal catalogs and interaction data, plus the file loader.

The generator plants cluster structure in the modality features and draws
user sequences mostly within each user's preferred clusters, so content
similarity genuinely predicts the next item. A held-out "cold" slice of
items may only ever appear as a user's final interaction, which populates
popularity group 0 at evaluation time.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .config import DataCfg, ExperimentConfig

MIN_SEQ_LEN = 6  # users with fewer interactions are dropped
MAX_RAW_LEN = 18  # longest synthetic sequence before truncation to max_len
MANIFEST_KEYS = ("n_items", "n_v", "n_t", "d_v", "d_t")


@dataclass
class Catalog:
    """Per-item raw modality features with fixed patch/token counts.

    Visual rows are [patch_1 .. patch_n_v, cls]; textual rows are
    [cls, token_1 .. token_n_t].
    """

    n_items: int
    visual: np.ndarray  # (n_items, n_v + 1, d_v)
    textual: np.ndarray  # (n_items, n_t + 1, d_t)
    n_v: int
    n_t: int
    d_v: int
    d_t: int

    def __post_init__(self):
        for name, n, d in (("visual", self.n_v, self.d_v), ("textual", self.n_t, self.d_t)):
            shape = getattr(self, name).shape
            if shape != (self.n_items, n + 1, d):
                raise ValueError(
                    f"{name} features shape {shape} does not match "
                    f"(n_items={self.n_items}, n_{name[0]}+1={n + 1}, d_{name[0]}={d})"
                )

    @property
    def visual_cls(self):
        return self.visual[:, -1, :]

    @property
    def textual_cls(self):
        return self.textual[:, 0, :]


@dataclass
class InteractionDataset:
    """Per-user truncated sequences with a leave-one-out split."""

    sequences: list  # truncated full sequences, one list per retained user
    train: list  # per-user train prefix
    val: np.ndarray  # per-user validation item
    test: np.ndarray  # per-user test item
    pop: np.ndarray  # per-item frequency over train prefixes only

    @property
    def n_users(self):
        return len(self.sequences)


@dataclass
class Batch:
    prefixes: list  # B train-prefix item lists
    targets: np.ndarray  # B positive item indices
    exclusion_sets: list  # per row: set of items overlapping that row's prefix


def generate_synthetic(seed=0, **params):
    """Build a clustered catalog and user sequences, already split leave-one-out.

    `params` are `DataCfg` fields other than `source`; unset ones keep the
    `DataCfg` defaults.
    """
    if "source" in params:
        raise TypeError("generate_synthetic() takes no 'source'; it is the synthetic source")
    p = ExperimentConfig(data=DataCfg(**params)).validate().data
    rng = np.random.default_rng(seed)

    cluster_of = rng.integers(0, p.n_clusters, size=p.n_items)
    # Guarantee every cluster is populated when possible.
    cluster_of[:p.n_clusters] = np.arange(p.n_clusters)

    centroids_v = rng.normal(size=(p.n_clusters, p.d_v))
    centroids_t = rng.normal(size=(p.n_clusters, p.d_t))
    base_v = centroids_v[cluster_of] + p.item_noise * rng.normal(size=(p.n_items, p.d_v))
    base_t = centroids_t[cluster_of] + p.item_noise * rng.normal(size=(p.n_items, p.d_t))
    visual = base_v[:, None, :] + p.row_noise * rng.normal(size=(p.n_items, p.n_v + 1, p.d_v))
    textual = base_t[:, None, :] + p.row_noise * rng.normal(size=(p.n_items, p.n_t + 1, p.d_t))
    catalog = Catalog(p.n_items, visual, textual, p.n_v, p.n_t, p.d_v, p.d_t)

    # Cold items can only ever appear as a user's final interaction.
    n_cold = int(round(p.cold_frac * p.n_items))
    cold = np.zeros(p.n_items, dtype=bool)
    if n_cold:
        cold[rng.choice(p.n_items, size=n_cold, replace=False)] = True

    # Popularity skew within the warm pool, so in-batch debiasing has teeth.
    weight = rng.lognormal(mean=0.0, sigma=1.0, size=p.n_items)
    weight[cold] = 0.0

    members = [np.flatnonzero(cluster_of == c) for c in range(p.n_clusters)]
    warm_members, warm_w, cold_members = [], [], []
    for m in members:
        wm = m[~cold[m]]
        warm_members.append(wm)
        w = weight[wm]
        warm_w.append(w / w.sum() if w.sum() > 0 else None)
        cold_members.append(m[cold[m]])
    warm_all = np.flatnonzero(~cold)
    warm_all_w = weight[warm_all] / weight[warm_all].sum()

    def draw_item(cluster, allow_cold):
        wm = warm_members[cluster]
        if allow_cold and cold_members[cluster].size and rng.random() < p.p_cold_last:
            return int(rng.choice(cold_members[cluster]))
        if wm.size == 0:
            return int(rng.choice(warm_all, p=warm_all_w))
        return int(rng.choice(wm, p=warm_w[cluster]))

    sequences = []
    for _ in range(p.n_users):
        prefs = rng.choice(p.n_clusters, size=min(p.n_pref, p.n_clusters), replace=False)
        length = int(rng.integers(MIN_SEQ_LEN, MAX_RAW_LEN + 1))
        seq = []
        for pos in range(length):
            if rng.random() < p.p_intra:
                cluster = int(rng.choice(prefs))
            else:
                cluster = int(rng.integers(0, p.n_clusters))
            seq.append(draw_item(cluster, allow_cold=(pos == length - 1)))
        sequences.append(seq)

    dataset = split_leave_one_out(sequences, max_len=p.max_len)
    return catalog, dataset


def split_leave_one_out(sequences, max_len=DataCfg.max_len, n_items=0):
    """Truncate to the most recent max_len items and split (prefix, val, test);
    `pop` spans at least `n_items` items."""
    if max_len < 3:
        raise ValueError(f"max_len must be at least 3, got {max_len}")
    kept, train, val, test = [], [], [], []
    for seq in sequences:
        if len(seq) < MIN_SEQ_LEN:
            continue
        seq = list(seq[-max_len:])
        kept.append(seq)
        train.append(seq[:-2])
        val.append(seq[-2])
        test.append(seq[-1])
        n_items = max(n_items, max(seq) + 1)
    pop = np.zeros(n_items, dtype=np.int64)
    for prefix in train:
        for item in prefix:
            pop[item] += 1
    return InteractionDataset(
        sequences=kept,
        train=train,
        val=np.asarray(val, dtype=np.int64),
        test=np.asarray(test, dtype=np.int64),
        pop=pop,
    )


def make_batches(dataset, batch_size, seed):
    """Yield one epoch of user batches in a seed-determined shuffled order.

    Each row is a prefix of the user's train sequence and its target is the
    train item immediately after it; validation and test items never appear
    as targets. The cut point is drawn per user per epoch.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2 (in-batch negatives need peers)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n_users)
    for start in range(0, len(order), batch_size):
        users = order[start : start + batch_size]
        prefixes, targets = [], []
        for u in users:
            seq = dataset.train[u]
            cut = int(rng.integers(1, len(seq)))
            prefixes.append(seq[:cut])
            targets.append(seq[cut])
        yield Batch(
            prefixes=prefixes,
            targets=np.asarray(targets, dtype=np.int64),
            exclusion_sets=[set(dataset.train[u]) for u in users],
        )


def save_catalog(out_dir, catalog, sequences):
    """Write the documented catalog directory layout."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {key: getattr(catalog, key) for key in MANIFEST_KEYS}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    catalog.visual.astype("<f8").tofile(os.path.join(out_dir, "visual.f64"))
    catalog.textual.astype("<f8").tofile(os.path.join(out_dir, "textual.f64"))
    with open(os.path.join(out_dir, "interactions.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["user_id", "item_id", "timestamp"])
        for user, seq in enumerate(sequences):
            for ts, item in enumerate(seq):
                w.writerow([user, item, ts])


def load_features(catalog_dir):
    """Load and validate a Catalog from the documented directory layout."""
    manifest_path = os.path.join(catalog_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"missing manifest.json in {catalog_dir}")
    with open(manifest_path) as f:
        m = json.load(f)
    n_items, n_v, n_t, d_v, d_t = (m[k] for k in MANIFEST_KEYS)
    visual = _read_f64(os.path.join(catalog_dir, "visual.f64"), (n_items, n_v + 1, d_v))
    textual = _read_f64(os.path.join(catalog_dir, "textual.f64"), (n_items, n_t + 1, d_t))
    return Catalog(n_items, visual, textual, n_v, n_t, d_v, d_t)


def _read_f64(path, shape):
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing feature file {path}")
    data = np.fromfile(path, dtype="<f8")
    expected = int(np.prod(shape))
    if data.size != expected:
        raise ValueError(
            f"{path}: expected {expected} float64 values for shape {shape}, "
            f"found {data.size}"
        )
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite feature value (NaN or Inf)")
    return data.reshape(shape)


def load_interactions(catalog_dir):
    """Read interactions.csv into per-user chronological item lists."""
    path = os.path.join(catalog_dir, "interactions.csv")
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing interactions file {path}")
    rows = {}
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for r in reader:
            rows.setdefault(int(r["user_id"]), []).append(
                (int(r["timestamp"]), int(r["item_id"]))
            )
    sequences = []
    for user in sorted(rows):
        events = sorted(rows[user], key=lambda x: x[0])
        sequences.append([item for _, item in events])
    return sequences


def load_dataset(catalog_dir, max_len=DataCfg.max_len):
    catalog = load_features(catalog_dir)
    sequences = load_interactions(catalog_dir)
    bad = [item for seq in sequences for item in seq if not 0 <= item < catalog.n_items]
    if bad:
        raise ValueError(f"interactions.csv: item id {bad[0]} outside [0, {catalog.n_items})")
    return catalog, split_leave_one_out(sequences, max_len=max_len, n_items=catalog.n_items)
