"""Training loop, ranking evaluation, popularity-group analysis, and the
ablation matrix."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import losses as ls
from . import numerics as nm
from .config import ExperimentConfig, apply_setting
from .datagen import make_batches
from .item_tower import build_item_tower
from .numerics import Adam, Tensor, no_grad
from .seq_tower import build_seq_tower


# -- model container -----------------------------------------------------------


@dataclass
class Model:
    item_tower: object
    seq_towers: dict  # branch (or "fused") -> sequence tower
    branches: tuple  # item tower branches the model uses
    fusion: str
    cfg: ExperimentConfig

    def item_embeddings(self, idx, drop=0.0, rng=None):
        """Item tower outputs per branch. With a "fused" sequence tower (early
        fusion), also the "fused" pseudo-branch: the mean of the branches."""
        embs = self.item_tower.item_embeddings(idx, drop=drop, rng=rng)
        if "fused" in self.seq_towers:
            fused = embs[self.branches[0]]
            for b in self.branches[1:]:
                fused = nm.add(fused, embs[b])
            embs["fused"] = nm.mul(fused, 1.0 / len(self.branches))
        return embs

    def params(self):
        out = list(self.item_tower.params())
        for tower in self.seq_towers.values():
            out.extend(tower.params())
        return out

    def state(self):
        return {p.name: p.data.copy() for p in self.params()}

    def load_state(self, state):
        for p in self.params():
            if p.name not in state:
                raise KeyError(f"checkpoint missing parameter {p.name}")
            if state[p.name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {p.name}")
            p.data = state[p.name].copy()


def build_model(cfg, catalog):
    cfg.validate()
    ss = np.random.SeedSequence(cfg.seed)
    init_rng = np.random.default_rng(ss.spawn(1)[0])
    item_tower = build_item_tower(catalog, cfg.model, init_rng, id_init_seed=cfg.seed)
    branches = tuple(b for b in cfg.model.branch_list if b in item_tower.branches)
    seq_keys = ("fused",) if cfg.train.fusion == "early" and len(branches) > 1 else branches
    seq_towers = {
        key: build_seq_tower(cfg.model, init_rng, key, cfg.data.max_len) for key in seq_keys
    }
    names = [p.name for p in item_tower.params()]
    for tower in seq_towers.values():
        names.extend(p.name for p in tower.params())
    if len(names) != len(set(names)):
        raise ValueError("parameter names must be unique across towers")
    return Model(item_tower, seq_towers, branches, cfg.train.fusion, cfg)


# -- batching helpers ------------------------------------------------------------


def _pad_rows(rows, index_of=None):
    """Right-pad item-id rows to a (B, T) index matrix plus real lengths."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    t = int(lengths.max())
    idx = np.zeros((len(rows), t), dtype=np.int64)
    for i, r in enumerate(rows):
        vals = [index_of[x] for x in r] if index_of is not None else list(r)
        idx[i, : len(r)] = vals
    return idx, lengths


def _branch_logits(model, batch, pop, drop=0.0, drop_rng=None):
    """Forward pass producing masked (B, C) logits per scoring branch."""
    uniq = sorted(set(x for row in batch.prefixes for x in row) | set(batch.targets.tolist()))
    index_of = {item: i for i, item in enumerate(uniq)}
    embs = model.item_embeddings(np.array(uniq), drop=drop, rng=drop_rng)

    candidates = sorted(set(batch.targets.tolist()))
    cand_col = {item: j for j, item in enumerate(candidates)}
    cand_rows = np.array([index_of[c] for c in candidates], dtype=np.int64)
    target_cols = np.array([cand_col[t] for t in batch.targets.tolist()], dtype=np.int64)
    excl = ls.exclusion_mask(batch.exclusion_sets, candidates, target_cols)
    pop_c = pop[np.array(candidates)]

    idx_mat, lengths = _pad_rows(batch.prefixes, index_of)
    logits = {}
    for key, tower in model.seq_towers.items():
        seqs = nm.take_rows(embs[key], idx_mat)
        h = tower.encode_batch(seqs, lengths, drop=drop, rng=drop_rng)
        d_c = nm.take_rows(embs[key], cand_rows)
        logits[key] = nm.add(ls.debiased_scores(h, d_c, pop_c), Tensor(excl))
    return logits, target_cols


def step_loss(model, batch, pop, epoch, drop=0.0, drop_rng=None):
    """Full loss for one batch under the configured fusion / distillation mode."""
    cfg = model.cfg
    logits, target_cols = _branch_logits(model, batch, pop, drop=drop, drop_rng=drop_rng)
    b = len(batch.prefixes)
    if model.fusion == "late" and len(logits) > 1:
        ce = {"ensemble": ls.inbatch_ce(ls.ensemble_logits(logits), target_cols)}
    else:
        ce = ls.collaborative_ce(logits, target_cols)
    kl = {}
    w = 0.0
    if (
        cfg.distill.enabled
        and model.fusion == "collaborative"
        and len(logits) > 1
    ):
        w = ls.ramp_weight(epoch, cfg.distill.alpha)
        kl = ls.distill_bundle(logits, cfg.distill.T)
    total = ls.total_loss(ce, kl, w)
    report = ls.LossReport(
        ce={m: v.item() for m, v in ce.items()},
        kl={m: v.item() for m, v in kl.items()},
        ramp_w=w,
        total=total.item(),
        ce_row_mean=sum(v.item() for v in ce.values()) / b,
        kl_row_mean=sum(v.item() for v in kl.values()),
    )
    return total, report


# -- metrics ----------------------------------------------------------------------


def recall_ndcg(rank, k):
    """Single-relevant-item Recall@k and NDCG@k from the target's rank."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > k:
        return 0.0, 0.0
    return 1.0, 1.0 / math.log2(rank + 1)


def rank_full_catalog(scores, exclude=(), target=None):
    """Descending ranking over the catalog minus excluded items.

    Ties break by ascending item index. Returns the ordered item list, or
    the 1-based rank of `target` when it is given.
    """
    scores = np.asarray(scores, dtype=np.float64)
    excluded = np.zeros(scores.size, dtype=bool)
    if len(exclude):
        excluded[np.fromiter(exclude, dtype=np.int64)] = True
    if target is not None:
        if excluded[target]:
            raise ValueError("target item must not be excluded")
        s_t = scores[target]
        better = (scores > s_t) & ~excluded
        tied = (scores == s_t) & ~excluded
        return 1 + int(better.sum()) + int(tied[:target].sum())
    keep = np.flatnonzero(~excluded)
    order = np.lexsort((keep, -scores[keep]))
    return keep[order].tolist()


def popularity_groups(pop, n_groups):
    """Item -> group map: group 0 = unseen items, then equal-count quantiles."""
    if n_groups < 2:
        raise ValueError("need at least 2 quantile groups")
    pop = np.asarray(pop)
    groups = np.zeros(pop.size, dtype=np.int64)
    warm = np.flatnonzero(pop > 0)
    if warm.size < n_groups:
        raise ValueError(f"only {warm.size} items with pop > 0; cannot form {n_groups} groups")
    order = warm[np.lexsort((warm, pop[warm]))]
    for g, chunk in enumerate(np.array_split(order, n_groups), start=1):
        groups[chunk] = g
    return groups


def _all_item_embeddings(model, n_items, chunk=512):
    """Catalog-wide item embeddings for each sequence tower's key."""
    out = {key: [] for key in model.seq_towers}
    with no_grad():
        for start in range(0, n_items, chunk):
            embs = model.item_embeddings(np.arange(start, min(start + chunk, n_items)))
            for key, parts in out.items():
                parts.append(embs[key].data)
    return {key: np.concatenate(parts, axis=0) for key, parts in out.items()}


def evaluate(model, catalog, dataset, split="test", ks=(10, 20), n_groups=8,
             user_limit=0, chunk=256):
    """Full-catalog ranking metrics per branch and for the ensemble.

    split="val": input = train prefix, target = val item, exclude prefix.
    split="test": input = prefix + val item, target = test item, exclude both.
    """
    if split not in ("val", "test"):
        raise ValueError(f"split must be val or test, got {split!r}")
    item_embs = _all_item_embeddings(model, catalog.n_items)

    n_users = dataset.n_users
    users = np.arange(n_users)
    if user_limit and user_limit < n_users:
        users = users[:user_limit]

    group_of_item = None
    if n_groups:
        group_of_item = popularity_groups(dataset.pop, n_groups)

    score_keys = list(model.seq_towers.keys())
    report_keys = score_keys + (["ensemble"] if len(score_keys) > 1 else [])
    ranks = {key: np.zeros(len(users), dtype=np.int64) for key in report_keys}
    target_groups = np.zeros(len(users), dtype=np.int64)

    for start in range(0, len(users), chunk):
        batch_users = users[start : start + chunk]
        rows, targets, excludes = [], [], []
        for u in batch_users:
            prefix = dataset.train[u]
            if split == "val":
                rows.append(list(prefix)[-dataset.max_len:])
                targets.append(int(dataset.val[u]))
                excludes.append(set(prefix))
            else:
                rows.append((list(prefix) + [int(dataset.val[u])])[-dataset.max_len:])
                targets.append(int(dataset.test[u]))
                excludes.append(set(prefix) | {int(dataset.val[u])})
        idx_mat, lengths = _pad_rows(rows)
        branch_scores = {}
        with no_grad():
            for key, tower in model.seq_towers.items():
                embs = item_embs[key]
                seqs = Tensor(embs[idx_mat])
                h = tower.encode_batch(seqs, lengths).data
                branch_scores[key] = h @ embs.T
        if len(score_keys) > 1:
            branch_scores["ensemble"] = np.mean(
                [branch_scores[k] for k in score_keys], axis=0
            )
        for key, scores in branch_scores.items():
            for i, (target, excl) in enumerate(zip(targets, excludes)):
                excl.discard(target)
                ranks[key][start + i] = rank_full_catalog(scores[i], excl, target)
        if group_of_item is not None:
            target_groups[start : start + len(batch_users)] = group_of_item[targets]

    return _metrics_report(ranks, target_groups, ks, n_groups, report_keys)


def _metrics_for_ranks(ranks, ks):
    out = {}
    for k in ks:
        hits = ranks <= k
        out[f"recall@{k}"] = float(hits.mean()) if ranks.size else 0.0
        ndcg = np.where(hits, 1.0 / np.log2(ranks + 1.0), 0.0)
        out[f"ndcg@{k}"] = float(ndcg.mean()) if ranks.size else 0.0
    return out


def _metrics_report(ranks, target_groups, ks, n_groups, report_keys):
    report = {
        "branches": {key: _metrics_for_ranks(ranks[key], ks) for key in report_keys},
        "n_users": int(next(iter(ranks.values())).size),
    }
    if n_groups:
        groups = {}
        for g in range(n_groups + 1):
            sel = target_groups == g
            groups[str(g)] = {
                "user_count": int(sel.sum()),
                "branches": {
                    key: _metrics_for_ranks(ranks[key][sel], ks) for key in report_keys
                },
            }
        report["groups"] = groups
    return report


def ensemble_key(model):
    return "ensemble" if len(model.seq_towers) > 1 else next(iter(model.seq_towers))


# -- training loop -----------------------------------------------------------------


@dataclass
class TrainResult:
    model: Model
    loss_log: list = field(default_factory=list)
    val_history: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_recall: float = 0.0
    test_metrics: dict = field(default_factory=dict)


def train(cfg, catalog, dataset, progress=None):
    """Train per config with validation-based model selection and early stopping."""
    cfg.validate()
    model = build_model(cfg, catalog)
    optimizer = Adam(model.params(), lr=cfg.train.lr)
    drop_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    result = TrainResult(model=model)
    best_state = model.state()
    sel_key = ensemble_key(model)
    stale = 0
    step = 0
    for epoch in range(cfg.train.epochs):
        for batch in make_batches(
            dataset, cfg.train.batch_size, seed=[cfg.seed, 2, epoch],
            sample_cut=cfg.train.sample_cut,
        ):
            try:
                total, report = step_loss(
                    model, batch, dataset.pop, epoch,
                    drop=cfg.model.dropout, drop_rng=drop_rng,
                )
                total.backward()
            except nm.NonFiniteError as e:
                raise RuntimeError(
                    f"training diverged at epoch {epoch} step {step}: {e}"
                ) from e
            optimizer.step()
            optimizer.zero_grad()
            row = {"step": step, "epoch": epoch, "ramp_w": report.ramp_w,
                   "total": report.total, "ce_row_mean": report.ce_row_mean,
                   "kl_row_mean": report.kl_row_mean}
            for m in ("v", "t", "id", "ensemble", "fused"):
                row[f"ce_{m}"] = report.ce.get(m, 0.0)
                row[f"kl_{m}"] = report.kl.get(m, 0.0)
            result.loss_log.append(row)
            step += 1
        val = evaluate(
            model, catalog, dataset, split="val", ks=cfg.eval.ks,
            n_groups=0, user_limit=cfg.eval.val_users,
        )
        recall10 = val["branches"][sel_key].get("recall@10")
        if recall10 is None:
            recall10 = val["branches"][sel_key][f"recall@{cfg.eval.ks[0]}"]
        result.val_history.append({"epoch": epoch, "recall@10": recall10})
        if progress:
            progress(epoch, recall10, result.loss_log[-1]["total"])
        if recall10 > result.best_val_recall:
            result.best_val_recall = recall10
            result.best_epoch = epoch
            best_state = model.state()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.train.patience:
                break
    model.load_state(best_state)
    if cfg.train.epochs > 0:
        result.test_metrics = evaluate(
            model, catalog, dataset, split="test", ks=cfg.eval.ks,
            n_groups=cfg.eval.groups,
        )
    return result


# -- ablation matrix ----------------------------------------------------------------


# Each ablation variant as `section.key=value` overrides on the base config,
# in the same syntax as `--set`.
ABLATIONS = {
    "full": (),
    "text_init": ("model.id_init=text",),
    "image_init": ("model.id_init=image",),
    "random_init": ("model.id_init=random",),
    "no_id_mask": ("model.id_mask=false",),
    "separate_fst_2": ("model.fst=separate", "model.item_layers=2"),
    "separate_fst_1": ("model.fst=separate", "model.item_layers=1"),
    "no_distill": ("train.fusion=late", "distill.enabled=false"),
    "no_id": ("model.branches=v,t",),
}
ABLATION_VARIANTS = tuple(ABLATIONS)


def ablation_config(base, variant):
    """A validated copy of `base` with the variant's overrides applied."""
    if variant not in ABLATIONS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    cfg = base.copy()
    for setting in ABLATIONS[variant]:
        apply_setting(cfg, *setting.split("=", 1))
    return cfg.validate()


def run_ablation_matrix(base_cfg, catalog, dataset, variants=ABLATION_VARIANTS,
                        progress=None):
    """Train every ablation variant on shared data/seed; return metric rows."""
    rows = []
    for variant in variants:
        cfg = ablation_config(base_cfg, variant)
        result = train(cfg, catalog, dataset)
        key = ensemble_key(result.model)
        row = {"variant": variant}
        row.update(result.test_metrics["branches"][key])
        rows.append(row)
        if progress:
            progress(variant, row)
    return rows


# -- artifacts ------------------------------------------------------------------------


def save_checkpoint(path, model):
    np.savez(path, **model.state())


def load_checkpoint(path, model):
    with np.load(path) as data:
        model.load_state({k: data[k] for k in data.files})


def write_metrics_json(path, report):
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def write_loss_csv(path, loss_log):
    import csv

    cols = ["step", "epoch", "ce_v", "ce_t", "ce_id", "ce_ensemble", "ce_fused",
            "kl_v", "kl_t", "kl_id", "ramp_w", "total", "ce_row_mean", "kl_row_mean"]
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=cols, extrasaction="ignore")
        w.writeheader()
        for row in loss_log:
            w.writerow(row)


def write_popularity_csv(path, report, ks):
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = ["group", "user_count", "branch"]
        for k in ks:
            header += [f"recall@{k}", f"ndcg@{k}"]
        w.writerow(header)
        for g in sorted(report.get("groups", {}), key=int):
            entry = report["groups"][g]
            for branch, metrics in sorted(entry["branches"].items()):
                row = [g, entry["user_count"], branch]
                for k in ks:
                    row += [metrics[f"recall@{k}"], metrics[f"ndcg@{k}"]]
                w.writerow(row)
