"""Training loop, ranking evaluation, popularity-group analysis, and the
grid runner behind the ablation matrix and the distillation sweep."""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import losses as ls
from . import numerics as nm
from .blocks import Module
from .config import ExperimentConfig, with_overrides
from .datagen import make_batches
from .item_tower import build_item_tower
from .numerics import Adam, Tensor, no_grad
from .seq_tower import build_seq_tower

EVAL_CHUNK = 256  # users per evaluate() block, and items per catalog-embedding block
LOSS_COLUMNS = ("step", "epoch", "ce_v", "ce_t", "ce_id", "ce_ensemble", "ce_fused",
                "kl_v", "kl_t", "kl_id", "ramp_w", "total", "ce_row_mean", "kl_row_mean")


# -- model container -----------------------------------------------------------


@dataclass
class Model(Module):
    item_tower: object
    seq_towers: dict  # branch (or "fused") -> sequence tower
    cfg: ExperimentConfig

    def item_embeddings(self, idx, drop=0.0, rng=None):
        """Item tower outputs per branch. With a "fused" sequence tower (early
        fusion), also the "fused" pseudo-branch: the mean of the branches."""
        embs = self.item_tower.item_embeddings(idx, drop=drop, rng=rng)
        if "fused" in self.seq_towers:
            embs["fused"] = ls.ensemble_logits({b: embs[b] for b in self.cfg.model.branch_list})
        return embs

    def state(self):
        return {p.name: p.data.copy() for p in self.params()}

    def load_state(self, state, config=None):
        """Check every parameter array of `state`, then load them. `config`,
        the flat config a checkpoint was saved with, must also match this
        model's in seed and every data.* and model.* entry, which fix the
        data and the model."""
        names = {p.name for p in self.params()}
        extra = [name for name in state if name not in names]
        if extra:
            raise ValueError(f"checkpoint holds {len(extra)} parameters this model lacks, "
                             f"first {', '.join(extra[:3])}")
        for p in self.params():
            if p.name not in state:
                raise KeyError(f"checkpoint missing parameter {p.name}")
            if state[p.name].shape != p.data.shape:
                raise ValueError(f"shape mismatch for {p.name}")
            if not np.isfinite(state[p.name]).all():
                raise ValueError(f"non-finite values in parameter {p.name}")
        if config is not None:
            current = json.loads(json.dumps(self.cfg.to_flat()))  # tuples become lists, as saved
            for key, value in current.items():
                saved = config.get(key)
                if (key == "seed" or key.startswith(("data.", "model."))) and saved != value:
                    raise ValueError(f"checkpoint config differs at {key}: "
                                     f"saved {saved!r}, this run {value!r}")
        for p in self.params():
            p.data = state[p.name].copy()


def build_model(cfg, catalog):
    cfg.validate()
    ss = np.random.SeedSequence(cfg.seed)
    init_rng = np.random.default_rng(ss.spawn(1)[0])
    item_tower = build_item_tower(catalog, cfg.model, init_rng, id_init_seed=cfg.seed)
    branches = cfg.model.branch_list
    seq_keys = ("fused",) if cfg.train.fusion == "early" and len(branches) > 1 else branches
    seq_towers = {
        key: build_seq_tower(cfg.model, init_rng, key, cfg.data.max_len) for key in seq_keys
    }
    model = Model(item_tower, seq_towers, cfg)
    names = [p.name for p in model.params()]
    if len(names) != len(set(names)):
        raise ValueError("parameter names must be unique across towers")
    return model


# -- batching helpers ------------------------------------------------------------


def _pad_rows(rows):
    """Right-pad item-id rows with 0 to a (B, T) index matrix plus real lengths."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    idx = np.zeros((len(rows), int(lengths.max())), dtype=np.int64)
    idx[np.arange(idx.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    return idx, lengths


def _user_vecs(model, embs, idx_mat, lengths, drop=0.0, rng=None):
    """Per sequence tower, the (B, d) user vectors of the padded prefix rows
    `idx_mat`, whose entries index the rows of `embs[key]`."""
    return {
        key: tower.encode_batch(nm.take_rows(embs[key], idx_mat), lengths, drop=drop, rng=rng)
        for key, tower in model.seq_towers.items()
    }


def _branch_logits(model, batch, pop, drop=0.0, drop_rng=None):
    """Forward pass producing masked (B, C) logits per scoring branch."""
    # Item embeddings are computed once per distinct item of the batch. Padding
    # (item 0) maps to row 0 whether or not item 0 occurs in the batch.
    uniq = np.unique(np.concatenate(batch.prefixes + [batch.targets]))
    embs = model.item_embeddings(uniq, drop=drop, rng=drop_rng)
    candidates = np.unique(batch.targets)
    cand_rows = np.searchsorted(uniq, candidates)
    target_cols = np.searchsorted(candidates, batch.targets)
    excl = Tensor(ls.exclusion_mask(batch.exclusion_sets, candidates.tolist(), target_cols))
    idx_mat, lengths = _pad_rows(batch.prefixes)
    vecs = _user_vecs(model, embs, np.searchsorted(uniq, idx_mat), lengths, drop, drop_rng)
    logits = {
        key: nm.add(ls.debiased_scores(h, nm.take_rows(embs[key], cand_rows), pop[candidates]),
                    excl)
        for key, h in vecs.items()
    }
    return logits, target_cols


def step_loss(model, batch, pop, epoch, drop=0.0, drop_rng=None):
    """Full loss for one batch under the configured fusion / distillation mode:
    the total as a Tensor, and its `LOSS_COLUMNS` row without step and epoch
    (totals follow total = ce + ramp_w * kl)."""
    cfg = model.cfg
    logits, target_cols = _branch_logits(model, batch, pop, drop=drop, drop_rng=drop_rng)
    if cfg.train.fusion == "late" and len(logits) > 1:
        ce = {"ensemble": ls.inbatch_ce(ls.ensemble_logits(logits), target_cols)}
    else:
        ce = ls.collaborative_ce(logits, target_cols)
    kl = {}
    w = 0.0
    if (
        cfg.distill.enabled
        and cfg.train.fusion == "collaborative"
        and len(logits) > 1
    ):
        w = ls.ramp_weight(epoch, cfg.distill.alpha)
        kl = ls.distill_bundle(logits, cfg.distill.T)
    total = ls.total_loss(ce, kl, w)
    ce = {f"ce_{m}": v.item() for m, v in ce.items()}
    kl = {f"kl_{m}": v.item() for m, v in kl.items()}
    row = dict.fromkeys(LOSS_COLUMNS[2:], 0.0)
    # ce_row_mean is the combined CE per row, comparable across batch sizes
    row.update(ce, **kl, ramp_w=w, total=total.item(),
               ce_row_mean=sum(ce.values()) / len(batch.prefixes), kl_row_mean=sum(kl.values()))
    return total, row


# -- metrics ----------------------------------------------------------------------


def rank_full_catalog(scores, target):
    """1-based rank of `target` in the descending ranking of one catalog
    score row whose excluded items hold -inf; ties break by ascending item
    index. The row must hold no other non-finite value."""
    s_t = scores[target]
    if not math.isfinite(s_t):
        raise ValueError(f"target score {s_t}: the target is excluded or its score is not finite")
    # ahead of the target: a lower index scoring at least s_t, or a higher one above it
    return 1 + int(np.count_nonzero(scores[:target] >= s_t)
                   + np.count_nonzero(scores[target + 1 :] > s_t))


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


def _all_item_embeddings(model, n_items):
    """Catalog-wide item embeddings for each sequence tower's key."""
    out = {key: [] for key in model.seq_towers}
    with no_grad():
        for start in range(0, n_items, EVAL_CHUNK):
            embs = model.item_embeddings(np.arange(start, min(start + EVAL_CHUNK, n_items)))
            for key, parts in out.items():
                parts.append(embs[key].data)
    return {key: np.concatenate(parts, axis=0) for key, parts in out.items()}


def evaluate(model, catalog, dataset, split="test", ks=(10, 20), n_groups=8, user_limit=0):
    """Full-catalog ranking metrics per branch and for the ensemble.

    split="val": input = train prefix, target = val item.
    split="test": input = prefix + val item, target = test item.
    Every item of the input other than the target is excluded from the ranking.
    Per chunk of users, each key's score matrix in turn (the ensemble's last,
    a running sum of the branches') is checked, set to -inf at the excluded
    pairs, ranked row by row by `rank_full_catalog`, and dropped: at most two
    are live. A non-finite score raises `NonFiniteError` naming its key.
    """
    if split not in ("val", "test"):
        raise ValueError(f"split must be val or test, got {split!r}")
    item_embs = _all_item_embeddings(model, catalog.n_items)

    users = range(dataset.n_users)[: user_limit or None]
    if split == "val":
        rows, targets = [dataset.train[u] for u in users], dataset.val[users]
    else:
        rows = [dataset.train[u] + [int(dataset.val[u])] for u in users]
        targets = dataset.test[users]
    idx_mat, lengths = _pad_rows(rows)
    # the excluded (user, item) pairs, in user order: every item of the input
    # row other than the target
    pair_users, pos = np.nonzero((np.arange(idx_mat.shape[1]) < lengths[:, None])
                                 & (idx_mat != targets[:, None]))
    pair_items = idx_mat[pair_users, pos]
    target_groups = popularity_groups(dataset.pop, n_groups)[targets] if n_groups else None

    score_keys = list(model.seq_towers.keys())
    report_keys = score_keys + (["ensemble"] if len(score_keys) > 1 else [])
    ranks = {key: np.zeros(len(users), dtype=np.int64) for key in report_keys}

    for start in range(0, len(users), EVAL_CHUNK):
        stop = min(start + EVAL_CHUNK, len(users))
        chunk_lengths = lengths[start:stop]
        with no_grad():
            vecs = _user_vecs(model, item_embs, idx_mat[start:stop, : chunk_lengths.max()],
                              chunk_lengths)
        lo, hi = np.searchsorted(pair_users, (start, stop))
        excluded = (pair_users[lo:hi] - start, pair_items[lo:hi])
        chunk_targets = targets[start:stop].tolist()
        ensemble = None
        for key in report_keys:
            if key == "ensemble":  # ls.ensemble_logits' arithmetic: ((s0 + s1) + s2) * (1/n)
                scores = ensemble
                scores *= 1.0 / len(score_keys)
            else:  # the ensemble sums the unmasked matrices in tower order
                scores = vecs[key].data @ item_embs[key].T
                if ensemble is not None:
                    ensemble += scores
                elif len(score_keys) > 1:
                    ensemble = scores.copy()
            # checked before masking, so that -inf can only mean "excluded"
            if not np.isfinite(scores).all():
                raise nm.NonFiniteError(f"non-finite {key} scores")
            scores[excluded] = -np.inf
            ranks[key][start:stop] = [rank_full_catalog(score_row, t)
                                      for score_row, t in zip(scores, chunk_targets)]
            del scores  # so that the next key's matrix is not the third one live

    return _metrics_report(ranks, target_groups, ks, n_groups)


def _metrics_for_ranks(ranks, ks):
    out = {}
    for k in ks:
        hits = ranks <= k
        out[f"recall@{k}"] = float(hits.mean()) if ranks.size else 0.0
        ndcg = np.where(hits, 1.0 / np.log2(ranks + 1.0), 0.0)
        out[f"ndcg@{k}"] = float(ndcg.mean()) if ranks.size else 0.0
    return out


def _metrics_report(ranks, target_groups, ks, n_groups):
    report = {
        "branches": {key: _metrics_for_ranks(r, ks) for key, r in ranks.items()},
        "n_users": int(next(iter(ranks.values())).size),
    }
    if n_groups:
        groups = {}
        for g in range(n_groups + 1):
            sel = target_groups == g
            groups[str(g)] = {
                "user_count": int(sel.sum()),
                "branches": {
                    key: _metrics_for_ranks(r[sel], ks) for key, r in ranks.items()
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
    model = build_model(cfg, catalog)
    optimizer = Adam(model.params(), lr=cfg.train.lr)
    drop_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    result = TrainResult(model=model)
    best_state = model.state()
    sel_key = ensemble_key(model)
    sel_metric = f"recall@{10 if 10 in cfg.eval.ks else cfg.eval.ks[0]}"
    stale = 0
    step = 0
    for epoch in range(cfg.train.epochs):
        for batch in make_batches(dataset, cfg.train.batch_size, seed=[cfg.seed, 2, epoch]):
            try:
                total, row = step_loss(
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
            result.loss_log.append({"step": step, "epoch": epoch, **row})
            step += 1
        val = evaluate(
            model, catalog, dataset, split="val", ks=cfg.eval.ks,
            n_groups=0, user_limit=cfg.eval.val_users,
        )
        recall = val["branches"][sel_key][sel_metric]
        result.val_history.append({"epoch": epoch, sel_metric: recall})
        if progress:
            progress(epoch, sel_metric, recall, result.loss_log[-1]["total"])
        if recall > result.best_val_recall:
            result.best_val_recall = recall
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


def ablation_config(base, variant):
    """A validated copy of `base` with the variant's overrides applied."""
    if variant not in ABLATIONS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    return with_overrides(base, ABLATIONS[variant])


def run_grid(cells, catalog, dataset, progress=None):
    """Train each (labels, validated config) cell on shared data; one row per
    cell: its labels, then every ensemble test metric."""
    rows = []
    for labels, cfg in cells:
        result = train(cfg, catalog, dataset)
        rows.append({**labels, **result.test_metrics["branches"][ensemble_key(result.model)]})
        if progress:
            progress(rows[-1])
    return rows


# -- artifacts ------------------------------------------------------------------------


CONFIG_KEY = "__config__"  # checkpoint entry holding the flat config as JSON


def save_checkpoint(path, model):
    """The parameters, plus the flat config as JSON under CONFIG_KEY."""
    np.savez(path, **model.state(), **{CONFIG_KEY: json.dumps(model.cfg.to_flat())})


def load_checkpoint(path, model):
    """Load a checkpoint into model (`Model.load_state`), checked against its
    saved config; a parameters-only checkpoint, as written before configs
    were saved, loads unchecked."""
    with np.load(path) as data:
        state = {k: data[k] for k in data.files}
    config = state.pop(CONFIG_KEY, None)
    model.load_state(state, None if config is None else json.loads(config.item()))


def write_metrics_json(path, report):
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def write_loss_csv(path, loss_log):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=LOSS_COLUMNS)
        w.writeheader()
        for row in loss_log:
            w.writerow(row)


def write_popularity_csv(path, report, ks):
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
