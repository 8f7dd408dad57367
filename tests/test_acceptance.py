"""Acceptance gate: one test per shipped guarantee, each printing a PASS/FAIL
line to the real terminal so the verdicts survive output capture."""

import statistics
import sys
import time

import numpy as np
import pytest

from conftest import exclude_items, finite_difference_check, recall_ndcg, tsum
from modrec import datagen, losses as ls, numerics as nm, trainer
from modrec.config import ExperimentConfig
from modrec.datagen import Batch, Catalog
from modrec.item_tower import ItemTower, init_id_table
from modrec.numerics import MASKED, Tensor
from modrec.seq_tower import SelfAttentionSeqTower
from modrec.trainer import ensemble_key, rank_full_catalog


_CAPFD = None


@pytest.fixture(autouse=True)
def _terminal(capfd):
    """Expose capfd so report() can bypass output capture for its verdict line."""
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict}{' - ' if detail else ''}{detail}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def toy_catalog(n_items=4, n_v=2, n_t=2, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return Catalog(
        n_items,
        rng.normal(size=(n_items, n_v + 1, d)),
        rng.normal(size=(n_items, n_t + 1, d)),
        n_v=n_v, n_t=n_t, d_v=d, d_t=d,
    )


def test_criterion_1_full_objective_gradients():
    """End-to-end analytic gradients of the combined objective match central
    finite differences on a 2-user, 4-candidate toy instance in under 10 s."""
    start = time.time()
    cat = toy_catalog()
    rng = np.random.default_rng(1)
    tower = ItemTower(cat, init_id_table(cat, "avg_modal"), d=8, rng=rng)
    seq_towers = {b: SelfAttentionSeqTower(rng, 8, 6, layers=1, heads=2, name=f"s{b}")
                  for b in ("v", "t", "id")}
    prefixes = [[0, 1, 2], [3, 0]]
    targets = np.array([3, 1])
    pop = np.array([5.0, 2.0, 1.0, 0.0])
    excl = ls.exclusion_mask([set(p) for p in prefixes], [0, 1, 2, 3], [3, 1])

    def forward_logits():
        embs = tower.item_embeddings(np.arange(4))
        idx, lengths = trainer._pad_rows(prefixes)
        logits = {}
        for b in ("v", "t", "id"):
            h = seq_towers[b].encode_batch(nm.take_rows(embs[b], idx), lengths)
            logits[b] = nm.add(ls.debiased_scores(h, embs[b], pop), Tensor(excl))
        return logits

    # The distillation teachers are stop-gradients, so the finite-difference
    # oracle must hold them fixed at the base point: that is the function the
    # backward pass actually differentiates.
    base = {b: z.data.copy() for b, z in forward_logits().items()}
    frozen = {
        "v": Tensor(base["id"]),
        "t": Tensor(base["id"]),
        "id": Tensor(np.mean(list(base.values()), axis=0)),
    }

    def build():
        logits = forward_logits()
        ce = ls.collaborative_ce(logits, [3, 1])
        kl = {b: ls.distill_kl(frozen[b], logits[b], 0.5) for b in logits}
        return ls.total_loss(ce, kl, ls.ramp_weight(5, 20))

    # at the base point the frozen-teacher objective equals the training one
    live = ls.total_loss(
        ls.collaborative_ce(forward_logits(), [3, 1]),
        ls.distill_bundle(forward_logits(), temperature=0.5),
        ls.ramp_weight(5, 20),
    )
    assert abs(build().item() - live.item()) < 1e-10

    params = [tower.id_table, tower.proj_v.W, tower.proj_t.b,
              tower.encoders[0].layers[0].wq.W, tower.encoders[0].layers[0].ff1.W,
              tower.head_v.l1.W, tower.head_id.l2.b,
              seq_towers["v"].pos, seq_towers["t"].encoder.layers[0].wv.W,
              seq_towers["id"].encoder.layers[0].ln1_g]
    finite_difference_check(build, params, h=1e-5, rtol=1e-4, max_coords=6)
    elapsed = time.time() - start
    report(1, elapsed < 10.0, f"gradient suite ok in {elapsed:.1f}s")


def test_criterion_2_id_isolation_is_exact():
    """Modality outputs are bit-identical under ID perturbations when masked,
    their gradients toward the ID inputs are exactly zero, and disabling the
    mask breaks the isolation."""
    cat = toy_catalog(n_items=6, seed=2)
    rng = np.random.default_rng(3)
    masked = ItemTower(cat, init_id_table(cat, "random", seed=1), d=8,
                       rng=rng, id_mask=True)
    idx = np.arange(6)
    before = masked.item_embeddings(idx)
    masked.id_table.data += np.random.default_rng(4).normal(size=masked.id_table.shape)
    after = masked.item_embeddings(idx)
    exact = (np.array_equal(before["v"].data, after["v"].data)
             and np.array_equal(before["t"].data, after["t"].data))

    out = masked.item_embeddings(idx)
    tsum(nm.add(out["v"], out["t"])).backward()
    zero_grad = (np.all(masked.id_table.grad == 0.0)
                 and np.all(masked.proj_id.W.grad == 0.0))

    unmasked = ItemTower(cat, init_id_table(cat, "random", seed=1), d=8,
                         rng=np.random.default_rng(3), id_mask=False)
    b2 = unmasked.item_embeddings(idx)
    unmasked.id_table.data += 1.0
    a2 = unmasked.item_embeddings(idx)
    leaks = not np.array_equal(b2["v"].data, a2["v"].data)

    report(2, exact and zero_grad and leaks,
           "masked outputs exact, gradients zero, unmasked variant leaks")


def test_criterion_3_loss_analytics():
    z = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
    self_kl = abs(ls.distill_kl(z, z, 0.5).item())
    opposed = ls.distill_kl(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), 1.0).item()
    uniform = ls.inbatch_ce(Tensor([[0.3, 0.3, 0.3, 0.3]]), [1]).item()
    ok = (
        self_kl < 1e-12
        and abs(opposed - 0.4622) < 1e-3
        and abs(uniform - np.log(4.0)) < 1e-10
        and ls.ramp_weight(0, 20) == 0.0
        and ls.ramp_weight(20, 20) == 1.0
        and abs(ls.ramp_weight(10, 20) - np.exp(-1.25)) < 1e-10
    )
    report(3, ok, f"self-KL {self_kl:.1e}, opposed {opposed:.4f}, uniform CE {uniform:.6f}")


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(6)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(3, 30))
        scores = rng.integers(0, 5, size=n).astype(float)
        excl = set(rng.choice(n, size=int(rng.integers(0, n - 1)), replace=False).tolist())
        target = int(rng.choice([i for i in range(n) if i not in excl]))
        ordered = sorted((i for i in range(n) if i not in excl),
                         key=lambda i: (-scores[i], i))
        rank = rank_full_catalog(exclude_items(scores, excl), target)
        k = int(rng.integers(1, n + 1))
        recall, ndcg = recall_ndcg(rank, k)
        oracle_recall = float(target in ordered[:k])
        oracle_ndcg = 1.0 / np.log2(ordered.index(target) + 2.0) if oracle_recall else 0.0
        # the program's metrics for this one user
        got = trainer._metrics_for_ranks(np.array([rank]), [k])
        if (rank != ordered.index(target) + 1 or recall != oracle_recall or ndcg != oracle_ndcg
                or (got[f"recall@{k}"], got[f"ndcg@{k}"]) != (recall, ndcg)):
            mismatches += 1
    spot = recall_ndcg(1, 10) == (1.0, 1.0) and recall_ndcg(3, 10)[1] == 0.5
    report(4, mismatches == 0 and spot, f"{mismatches}/1000 oracle mismatches")


# -- directional end-to-end runs (shared by criteria 5 and 6) -----------------------

SEEDS = (0, 1, 2)


def _run(variant, seed):
    cfg = ExperimentConfig()
    cfg.seed = seed
    cfg.train.epochs = 15
    cfg.distill.alpha = 10
    cfg.eval.val_users = 1000
    cfg.eval.ks = [10]
    if variant == "late":
        cfg.train.fusion = "late"
        cfg.distill.enabled = False
    elif variant == "id_only":
        cfg.model.branches = "id"
    catalog, dataset = datagen.generate_synthetic(seed=seed)
    start = time.time()
    result = trainer.train(cfg, catalog, dataset)
    elapsed = time.time() - start
    key = ensemble_key(result.model)
    m = result.test_metrics
    return {
        "recall": m["branches"][key]["recall@10"],
        "g0_recall": m["groups"]["0"]["branches"][key]["recall@10"],
        "g0_users": m["groups"]["0"]["user_count"],
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def directional_runs():
    return {
        variant: [_run(variant, seed) for seed in SEEDS]
        for variant in ("full", "late", "id_only")
    }


@pytest.mark.slow
def test_criterion_5_directional_ordering(directional_runs):
    med = {v: statistics.median(r["recall"] for r in runs)
           for v, runs in directional_runs.items()}
    slowest = max(r["elapsed"] for runs in directional_runs.values() for r in runs)
    a = med["full"] >= 1.2 * med["id_only"]
    b = med["full"] >= med["late"]
    c = med["late"] < med["full"]
    ok = slowest < 600.0 and a and b and c
    verdicts = " ".join(f"{p}={'pass' if v else 'fail'}"
                        for p, v in (("a", a), ("b", b), ("c", c)))
    report(5, ok,
           f"median R@10 full {med['full']:.4f}, late {med['late']:.4f}, "
           f"id-only {med['id_only']:.4f}; {verdicts}; slowest run {slowest:.0f}s")


@pytest.mark.slow
def test_criterion_6_cold_start_direction(directional_runs):
    id_g0 = statistics.median(r["g0_recall"] for r in directional_runs["id_only"])
    full_g0 = statistics.median(r["g0_recall"] for r in directional_runs["full"])
    users = min(r["g0_users"] for r in directional_runs["full"])
    ok = users > 0 and id_g0 <= 0.01 and full_g0 > id_g0
    report(6, ok,
           f"group-0 R@10 id-only {id_g0:.4f}, full {full_g0:.4f} ({users}+ cold users)")


def test_criterion_7_metrics_are_byte_deterministic(tmp_path, monkeypatch):
    from modrec.cli import main

    monkeypatch.setenv("MODREC_OUT", str(tmp_path))
    args = ["--set", "data.n_items=150", "--set", "data.n_users=150",
            "--set", "data.n_clusters=8", "--set", "data.n_v=2",
            "--set", "data.n_t=2", "--set", "data.d_v=16", "--set", "data.d_t=16",
            "--set", "model.d=16", "--set", "model.item_layers=1",
            "--set", "model.seq_layers=1", "--set", "train.epochs=2",
            "--set", "train.batch_size=32", "--set", "eval.ks=[10]",
            "--set", "eval.groups=2", "--set", "seed=11"]
    assert main(["train", "--out", str(tmp_path / "a"), *args]) == 0
    assert main(["train", "--out", str(tmp_path / "b"), *args]) == 0
    a = (tmp_path / "a" / "metrics.json").read_bytes()
    b = (tmp_path / "b" / "metrics.json").read_bytes()
    report(7, a == b, f"metrics.json identical across reruns ({len(a)} bytes)")


def test_criterion_8_exclusion_changes_loss_by_exactly_zero():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(5, 7))
    mask = np.zeros((5, 7))
    for i, j in ((0, 2), (1, 5), (3, 0), (3, 6), (4, 1)):
        mask[i, j] = MASKED
    targets = [1, 2, 3, 4, 5]
    base = ls.inbatch_ce(nm.add(Tensor(raw), Tensor(mask)), targets).item()
    bumped = raw.copy()
    bumped[mask == MASKED] += rng.normal(size=5) * 1e8
    delta = ls.inbatch_ce(nm.add(Tensor(bumped), Tensor(mask)), targets).item() - base
    report(8, delta == 0.0, f"loss delta {delta!r} under excluded-column perturbation")
