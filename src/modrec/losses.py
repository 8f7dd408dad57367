"""Training objectives: debiased in-batch softmax CE, per-branch collaborative
CE, temperature-scaled KL distillation with an ensemble teacher, and the
ramp-up schedule combining them."""

from __future__ import annotations

import functools
import itertools
import warnings

import numpy as np

from . import numerics as nm
from .numerics import MASKED, Tensor


def _sum(terms):
    """Left-to-right sum of tensors: ((t0 + t1) + t2) + ..."""
    return functools.reduce(nm.add, terms)


def debiased_scores(user_vecs, item_vecs, pop):
    """score[b, c] = dot(H_b, D_c) - ln(max(pop_c, 1))."""
    if user_vecs.shape[-1] != item_vecs.shape[-1]:
        raise ValueError(
            f"dim mismatch: users {user_vecs.shape} vs items {item_vecs.shape}"
        )
    pop = np.asarray(pop, dtype=np.float64)
    correction = np.log(np.maximum(pop, 1.0))
    return nm.linear(user_vecs, nm.permute(item_vecs, (1, 0)), Tensor(-correction))


def exclusion_mask(exclusion_sets, candidates, target_cols):
    """Additive (B, C) mask blocking each row's false-negative columns.

    A row's own target column is always kept visible, even when the target
    item also occurs in that row's history. Warns when a row then sees at
    most one column: its CE is exactly 0.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    sizes = [len(excl) for excl in exclusion_sets]
    items = np.fromiter(itertools.chain.from_iterable(exclusion_sets), dtype=np.int64,
                        count=sum(sizes))
    rows = np.repeat(np.arange(len(exclusion_sets)), sizes)
    # item -> candidate column; -1 for items outside the candidates
    col_of = np.full(max(items.max(initial=0), candidates.max(initial=0)) + 1, -1)
    col_of[candidates] = np.arange(candidates.size)
    cols = col_of[items]
    keep = (cols >= 0) & (cols != np.asarray(target_cols)[rows])
    mask = np.zeros((len(exclusion_sets), candidates.size))
    mask[rows[keep], cols[keep]] = MASKED
    if np.any((mask == 0.0).sum(axis=1) <= 1):
        warnings.warn("row candidate set collapsed to the target alone (loss 0)")
    return mask


def inbatch_ce(scores, target_cols):
    """Row-summed softmax CE over each row's columns. Scores already masked
    with `exclusion_mask` leave out each row's false negatives."""
    return nm.softmax_ce(scores, target_cols)


def collaborative_ce(branch_logits, target_cols):
    """Independent in-batch CE per branch over already-masked logits."""
    return {m: inbatch_ce(z, target_cols) for m, z in branch_logits.items()}


def ensemble_logits(branch_logits):
    """Arithmetic mean of the branch score matrices."""
    zs = list(branch_logits.values())
    return nm.mul(_sum(zs), 1.0 / len(zs))


def distill_kl(teacher_logits, student_logits, temperature):
    """T^2 * KL(softmax(teacher/T) || softmax(student/T)), averaged over rows.

    The teacher is detached: no gradient flows back into it.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return nm.softmax_kl(teacher_logits, student_logits, temperature)


def distill_bundle(branch_logits, temperature):
    """Per-branch distillation losses.

    With all three branches, the ID logits teach the modality branches and
    the ensemble teaches the ID branch. Without an ID branch, the ensemble
    teaches every remaining branch.
    """
    if "id" in branch_logits and len(branch_logits) > 1:
        z_id = branch_logits["id"]
        out = {
            m: distill_kl(z_id, z, temperature)
            for m, z in branch_logits.items()
            if m != "id"
        }
        out["id"] = distill_kl(ensemble_logits(branch_logits), z_id, temperature)
        return out
    teacher = ensemble_logits(branch_logits)
    return {m: distill_kl(teacher, z, temperature) for m, z in branch_logits.items()}


def ramp_weight(epoch, alpha):
    """Distillation weight: 0 at epoch 0, Gaussian ramp up to 1 at epoch alpha."""
    if epoch < 0:
        raise ValueError(f"epoch must be nonnegative, got {epoch}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if epoch == 0:
        return 0.0
    if epoch >= alpha:
        return 1.0
    frac = epoch / alpha
    return float(np.exp(-5.0 * (1.0 - frac) ** 2))


def total_loss(ce, kl, w):
    """L_total = sum of branch CE + w * sum of branch KL."""
    loss = _sum(ce.values())
    if kl and w > 0.0:
        loss = nm.add(loss, nm.mul(_sum(kl.values()), w))
    return loss
