import warnings

import numpy as np
import pytest

from conftest import reference_exclusion_mask
from modrec import losses, numerics as nm
from modrec.losses import (
    collaborative_ce,
    debiased_scores,
    distill_bundle,
    distill_kl,
    ensemble_logits,
    exclusion_mask,
    inbatch_ce,
    ramp_weight,
    total_loss,
)
from modrec.numerics import MASKED, Parameter, Tensor


def T(x):
    return Tensor(np.asarray(x, dtype=np.float64))


# -- debiased scores --------------------------------------------------------------


def test_debias_hand_example():
    users = T([[1.0, 0.0]])
    items = T([[2.0, 0.0], [0.0, 3.0]])
    out = debiased_scores(users, items, pop=[1, 10])
    np.testing.assert_allclose(out.data, [[2.0, -np.log(10.0)]], atol=1e-12)


def test_debias_zero_popularity_gets_no_correction():
    users = T([[1.0]])
    items = T([[1.0], [1.0]])
    out = debiased_scores(users, items, pop=[0, 1])
    np.testing.assert_array_equal(out.data, [[1.0, 1.0]])


def test_debias_preserves_ranking_under_uniform_popularity():
    rng = np.random.default_rng(0)
    users, items = T(rng.normal(size=(4, 6))), T(rng.normal(size=(9, 6)))
    raw = debiased_scores(users, items, pop=np.ones(9)).data
    shifted = debiased_scores(users, items, pop=np.full(9, 50)).data
    np.testing.assert_array_equal(np.argsort(-raw, axis=1), np.argsort(-shifted, axis=1))


def test_debias_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        debiased_scores(T(np.zeros((2, 3))), T(np.zeros((4, 5))), pop=np.ones(4))


# -- in-batch cross entropy -------------------------------------------------------


def test_ce_two_candidate_hand_value():
    loss = inbatch_ce(T([[2.0, 0.0]]), [0])
    # -ln(e^2 / (e^2 + e^0))
    assert abs(loss.item() - np.log(1.0 + np.exp(-2.0))) < 1e-12
    assert abs(loss.item() - 0.1269) < 1e-3


def test_ce_uniform_scores_give_log_candidate_count():
    loss = inbatch_ce(T([[0.7, 0.7, 0.7, 0.7]]), [2])
    assert abs(loss.item() - np.log(4.0)) < 1e-10


def test_ce_sums_over_rows():
    scores = T([[2.0, 0.0], [2.0, 0.0]])
    one = inbatch_ce(T([[2.0, 0.0]]), [0]).item()
    assert abs(inbatch_ce(scores, [0, 0]).item() - 2.0 * one) < 1e-12


def test_ce_shift_invariance():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(3, 5))
    a = inbatch_ce(T(raw), [1, 4, 0]).item()
    b = inbatch_ce(T(raw + 123.0), [1, 4, 0]).item()
    assert abs(a - b) < 1e-10


def test_exclusion_mask_layout_and_target_protection():
    mask = exclusion_mask([{7}, {5, 9}], candidates=[5, 7, 9], target_cols=[0, 2])
    assert mask[0, 1] == MASKED and mask[0, 0] == 0.0 and mask[0, 2] == 0.0
    # row 1 excludes 5 and 9, but 9 is its own target and stays visible
    assert mask[1, 0] == MASKED and mask[1, 2] == 0.0
    # items outside the candidate list are ignored
    mask2 = exclusion_mask([{42}], candidates=[5, 7, 9], target_cols=[0])
    assert np.all(mask2 == 0.0)


def test_exclusion_mask_matches_the_reference_on_random_instances():
    """Targets inside their own history, history items outside the candidate
    set, duplicate items, sets and lists; the collapsed-row warning too."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        n_items, b = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        candidates = np.unique(rng.integers(0, n_items, size=int(rng.integers(1, 12))))
        target_cols = rng.integers(0, candidates.size, size=b)
        exclusion_sets = []
        for i in range(b):
            excl = rng.integers(0, n_items, size=int(rng.integers(0, 8))).tolist()
            if rng.random() < 0.3:
                excl.append(int(candidates[target_cols[i]]))
            exclusion_sets.append(set(excl) if rng.random() < 0.5 else excl)
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = exclusion_mask(exclusion_sets, candidates.tolist(), target_cols)
        with warnings.catch_warnings(record=True) as ref_warned:
            warnings.simplefilter("always")
            want = reference_exclusion_mask(exclusion_sets, candidates.tolist(), target_cols)
        np.testing.assert_array_equal(got, want)
        assert [str(w.message) for w in got_warned] == [str(w.message) for w in ref_warned]


def test_excluded_columns_change_loss_by_exactly_zero():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(4, 6))
    mask = np.zeros((4, 6))
    mask[0, 3] = mask[2, 1] = mask[2, 5] = MASKED
    targets = [0, 1, 2, 3]
    base = inbatch_ce(nm.add(T(raw), Tensor(mask)), targets).item()
    bumped = raw.copy()
    bumped[0, 3] += 1e6
    bumped[2, 1] -= 1e6
    bumped[2, 5] += 3.0
    assert inbatch_ce(nm.add(T(bumped), Tensor(mask)), targets).item() == base


def test_excluding_a_strong_negative_lowers_the_loss():
    raw = T([[1.0, 5.0, 0.0]])
    mask = np.zeros((1, 3))
    mask[0, 1] = MASKED
    assert inbatch_ce(nm.add(raw, Tensor(mask)), [0]).item() < inbatch_ce(raw, [0]).item()


def test_row_collapsed_to_target_warns():
    with pytest.warns(UserWarning, match="collapsed"):
        mask = exclusion_mask([{7}], candidates=[5, 7], target_cols=[0])
    np.testing.assert_array_equal(mask, [[0.0, MASKED]])
    loss = inbatch_ce(nm.add(T([[3.0, 1.0]]), Tensor(mask)), [0])
    assert abs(loss.item()) < 1e-12


def test_collaborative_ce_is_per_branch_independent():
    rng = np.random.default_rng(3)
    logits = {"v": T(rng.normal(size=(2, 4))), "id": T(rng.normal(size=(2, 4)))}
    out = collaborative_ce(logits, [0, 1])
    for m in logits:
        assert out[m].item() == inbatch_ce(logits[m], [0, 1]).item()


def test_ensemble_is_arithmetic_mean():
    a, b = T([[2.0, 4.0]]), T([[0.0, 0.0]])
    np.testing.assert_array_equal(ensemble_logits({"v": a, "t": b}).data, [[1.0, 2.0]])


# -- distillation -----------------------------------------------------------------


def test_kl_self_distillation_is_zero():
    z = T(np.random.default_rng(4).normal(size=(3, 5)))
    assert abs(distill_kl(z, z, 0.5).item()) < 1e-12


def test_kl_hand_value_opposed_logits():
    val = distill_kl(T([[1.0, 0.0]]), T([[0.0, 1.0]]), 1.0).item()
    assert abs(val - 0.4622) < 1e-3


def test_kl_is_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t, s = T(rng.normal(size=(2, 6))), T(rng.normal(size=(2, 6)))
        assert distill_kl(t, s, 0.5).item() >= 0.0


def test_kl_softening_with_temperature():
    t, s = T([[1.0, 0.0]]), T([[0.0, 1.0]])
    # T^2-scaled KL grows with T toward its diffuse limit of 0.5 here
    assert distill_kl(t, s, 0.1).item() < distill_kl(t, s, 1.0).item() < 0.5


def test_kl_teacher_is_detached():
    rng = np.random.default_rng(6)
    teacher = Parameter(rng.normal(size=(2, 4)), "teacher")
    student = Parameter(rng.normal(size=(2, 4)), "student")
    distill_kl(teacher, student, 0.5).backward()
    np.testing.assert_array_equal(teacher.grad, np.zeros((2, 4)))
    assert np.any(student.grad != 0.0)


def test_kl_rejects_bad_temperature():
    z = T([[0.0, 1.0]])
    with pytest.raises(ValueError):
        distill_kl(z, z, 0.0)


def test_bundle_id_teaches_modalities_and_ensemble_teaches_id():
    rng = np.random.default_rng(7)
    logits = {m: T(rng.normal(size=(2, 5))) for m in ("v", "t", "id")}
    out = distill_bundle(logits, 0.5)
    assert set(out) == {"v", "t", "id"}
    for m in ("v", "t"):
        assert out[m].item() == distill_kl(logits["id"], logits[m], 0.5).item()
    ens = ensemble_logits(logits)
    assert out["id"].item() == distill_kl(ens, logits["id"], 0.5).item()


def test_bundle_id_loss_vanishes_when_branches_agree():
    z = T(np.random.default_rng(8).normal(size=(2, 5)))
    out = distill_bundle({"v": z, "t": z, "id": z}, 0.5)
    for m in out:
        assert abs(out[m].item()) < 1e-12


def test_bundle_without_id_uses_ensemble_teacher():
    rng = np.random.default_rng(9)
    logits = {"v": T(rng.normal(size=(2, 5))), "t": T(rng.normal(size=(2, 5)))}
    out = distill_bundle(logits, 0.5)
    ens = ensemble_logits(logits)
    for m in ("v", "t"):
        assert out[m].item() == distill_kl(ens, logits[m], 0.5).item()


# -- ramp-up schedule and the combined objective ------------------------------------


def test_ramp_endpoints_and_midpoint():
    assert ramp_weight(0, 20) == 0.0
    assert ramp_weight(20, 20) == 1.0
    assert ramp_weight(35, 20) == 1.0
    assert abs(ramp_weight(10, 20) - np.exp(-1.25)) < 1e-10


def test_ramp_is_nondecreasing():
    vals = [ramp_weight(e, 20) for e in range(0, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_ramp_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ramp_weight(-1, 20)
    with pytest.raises(ValueError):
        ramp_weight(3, 0)


def test_total_loss_combines_ce_and_weighted_kl():
    ce = {"v": T(2.0), "t": T(3.0)}
    kl = {"v": T(0.5), "t": T(0.25)}
    assert abs(total_loss(ce, kl, 0.5).item() - (5.0 + 0.5 * 0.75)) < 1e-12
    assert abs(total_loss(ce, kl, 0.0).item() - 5.0) < 1e-12
    assert abs(total_loss(ce, {}, 1.0).item() - 5.0) < 1e-12
