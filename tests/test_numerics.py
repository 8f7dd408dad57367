import contextlib
import inspect
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (finite_difference_check, matmul, powc, sigmoid, tanh,
                      unrolled_gru_layer)
from modrec import losses as ls
from modrec import numerics as nm
from modrec import trainer
from modrec.blocks import TransformerLayer
from modrec.config import ExperimentConfig, with_overrides
from modrec.datagen import make_batches
from modrec.numerics import Adam, MASKED, NonFiniteError, Parameter, Tensor
from modrec.seq_tower import GruSeqTower


def _param(rng, shape, name):
    return Parameter(rng.normal(size=shape), name)


def _causal(length):
    return np.triu(np.full((length, length), MASKED), k=1)


def _swap_last(t):
    """t with its last two axes swapped, by permute."""
    nd = len(t.shape)
    return nm.permute(t, (*range(nd - 2), nd - 1, nd - 2))


# -- primitive gradients vs finite differences ---------------------------------


PRIMITIVES = {
    "add": lambda a, b: nm.add(a, b),
    "sub": lambda a, b: nm.sub(a, b),
    "mul": lambda a, b: nm.mul(a, b),
    "softmax": lambda a, b: nm.mul(nm.softmax(a), b),
    "logsumexp": lambda a, b: nm.logsumexp(nm.mul(a, b), axis=-1, keepdims=True),
    # reference ops from conftest, which the chains below are built from
    "matmul": lambda a, b: matmul(a, _swap_last(b)),
    "tanh": lambda a, b: tanh(nm.mul(a, b)),
    "sigmoid": lambda a, b: sigmoid(nm.add(a, b)),
    "leaky_relu": lambda a, b: nm.leaky_relu(a, 0.01),
    "powc": lambda a, b: powc(nm.add(nm.mul(a, a), 0.5), -0.5),
    "concat": lambda a, b: nm.concat([a, b], axis=1),
    "permute": lambda a, b: nm.permute(nm.reshape(a, (2, 5, 3)), (1, 0, 2)),
    "mean": lambda a, b: nm.tmean(nm.mul(a, b), axis=0),
    "relu": lambda a, b: nm.relu(a),
    "log_softmax": lambda a, b: nm.log_softmax(nm.mul(a, b), axis=0),
    "tsum": lambda a, b: nm.tsum(nm.mul(a, b), axis=1, keepdims=True),
    "take_rows": lambda a, b: nm.take_rows(a, np.array([[0, 2], [4, 2]])),
    "take_steps": lambda a, b: nm.take_steps(nm.reshape(b, (5, 2, 3)), np.array([1, 0, 0, 1, 1])),
    # R = 2 steps per row, one row reading a step twice
    "take_steps_rows": lambda a, b: nm.take_steps(
        nm.reshape(b, (5, 2, 3)), np.array([[1, 0], [0, 0], [1, 1], [0, 1], [1, 0]])),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(11)
    a = _param(rng, (5, 6), "a")
    b = _param(rng, (5, 6), "b")
    op = PRIMITIVES[name]
    # fixed random weights keep the reduction to a scalar generic
    w = Tensor(rng.normal(size=op(a, b).shape))
    finite_difference_check(lambda: nm.tsum(nm.mul(op(a, b), w)), [a, b])


# Fused ops at the shapes the model uses them. Each entry builds a scalar
# loss over Parameters for finite_difference_check.


def _fused_linear(rng):
    x, W, b = _param(rng, (3, 4, 5), "x"), _param(rng, (5, 6), "W"), _param(rng, (6,), "b")
    w = Tensor(rng.normal(size=(3, 4, 6)))
    return lambda: nm.tsum(nm.mul(nm.linear(x, W, b), w)), [x, W, b]


def _fused_layer_norm(rng):
    x, g, b = _param(rng, (3, 4, 7), "x"), _param(rng, (7,), "g"), _param(rng, (7,), "b")
    w = Tensor(rng.normal(size=(3, 4, 7)))
    return lambda: nm.tsum(nm.mul(nm.layer_norm(x, g, b), w)), [x, g, b]


def _fused_masked_attention(rng):
    q, k, v = (_param(rng, (2, 2, 4, 3), name) for name in "qkv")
    w = Tensor(rng.normal(size=(2, 2, 4, 3)))
    mask = _causal(4)
    return (lambda: nm.tsum(nm.mul(nm.masked_attention(q, k, v, mask, 0.7), w)),
            [q, k, v])


def _fused_dropout(rng):
    x = _param(rng, (4, 6), "x")
    w = Tensor(rng.normal(size=(4, 6)))
    # a fresh generator per build draws the same keep mask every time
    return (lambda: nm.tsum(nm.mul(nm.dropout(x, 0.3, np.random.default_rng(4)), w)),
            [x])


def _gru_weights(rng, d_in, d, make):
    """Wxr, Whr, br, Wxz, Whz, bz, Wxn, Whn, bn, in gru_layer's order."""
    shapes = [(d_in, d), (d, d), (d,)] * 3
    return [make(rng.normal(size=shape), f"w{i}") for i, shape in enumerate(shapes)]


def _fused_gru_layer(rng):
    x = _param(rng, (3, 4, 5), "x")
    weights = _gru_weights(rng, 5, 4, Parameter)
    lengths = np.array([4, 1, 2])
    w = Tensor(rng.normal(size=(3, 4, 4)))
    return (lambda: nm.tsum(nm.mul(nm.gru_layer(x, lengths, *weights), w)),
            [x] + weights)


def _fused_dropout_rows(rng):
    # x holds steps rows of a (4, 5, 3) tensor, as a row-selected layer's
    x = _param(rng, (4, 2, 3), "x")
    rows = np.array([[4, 0], [2, 2], [1, 3], [0, 4]])
    w = Tensor(rng.normal(size=(4, 2, 3)))
    return (lambda: nm.tsum(nm.mul(
        nm.dropout(x, 0.3, np.random.default_rng(4), rows=rows, length=5), w)), [x])


FUSED = {
    "gru_layer": _fused_gru_layer,
    "linear": _fused_linear,
    "layer_norm": _fused_layer_norm,
    "masked_attention": _fused_masked_attention,
    "dropout": _fused_dropout,
    "dropout_rows": _fused_dropout_rows,
}


def _public_ops():
    return {
        name: fn for name, fn in vars(nm).items()
        if inspect.isfunction(fn) and fn.__module__ == nm.__name__
        and not name.startswith("_")
    }


def _ops_called(build):
    """Names of the public numerics functions that `build()` calls."""
    called = set()

    def recording(name, fn):
        def op(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return op

    with pytest.MonkeyPatch.context() as mp:
        for name, fn in _public_ops().items():
            mp.setattr(nm, name, recording(name, fn))
        build()
    return called


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_gradients_match_finite_differences(name):
    build, params = FUSED[name](np.random.default_rng(13))
    assert name.removesuffix("_rows") in _ops_called(build)
    finite_difference_check(build, params, max_coords=12)


# Public numerics functions that build no differentiable node. Every other
# public function must run inside some finite-difference check above.
NOT_DIFFERENTIABLE = frozenset()


def test_every_differentiable_op_has_a_gradient_check():
    public = set(_public_ops())
    assert NOT_DIFFERENTIABLE <= public, "stale allow-list entry"
    rng = np.random.default_rng(0)
    covered = set()
    for op in PRIMITIVES.values():
        a, b = _param(rng, (5, 6), "a"), _param(rng, (5, 6), "b")
        covered |= _ops_called(lambda: op(a, b))
    for make in FUSED.values():
        covered |= _ops_called(make(rng)[0])
    missing = public - covered - NOT_DIFFERENTIABLE
    assert not missing, f"ops without a finite-difference check: {sorted(missing)}"


# Every model path, as overrides on a small base config.
MODEL_PATHS = {
    "imt": [],
    "separate": ["model.fst=separate"],
    "dnn": ["model.fst=dnn"],
    "early": ["train.fusion=early"],
    "late": ["train.fusion=late"],
    "recurrent": ["model.backbone=recurrent"],
    "id_only": ["model.branches=id"],
}


def test_every_public_op_runs_in_a_model_path(tiny_data):
    """numerics holds no op that only tests use: one training step (dropout
    on, distillation ramped in) and a small evaluation over every model
    path call every public op."""
    catalog, dataset = tiny_data
    base = ["model.d=8", "model.item_layers=1", "model.seq_layers=1",
            "train.batch_size=32", "eval.ks=[10]"]
    called = set()
    for overrides in MODEL_PATHS.values():
        cfg = with_overrides(ExperimentConfig(), base + overrides)
        model = trainer.build_model(cfg, catalog)
        batch = next(make_batches(dataset, cfg.train.batch_size, seed=0))

        def run():
            total, _ = trainer.step_loss(model, batch, dataset.pop, epoch=1,
                                         drop=cfg.model.dropout,
                                         drop_rng=np.random.default_rng(0))
            total.backward()
            trainer.evaluate(model, catalog, dataset, ks=cfg.eval.ks, n_groups=0,
                             user_limit=8)

        called |= _ops_called(run)
    missing = set(_public_ops()) - called
    assert not missing, f"public ops that no model path runs: {sorted(missing)}"


@pytest.mark.parametrize("path", sorted(MODEL_PATHS))
def test_step_loss_gradients_match_finite_differences(tiny_data, path):
    """One training step of each model path, distillation ramped in: its
    logits against scores from the whole catalog's embeddings, and the
    gradient of its loss against central differences at a coordinate of
    every Parameter."""
    catalog, dataset = tiny_data
    cfg = with_overrides(ExperimentConfig(), [
        "model.d=8", "model.item_layers=1", "model.seq_layers=1", "model.dropout=0",
        "train.batch_size=6", "distill.alpha=2"] + MODEL_PATHS[path])
    model = trainer.build_model(cfg, catalog)
    batch = next(make_batches(dataset, cfg.train.batch_size, seed=0))
    epoch = 1
    assert 0.0 < ls.ramp_weight(epoch, cfg.distill.alpha) < 1.0
    logits, _ = trainer._branch_logits(model, batch, dataset.pop)
    base = {key: z.data for key, z in logits.items()}

    # _branch_logits maps items to rows of the batch's own embeddings; here
    # the catalog's embeddings are indexed by item id
    with nm.no_grad():
        embs = model.item_embeddings(np.arange(catalog.n_items))
        vecs = trainer._user_vecs(model, embs, *trainer._pad_rows(batch.prefixes))
    cands = np.unique(batch.targets)
    hidden = np.array([[c != t and c in excl for c in cands]
                       for excl, t in zip(batch.exclusion_sets, batch.targets)])
    for key, h in vecs.items():
        scores = h.data @ embs[key].data[cands].T - np.log(np.maximum(dataset.pop[cands], 1.0))
        np.testing.assert_array_equal(base[key] == MASKED, hidden)
        np.testing.assert_allclose(base[key][~hidden], scores[~hidden], rtol=1e-10, atol=1e-12)

    def loss():
        return trainer.step_loss(model, batch, dataset.pop, epoch)[0]

    # The teachers are stop-gradients, so the oracle holds them at the base
    # point, as criterion 1 does: the ID logits teach v and t, the branch
    # mean teaches id, in distill_bundle's order.
    live = loss().item()
    teachers = itertools.cycle(
        [base["id"], base["id"], np.mean(list(base.values()), axis=0)] if len(base) == 3 else [])
    distill_kl = ls.distill_kl
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ls, "distill_kl",
                   lambda teacher, student, t: distill_kl(Tensor(next(teachers)), student, t))
        assert abs(loss().item() - live) < 1e-10
        finite_difference_check(loss, model.params(), max_coords=1)


def test_batched_matmul_gradients():
    rng = np.random.default_rng(3)
    a = _param(rng, (4, 3, 5), "a")
    b = _param(rng, (5, 2), "b")
    w = Tensor(rng.normal(size=(4, 3, 2)))
    finite_difference_check(lambda: nm.tsum(nm.mul(matmul(a, b), w)), [a, b])


def test_layer_norm_gradients():
    rng = np.random.default_rng(5)
    x = _param(rng, (3, 7), "x")
    g = _param(rng, (7,), "g")
    b = _param(rng, (7,), "b")
    w = Tensor(rng.normal(size=(3, 7)))
    finite_difference_check(
        lambda: nm.tsum(nm.mul(nm.layer_norm(x, g, b), w)), [x, g, b]
    )


def test_masked_attention_gradients_and_blocking():
    rng = np.random.default_rng(9)
    q = _param(rng, (2, 4, 6), "q")
    k = _param(rng, (2, 4, 6), "k")
    v = _param(rng, (2, 4, 6), "v")
    mask = np.zeros((4, 4))
    mask[:, 2] = MASKED  # column 2 invisible to everyone
    w = Tensor(rng.normal(size=(2, 4, 6)))
    finite_difference_check(
        lambda: nm.tsum(nm.mul(nm.masked_attention(q, k, v, mask, 0.5), w)),
        [q, k, v],
        max_coords=10,
    )
    out = nm.masked_attention(q, k, v, mask, 0.5)
    v.data[:, 2, :] += 100.0  # blocked value row must not matter
    out2 = nm.masked_attention(q, k, v, mask, 0.5)
    np.testing.assert_array_equal(out.data, out2.data)


def test_take_rows_and_take_steps_gradients():
    rng = np.random.default_rng(2)
    table = _param(rng, (6, 4), "table")
    idx = np.array([[0, 2], [2, 5]])
    w = Tensor(rng.normal(size=(2, 2, 4)))
    finite_difference_check(
        lambda: nm.tsum(nm.mul(nm.take_rows(table, idx), w)), [table]
    )
    x = _param(rng, (3, 5, 4), "x")
    w2 = Tensor(rng.normal(size=(3, 4)))
    finite_difference_check(
        lambda: nm.tsum(nm.mul(nm.take_steps(x, np.array([1, 0, 4])), w2)), [x]
    )


# -- fused ops against the primitive chains they replace -------------------------
# Each reference is the chain of primitives the fused op was before fusion.
# Outputs and every input gradient must agree bit for bit.


def chain_linear(x, W, b):
    return nm.add(matmul(x, W), b)


def chain_relu(a):
    return nm.leaky_relu(a, 0.0)


def chain_layer_norm(x, gamma, beta, eps=1e-5):
    mu = nm.tmean(x, axis=-1, keepdims=True)
    xc = nm.sub(x, mu)
    var = nm.tmean(nm.mul(xc, xc), axis=-1, keepdims=True)
    inv = powc(nm.add(var, eps), -0.5)
    return nm.add(nm.mul(nm.mul(xc, inv), gamma), beta)


def chain_masked_attention(q, k, v, mask, scale):
    scores = nm.mul(matmul(q, _swap_last(k)), scale)
    if mask is not None:
        scores = nm.add(scores, mask)
    return matmul(nm.softmax(scores, axis=-1), v)


def chain_dropout(x, p, rng):
    if p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return nm.mul(x, Tensor(keep))


def chain_dropout_rows(x, p, rng, rows, length):
    """chain_dropout over the steps `rows` of an (N, length, ...) tensor."""
    keep = (rng.random((x.shape[0], length) + x.shape[2:]) >= p) / (1.0 - p)
    return nm.mul(x, Tensor(keep[np.arange(x.shape[0])[:, None], rows]))


CHAINS = {
    "gru_layer": unrolled_gru_layer,
    "linear": chain_linear,
    "relu": chain_relu,
    "layer_norm": chain_layer_norm,
    "masked_attention": chain_masked_attention,
    "dropout": chain_dropout,
}


def _leaf(data):
    # a non-Parameter leaf starts with grad None, so it takes _accum's
    # first-touch path as the model's intermediate nodes do
    return Tensor(np.array(data), requires_grad=True)


def _split_heads(t, heads):
    n, length, d = t.shape
    return nm.permute(nm.reshape(t, (n, length, heads, d // heads)), (0, 2, 1, 3))


def _exact_cases(rng):
    """name -> (inputs, call(op, inputs) -> Tensor), at the model's layouts."""
    x3 = rng.normal(size=(6, 5, 8))
    mask = _causal(5)
    return {
        "linear": ([x3, rng.normal(size=(8, 12)), rng.normal(size=12)],
                   lambda op, t: op(*t)),
        "relu": ([x3], lambda op, t: op(t[0])),
        "layer_norm": ([x3 * 3.0 + 1.0, rng.normal(size=8), rng.normal(size=8)],
                       lambda op, t: op(*t)),
        # q, k, v are head-split views of (N, L, d) leaves, as in the model
        "masked_attention": ([x3, rng.normal(size=(6, 5, 8)), rng.normal(size=(6, 5, 8))],
                             lambda op, t: op(*(_split_heads(u, 2) for u in t), mask, 0.5)),
        "dropout": ([x3], lambda op, t: op(t[0], 0.3, np.random.default_rng(8))),
        # ragged lengths, two rows of length 1
        "gru_layer": ([x3] + _gru_weights(rng, 8, 4, lambda a, name: a),
                      lambda op, t: op(t[0], np.array([5, 1, 3, 5, 2, 1]), *t[1:])),
    }


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_fused_op_matches_primitive_chain_exactly(name):
    inputs, call = _exact_cases(np.random.default_rng(21))[name]
    results = []
    for op in (getattr(nm, name), CHAINS[name]):
        rng = np.random.default_rng(5)
        leaves = [_leaf(a) for a in inputs]
        out = call(op, leaves)
        # The first term of the root reaches every leaf directly, and its
        # gradient lands first, so the op's contributions are added to an
        # existing gradient in the chain's order.
        direct = [nm.tsum(nm.mul(t, Tensor(rng.normal(size=t.shape)))) for t in leaves]
        first = direct[0]
        for term in direct[1:]:
            first = nm.add(first, term)
        w = Tensor(rng.normal(size=out.shape))
        nm.add(first, nm.tsum(nm.mul(out, w))).backward()
        results.append((out.data, [t.grad for t in leaves]))
    (fused, fused_grads), (chain, chain_grads) = results
    np.testing.assert_array_equal(fused, chain)
    for gf, gc in zip(fused_grads, chain_grads):
        np.testing.assert_array_equal(gf, gc)


def test_transformer_layer_matches_primitive_chains_exactly(monkeypatch):
    """A whole encoder layer, residuals and shared inputs included."""

    def run():
        rng = np.random.default_rng(3)
        layer = TransformerLayer(rng, 8, 2, "layer")
        x = _leaf(rng.normal(size=(4, 5, 8)))
        out = layer(x, mask=_causal(5), drop=0.2, rng=np.random.default_rng(6))
        nm.tsum(nm.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        return [out.data, x.grad] + [p.grad for p in layer.params()]

    fused = run()
    for name, chain in CHAINS.items():
        monkeypatch.setattr(nm, name, chain)
    chained = run()
    for a, b in zip(fused, chained):
        np.testing.assert_array_equal(a, b)


def test_row_selected_transformer_layer_matches_primitive_chains_exactly(monkeypatch):
    """The same with the layer computing only some rows, one read twice."""
    rows = np.array([[4, 0], [2, 2], [1, 3], [0, 4]])

    def run():
        rng = np.random.default_rng(3)
        layer = TransformerLayer(rng, 8, 2, "layer")
        x = _leaf(rng.normal(size=(4, 5, 8)))
        out = layer(x, mask=_causal(5), drop=0.2, rng=np.random.default_rng(6), rows=rows)
        nm.tsum(nm.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        return [out.data, x.grad] + [p.grad for p in layer.params()]

    fused = run()
    for name, chain in CHAINS.items():
        monkeypatch.setattr(nm, name, chain)
    monkeypatch.setattr(nm, "dropout", chain_dropout_rows)
    chained = run()
    for a, b in zip(fused, chained):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lengths", [[7, 1, 4, 7, 2], [1, 1, 1, 1, 1]],
                         ids=["ragged", "length_one"])
@pytest.mark.parametrize("layers", [1, 2])
def test_gru_tower_matches_unrolled_chain_exactly(monkeypatch, layers, lengths):
    def run():
        rng = np.random.default_rng(4)
        tower = GruSeqTower(rng, 6, layers=layers)
        x = _leaf(rng.normal(size=(5, max(lengths), 6)))
        out = tower.encode_batch(x, np.array(lengths))
        # x already holds a gradient when the tower's contributions arrive
        first = nm.tsum(nm.mul(x, Tensor(rng.normal(size=x.shape))))
        nm.add(first, nm.tsum(nm.mul(out, Tensor(rng.normal(size=out.shape))))).backward()
        return [out.data, x.grad] + [p.grad for p in tower.params()]

    fused = run()
    monkeypatch.setattr(nm, "gru_layer", unrolled_gru_layer)
    chained = run()
    for a, b in zip(fused, chained):
        np.testing.assert_array_equal(a, b)


# -- non-finite values raise where the chains raised -------------------------------


GRU_GATES = ["reset", "update", "candidate"]


def _gru_args(x, overflow=None):
    """gru_layer arguments with weights of 0.5, and 1e200 in the x weight of
    the `overflow` gate: x @ W overflows there, and sigmoid or tanh alone
    would map the inf to a finite value. lengths is a list, so it does not
    become a Parameter."""
    weights = [np.full(s, 0.5) for s in [(2, 2), (2, 2), (2,)] * 3]
    if overflow is not None:
        weights[GRU_GATES.index(overflow) * 3] = np.full((2, 2), 1e200)
    return [np.array(x), [len(x[0])]] + weights


# name -> (op, arguments). The fused op and its chain must both raise.
NON_FINITE_CASES = {
    # xc * xc overflows; with no check on var, layer_norm would return beta
    "layer_norm": ("layer_norm", [
        np.array([[1e200, -1e200, 1.0, 2.0], [0.5, 1e200, -2.0, 3.0]]),
        np.ones(4), np.zeros(4)]),
    # q k^T is -inf in one column; softmax alone would map it to 0
    "masked_attention": ("masked_attention", [
        np.array([[[1e200, 0.0], [1.0, 0.0]]]), np.array([[[-1e200, 0.0], [1.0, 1.0]]]),
        np.ones((1, 2, 2)), None, 1.0]),
    "masked_attention_inf_mask": ("masked_attention", [
        np.ones((1, 2, 2)), np.ones((1, 2, 2)), np.ones((1, 2, 2)),
        np.array([[0.0, -np.inf], [0.0, 0.0]]), 1.0]),
    "linear": ("linear", [np.array([[1.0, np.inf]]), np.ones((2, 3)), np.zeros(3)]),
    "linear_overflow": ("linear", [
        np.array([[1e200, 1e200]]), np.full((2, 3), 1e200), np.zeros(3)]),
    "dropout_p_one": ("dropout", [np.ones((2, 3)), 1.0, np.random.default_rng(0)]),
    "gru_layer_inf_x": ("gru_layer", _gru_args([[[1.0, np.inf]]])),
    **{f"gru_layer_{gate}_overflow": ("gru_layer", _gru_args(
        [[[1e200, 1e200], [1.0, 1.0]]], overflow=gate)) for gate in GRU_GATES},
}


def _finite_as_parameters(args):
    # finite arrays become Parameters, so with grad on the ops build graph nodes
    return [Parameter(a, "in") if isinstance(a, np.ndarray) and np.isfinite(a).all()
            else a for a in args]


@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_fused_ops_raise_non_finite_like_the_chains(case, grad):
    name, args = NON_FINITE_CASES[case]
    args = _finite_as_parameters(args)
    for op in (getattr(nm, name), CHAINS[name]):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            with contextlib.nullcontext() if grad else nm.no_grad():
                op(*args)


# The cases above in which the fused op itself makes the non-finite value,
# and what its error then names.
NON_FINITE_MESSAGES = {
    "layer_norm": "non-finite layer_norm variance",
    "masked_attention": "non-finite masked_attention scores",
    "linear_overflow": "non-finite output of linear$",
    "dropout_p_one": "non-finite output of dropout$",
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_MESSAGES))
def test_fused_op_error_names_the_op(case):
    name, args = NON_FINITE_CASES[case]
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError,
                                                  match=NON_FINITE_MESSAGES[case]):
        getattr(nm, name)(*_finite_as_parameters(args))


# Ops that compute new values check their output, and the error names the
# op: the case's name. Each case overflows to inf.
BIG = np.full((2, 2), 1e308)
OVERFLOW_CASES = {
    "add": (nm.add, [BIG, BIG]),
    "sub": (nm.sub, [BIG, -BIG]),
    "mul": (nm.mul, [BIG, BIG]),
    "linear": (nm.linear, [BIG, BIG, np.zeros(2)]),
    "tsum": (nm.tsum, [BIG]),
    "tmean": (nm.tmean, [BIG]),
    # the reference ops check their output like the ops they stand in for
    "matmul": (matmul, [BIG, BIG]),
    "powc": (lambda a: powc(a, 2.0), [BIG]),
    # keep is 0 or 2, and rng 0 keeps some of the 4 entries
    "dropout": (lambda a: nm.dropout(a, 0.5, np.random.default_rng(0)), [BIG]),
}


@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_arithmetic_ops_raise_non_finite_on_overflow(case, grad):
    op, args = OVERFLOW_CASES[case]
    args = [Parameter(a, "in") if grad else Tensor(a) for a in args]
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError,
                                                  match=f"non-finite output of {case}$"):
        with contextlib.nullcontext() if grad else nm.no_grad():
            op(*args)


@pytest.mark.parametrize("gate", GRU_GATES)
def test_gru_layer_error_names_the_gate(gate):
    args = _gru_args([[[1e200, 1e200], [1.0, 1.0]]], overflow=gate)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=f"GRU {gate}"):
        nm.gru_layer(*args)


# -- gradient accumulation -------------------------------------------------------


def test_first_touch_gradients_do_not_alias():
    # add hands the same g to both parents; each must get its own buffer
    a, b = _leaf(np.ones((2, 3))), _leaf(np.ones((2, 3)))
    w = np.arange(6.0).reshape(2, 3)
    nm.tsum(nm.mul(nm.add(a, b), Tensor(w))).backward()
    np.testing.assert_array_equal(a.grad, w)
    np.testing.assert_array_equal(b.grad, w)
    assert not np.shares_memory(a.grad, b.grad)
    x = _leaf(np.ones((2, 3)))
    g = np.random.default_rng(1).normal(size=(2, 3))
    nm.tsum(nm.mul(nm.add(x, x), Tensor(g))).backward()
    np.testing.assert_array_equal(x.grad, 2 * g)


def test_first_touch_gradients_of_a_difference_do_not_alias():
    # sub hands a its own g and b the new array -g
    a, b = _leaf(np.ones((2, 3))), _leaf(np.ones((2, 3)))
    w = np.arange(6.0).reshape(2, 3)
    nm.tsum(nm.mul(nm.sub(a, b), Tensor(w))).backward()
    np.testing.assert_array_equal(a.grad, w)
    np.testing.assert_array_equal(b.grad, -w)
    assert not np.shares_memory(a.grad, b.grad)
    x = _leaf(np.ones((2, 3)))
    nm.tsum(nm.mul(nm.sub(x, x), Tensor(w))).backward()
    np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))


@pytest.mark.parametrize("root", ["add", "reshape"])
def test_backward_root_keeps_its_gradient(root):
    # add and reshape hand their own gradient to a parent, which here adds a
    # second contribution to it; the root's gradient must stay ones
    a = _leaf(np.ones((2, 3)))
    s = nm.tsum(nm.mul(a, Tensor(np.arange(6.0).reshape(2, 3))))
    loss = nm.add(s, s) if root == "add" else nm.reshape(nm.add(s, s), (1, 1))
    loss.backward()
    np.testing.assert_array_equal(loss.grad, np.ones_like(loss.data))
    np.testing.assert_array_equal(a.grad, 2 * np.arange(6.0).reshape(2, 3))


def test_transformer_layer_gradients_share_no_memory():
    # dropout, relu, layer_norm, attention and linear hand fresh gradients over
    rng = np.random.default_rng(3)
    layer = TransformerLayer(rng, 8, 2, "layer")
    x = _leaf(rng.normal(size=(4, 5, 8)))
    out = layer(x, mask=_causal(5), drop=0.2, rng=np.random.default_rng(6))
    nm.tsum(nm.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
    grads = [x.grad] + [p.grad for p in layer.params()]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("x, W", [(np.ones(3), np.ones((3, 2))),
                                  (np.ones((2, 3)), np.ones((2, 3, 2)))],
                         ids=["1d_x", "3d_W"])
def test_linear_rejects_operands_of_the_wrong_rank(x, W):
    with pytest.raises(ValueError, match="2-D W"):
        nm.linear(x, W, np.zeros(2))


@pytest.mark.parametrize("op", ["linear", "matmul"])
def test_weight_gradient_matches_a_per_row_reference(op):
    rng = np.random.default_rng(13)
    x, g = rng.normal(size=(7, 5, 8)), rng.normal(size=(7, 5, 12))
    W = _param(rng, (8, 12), "W")
    out = nm.linear(x, W, np.zeros(12)) if op == "linear" else matmul(x, W)
    nm.tsum(nm.mul(out, Tensor(g))).backward()
    reference = np.zeros((8, 12))
    for x_row, g_row in zip(x.reshape(-1, 8), g.reshape(-1, 12)):
        reference += np.outer(x_row, g_row)
    np.testing.assert_allclose(W.grad, reference, rtol=1e-12)


# -- graph semantics -------------------------------------------------------------


def test_square_sum_gradient():
    p = Parameter(np.array([[1.0, 2.0, 3.0]]), "p")
    nm.tsum(nm.mul(p, p)).backward()
    np.testing.assert_array_equal(p.grad, [[2.0, 4.0, 6.0]])


def test_constant_root_has_no_gradients():
    root = nm.tsum(nm.mul(Tensor([[1.0, 2.0]]), 3.0))
    root.backward()  # nothing reachable requires grad; must be a no-op
    assert root.grad is None


def test_non_scalar_root_rejected():
    p = Parameter(np.ones((2, 2)), "p")
    with pytest.raises(ValueError):
        nm.add(p, 1.0).backward()


def test_repeated_backward_accumulates():
    p = Parameter(np.array([[2.0]]), "p")
    nm.tsum(nm.mul(p, p)).backward()
    nm.tsum(nm.mul(p, p)).backward()
    np.testing.assert_array_equal(p.grad, [[8.0]])
    p.zero_grad()
    np.testing.assert_array_equal(p.grad, [[0.0]])


def test_a_leaf_root_adds_to_the_gradient_it_holds():
    # d(p)/dp = 1 is added to what earlier backward passes accumulated
    p = Parameter(np.array(2.0), "p")
    nm.mul(p, 3.0).backward()
    p.backward()
    assert p.grad == 4.0
    x = Tensor(np.array([1.5]), requires_grad=True)
    x.backward()
    x.backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_second_backward_through_a_consumed_graph_raises():
    p = Parameter(np.array([[2.0, 3.0]]), "p")
    mid = nm.mul(p, p)
    root = nm.tsum(mid)
    root.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        root.backward()
    with pytest.raises(RuntimeError, match="consumed"):  # mid reused in a new graph
        nm.tsum(nm.add(mid, 1.0)).backward()
    np.testing.assert_array_equal(p.grad, [[4.0, 6.0]])  # neither walk passed a gradient
    np.testing.assert_array_equal(mid.data, [[4.0, 9.0]])  # a held Tensor keeps its data


def _numpy_bytes():
    """NumPy array memory that tracemalloc traces now."""
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(t.size for t in snap.traces)


def test_backward_frees_the_graph_it_walks(tiny_data):
    """After an imt training step and its backward, with the loss still
    referenced as `train` holds it, NumPy memory is back to its level before
    the step: the graph and every array it saved are gone."""
    catalog, dataset = tiny_data
    cfg = with_overrides(ExperimentConfig(), ["train.batch_size=64"])
    model = trainer.build_model(cfg, catalog)
    batch = next(make_batches(dataset, cfg.train.batch_size, seed=0))
    tracemalloc.start()
    try:
        before = _numpy_bytes()
        total, _ = trainer.step_loss(model, batch, dataset.pop, epoch=1,
                                     drop=cfg.model.dropout, drop_rng=np.random.default_rng(0))
        graph = _numpy_bytes() - before
        total.backward()
        left = _numpy_bytes() - before
    finally:
        tracemalloc.stop()
    assert graph > 8 * 2**20  # the bound below is far below the graph's size
    assert left < 2**20, f"{left} bytes of the step's graph are still held"


def _attention_block(x, layer, rng, keep=lambda t: None):
    """linear, relu, linear, attention over its heads, dropout and a residual
    add, as in a transformer layer. `keep` sees each intermediate Tensor
    (`list.append` keeps them all alive, as graph edges did when they held
    Tensors). Returns the scalar loss and weak references to the data of
    the four outputs that no backward reads."""
    h = nm.linear(x, layer.wq.W, layer.wq.b)
    dead = [weakref.ref(h.data)]  # relu's backward reads only its mask
    keep(h)
    h = nm.relu(h)
    keep(h)
    q = _split_heads(nm.linear(h, layer.wk.W, layer.wk.b), 2)
    keep(q)
    att = nm.masked_attention(q, q, q, _causal(5), 0.25)
    dead.append(weakref.ref(att.data))  # only permute reads it, as a view
    keep(att)
    att = nm.reshape(nm.permute(att, (0, 2, 1, 3)), x.shape)
    dead.append(weakref.ref(att.data))  # dropout's backward reads only its mask
    keep(att)
    att = nm.dropout(att, 0.5, rng)
    dead.append(weakref.ref(att.data))  # dropout's output, into a residual add
    keep(att)
    out = nm.add(x, att)
    keep(out)
    del h, q, att
    g = Tensor(np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape))
    return nm.tsum(nm.mul(out, g)), dead


def test_outputs_no_backward_reads_are_freed_before_backward():
    layer = TransformerLayer(np.random.default_rng(0), 8, 2, "layer")
    x = _leaf(np.random.default_rng(1).normal(size=(3, 5, 8)))
    loss, dead = _attention_block(x, layer, np.random.default_rng(2))
    assert [ref() for ref in dead] == [None] * 4  # the graph is still unconsumed
    loss.backward()
    grads = [x.grad] + [p.grad.copy() for p in layer.params()]
    for p in layer.params():
        p.zero_grad()
    x2, held = _leaf(x.data), []
    loss2, dead2 = _attention_block(x2, layer, np.random.default_rng(2), keep=held.append)
    assert all(ref() is not None for ref in dead2)
    loss2.backward()
    assert loss2.item() == loss.item()
    for a, b in zip(grads, [x2.grad] + [p.grad for p in layer.params()]):
        np.testing.assert_array_equal(a, b)


def test_a_linear_input_lives_until_backward_consumes_its_closure():
    rng = np.random.default_rng(4)
    W, b = _param(rng, (8, 6), "W"), _param(rng, (6,), "b")
    h = nm.relu(_leaf(rng.normal(size=(4, 8))))
    ref, column_sums = weakref.ref(h.data), h.data.sum(axis=0)
    loss = nm.tsum(nm.linear(h, W, b))
    del h
    assert ref() is not None  # W's gradient reads it
    loss.backward()
    assert ref() is None
    np.testing.assert_allclose(W.grad, np.repeat(column_sums[:, None], 6, axis=1), rtol=1e-12)


def test_an_op_outputs_backward_can_be_read_and_replaced():
    # a tracer times each op's backward by wrapping `out._backward`
    x = _leaf(np.ones((2, 3)))
    y = nm.mul(x, 3.0)
    assert x._backward is None and callable(y._backward)
    inner, calls = y._backward, []

    def wrapper(*args):
        calls.append(len(args))
        return inner(*args)

    y._backward = wrapper
    assert y._backward is wrapper
    nm.tsum(y).backward()
    assert calls == [3]  # its gradient and the nodes of x and of the constant 3.0 (None)
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0))


def test_detach_stops_gradient():
    p = Parameter(np.array([[3.0]]), "p")
    nm.tsum(nm.mul(p.detach(), p)).backward()
    np.testing.assert_array_equal(p.grad, [[3.0]])


def test_non_finite_forward_raises():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
        nm.mul(Tensor([1e200]), Tensor([1e200]))


def test_no_grad_skips_graph():
    p = Parameter(np.ones((1, 1)), "p")
    with nm.no_grad():
        out = nm.tsum(nm.mul(p, p))
    assert not out.requires_grad


def test_softmax_max_subtraction_is_stable():
    out = nm.softmax(Tensor([[1000.0, 1000.0, MASKED]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]])


# -- optimizer ------------------------------------------------------------------


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = Parameter(np.array([[1.5]]), "p")
    opt = Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [[1.5]])


def test_adam_descends_on_square():
    p = Parameter(np.array([[1.0]]), "p")
    opt = Adam([p], lr=0.1)
    nm.tsum(nm.mul(p, p)).backward()
    opt.step()
    assert 0.0 < p.data[0, 0] < 1.0


def test_adam_converges_on_shifted_square():
    p = Parameter(np.array([[0.0]]), "p")
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        diff = nm.sub(p, 3.0)
        nm.tsum(nm.mul(diff, diff)).backward()
        opt.step()
    assert abs(p.data[0, 0] - 3.0) < 1e-2


def test_adam_rejects_nonpositive_lr():
    with pytest.raises(ValueError):
        Adam([Parameter(np.zeros((1, 1)), "p")], lr=0.0)


def test_deterministic_loss_trajectory():
    def run():
        rng = np.random.default_rng(42)
        p = Parameter(rng.normal(size=(4, 4)), "p")
        x = Tensor(rng.normal(size=(4, 4)))
        opt = Adam([p], lr=1e-2)
        losses = []
        for _ in range(5):
            opt.zero_grad()
            loss = nm.tsum(nm.mul(matmul(p, x), matmul(p, x)))
            loss.backward()
            opt.step()
            losses.append(loss.item())
        return losses

    assert run() == run()
