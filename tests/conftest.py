import math
import warnings

import numpy as np
import pytest

from modrec import datagen
from modrec import numerics as nm
from modrec.numerics import MASKED, Tensor, _accum, _make, _unbroadcast, _wrap


def finite_difference_check(build, params, h=1e-5, rtol=1e-4, atol=1e-7,
                            max_coords=20, seed=0):
    """Compare analytic gradients of build() (a fresh scalar graph over the
    given parameters) against central finite differences on a random subset
    of coordinates per parameter."""
    for p in params:
        p.zero_grad()
    build().backward()
    analytic = {p.name: p.grad.copy() for p in params}
    rng = np.random.default_rng(seed)
    for p in params:
        flat = p.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(max_coords, flat.size), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            fp = build().item()
            flat[c] = orig - h
            fm = build().item()
            flat[c] = orig
            numeric = (fp - fm) / (2.0 * h)
            ana = analytic[p.name].reshape(-1)[c]
            tol = atol + rtol * max(abs(numeric), abs(ana))
            assert abs(numeric - ana) <= tol, (
                f"{p.name}[{c}]: analytic {ana}, finite-diff {numeric}"
            )


# Reference ops: no model path runs them, but the primitive chains below and
# in test_numerics.py, which the fused ops must match, are built from them,
# and the tests reduce their outputs to a scalar with `tsum`.


def matmul(a, b):
    """a @ b with numpy broadcasting; the product in the chains that
    `linear`, `masked_attention` and `gru_layer` stand in for."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    ad, bd = a.data, b.data

    def bwd(g, a, b):  # a and b are the operands' graph nodes
        if a is not None:
            ga = np.matmul(g, np.swapaxes(bd, -1, -2))
            _accum(a, _unbroadcast(ga, ad.shape))
        if b is not None:
            if bd.ndim == 2:  # one GEMM over all rows, as in linear
                gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
            _accum(b, gb)

    return _make(np.matmul(a.data, b.data), (a, b), bwd)


def powc(a, p):
    """Elementwise power with a constant exponent."""
    a = _wrap(a)
    ad = a.data

    def bwd(g, a):
        _accum(a, g * p * np.power(ad, p - 1.0))

    return _make(np.power(a.data, p), (a,), bwd)


def tanh(a):
    a = _wrap(a)
    out_data = np.tanh(a.data)

    def bwd(g, a):
        _accum(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bwd)


def sigmoid(a):
    a = _wrap(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g, a):
        _accum(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bwd)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)

    def bwd(g, a, b):
        _accum(a, g, fresh=True)  # b gets the new array -g
        _accum(b, -g, fresh=True)

    return _make(a.data - b.data, (a, b), bwd)


def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)

    def bwd(g, a):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.shape).copy(), fresh=True)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.data.size if axis is None else a.data.shape[axis]

    def bwd(g, a):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg / n, a.shape).copy(), fresh=True)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


def softmax(a, axis=-1):
    """Max-subtracted softmax along `axis`."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g, a):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, out_data * (g - dot))

    return _make(out_data, (a,), bwd)


def logsumexp(a, axis=-1, keepdims=False):
    a = _wrap(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = m + np.log(s)
    soft = e / s
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def bwd(g, a):
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(a, soft * gg)

    return _make(out_data, (a,), bwd)


def log_softmax(a, axis=-1):
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def recall_ndcg(rank, k):
    """Oracle for one user: Recall@k and NDCG@k of a single relevant item
    from its 1-based rank."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if rank > k:
        return 0.0, 0.0
    return 1.0, 1.0 / math.log2(rank + 1)


def exclude_items(scores, items):
    """A copy of one score row with -inf at the excluded `items`, the form in
    which `evaluate` hands a row to `rank_full_catalog`."""
    row = np.array(scores, dtype=np.float64)
    row[list(items)] = -np.inf
    return row


def reference_exclusion_mask(exclusion_sets, candidates, target_cols):
    """Reference for losses.exclusion_mask: one dict lookup per excluded item."""
    cand_pos = {item: j for j, item in enumerate(candidates)}
    mask = np.zeros((len(exclusion_sets), len(candidates)))
    for i, excl in enumerate(exclusion_sets):
        for item in excl:
            j = cand_pos.get(item)
            if j is not None and j != target_cols[i]:
                mask[i, j] = MASKED
    if np.any((mask == 0.0).sum(axis=1) <= 1):
        warnings.warn("row candidate set collapsed to the target alone (loss 0)")
    return mask


def unrolled_gru_layer(x, lengths, Wxr, Whr, br, Wxz, Whz, bz, Wxn, Whn, bn):
    """Reference for numerics.gru_layer: the GRU recurrence unrolled into
    primitives, a few dozen graph nodes per step."""
    b, t, _ = x.shape
    h = Tensor(np.zeros((b, Whr.shape[0])))
    states = []
    for step in range(t):
        xt = nm.take_steps(x, np.full(b, step))
        r = sigmoid(nm.add(nm.add(matmul(xt, Wxr), matmul(h, Whr)), br))
        z = sigmoid(nm.add(nm.add(matmul(xt, Wxz), matmul(h, Whz)), bz))
        n = tanh(nm.add(nm.add(matmul(xt, Wxn), nm.mul(r, matmul(h, Whn))), bn))
        h_next = nm.add(nm.mul(sub(1.0, z), n), nm.mul(z, h))
        alive = Tensor((np.asarray(lengths) > step).astype(np.float64)[:, None])
        h = nm.add(nm.mul(alive, h_next), nm.mul(sub(1.0, alive), h))
        states.append(nm.reshape(h, (b, 1, h.shape[1])))
    return nm.concat(states, axis=1)


@pytest.fixture(scope="session")
def tiny_data():
    """Small catalog + dataset reused by fast integration tests."""
    return datagen.generate_synthetic(
        n_items=120, n_users=160, n_clusters=8, n_v=2, n_t=2, d_v=8, d_t=8, seed=7
    )
