"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (item towers, sequence towers, losses) is composed
from the primitives in this module, so every gradient in the project is
checkable against finite differences through a single code path. The
module holds only ops that some model path runs; the reference chains the
tests compare the fused ops against live beside the tests.

The hot composites (`linear`, `relu`, `layer_norm`, `masked_attention`,
`dropout`, `gru_layer`) and the losses (`softmax_ce`, the in-batch
cross-entropy, and `softmax_kl`, the student side of the distillation KL)
are fused: each is one graph node instead of a chain of primitives. A
fused op keeps the chain's arithmetic exactly. Its forward and backward run
the same NumPy expressions in the same order, and its backward hands each
input its gradient contributions in the chain's order, one `_accum` call
per contribution. Results therefore match the chain bit for bit, except
for the sign of some zeros: `relu` (`np.maximum`) returns +0.0 where the
chain returned -0.0, and `_accum` keeps a -0.0 gradient entry where the
chain's `0.0 + g` gave +0.0. Zeros of either sign compare equal, and
metrics, losses and trained parameters stay byte-identical.

Every Tensor is checked for NaN/Inf when built, except the outputs of
`reshape`, `permute`, `concat`, `take_rows`, `take_steps` and `relu`, which
only rearrange, select or clamp checked values; so `NonFiniteError` fires at
the op that made the value, and its message names that op. A fused op also
checks each intermediate whose non-finite value the rest of the op would
absorb (`var` in `layer_norm`; the scaled, masked scores in
`masked_attention`, where softmax would turn a -inf into 0; each gate's
pre-activation in `gru_layer`), and names it.

`linear` is the one product op with a weight: every such product of the
model, the debiased training scores included, runs through it, and its
weight's gradient is one GEMM over all rows, `x.reshape(-1, d_in).T @
g.reshape(-1, d_out)`. A fresh gradient that its producer gives to no
other node becomes its parent's gradient as it is (`_accum`); any other
first one is copied. `take_rows` and `take_steps` scatter straight into
their input's gradient.

Graph edges hold nodes, not data. An op's output Tensor holds its `.data`
and a `_Node`: the parents' nodes, the backward closure and the gradient; a
leaf that requires grad is its own node. The walk calls each closure with
its gradient and its parents' nodes, and a closure keeps only the arrays its
backward reads: x and W for `linear`, q, k, v and the probabilities for
`masked_attention`, both operands for `mul`, a bool mask for `dropout`, the
softmax probabilities for `softmax_ce` and both sides' for `softmax_kl`
(`layer_norm` recomputes `xhat`). So an output's data lives only while the
caller or such a closure holds it. `Tensor.backward` consumes the graph:
each node drops its closure and parents once its gradient is passed on, and
a second backward through a consumed node raises `RuntimeError`.
"""

from __future__ import annotations

import numpy as np

# Additive attention-mask sentinel. Large enough that exp(MASKED - rowmax)
# underflows to exactly 0.0 in float64, but still finite so the NaN/Inf
# guards stay meaningful.
MASKED = -1.0e30
LN_EPS = 1e-5  # layer_norm's variance floor

_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (forward-only passes)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class NonFiniteError(FloatingPointError):
    pass


def _check_finite(data, what="tensor value"):
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite {what} encountered")


class Tensor:
    """Immutable dense float64 array. A leaf that requires grad is its own
    graph node and keeps its gradient in `.grad`; an op's output points at
    its `_Node` instead, and has a `.grad` only as the root of a backward."""

    __slots__ = ("data", "grad", "requires_grad", "_node")
    _check = True  # off only in _Rearranged
    _parents = ()  # a leaf's, as a graph node

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if self._check:
            _check_finite(self.data)
        self.requires_grad = requires_grad
        self.grad = self._node = None

    shape = property(lambda self: self.data.shape)
    _layout = property(lambda self: self.data)  # a leaf's gradient takes its data's layout
    # the op node's backward closure, replaceable (e.g. by a wrapper that times it)
    _backward = property(lambda self: self._node and self._node._backward,
                         lambda self, fn: setattr(self._node, "_backward", fn))

    def item(self):
        return float(self.data.reshape(()))

    # -- graph execution ---------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into all reachable leaves and
        consume the graph: each op node is released as it passes its gradient
        on. Leaves and every Tensor's `.data` are kept; a second backward
        through a consumed node raises `RuntimeError`."""
        if self.data.size != 1:
            raise ValueError("backward root must be a scalar")
        if not self.requires_grad:
            return
        root = self._node or self  # a leaf is its own node
        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise RuntimeError("backward through a graph that an earlier backward consumed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))
        _accum(root, np.ones_like(self.data), fresh=True)  # a leaf root adds to its gradient
        while topo:
            node = topo.pop()
            if not node._parents:
                continue  # a leaf keeps its gradient
            # an op may hand its g over to a parent; the root keeps its own
            node._backward(node.grad.copy() if node is root else node.grad, *node._parents)
            node._backward = node._parents = None
            if node is not root:
                node.grad = None
        self.grad = root.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named learnable tensor; keeps its gradient buffer across backward calls."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class _Rearranged(Tensor):
    """Output of an op that only rearranges, selects or clamps values of
    Tensors that were checked when they were built: nothing new to check."""

    __slots__ = ()
    _check = False


_C_ORDER = np.empty(())  # empty_like(_C_ORDER, shape=s) is C-ordered for any s


class _Node:
    """An op output's graph node: its parents' nodes (None for a constant),
    backward closure and gradient, and of its data only the shape and a
    layout for the first gradient (`_C_ORDER`, or up to 2 entries per axis)."""

    __slots__ = ("grad", "_parents", "_backward", "shape", "_layout")

    def __init__(self, data, parents, backward):
        self.grad, self._parents, self._backward, self.shape = None, parents, backward, data.shape
        self._layout = (_C_ORDER if data.flags.c_contiguous
                        else data[(slice(0, 2),) * data.ndim].copy(order="K"))


# -- op plumbing -------------------------------------------------------------


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward, cls=Tensor):
    try:
        out = cls(data)
    except NonFiniteError:
        op = backward.__qualname__.partition(".")[0]  # "<op>.<locals>.bwd"
        raise NonFiniteError(f"non-finite output of {op}") from None
    if _grad_enabled and any(p.requires_grad for p in parents):
        nodes = tuple(p._node or (p if p.requires_grad else None) for p in parents)
        out._node = _Node(out.data, nodes, backward)
        out.requires_grad = True
    return out


def _accum(n, g, fresh=False):
    """Add g, summed down to node n's shape, to n's gradient; n None is a
    constant, which takes none. `fresh`: g is new and handed to no other node."""
    if n is None:
        return
    g = _unbroadcast(g, n.shape)
    if n.grad is None:
        # The gradient gets n's data layout whatever g's is, and the
        # layout fixes the order in which reductions sum it. A fresh g with
        # that layout is taken as it is; any other g is copied.
        if fresh and g.flags.c_contiguous and n._layout.flags.c_contiguous:
            n.grad = g
        else:
            n.grad = np.empty_like(n._layout, shape=n.shape)
            np.copyto(n.grad, g)
    else:
        n.grad += g


def _unbroadcast(g, shape):
    """Sum gradient g down to the given operand shape (undo numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise primitives ----------------------------------------------------


def add(a, b):
    a, b = _wrap(a), _wrap(b)

    def bwd(g, a, b):
        # g is this node's own gradient, dropped after this call
        _accum(a, g, fresh=True)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), bwd)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    ad = a.data if b.requires_grad else None  # each gradient reads the other operand
    bd = b.data if a.requires_grad else None

    def bwd(g, a, b):
        if a is not None:
            _accum(a, g * bd)
        if b is not None:
            _accum(b, g * ad)

    return _make(a.data * b.data, (a, b), bwd)


def leaky_relu(a, slope=0.01):
    a = _wrap(a)
    pos = a.data > 0

    def bwd(g, a):
        _accum(a, g * np.where(pos, 1.0, slope))

    return _make(np.where(pos, a.data, slope * a.data), (a,), bwd)


def relu(a):
    a = _wrap(a)
    pos = a.data > 0

    def bwd(g, a):
        _accum(a, g * pos, fresh=True)

    return _make(np.maximum(a.data, 0.0), (a,), bwd, _Rearranged)


# -- shape / indexing primitives -----------------------------------------------


def reshape(a, shape):
    a = _wrap(a)

    def bwd(g, a):
        _accum(a, g.reshape(a.shape), fresh=True)

    return _make(a.data.reshape(shape), (a,), bwd, _Rearranged)


def permute(a, axes):
    a = _wrap(a)
    inv = np.argsort(axes)

    def bwd(g, a):
        _accum(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), bwd, _Rearranged)


def concat(parts, axis=0):
    parts = [_wrap(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g, *parts):
        for p, gp in zip(parts, np.split(g, splits, axis=axis)):
            _accum(p, gp)

    out_data = np.concatenate([p.data for p in parts], axis=axis)
    return _make(out_data, tuple(parts), bwd, _Rearranged)


def take_rows(a, idx):
    """Gather along axis 0: out[i...] = a[idx[i...]]; idx may be any int array."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g, a):
        if a.grad is None:
            a.grad = np.zeros_like(a._layout, shape=a.shape)
        np.add.at(a.grad, idx.reshape(-1), g.reshape((-1,) + a.shape[1:]))

    return _make(a.data[idx], (a,), bwd, _Rearranged)


def take_steps(a, idx):
    """Per-row gather along axis 1: out[i] = a[i, idx[i]]. An (N,) idx takes
    one step per row; an (N, R) idx takes R steps per row, out[i, r] =
    a[i, idx[i, r]], as a transformer layer's query rows."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(a.data.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))

    def bwd(g, a):
        if a.grad is None:
            a.grad = np.zeros_like(a._layout, shape=a.shape)
        np.add.at(a.grad, (rows, idx), g)

    return _make(a.data[rows, idx], (a,), bwd, _Rearranged)


# -- composites used across the model ----------------------------------------------


def linear(x, W, b):
    """x @ W + b for a 2-D W; the arithmetic of add(matmul(x, W), b)."""
    x, W, b = _wrap(x), _wrap(W), _wrap(b)
    if x.data.ndim < 2 or W.data.ndim != 2:
        raise ValueError("linear needs x with ndim >= 2 and a 2-D W")
    xd, Wd = x.data, W.data  # W's gradient reads x, and x's reads W
    out_data = np.matmul(x.data, W.data)
    out_data += b.data

    def bwd(g, x, W, b):
        _accum(b, g)
        if x is not None:
            _accum(x, np.matmul(g, Wd.T), fresh=True)
        if W is not None:
            _accum(W, xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    # Parent order makes the graph walk visit b, W, x as it did the chain.
    return _make(out_data, (x, W, b), bwd)


def layer_norm(x, gamma, beta):
    """Normalization over the last axis with a learnable per-feature scale
    and shift (gamma and beta of shape (d,)).

    One node with the arithmetic of the chain mu = mean(x), xc = x - mu,
    var = mean(xc * xc), inv = (var + LN_EPS) ** -0.5, out = xc * inv * gamma
    + beta. Its backward replays that chain's node order, so x gets its two
    contributions (through xc, then through mu) as two `_accum` calls.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    gd = gamma.data
    n = x.data.shape[-1]
    p = -0.5
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    # xc * xc can overflow while out stays finite (inv becomes 0).
    _check_finite(var, "layer_norm variance")
    ve = var + LN_EPS
    inv = np.power(ve, p)
    xhat = xc * inv
    out_data = xhat * gamma.data
    out_data += beta.data

    def bwd(g, x, gamma, beta):
        _accum(beta, g)
        if gamma is not None:  # xhat = xc * inv again, not kept
            _accum(gamma, g * (xc * inv))
        if x is None:
            return
        g_xhat = g * gd
        g_xc = g_xhat * inv
        g_inv = _unbroadcast(g_xhat * xc, inv.shape)
        g_var = g_inv * p * np.power(ve, p - 1.0)
        g_sq_xc = np.broadcast_to(g_var / n, xc.shape) * xc
        g_xc += g_sq_xc  # xc * xc feeds xc twice
        g_xc += g_sq_xc
        _accum(x, g_xc, fresh=True)  # may now be x.grad: read once more, then added to
        g_mu = _unbroadcast(-g_xc, mu.shape)
        _accum(x, np.broadcast_to(g_mu / n, x.shape))

    # Parent order makes the graph walk visit beta, gamma, x as it did the chain.
    return _make(out_data, (x, gamma, beta), bwd)


def masked_attention(q, k, v, mask, scale):
    """softmax(q k^T * scale + mask) v with an additive mask (0 or MASKED).

    One node with the arithmetic of the chain matmul, mul, add, softmax,
    matmul. `scale` and `mask` are constants; the mask must broadcast to
    the shape of q k^T. The softmax probabilities are kept for the backward
    pass, which hands v, q, then k their gradients, the chain's order. k's
    gradient is still computed as (q^T @ g)^T, the transpose of what the
    chain gave k^T: computing it directly can round differently. Only if k
    also fed nodes that q depends on would k's contributions arrive in
    another order than in the chain.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.data.ndim < 2 or k.data.ndim < 2:
        raise ValueError("masked_attention needs q and k with ndim >= 2")
    qd, vd = q.data, v.data
    scale = _wrap(scale).data
    kt = np.swapaxes(k.data, -1, -2)
    scores = np.matmul(q.data, kt)
    scores *= scale
    if mask is not None:
        scores += _wrap(mask).data
    # softmax maps a -inf score to a probability of exactly 0.
    _check_finite(scores, "masked_attention scores")
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=-1, keepdims=True)

    def bwd(g, q, k, v):
        if v is not None:
            gv = np.matmul(np.swapaxes(probs, -1, -2), g)
            _accum(v, gv, fresh=True)
        if q is None and k is None:
            return
        g_probs = np.matmul(g, np.swapaxes(vd, -1, -2))
        g_scores = g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)
        g_scores *= probs
        g_scores *= scale
        if q is not None:
            gq = np.matmul(g_scores, np.swapaxes(kt, -1, -2))
            _accum(q, gq, fresh=True)
        if k is not None:
            gkt = np.matmul(np.swapaxes(qd, -1, -2), g_scores)
            _accum(k, np.swapaxes(_unbroadcast(gkt, kt.shape), -1, -2))

    # Parent order makes the graph walk visit v, k, q as it did the chain.
    return _make(np.matmul(probs, v.data), (q, k, v), bwd)


def dropout(x, p, rng, rows=None, length=None):
    """Inverted dropout; identity when p == 0.

    One node with the arithmetic of mul(x, Tensor(keep)), drawing one
    rng.random(x.shape) per call. With `rows`, an (N, R) index, x holds the
    steps rows of an (N, length, ...) tensor, as take_steps gives them: the
    draw is still rng.random((N, length, ...)) and x gets those steps of
    it, so the generator and every kept entry are as without the selection.
    """
    if p <= 0.0:
        return x
    x = _wrap(x)
    if rows is None:
        u = rng.random(x.data.shape)
    else:
        n = x.data.shape[0]
        u = rng.random((n, length) + x.data.shape[2:])[np.arange(n)[:, None], rows]
    kept = u >= p  # saved as bools; the scaled mask is made again in backward

    def bwd(g, x):
        _accum(x, g * (kept / (1.0 - p)), fresh=True)

    # At p == 1 every output entry is inf or nan.
    return _make(x.data * (kept / (1.0 - p)), (x,), bwd)


def gru_layer(x, lengths, Wxr, Whr, br, Wxz, Whz, bz, Wxn, Whn, bn):
    """All states (B, T, d) of one GRU layer over right-padded x (B, T, d_in).

    From h = 0, each step t runs the cell
        r = sigmoid(x_t Wxr + h Whr + br), z = sigmoid(x_t Wxz + h Whz + bz),
        n = tanh(x_t Wxn + r * (h Whn) + bn), h' = (1 - z) * n + z * h
    and keeps h' only in rows with t < lengths: past its end a row's state
    is frozen, so the state at lengths - 1 is that of the unpadded sequence.

    One node with the arithmetic of that recurrence unrolled into
    primitives, step by step. Its backward replays the unrolled graph's
    walk: steps T-1 ... 0, one contribution per step to each weight, and
    each state's gradient summed in the chain's order. x's gradient is one
    `_accum` of all steps at once; its columns do not overlap, so only the
    sign of zeros can differ from the chain's T per-step contributions.
    sigmoid and tanh map inf to a finite value, so each gate's
    pre-activation is checked.
    """
    x = _wrap(x)
    weights = tuple(_wrap(w) for w in (Wxr, Whr, br, Wxz, Whz, bz, Wxn, Whn, bn))
    Wxr, Whr, br, Wxz, Whz, bz, Wxn, Whn, bn = weights
    parents = (x,) + weights
    wd = [w.data for w in weights]
    b, t, d_in = x.data.shape
    lengths = np.asarray(lengths)
    # (T, B, 1): alive[s] is the chain's per-step mask
    alive = (lengths > np.arange(t)[:, None]).astype(np.float64)[:, :, None]
    # xs[s] is the chain's contiguous take_steps copy of x[:, s]
    xs = np.ascontiguousarray(np.swapaxes(x.data, 0, 1))
    hs = np.zeros((t + 1, b, Whr.data.shape[0]))
    keep = _grad_enabled and any(p.requires_grad for p in parents)
    gates = []
    for s in range(t):
        xt, h = xs[s], hs[s]
        pre_r = np.matmul(xt, Wxr.data) + np.matmul(h, Whr.data)
        pre_r += br.data
        _check_finite(pre_r, "GRU reset-gate pre-activation")
        r = 1.0 / (1.0 + np.exp(-pre_r))
        pre_z = np.matmul(xt, Wxz.data) + np.matmul(h, Whz.data)
        pre_z += bz.data
        _check_finite(pre_z, "GRU update-gate pre-activation")
        z = 1.0 / (1.0 + np.exp(-pre_z))
        hWn = np.matmul(h, Whn.data)
        pre_n = np.matmul(xt, Wxn.data) + r * hWn
        pre_n += bn.data
        _check_finite(pre_n, "GRU candidate pre-activation")
        n = np.tanh(pre_n)
        h_next = (1.0 - z) * n + z * h
        np.add(alive[s] * h_next, (1.0 - alive[s]) * h, out=hs[s + 1])
        if keep:
            gates.append((r, z, n, hWn))

    def bwd(g, x, *w):
        def gate(gpre, gpre_h, i, xt, h):
            """Give gate i's weights (Wx, Wh and bias are w[i:i + 3]) their
            step contribution; return the gradient parts for x_t and h."""
            _accum(w[i + 2], gpre)
            _accum(w[i], np.matmul(xt.T, gpre))
            _accum(w[i + 1], np.matmul(h.T, gpre_h))
            return np.matmul(gpre, wd[i].T), np.matmul(gpre_h, wd[i + 1].T)

        gx = np.empty((b, t, d_in))
        gh = g[:, t - 1].copy()
        for s in reversed(range(t)):
            r, z, n, hWn = gates[s]
            xt, h, a = xs[s], hs[s], alive[s]
            ghn = gh * a  # gradient of h'
            gn = ghn * (1.0 - z)
            gz = -(ghn * n)
            gpre = gn * (1.0 - n * n)
            gxt, gh_via_n = gate(gpre, gpre * r, 6, xt, h)
            gpre = gpre * hWn * r * (1.0 - r)  # r's gradient, through the sigmoid
            gx_r, gh_via_r = gate(gpre, gpre, 0, xt, h)
            gxt += gx_r
            gz += ghn * h
            gpre = gz * z * (1.0 - z)
            gx_z, gh_via_z = gate(gpre, gpre, 3, xt, h)
            gxt += gx_z
            gx[:, s] = gxt
            if s > 0:  # the state before step 0 is a constant
                gh_prev = g[:, s - 1].copy()
                gh_prev += gh_via_r
                gh_prev += gh_via_n
                gh_prev += ghn * z
                gh_prev += gh_via_z
                gh_prev += gh * (1.0 - a)
                gh = gh_prev
        _accum(x, gx, fresh=True)

    return _make(np.ascontiguousarray(np.swapaxes(hs[1:], 0, 1)), parents, bwd)


# -- loss nodes ---------------------------------------------------------------------


def _softmax_lse(x):
    """Softmax probabilities and log-sum-exp (keepdims) of x's last axis."""
    m = x.max(axis=-1, keepdims=True)
    probs = np.exp(x - m)
    total = probs.sum(axis=-1, keepdims=True)
    lse = m + np.log(total)
    probs /= total
    return probs, lse


def softmax_ce(scores, target_cols):
    """Softmax CE of each row of 2-D `scores` against its target column,
    summed over rows: the chain tsum(sub(logsumexp(scores, 1),
    take_steps(scores, target_cols))). scores gets the log-sum-exp term,
    then the target scatter, the chain's order."""
    scores = _wrap(scores)
    rows, cols = np.arange(scores.data.shape[0]), np.asarray(target_cols, dtype=np.int64)
    probs, lse = _softmax_lse(scores.data)

    def bwd(g, scores):
        _accum(scores, probs * g, fresh=True)
        scores.grad[rows, cols] -= g

    return _make((lse[:, 0] - scores.data[rows, cols]).sum(), (scores,), bwd)


def softmax_kl(teacher, student, temperature):
    """T^2 * KL(softmax(teacher / T) || softmax(student / T)) along the last
    axis, averaged over rows; the teacher is a constant (only its `.data` is
    read). The chain: mul(student, 1/T), both sides' log_softmax, sub, mul
    by the teacher's softmax, tsum, tmean, mul(T^2). The student's scaled
    logits get the shift term, then the log-sum-exp term; then the 1/T."""
    student = _wrap(student)
    inv_t, tt = 1.0 / temperature, temperature * temperature
    t, s = _wrap(teacher).data * inv_t, student.data * inv_t
    p, lse_t = _softmax_lse(t)
    q, lse_s = _softmax_lse(s)
    per_row = (p * ((t - lse_t) - (s - lse_s))).sum(axis=-1)
    n = per_row.size

    def bwd(g, student):
        g_diff = p * ((g * tt) / n)
        gs = -g_diff
        gs += q * g_diff.sum(axis=-1, keepdims=True)
        _accum(student, gs * inv_t, fresh=True)

    return _make(per_row.mean() * tt, (student,), bwd)


# -- optimizer ----------------------------------------------------------------------


class Adam:
    """Adam with bias correction; the project's single optimizer."""

    def __init__(self, params, lr):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            _check_finite(g, f"gradient of {p.name}")
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()
