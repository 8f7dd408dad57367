"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (item towers, sequence towers, losses) is composed
from the primitives in this module, so every gradient in the project is
checkable against finite differences through a single code path. The
module holds only ops that some model path runs; the reference chains the
tests compare the fused ops against live beside the tests.

The hot composites (`linear`, `relu`, `layer_norm`, `masked_attention`,
`dropout`, `gru_layer`) are fused: each is one graph node instead of a
chain of primitives. A fused op keeps the chain's arithmetic exactly. Its
forward and backward run the same NumPy expressions in the same order, and
its backward hands each input its gradient contributions in the chain's
order, one `_accum` call per contribution. Results therefore match the chain bit
for bit, except for the sign of some zeros: `relu` (`np.maximum`) returns
+0.0 where the chain returned -0.0, and `_accum` keeps a -0.0 gradient
entry where the chain's `0.0 + g` gave +0.0. Zeros of either sign compare
equal, and metrics, losses and trained parameters stay byte-identical.

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

`Tensor.backward` consumes the graph it walks: each op node drops its
backward closure and its parents once its gradient has been passed on, so
the arrays the closure saved are freed during the walk, and a second
backward through a consumed node raises `RuntimeError`. Closures save what
their backward reads and no more: `dropout` keeps its mask as bools and
`layer_norm` recomputes `xhat`, each with the forward's expression.
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
    """Immutable dense float64 array node in the computation graph. An op's
    output holds its parents and backward closure until a backward pass
    consumes them (both become None); a leaf has parents ()."""

    __slots__ = ("data", "grad", "_parents", "_backward", "requires_grad")
    _check = True  # off only in _Rearranged

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if self._check:
            _check_finite(self.data)
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(()))

    def detach(self):
        return Tensor(self.data)

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
        topo = []
        visited = set()
        stack = [(self, False)]
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
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if not node._parents:
                continue  # a leaf keeps its gradient
            # an op may hand its g over to a parent; the root keeps its own
            node._backward(node.grad.copy() if node is self else node.grad)
            node._backward = node._parents = None
            if node is not self:
                node.grad = None

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


# -- op plumbing -------------------------------------------------------------


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward, cls=Tensor):
    try:
        if _grad_enabled and any(p.requires_grad for p in parents):
            return cls(data, parents=parents, backward=backward, requires_grad=True)
        return cls(data)
    except NonFiniteError:
        op = backward.__qualname__.partition(".")[0]  # "<op>.<locals>.bwd"
        raise NonFiniteError(f"non-finite output of {op}") from None


def _accum(t, g, fresh=False):
    """Add g to t's gradient; `fresh`: g is new and handed to no other node."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # The gradient gets t.data's memory layout whatever g's is, and the
        # layout fixes the order in which reductions sum it. A fresh g with
        # that layout is taken as it is; any other g is copied.
        if fresh and g.flags.c_contiguous and t.data.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = np.empty_like(t.data)
            np.copyto(t.grad, g)
    else:
        t.grad += g


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

    def bwd(g):
        # g is this node's own gradient, dropped after this call
        _accum(a, _unbroadcast(g, a.data.shape), fresh=True)
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), bwd)


def leaky_relu(a, slope=0.01):
    a = _wrap(a)
    pos = a.data > 0

    def bwd(g):
        _accum(a, g * np.where(pos, 1.0, slope))

    return _make(np.where(pos, a.data, slope * a.data), (a,), bwd)


def relu(a):
    a = _wrap(a)
    pos = a.data > 0

    def bwd(g):
        _accum(a, g * pos, fresh=True)

    return _make(np.maximum(a.data, 0.0), (a,), bwd, _Rearranged)


# -- shape / indexing primitives -----------------------------------------------


def reshape(a, shape):
    a = _wrap(a)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape), fresh=True)

    return _make(a.data.reshape(shape), (a,), bwd, _Rearranged)


def permute(a, axes):
    a = _wrap(a)
    inv = np.argsort(axes)

    def bwd(g):
        _accum(a, g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), bwd, _Rearranged)


def concat(parts, axis=0):
    parts = [_wrap(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for p, gp in zip(parts, np.split(g, splits, axis=axis)):
            _accum(p, gp)

    out_data = np.concatenate([p.data for p in parts], axis=axis)
    return _make(out_data, tuple(parts), bwd, _Rearranged)


def take_rows(a, idx):
    """Gather along axis 0: out[i...] = a[idx[i...]]; idx may be any int array."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx.reshape(-1), g.reshape((-1,) + a.data.shape[1:]))

    return _make(a.data[idx], (a,), bwd, _Rearranged)


def take_steps(a, idx):
    """Per-row gather along axis 1: out[i] = a[i, idx[i]]. An (N,) idx takes
    one step per row; an (N, R) idx takes R steps per row, out[i, r] =
    a[i, idx[i, r]], as a transformer layer's query rows."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(a.data.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))

    def bwd(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, (rows, idx), g)

    return _make(a.data[rows, idx], (a,), bwd, _Rearranged)


# -- reductions -----------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)

    def bwd(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.data.shape[axis]

    def bwd(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(gg / n, a.data.shape).copy())

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


# -- softmax family ---------------------------------------------------------------


def softmax(a, axis=-1):
    """Max-subtracted softmax along `axis`."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
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

    def bwd(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(a, soft * gg)

    return _make(out_data, (a,), bwd)


def log_softmax(a, axis=-1):
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


# -- composites used across the model ----------------------------------------------


def linear(x, W, b):
    """x @ W + b for a 2-D W; the arithmetic of add(matmul(x, W), b)."""
    x, W, b = _wrap(x), _wrap(W), _wrap(b)
    if x.data.ndim < 2 or W.data.ndim != 2:
        raise ValueError("linear needs x with ndim >= 2 and a 2-D W")
    out_data = np.matmul(x.data, W.data)
    out_data += b.data

    def bwd(g):
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))
        if x.requires_grad:
            _accum(x, np.matmul(g, W.data.T), fresh=True)
        if W.requires_grad:
            _accum(W, x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

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

    def bwd(g):
        if beta.requires_grad:
            _accum(beta, _unbroadcast(g, beta.data.shape))
        if gamma.requires_grad:  # xhat = xc * inv again, not kept
            _accum(gamma, _unbroadcast(g * (xc * inv), gamma.data.shape))
        if not x.requires_grad:
            return
        g_xhat = g * gamma.data
        g_xc = g_xhat * inv
        g_inv = _unbroadcast(g_xhat * xc, inv.shape)
        g_var = g_inv * p * np.power(ve, p - 1.0)
        g_sq_xc = np.broadcast_to(g_var / n, xc.shape) * xc
        g_xc += g_sq_xc  # xc * xc feeds xc twice
        g_xc += g_sq_xc
        _accum(x, g_xc, fresh=True)  # may now be x.grad: read once more, then added to
        g_mu = _unbroadcast(-g_xc, mu.shape)
        _accum(x, np.broadcast_to(g_mu / n, x.data.shape))

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

    def bwd(g):
        if v.requires_grad:
            gv = np.matmul(np.swapaxes(probs, -1, -2), g)
            _accum(v, _unbroadcast(gv, v.data.shape), fresh=True)
        if not (q.requires_grad or k.requires_grad):
            return
        g_probs = np.matmul(g, np.swapaxes(v.data, -1, -2))
        g_scores = g_probs - (g_probs * probs).sum(axis=-1, keepdims=True)
        g_scores *= probs
        g_scores *= scale
        if q.requires_grad:
            gq = np.matmul(g_scores, np.swapaxes(kt, -1, -2))
            _accum(q, _unbroadcast(gq, q.data.shape), fresh=True)
        if k.requires_grad:
            gkt = np.matmul(np.swapaxes(q.data, -1, -2), g_scores)
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

    def bwd(g):
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
    b, t, _ = x.data.shape
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

    def bwd(g):
        def gate(gpre, gpre_h, Wx, Wh, bias, xt, h):
            """Give one gate's weights their step contribution; return the
            gradient parts for x_t and h."""
            _accum(bias, _unbroadcast(gpre, bias.data.shape))
            _accum(Wx, np.matmul(xt.T, gpre))
            _accum(Wh, np.matmul(h.T, gpre_h))
            return np.matmul(gpre, Wx.data.T), np.matmul(gpre_h, Wh.data.T)

        gx = np.empty_like(x.data)
        gh = g[:, t - 1].copy()
        for s in reversed(range(t)):
            r, z, n, hWn = gates[s]
            xt, h, a = xs[s], hs[s], alive[s]
            ghn = gh * a  # gradient of h'
            gn = ghn * (1.0 - z)
            gz = -(ghn * n)
            gpre = gn * (1.0 - n * n)
            gxt, gh_via_n = gate(gpre, gpre * r, Wxn, Whn, bn, xt, h)
            gpre = gpre * hWn * r * (1.0 - r)  # r's gradient, through the sigmoid
            gx_r, gh_via_r = gate(gpre, gpre, Wxr, Whr, br, xt, h)
            gxt += gx_r
            gz += ghn * h
            gpre = gz * z * (1.0 - z)
            gx_z, gh_via_z = gate(gpre, gpre, Wxz, Whz, bz, xt, h)
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
        _accum(x, gx)

    return _make(np.ascontiguousarray(np.swapaxes(hs[1:], 0, 1)), parents, bwd)


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
