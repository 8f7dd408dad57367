import importlib
import inspect
import pkgutil

import contextlib

import numpy as np
import pytest

import modrec
from modrec import numerics as nm
from modrec.blocks import Module, TransformerLayer, TransformerStack
from modrec.item_tower import build_id_isolation_mask
from modrec.numerics import NonFiniteError, Parameter, Tensor
from modrec.seq_tower import causal_mask


def param(name):
    return Parameter(np.zeros(2), name)


class Leaf(Module):
    def __init__(self, name):
        self.w = param(f"{name}.w")


class Tree(Module):
    def __init__(self):
        self.a = param("a")
        self.size = 3
        self.plain = Tensor(np.zeros(2))  # not a Parameter
        self.child = Leaf("child")
        self.items = [Leaf("l0"), (param("t0"), "label")]
        self.table = {"x": param("dx"), "y": Leaf("dy"), "n": None}
        self.z = param("z")


def test_params_are_found_in_assignment_order():
    tree = Tree()
    assert [p.name for p in tree.params()] == ["a", "child.w", "l0.w", "t0", "dx", "dy.w", "z"]
    tree.a = param("a2")  # reassignment keeps the attribute's place
    assert tree.params()[0].name == "a2"


def test_only_module_defines_params():
    owners = []
    for info in pkgutil.iter_modules(modrec.__path__):
        module = importlib.import_module(f"modrec.{info.name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and "params" in cls.__dict__):
                owners.append(cls.__qualname__)
    assert owners == ["Module"]


# -- a last layer that computes only the rows its caller reads ---------------------


def _row_cases():
    """name -> (mask, rows) over 4 sequences of 7 positions."""
    lengths = np.array([7, 1, 4, 2])
    # the item tower's slots for n_v = 2, n_t = 2: visual cls, text cls, ID
    slots = np.tile([2, 4, 3], (4, 1))
    return {
        "causal_ragged": (causal_mask(7), (lengths - 1)[:, None]),
        "id_isolation": (build_id_isolation_mask(2, 2), slots),
        # unsorted, with a row read twice
        "no_mask": (None, np.array([[6, 0], [3, 3], [1, 5], [0, 2]])),
    }


def _run_stack(layers, mask, rows, select):
    """Output, generator state after the call, and the gradients of x and of
    every parameter, for rows computed by the stack (select) or gathered
    from its full output."""
    rng = np.random.default_rng(3)
    stack = TransformerStack(rng, 8, 2, layers, "stack")
    x = Tensor(rng.normal(size=(4, 7, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=rows.shape + (8,)))
    drop_rng = np.random.default_rng(6)
    if select:
        out = stack(x, mask=mask, drop=0.3, rng=drop_rng, rows=rows)
    else:
        out = nm.take_steps(stack(x, mask=mask, drop=0.3, rng=drop_rng), rows)
    nm.tsum(nm.mul(out, w)).backward()
    return out.data, drop_rng.random(), [x.grad] + [p.grad for p in stack.params()]


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(_row_cases()))
def test_row_selected_stack_matches_full_stack_then_gather(case, layers):
    mask, rows = _row_cases()[case]
    out, next_draw, grads = _run_stack(layers, mask, rows, select=True)
    ref_out, ref_next_draw, ref_grads = _run_stack(layers, mask, rows, select=False)
    assert out.shape == rows.shape + (8,)
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=0)
    # dropout drew as much as the full layer did
    assert next_draw == ref_next_draw
    assert len(grads) == 1 + 16 * layers
    # The sums run in another order, so entries that cancel to about 0 are
    # compared at the scale of all gradients: the key bias's gradient is 0 in
    # exact arithmetic (softmax ignores a shift shared by all keys), rounding
    # noise on both sides.
    scale = max(np.abs(ref).max() for ref in ref_grads)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12 * scale)


def test_row_selected_layer_gradients_share_no_memory():
    rng = np.random.default_rng(3)
    layer = TransformerLayer(rng, 8, 2, "layer")
    x = Tensor(rng.normal(size=(4, 7, 8)), requires_grad=True)
    mask, rows = _row_cases()["id_isolation"]
    out = layer(x, mask=mask, drop=0.2, rng=np.random.default_rng(6), rows=rows)
    nm.tsum(nm.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
    grads = [x.grad] + [p.grad for p in layer.params()]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
@pytest.mark.parametrize("where", ["attention", "ffn"])
def test_row_selected_layer_raises_non_finite_at_a_read_row(where, grad):
    rng = np.random.default_rng(3)
    layer = TransformerLayer(rng, 8, 2, "layer")
    x = rng.normal(size=(4, 7, 8))
    mask, rows = _row_cases()["causal_ragged"]
    if where == "attention":
        x[1, 0] = 1e200  # row 1 reads position 0 only: its q k^T overflows
    else:
        layer.ff1.b.data[:] = 10.0
        layer.ff2.W.data[:] = 1e308  # the read rows' FFN output overflows
    x = Parameter(x, "x") if grad else Tensor(x)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        with contextlib.nullcontext() if grad else nm.no_grad():
            layer(x, mask=mask, rows=rows)
