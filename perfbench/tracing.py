"""In-process instrumentation for the benchmark.

Everything here wraps public functions and methods of the installed
``modrec`` package from the outside, while a main call runs, and restores
them afterwards. Nothing under ``src/`` knows it is being measured.

Two instruments:

* ``Probe`` is always on. It timestamps optimizer steps (batch yields of
  ``make_batches``) and evaluation chunks, times ``evaluate`` calls, counts
  ``rank_full_catalog`` calls and checks every evaluation report. Its cost
  is a few wrapper calls per step, so end-to-end timings are taken with it.
* ``Tracer`` is on only in the traced run. It records one span per call of
  every public primitive of ``numerics`` (forward, and the backward closure
  the primitive attaches to its output), per layer entry point, and per
  ``Tensor`` construction count. Spans are kept in memory and written out
  at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter

import numpy as np

from modrec import datagen, losses, numerics, trainer
from modrec import item_tower as item_tower_mod
from modrec import seq_tower as seq_tower_mod
from modrec.blocks import TransformerLayer

clock = time.perf_counter


class Patches:
    """Set attributes for the length of a ``with`` block, then restore them."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def public_functions(module):
    """Public functions defined in `module` itself (not imported into it)."""
    return {
        name: fn for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_")
    }


def _classes_with(module, method):
    return [
        cls for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        and method in cls.__dict__
    ]


def _report_values(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _report_values(v)
    else:
        yield node


def check_report(report, n_users, rank_calls, path):
    """Output checks for one ``evaluate`` report; returns a list of problems."""
    problems = []
    if report.get("n_users") != n_users:
        problems.append(f"{path}: n_users {report.get('n_users')} != dataset {n_users}")
    expected = n_users * len(report.get("branches", {}))
    if rank_calls != expected:
        problems.append(f"{path}: {rank_calls} rank calls, expected users x score keys = {expected}")
    for branch, metrics in report["branches"].items():
        for name, value in metrics.items():
            if not (isinstance(value, float) and 0.0 <= value <= 1.0):
                problems.append(f"{path}: {branch} {name} = {value!r} outside [0, 1]")
    for value in _report_values(report):
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{path}: non-finite value in report")
            break
    return problems


class Probe:
    """Step and evaluation timing plus per-report output checks.

    Training steps are the intervals between successive requests for the
    next batch of one ``make_batches`` epoch, so a step covers making its
    batch, the forward pass, backward and Adam, and nothing from validation.
    Evaluation chunks are the intervals between successive calls of the
    first sequence tower inside one ``evaluate`` call, the last ending when
    ``evaluate`` returns.
    """

    def __init__(self, n_users):
        self.n_users = n_users
        self.patches = Patches()
        self.reset()
        self._eval_tower = None
        self._marks = None

    def reset(self):
        self.train_steps = []
        self.train_rows = 0
        self.eval_chunks = []
        self.eval_s = 0.0
        self.eval_users = 0
        self.rank_calls = 0
        self.reports = []
        self.problems = []

    def install(self):
        inner_batches = trainer.make_batches
        inner_eval = trainer.evaluate
        inner_rank = trainer.rank_full_catalog

        def make_batches(*args, **kwargs):
            start = clock()
            for batch in inner_batches(*args, **kwargs):
                self.train_rows += len(batch.prefixes)
                yield batch
                now = clock()
                self.train_steps.append(now - start)
                start = now

        def rank_full_catalog(*args, **kwargs):
            self.rank_calls += 1
            return inner_rank(*args, **kwargs)

        def evaluate(model, *args, **kwargs):
            ranks_before = self.rank_calls
            self._eval_tower = next(iter(model.seq_towers.values()))
            self._marks = []
            start = clock()
            try:
                report = inner_eval(model, *args, **kwargs)
            finally:
                end = clock()
                self._eval_tower = None
            marks = self._marks + [end]
            self.eval_chunks.extend(np.diff(marks).tolist())
            self.eval_s += end - start
            self.eval_users += report["n_users"]
            self.problems += check_report(
                report, self.n_users, self.rank_calls - ranks_before,
                f"evaluate #{len(self.reports)}",
            )
            self.reports.append(report)
            return report

        self.patches.set(trainer, "make_batches", make_batches)
        self.patches.set(trainer, "rank_full_catalog", rank_full_catalog)
        self.patches.set(trainer, "evaluate", evaluate)
        for cls in _classes_with(seq_tower_mod, "encode_batch"):
            self.patches.set(cls, "encode_batch", self._chunk_mark(cls.encode_batch))
        return self

    def _chunk_mark(self, inner):
        def encode_batch(tower, *args, **kwargs):
            if tower is self._eval_tower:
                self._marks.append(clock())
            return inner(tower, *args, **kwargs)

        return functools.update_wrapper(encode_batch, inner)


# -- tracing -------------------------------------------------------------------

# Span start/end/parent/run are stored column-wise in plain lists to keep the
# per-call cost to a few appends.


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.run_of = []
        self.stack = []
        self.run = 0
        self.counts = Counter()
        self.patches = Patches()

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, on_call=None):
        nid = self._nid(name)
        name_id, start, end, parent, run_of, stack = (
            self.name_id, self.start, self.end, self.parent, self.run_of, self.stack)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run_of.append(self.run)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def wrap_generator(self, name, fn):
        """Span each step of the generator `fn` returns (one per ``next``)."""
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return functools.update_wrapper(traced, fn)

    def _wrap_op(self, name, fn):
        bwd_name = f"op.{name}.bwd"
        bwd_nid = self._nid(bwd_name)
        forward = self.wrap(f"op.{name}", fn)
        Tensor = numerics.Tensor

        def op(*args, **kwargs):
            out = forward(*args, **kwargs)
            # Composites return the node of the primitive they end with;
            # that primitive has already wrapped its own backward.
            bwd = getattr(out, "_backward", None) if isinstance(out, Tensor) else None
            if bwd is not None and getattr(bwd, "traced_as", None) is None:
                out._backward = self.wrap(bwd_name, bwd)
                out._backward.traced_as = bwd_nid
            return out

        return functools.update_wrapper(op, fn)

    def install(self):
        """Wrap every layer entry point; call ``patches.restore()`` to undo."""
        p, counts = self.patches, self.counts

        def count(key, size=None):
            def on_call(args, kwargs):
                counts[key] += 1
                if size is not None:
                    counts[key + ".size"] += size(args)
            return on_call

        for name, fn in public_functions(numerics).items():
            p.set(numerics, name, self._wrap_op(name, fn))
        for name, fn in public_functions(losses).items():
            p.set(losses, name, self.wrap(f"losses.{name}", fn))
        for cls in _classes_with(item_tower_mod, "item_embeddings"):
            p.set(cls, "item_embeddings", self.wrap(
                "item_tower", cls.item_embeddings, count("item_tower", lambda a: len(a[1]))))
        for cls in _classes_with(seq_tower_mod, "encode_batch"):
            p.set(cls, "encode_batch", self.wrap(
                "seq_tower", cls.encode_batch, count("seq_tower", lambda a: a[1].shape[0])))
        p.set(TransformerLayer, "__call__",
              self.wrap("blocks.transformer_layer", TransformerLayer.__call__))
        p.set(numerics.Tensor, "backward",
              self.wrap("numerics.backward", numerics.Tensor.backward))
        p.set(numerics.Adam, "step", self.wrap("numerics.adam", numerics.Adam.step))
        init = numerics.Tensor.__init__

        def tensor_init(*args, **kwargs):
            counts["tensors"] += 1
            init(*args, **kwargs)

        p.set(numerics.Tensor, "__init__", functools.update_wrapper(tensor_init, init))
        for name in ("evaluate", "rank_full_catalog", "step_loss"):
            p.set(trainer, name, self.wrap(f"trainer.{name}", getattr(trainer, name)))
        p.set(trainer, "make_batches",
              self.wrap_generator("datagen.make_batches", trainer.make_batches))
        p.set(datagen, "generate_synthetic",
              self.wrap("datagen.generate_synthetic", datagen.generate_synthetic))
        return self

    # -- aggregation --------------------------------------------------------

    def summarize(self, run, groups):
        """Per span name: calls and self time; per group: busy time.

        `groups` maps a group to the span names in it. A group's busy time
        counts only spans with no ancestor in the same group, so a name that
        nests in its own group is not counted twice. Self time is a span's
        duration minus its direct children.
        """
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        nid = np.asarray(self.name_id, dtype=np.int64)
        sel = np.asarray(self.run_of) == run
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selfd = dur - child
        names = {}
        for i in np.unique(nid[sel]):
            rows = sel & (nid == i)
            names[self.names[i]] = {"calls": int(rows.sum()),
                                    "self_s": float(selfd[rows].sum())}
        busy = {}
        for group, members in groups.items():
            ids = [self._name_ids[m] for m in members if m in self._name_ids]
            in_group = np.isin(nid, ids)
            total = 0.0
            for r in np.flatnonzero(sel & in_group):
                a = parent[r]
                while a >= 0 and not in_group[a]:
                    a = parent[a]
                if a < 0:
                    total += dur[r]
            busy[group] = total
        return names, busy

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            run=np.asarray(self.run_of, dtype=np.int32),
        )
