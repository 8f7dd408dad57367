"""Traced memory of a test evaluate, one training step and a validation evaluate.

Builds the data and model of a config (the defaults plus `--set`
overrides, as `modrec train` takes them). At the seeded weights it runs a
full test `evaluate`, as the benchmark's eval-full-catalog workload does,
and prints the traced peak of each of its two phases: embedding the
catalog, then scoring and ranking the users chunk by chunk. Then it runs
one training step to warm up, and a second step as `trainer.train` runs
it, with the first step's loss still referenced. Both run at epoch 1, the
first whose loss holds the distillation KL. It prints, from `tracemalloc`:

- traced memory before the second step;
- traced memory after its forward pass, and the forward's peak;
- the graph nodes the forward pass built, and those the backward will
  walk (reachable from the loss), counted per op;
- the NumPy memory held after the forward pass, grouped by the `src/modrec`
  line that allocated it (each array is charged to the innermost frame
  under `src/modrec`);
- the peak during backward, and traced memory after it;
- the peak of a val `evaluate` over `eval.val_users` users (0: all).

After each phase of the test evaluate, after the step and after the val
evaluate it also prints the process's peak resident set size so far
(`getrusage` `ru_maxrss`), the number the benchmark's `peak_rss_mb`
reports. The test evaluate runs first, so its RSS lines show the set-up
and the evaluate alone, as eval-full-catalog sees them. Traced memory
counts NumPy arrays and Python objects; the arrays are nearly all of it.
Usage:

    python tools/memory_profile.py
    python tools/memory_profile.py --set train.batch_size=64
    python tools/memory_profile.py --src OTHER/src     # e.g. a checkout of the parent

BLAS runs on one thread, as in the benchmark and `hash_gate.py`; the
variables are set before numpy is imported.
"""

from __future__ import annotations

import argparse
import collections
import linecache
import os
import resource
import sys
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

EPOCH = 1  # of the measured steps: the ramp weight is 0 only at epoch 0
FRAMES = 12  # traceback depth: enough to reach src/modrec from inside numpy's Python code
TOP = 15  # lines of the by-line table


def mb(n):
    return f"{n / 2**20:8.1f} MB"


def peak_rss():
    """Peak resident set size of this process so far (ru_maxrss is in KB on Linux)."""
    return mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)


def numpy_by_line(snapshot, package_dir):
    """NumPy bytes per (file, line) of the package, innermost package frame first."""
    totals = collections.Counter()
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    for trace in arrays.traces:
        for frame in reversed(trace.traceback):  # most recent frame first
            if frame.filename.startswith(package_dir):
                totals[frame.filename, frame.lineno] += trace.size
                break
        else:
            totals["(outside the package)", 0] += trace.size
    return totals


def graph_census(root):
    """Op nodes of the graph under `root`, per op. An op is named by the
    function its backward closure was defined in, as `numerics._make`
    names it; leaves and constants are not nodes."""
    counts, seen, stack = collections.Counter(), set(), [root._node]
    while stack:
        node = stack.pop()
        if node is not None and node._parents and id(node) not in seen:
            seen.add(id(node))
            counts[node._backward.__qualname__.partition(".")[0]] += 1
            stack.extend(node._parents)
    return counts


def count_nodes_built(numerics, run):
    """run() and the number of graph nodes numerics built meanwhile."""
    init, built = numerics._Node.__init__, [0]

    def counting(node, *args):
        built[0] += 1
        init(node, *args)

    numerics._Node.__init__ = counting
    try:
        return run(), built[0]
    finally:
        numerics._Node.__init__ = init


def evaluate_by_phase(trainer, model, catalog, dataset, cfg):
    """A full test evaluate; prints the traced peak and the peak RSS so far
    at the end of each phase: "embedding" the catalog, then "ranking" (the
    user vectors, score matrices and ranks, chunk by chunk). Tracing starts
    just before it, so the peaks count only what the evaluate allocates."""
    embed = trainer._all_item_embeddings
    marks = []

    def embed_then_mark(*args):
        embs = embed(*args)
        marks.append(("embedding", tracemalloc.get_traced_memory()[1], peak_rss()))
        tracemalloc.reset_peak()
        return embs

    trainer._all_item_embeddings = embed_then_mark
    try:
        tracemalloc.reset_peak()
        trainer.evaluate(model, catalog, dataset, split="test", ks=cfg.eval.ks,
                         n_groups=cfg.eval.groups)
        marks.append(("ranking", tracemalloc.get_traced_memory()[1], peak_rss()))
    finally:
        trainer._all_item_embeddings = embed
    for phase, peak, rss in marks:
        print(f"{'test evaluate, ' + phase:<29}{mb(peak)}  (peak RSS so far {rss.strip()})")


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config entry, e.g. --set model.d=64")
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the modrec package to run")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from modrec import numerics, trainer
    from modrec.cli import _resolve_data
    from modrec.config import load_config
    from modrec.datagen import make_batches
    from modrec.numerics import Adam

    cfg = load_config(None, args.set)
    catalog, dataset = _resolve_data(cfg)
    model = trainer.build_model(cfg, catalog)
    optimizer = Adam(model.params(), lr=cfg.train.lr)
    drop_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    batches = make_batches(dataset, cfg.train.batch_size, seed=[cfg.seed, 2, 0])

    def forward():
        return trainer.step_loss(model, next(batches), dataset.pop, EPOCH,
                                 drop=cfg.model.dropout, drop_rng=drop_rng)[0]

    tracemalloc.start(FRAMES)
    evaluate_by_phase(trainer, model, catalog, dataset, cfg)
    total = forward()
    total.backward()
    optimizer.step()
    optimizer.zero_grad()
    print(f"before the step              {mb(tracemalloc.get_traced_memory()[0])}")
    tracemalloc.reset_peak()
    # as in train(): the last step's loss is rebound only now
    total, built = count_nodes_built(numerics, forward)
    current, peak = tracemalloc.get_traced_memory()
    print(f"after the forward pass       {mb(current)}  (peak {mb(peak).strip()})")
    package = os.path.join(src, "modrec") + os.sep
    totals = numpy_by_line(tracemalloc.take_snapshot(), package)
    print(f"  NumPy memory by allocating line ({len(totals)} lines, top {TOP}):")
    for (path, line), size in totals.most_common(TOP):
        name = os.path.relpath(path, package) if line else path
        print(f"  {mb(size)}  {name}:{line}  {linecache.getline(path, line).strip()}")
    del totals
    nodes = graph_census(total)
    print(f"graph nodes of the step      {built} built, {sum(nodes.values())} reachable "
          "from the loss: " + ", ".join(f"{op} {n}" for op, n in nodes.most_common()))
    tracemalloc.reset_peak()
    total.backward()
    current, peak = tracemalloc.get_traced_memory()
    print(f"peak during backward         {mb(peak)}")
    print(f"after backward               {mb(current)}")
    print(f"peak RSS after the step      {peak_rss()}")
    optimizer.step()
    optimizer.zero_grad()
    tracemalloc.reset_peak()
    trainer.evaluate(model, catalog, dataset, split="val", ks=cfg.eval.ks, n_groups=0,
                     user_limit=cfg.eval.val_users)
    print(f"peak of a val evaluate       {mb(tracemalloc.get_traced_memory()[1])}")
    print(f"peak RSS after the evaluate  {peak_rss()}")
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
