"""Run one benchmark workload in this process and print its result as JSON.

Started by run.py in a fresh child process per workload, with PYTHONPATH
pointing at the checkout's ``src`` and the BLAS thread count pinned. Prints
progress to stderr and one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import modrec
from modrec import datagen, losses, trainer
from modrec.config import load_config

from tracing import Probe, Tracer, clock, public_functions

# Each workload: what its main call is, and the `--set` overrides on top of
# the default config (2000 items, 2000 users, d=32). Training runs a fixed
# number of epochs with patience >= epochs, so early stopping never fires and
# two commits do the same work. train-imt runs 3 epochs: the distillation
# ramp weight is 0 at epoch 0, so only epochs >= 1 run the KL backward, and
# with 3 epochs the median step lies among those.
WORKLOADS = {
    "train-imt": ("train", ["train.epochs=3", "train.patience=3"]),
    "train-id-gru": ("train", ["model.branches=id", "model.backbone=recurrent",
                               "train.epochs=20", "train.patience=20"]),
    "eval-full-catalog": ("eval", []),
}

# test_recall_at_10 / test_ndcg_at_10 guard ranking quality. They come from
# one extra main call at this fixed seed, whatever --seed is, so they repeat
# exactly within a commit; across data seeds they vary by 30-50%, far more
# than any bound a speed change could be held to.
QUALITY_SEED = 0
SETUP_REPS = 7


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def make_config(workload, seed):
    return load_config(None, WORKLOADS[workload][1] + [f"seed={seed}"])


def setup(cfg):
    """Data generation plus model build, as `modrec train` / `modrec eval` do."""
    d = cfg.data
    catalog, dataset = datagen.generate_synthetic(
        n_items=d.n_items, n_users=d.n_users, n_clusters=d.n_clusters,
        n_v=d.n_v, n_t=d.n_t, d_v=d.d_v, d_t=d.d_t, seed=cfg.seed,
        p_intra=d.p_intra, n_pref=d.n_pref, item_noise=d.item_noise,
        row_noise=d.row_noise, cold_frac=d.cold_frac,
        p_cold_last=d.p_cold_last, max_len=d.max_len,
    )
    model = trainer.build_model(cfg, catalog)
    return catalog, dataset, model


def planned_ops(kind, cfg, n_users):
    """(optimizer steps, users ranked) one main call must complete."""
    if kind == "eval":
        return 0, n_users
    epochs = cfg.train.epochs
    steps = epochs * math.ceil(n_users / cfg.train.batch_size)
    val_users = min(cfg.eval.val_users or n_users, n_users)
    return steps, epochs * val_users + n_users


def metrics_sha256(report):
    """Hash of the report as `modrec train` writes it to metrics.json."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def ensemble_metrics(report):
    branches = report["branches"]
    key = "ensemble" if "ensemble" in branches else next(iter(branches))
    return branches[key]


class Workload:
    def __init__(self, name, seed):
        self.name = name
        self.kind = WORKLOADS[name][0]
        self.cfg = make_config(name, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def setup(self, reps=1):
        times = []
        for _ in range(reps):
            start = clock()
            self.catalog, self.dataset, self.model = setup(self.cfg)
            times.append(clock() - start)
        self.probe = Probe(self.dataset.n_users)
        return times

    def main_call(self):
        """Run the workload's main call once; returns (seconds, report or None)."""
        cfg, probe = self.cfg, self.probe
        steps, users = planned_ops(self.kind, cfg, self.dataset.n_users)
        probe.reset()
        problems = []
        report = None
        start = clock()
        with probe.install().patches:
            try:
                if self.kind == "train":
                    result = trainer.train(cfg, self.catalog, self.dataset)
                    report = result.test_metrics
                    if not all(math.isfinite(row["total"]) for row in result.loss_log):
                        problems.append("non-finite training loss")
                else:
                    report = trainer.evaluate(
                        self.model, self.catalog, self.dataset, split="test",
                        ks=cfg.eval.ks, n_groups=cfg.eval.groups,
                    )
            except Exception:
                problems.append(traceback.format_exc(limit=3))
        seconds = clock() - start
        problems += probe.problems
        done = (len(probe.train_steps), probe.eval_users)
        if report is not None and done != (steps, users):
            problems.append(f"completed (steps, users ranked) {done}, planned {(steps, users)}")
        self.attempted += steps + users
        if problems:
            self.failed += steps + users
            self.problems += [f"seed {cfg.seed}: {p}" for p in problems]
            return seconds, None
        return seconds, report

    def step_times(self):
        return self.probe.train_steps if self.kind == "train" else self.probe.eval_chunks

    def step_rows(self):
        return self.probe.train_rows if self.kind == "train" else self.probe.eval_users


def quality(name):
    """Main call at QUALITY_SEED; returns (report or None, its Workload)."""
    wl = Workload(name, QUALITY_SEED)
    wl.setup()
    _, report = wl.main_call()
    return report, wl


def run_untraced(name, seed, seconds):
    # The quality call goes first, so it also warms up the process: the first
    # main call in a process pays for allocator growth and is several
    # percent slower than the rest.
    q_report, q_wl = quality(name)
    wl = Workload(name, seed)
    setup_times = wl.setup(SETUP_REPS)
    totals, steps, reports = [], [], []
    rows = eval_users = 0
    eval_s = 0.0
    deadline = clock() + seconds
    while True:
        total, report = wl.main_call()
        if report is not None:
            totals.append(total)
            steps += wl.step_times()
            rows += wl.step_rows()
            eval_s += wl.probe.eval_s
            eval_users += wl.probe.eval_users
            reports.append(report)
        log(f"{name}: call {len(totals)} took {total:.3f} s")
        if clock() >= deadline:
            break
    hashes = sorted({metrics_sha256(r) for r in reports})
    if len(hashes) > 1:
        wl.problems.append(f"repeated calls gave {len(hashes)} different metrics.json")
    attempted = wl.attempted + q_wl.attempted
    failed = wl.failed + q_wl.failed
    problems = q_wl.problems + wl.problems
    metrics = {"setup_s": statistics.median(setup_times)}
    if totals:
        metrics.update({
            "total_s": statistics.median(totals),
            "step_ms.p50": 1e3 * float(np.percentile(steps, 50)),
            "step_ms.p90": 1e3 * float(np.percentile(steps, 90)),
            "rows_per_s": rows / sum(steps),
            "eval_users_per_s": eval_users / eval_s,
        })
    if q_report is not None:
        q = ensemble_metrics(q_report)
        metrics["test_recall_at_10"] = q["recall@10"]
        metrics["test_ndcg_at_10"] = q["ndcg@10"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "calls": len(totals),
        "call_s": [round(t, 4) for t in totals],
        "step_samples": len(steps),
        "setup_samples": len(setup_times),
        "metrics_sha256": hashes[0] if hashes else None,
        "quality_seed": QUALITY_SEED,
        "quality_metrics_sha256": metrics_sha256(q_report) if q_report else None,
    }
    if reports:
        own = ensemble_metrics(reports[0])
        info["seed_test_recall_at_10"] = own["recall@10"]
        info["seed_test_ndcg_at_10"] = own["ndcg@10"]
    return wl, attempted, failed, problems, metrics, info


# -- traced run -------------------------------------------------------------------

def layer_metrics(wl, tracer, run, total_s):
    """Per-layer values for one traced main call (run id `run`)."""
    loss_names = [f"losses.{n}" for n in public_functions(losses)]
    op_names = [n for n in tracer.names if n.startswith("op.")]
    names, busy = tracer.summarize(run, {
        "item_tower": ["item_tower"],
        "blocks.transformer_layer": ["blocks.transformer_layer"],
        "seq_tower": ["seq_tower"],
        "losses": loss_names,
        "numerics.backward": ["numerics.backward"],
        "numerics.adam": ["numerics.adam"],
        "trainer.evaluate": ["trainer.evaluate"],
        "trainer.rank": ["trainer.rank_full_catalog"],
        "datagen.make_batches": ["datagen.make_batches"],
    })

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def self_s(*span_names):
        return sum(names.get(n, {}).get("self_s", 0.0) for n in span_names)

    counts = tracer.counts
    steps = len(wl.step_times())
    out = {
        "item_tower.s": busy["item_tower"],
        "item_tower.self_s": self_s("item_tower"),
        "item_tower.calls": calls("item_tower"),
        "item_tower.items": counts["item_tower.size"],
        "blocks.transformer_layer.s": busy["blocks.transformer_layer"],
        "blocks.transformer_layer.self_s": self_s("blocks.transformer_layer"),
        "blocks.transformer_layer.calls": calls("blocks.transformer_layer"),
        "seq_tower.s": busy["seq_tower"],
        "seq_tower.self_s": self_s("seq_tower"),
        "seq_tower.calls": calls("seq_tower"),
        "seq_tower.rows": counts["seq_tower.size"],
        "losses.s": busy["losses"],
        "losses.self_s": self_s(*loss_names),
        "losses.ce_calls": calls("losses.inbatch_ce"),
        "losses.kl_calls": calls("losses.distill_kl"),
        "numerics.backward_s": busy["numerics.backward"],
        "numerics.backward_self_s": self_s("numerics.backward"),
        "numerics.backward_calls": calls("numerics.backward"),
        "numerics.adam_s": busy["numerics.adam"],
        "numerics.adam_steps": calls("numerics.adam"),
        "numerics.tensors": counts["tensors"],
        "numerics.tensors_per_step": counts["tensors"] / max(steps, 1),
        "trainer.evaluate_s": busy["trainer.evaluate"],
        "trainer.evaluate_self_s": self_s("trainer.evaluate"),
        "trainer.rank_s": busy["trainer.rank"],
        "trainer.rank_calls": calls("trainer.rank_full_catalog"),
        "trainer.step_self_s": self_s("trainer.step_loss"),
        "datagen.make_batches_s": busy["datagen.make_batches"],
        "datagen.batches": len(wl.probe.train_steps),
        "trace.total_s": total_s,
    }
    for n in op_names:
        base = "numerics." + n
        if n.endswith(".bwd"):
            out[base[: -len(".bwd")] + ".bwd_s"] = self_s(n)
        else:
            out[base + ".calls"] = calls(n)
            out[base + ".s"] = self_s(n)
    return out


def run_traced(name, seed, seconds, spans_path):
    """Alternate untraced and traced main calls; per-layer values per call."""
    wl = Workload(name, seed)
    tracer = Tracer()
    with tracer.install().patches:
        wl.setup()
    generate_s = tracer.summarize(0, {})[0]["datagen.generate_synthetic"]["self_s"]
    untraced, per_call = [], []
    deadline = clock() + seconds
    while True:
        total, report = wl.main_call()
        if report is not None:
            untraced.append(total)
        tracer.run += 1
        tracer.counts.clear()
        with tracer.install().patches:
            total, report = wl.main_call()
        if report is not None:
            per_call.append(layer_metrics(wl, tracer, tracer.run, total))
        log(f"{name}: untraced {untraced[-1] if untraced else float('nan'):.3f} s, "
            f"traced {total:.3f} s")
        if clock() >= deadline:
            break
    if spans_path:
        tracer.save(spans_path)
    metrics = {}
    if per_call and untraced:
        for key in per_call[0]:
            metrics[key] = statistics.median(c.get(key, 0) for c in per_call)
        metrics["datagen.generate_s"] = generate_s
        metrics["trace.untraced_total_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.total_s"] - metrics["trace.untraced_total_s"]
    info = {"traced_calls": len(per_call), "untraced_calls": len(untraced),
            "spans": len(tracer.start), "spans_file": spans_path}
    return wl, wl.attempted, wl.failed, wl.problems, metrics, info


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "modrec": modrec.__version__,
        "modrec_path": os.path.dirname(os.path.abspath(modrec.__file__)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans (.npz)")
    args = ap.parse_args(argv)
    started = time.time()
    if args.trace:
        wl, attempted, failed, problems, metrics, info = run_traced(
            args.workload, args.seed, args.seconds, args.spans)
    else:
        wl, attempted, failed, problems, metrics, info = run_untraced(
            args.workload, args.seed, args.seconds)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.time() - started,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "info": info,
        "machine": machine(),
        "config": wl.cfg.to_flat(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
