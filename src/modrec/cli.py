"""Command-line entry point: data generation, training, evaluation, the
ablation matrix, and distillation hyperparameter sweeps."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from . import datagen, trainer
from .config import load_config, with_overrides


def _out_root():
    return os.environ.get("MODREC_OUT", "runs")


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(out_dir, cfg, outputs, started):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "config": {k: v for k, v in sorted(cfg.to_flat().items())},
        "seed": cfg.seed,
        "version": __version__,
        "started": started,
        "finished": _timestamp(),
        "outputs": sorted(outputs),
        "environment": {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                        "blas_threads": {f"{lib}_NUM_THREADS": os.environ.get(f"{lib}_NUM_THREADS")
                                         for lib in ("OPENBLAS", "OMP", "MKL")},  # unset: null
                        "nproc": os.cpu_count(), "python": platform.python_version()},
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _resolve_data(cfg):
    """Generate or load (catalog, dataset) according to data.source."""
    kwargs = dataclasses.asdict(cfg.data)
    source = kwargs.pop("source")
    if source == "synthetic":
        return datagen.generate_synthetic(seed=cfg.seed, **kwargs)
    return datagen.load_dataset(source, max_len=cfg.data.max_len)


def _progress(epoch, metric, value, last_total):
    print(f"epoch {epoch}: val {metric} {value:.4f}, last loss {last_total:.4f}")


def cmd_gen(args):
    cfg = load_config(args.config, args.set)
    out_dir = args.out or os.path.join(_out_root(), "catalog")
    started = _timestamp()
    catalog, dataset = _resolve_data(cfg)
    datagen.save_catalog(out_dir, catalog, dataset.sequences)
    outputs = ["manifest.json", "visual.f64", "textual.f64", "interactions.csv"]
    _write_manifest(out_dir, cfg, outputs, started)
    print(f"wrote catalog with {catalog.n_items} items, {dataset.n_users} users to {out_dir}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config, args.set)
    out_dir = args.out or os.path.join(_out_root(), "train")
    if args.dry_run:
        print(json.dumps(cfg.to_flat(), indent=2, sort_keys=True))
        return 0
    started = _timestamp()
    catalog, dataset = _resolve_data(cfg)
    result = trainer.train(cfg, catalog, dataset, progress=_progress)
    os.makedirs(out_dir, exist_ok=True)
    trainer.save_checkpoint(os.path.join(out_dir, "checkpoint.npz"), result.model)
    trainer.write_metrics_json(os.path.join(out_dir, "metrics.json"), result.test_metrics)
    trainer.write_loss_csv(os.path.join(out_dir, "losscurve.csv"), result.loss_log)
    trainer.write_popularity_csv(
        os.path.join(out_dir, "popularity.csv"), result.test_metrics, cfg.eval.ks
    )
    outputs = ["checkpoint.npz", "metrics.json", "losscurve.csv", "popularity.csv"]
    _write_manifest(out_dir, cfg, outputs, started)
    if not result.test_metrics:
        print("no epoch ran (train.epochs=0); metrics.json is empty")
        return 0
    key = trainer.ensemble_key(result.model)
    print(f"best epoch {result.best_epoch}; "
          f"test metrics ({key}): {result.test_metrics['branches'][key]}")
    return 0


def cmd_eval(args):
    cfg = load_config(args.config, args.set)
    out_dir = args.out or os.path.join(_out_root(), "eval")
    started = _timestamp()
    catalog, dataset = _resolve_data(cfg)
    model = trainer.build_model(cfg, catalog)
    trainer.load_checkpoint(args.checkpoint, model)
    report = trainer.evaluate(
        model, catalog, dataset, split=args.split, ks=cfg.eval.ks,
        n_groups=cfg.eval.groups,
    )
    os.makedirs(out_dir, exist_ok=True)
    trainer.write_metrics_json(os.path.join(out_dir, "metrics.json"), report)
    trainer.write_popularity_csv(os.path.join(out_dir, "popularity.csv"), report, cfg.eval.ks)
    _write_manifest(out_dir, cfg, ["metrics.json", "popularity.csv"], started)
    print(json.dumps(report["branches"], indent=2, sort_keys=True))
    return 0


def _run_grid(args, cfg, cells, name):
    """Train every (labels, config) cell and write one row per cell to
    <out>/<name>.csv, plus the manifest."""
    out_dir = args.out or os.path.join(_out_root(), name)
    started = _timestamp()
    catalog, dataset = _resolve_data(cfg)
    rows = trainer.run_grid(cells, catalog, dataset, progress=print)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)
    _write_manifest(out_dir, cfg, [f"{name}.csv"], started)
    return 0


def cmd_ablate(args):
    cfg = load_config(args.config, args.set)
    cells = [({"variant": v}, trainer.ablation_config(cfg, v)) for v in trainer.ABLATIONS]
    if args.dry_run:
        print("variants:", ", ".join(trainer.ABLATIONS))
        return 0
    return _run_grid(args, cfg, cells, "ablation")


def cmd_sweep(args):
    cfg = load_config(args.config, args.set)
    # Each cell is one override on the base config; all are validated up front.
    settings = [("none", "distill.enabled=false")]
    settings += [("T", f"distill.T={t}") for t in args.T_values.split(",")]
    settings += [("alpha", f"distill.alpha={a}") for a in args.alpha_values.split(",")]
    cells = []
    for axis, setting in settings:
        c = with_overrides(cfg, [setting])
        t, a = ("", "") if axis == "none" else (c.distill.T, c.distill.alpha)
        cells.append(({"axis": axis, "T": t, "alpha": a}, c))
    if args.dry_run:
        for labels, _ in cells:
            print(f"{labels['axis']}: T={labels['T']} alpha={labels['alpha']}")
        return 0
    return _run_grid(args, cfg, cells, "sweep")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modrec",
        description="Multi-modal sequential recommender: train, evaluate, ablate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dry_run=True):
        p.add_argument("--config", default=None, help="config file (key = value lines)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set model.d=64")
        p.add_argument("--out", default=None, help="output directory")
        if dry_run:
            p.add_argument("--dry-run", action="store_true",
                           help="validate config and print the plan without running")

    p = sub.add_parser("gen", help="generate a synthetic catalog directory")
    common(p, dry_run=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p, dry_run=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("val", "test"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the full ablation matrix")
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep distillation temperature and ramp length")
    common(p)
    p.add_argument("--T-values", default="0.1,0.2,0.3,0.4,0.5,0.6", dest="T_values")
    p.add_argument("--alpha-values", default="10,20,30,40,50,60", dest="alpha_values")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
