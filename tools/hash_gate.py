"""Byte-identity gate for refactors: train 16 small configs and hash the outputs.

Each config runs through `modrec train` at a small fixed scale; the script
prints the first 12 hex digits of the sha256 of its `metrics.json` and
`losscurve.csv`. A refactor that claims unchanged behaviour must print the
same lines before and after:

    python tools/hash_gate.py                     # the sources next to this script
    python tools/hash_gate.py --src OTHER/src     # e.g. a checkout of the parent

A change that may move the loss curves by rounding only compares both
sides directly; each side trains in its own process, one after the other:

    python tools/hash_gate.py --against OTHER/src

prints each side's hash lines, then, per config, whether the two
`metrics.json` files are byte-identical and the largest relative difference
between the two `losscurve.csv`s. It exits 1 if any `metrics.json` differs
or a run fails.

The configs are the nine ablation variants plus collaborative training
with distillation off, early fusion (with and without the ID branch), late
fusion, the dnn item tower, the recurrent backbone and the ID-only model.
It takes about 20 s on a 2-vCPU VM, twice that with --against.

BLAS runs on one thread, as in the benchmark: the loss curves depend on the
BLAS thread count. The variables are set before numpy is imported, and the
--against children inherit them.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import hashlib
import io
import os
import subprocess
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

BASE = [
    "data.n_items=300", "data.n_users=300", "data.n_clusters=16", "model.d=16",
    "train.epochs=3", "train.patience=3", "train.batch_size=64", "seed=3",
]

# The ablation variants are spelled out, not read from trainer.ABLATIONS, so
# that both sides of a comparison run the same configs.
CONFIGS = {
    "full": [],
    "text_init": ["model.id_init=text"],
    "image_init": ["model.id_init=image"],
    "random_init": ["model.id_init=random"],
    "no_id_mask": ["model.id_mask=false"],
    "separate_fst_2": ["model.fst=separate", "model.item_layers=2"],
    "separate_fst_1": ["model.fst=separate", "model.item_layers=1"],
    "no_distill": ["train.fusion=late", "distill.enabled=false"],
    "no_id": ["model.branches=v,t"],
    "collab_no_distill": ["distill.enabled=false"],
    "early": ["train.fusion=early"],
    "early_vt": ["train.fusion=early", "model.branches=v,t"],
    "late": ["train.fusion=late"],
    "dnn": ["model.fst=dnn"],
    "recurrent": ["model.backbone=recurrent"],
    "id_only": ["model.branches=id"],
}


def sha12(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:12]


def train_all(root):
    """Train every config into root/<name> with the modrec already on the
    path; return the number of runs that failed."""
    from modrec.cli import main as modrec_main

    failed = 0
    for name, extra in CONFIGS.items():
        out = os.path.join(root, name)
        argv = ["train", "--out", out]
        for setting in BASE + extra:
            argv += ["--set", setting]
        with contextlib.redirect_stdout(io.StringIO()):
            code = modrec_main(argv)
        if code != 0:
            print(f"{name:15s} FAILED (exit {code})")
            failed += 1
            continue
        print(f"{name:15s} {sha12(os.path.join(out, 'metrics.json'))} "
              f"{sha12(os.path.join(out, 'losscurve.csv'))}")
    return failed


def loss_curve_difference(path_a, path_b):
    """Largest relative difference between two loss curves; inf if their
    columns or lengths differ."""
    with open(path_a) as fa, open(path_b) as fb:
        if fa.readline() != fb.readline():
            return np.inf
        a = np.loadtxt(fa, delimiter=",", ndmin=2)
        b = np.loadtxt(fb, delimiter=",", ndmin=2)
    if a.shape != b.shape:
        return np.inf
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return float(np.max(diff / np.where(scale > 0, scale, 1.0), initial=0.0))


def compare(src, other):
    """Train every config with both sources, each in its own process, and
    compare the outputs; return the exit code."""
    bad = 0
    largest = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for side, path in (("this", src), ("other", other)):
            print(f"== {side}: {path}", flush=True)
            run = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", path,
                                  "--out", os.path.join(tmp, side)])
            if run.returncode != 0:
                return 1
        print(f"{'config':17s} metrics.json  largest loss-curve difference")
        for name in CONFIGS:
            this, that = (os.path.join(tmp, side, name) for side in ("this", "other"))
            same = filecmp.cmp(os.path.join(this, "metrics.json"),
                               os.path.join(that, "metrics.json"), shallow=False)
            rel = loss_curve_difference(os.path.join(this, "losscurve.csv"),
                                        os.path.join(that, "losscurve.csv"))
            largest = max(largest, rel)
            bad += not same
            print(f"{name:17s} {'same' if same else 'DIFFERS':13s} {rel:.2g}")
    print(f"metrics.json differs in {bad} of {len(CONFIGS)} configs; "
          f"largest relative loss-curve difference {largest:.2g}")
    return 1 if bad else 0


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the modrec package to run")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="also run this modrec package and compare the outputs")
    ap.add_argument("--out", help="keep the runs in this directory (default: a temporary one)")
    args = ap.parse_args(argv)
    if args.against:
        return compare(args.src, args.against)
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as tmp:
        return 1 if train_all(args.out or tmp) else 0


if __name__ == "__main__":
    sys.exit(main())
