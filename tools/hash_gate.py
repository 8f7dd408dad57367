"""Byte-identity gate for refactors: train 16 small configs and hash the outputs.

Each config runs through `modrec train` at a small fixed scale; the script
prints the first 12 hex digits of the sha256 of its `metrics.json` and
`losscurve.csv`. A refactor that claims unchanged behaviour must print the
same lines before and after:

    python tools/hash_gate.py                     # the sources next to this script
    python tools/hash_gate.py --src OTHER/src     # e.g. a checkout of the parent

The configs are the nine ablation variants plus collaborative training
with distillation off, early fusion (with and without the ID branch), late
fusion, the dnn item tower, the recurrent backbone and the ID-only model.
It takes about 20 s on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

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


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the modrec package to run")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from modrec.cli import main as modrec_main

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, extra in CONFIGS.items():
            out = os.path.join(tmp, name)
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
