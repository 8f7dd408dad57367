import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from modrec import trainer
from modrec.cli import main

TINY = [
    "--set", "data.n_items=60",
    "--set", "data.n_users=50",
    "--set", "data.n_clusters=4",
    "--set", "data.n_v=1",
    "--set", "data.n_t=1",
    "--set", "data.d_v=8",
    "--set", "data.d_t=8",
    "--set", "model.d=8",
    "--set", "model.item_layers=1",
    "--set", "model.seq_layers=1",
    "--set", "train.epochs=1",
    "--set", "train.batch_size=16",
    "--set", "eval.ks=[10]",
    "--set", "eval.groups=2",
]


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("MODREC_OUT", str(tmp_path / "runs"))
    return tmp_path


def test_gen_is_byte_reproducible(out_root):
    a, b = out_root / "cat_a", out_root / "cat_b"
    assert main(["gen", "--out", str(a), *TINY]) == 0
    assert main(["gen", "--out", str(b), *TINY]) == 0
    for name in ("manifest.json", "visual.f64", "textual.f64", "interactions.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_dry_run_prints_config_and_writes_nothing(out_root, capsys):
    assert main(["train", "--dry-run", *TINY, "--set", "seed=5"]) == 0
    flat = json.loads(capsys.readouterr().out)
    assert flat["seed"] == 5 and flat["model.d"] == 8
    assert not (out_root / "runs").exists()


def test_train_then_eval_roundtrip(out_root, capsys):
    run_dir = out_root / "run1"
    assert main(["train", "--out", str(run_dir), *TINY]) == 0
    for name in ("checkpoint.npz", "metrics.json", "losscurve.csv",
                 "popularity.csv", "run_manifest.json"):
        assert (run_dir / name).exists(), name
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    assert manifest["config"]["model.d"] == 8
    assert "checkpoint.npz" in manifest["outputs"]
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert "ensemble" in metrics["branches"]

    eval_dir = out_root / "eval1"
    capsys.readouterr()
    assert main([
        "eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
        "--split", "test", "--out", str(eval_dir), *TINY,
    ]) == 0
    again = json.loads((eval_dir / "metrics.json").read_text())
    assert again == metrics  # same checkpoint, same split, same report


def test_train_names_the_selection_metric_it_used(out_root, capsys, monkeypatch):
    results = []
    real_train = trainer.train

    def recording_train(*args, **kwargs):
        results.append(real_train(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(trainer, "train", recording_train)
    assert main(["train", "--out", str(out_root / "k5"), *TINY, "--set", "eval.ks=[5]"]) == 0
    assert "epoch 0: val recall@5 " in capsys.readouterr().out
    assert list(results[0].val_history[0]) == ["epoch", "recall@5"]


def test_eval_names_a_non_finite_checkpoint_parameter(out_root, capsys):
    run_dir = out_root / "run_nan"
    assert main(["train", "--out", str(run_dir), *TINY]) == 0
    with np.load(run_dir / "checkpoint.npz") as f:
        state = dict(f)
    state["item.proj_v.W"][0, 0] = np.nan
    np.savez(out_root / "nan.npz", **state)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out_root / "nan.npz"), *TINY]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "item.proj_v.W" in err


def test_eval_rejects_a_checkpoint_of_a_deeper_model(out_root, capsys):
    run_dir = out_root / "deep"
    deeper = ["--set", "model.item_layers=2", "--set", "model.seq_layers=2"]
    assert main(["train", "--out", str(run_dir), *TINY, *deeper]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"), *TINY]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint holds") and "model lacks" in err


def test_losscurve_columns(out_root):
    run_dir = out_root / "run2"
    assert main(["train", "--out", str(run_dir), *TINY]) == 0
    header = (run_dir / "losscurve.csv").read_text().splitlines()[0]
    for col in ("step", "epoch", "ce_v", "ce_id", "kl_v", "ramp_w", "total"):
        assert col in header.split(",")


def test_train_with_zero_epochs_says_so_and_exits_0(out_root, capsys):
    run_dir = out_root / "run0"
    assert main(["train", "--out", str(run_dir), *TINY, "--set", "train.epochs=0"]) == 0
    assert "no epoch ran" in capsys.readouterr().out
    assert json.loads((run_dir / "metrics.json").read_text()) == {}


@pytest.mark.parametrize("setting", ["data.n_items=0", "data.n_clusters=3000"])
def test_train_dry_run_rejects_bad_data_sizes(setting, capsys):
    assert main(["train", "--dry-run", "--set", setting]) == 1
    assert "data.n_" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["distill.T=Infinity", "train.lr=1e999"])
def test_train_dry_run_rejects_a_non_finite_number(setting, capsys):
    assert main(["train", "--dry-run", "--set", setting]) == 1
    key = setting.partition("=")[0]
    assert f"{key} must be finite, got inf" in capsys.readouterr().err


def test_unknown_config_key_fails_with_guidance(capsys):
    assert main(["train", "--dry-run", "--set", "model.width=4"]) == 1
    err = capsys.readouterr().err
    assert "model.width" in err and "item_layers" in err


def test_missing_checkpoint_is_reported(out_root, capsys):
    assert main(["eval", "--checkpoint", str(out_root / "nope.npz"), *TINY]) == 1
    assert "error" in capsys.readouterr().err


def test_ablate_dry_run_lists_variants(capsys):
    assert main(["ablate", "--dry-run"]) == 0
    out = capsys.readouterr().out
    for variant in ("full", "no_id_mask", "no_distill", "no_id"):
        assert variant in out


def test_ablate_dry_run_validates_every_variant(monkeypatch, capsys):
    monkeypatch.setitem(trainer.ABLATIONS, "no_id", ("model.branches=v,x",))
    assert main(["ablate", "--dry-run"]) == 1
    assert "model.branches" in capsys.readouterr().err


def fake_train(cfg, catalog, dataset, progress=None):
    """Stand-in for trainer.train whose metrics encode the config it got."""
    metrics = {"recall@10": cfg.distill.T, "ndcg@10": float(len(cfg.model.branch_list))}
    model = SimpleNamespace(seq_towers=dict.fromkeys(cfg.model.branch_list))
    return SimpleNamespace(model=model, test_metrics={"branches": {"ensemble": metrics}})


def test_ablate_and_sweep_csv_layout(out_root, monkeypatch):
    monkeypatch.setattr(trainer, "train", fake_train)
    ablate_dir, sweep_dir = out_root / "ablate", out_root / "sweep"
    assert main(["ablate", "--out", str(ablate_dir), *TINY]) == 0
    assert main(["sweep", "--out", str(sweep_dir), *TINY,
                 "--T-values", "0.25", "--alpha-values", "30"]) == 0
    assert (ablate_dir / "ablation.csv").read_text().splitlines() == [
        "variant,recall@10,ndcg@10",
        "full,0.5,3.0",
        "text_init,0.5,3.0",
        "image_init,0.5,3.0",
        "random_init,0.5,3.0",
        "no_id_mask,0.5,3.0",
        "separate_fst_2,0.5,3.0",
        "separate_fst_1,0.5,3.0",
        "no_distill,0.5,3.0",
        "no_id,0.5,2.0",
    ]
    assert (sweep_dir / "sweep.csv").read_text().splitlines() == [
        "axis,T,alpha,recall@10,ndcg@10",
        "none,,,0.5,3.0",
        "T,0.25,20.0,0.25,3.0",
        "alpha,0.5,30.0,0.5,3.0",
    ]
    for out_dir, name in ((ablate_dir, "ablation.csv"), (sweep_dir, "sweep.csv")):
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["outputs"] == [name]


def test_sweep_csv_holds_every_ensemble_metric(out_root, monkeypatch):
    """A grid row is its labels followed by every ensemble metric, so with two
    eval.ks the sweep writes both recall/ndcg pairs."""
    def train_two_ks(cfg, catalog, dataset, progress=None):
        result = fake_train(cfg, catalog, dataset)
        metrics = result.test_metrics["branches"]["ensemble"]
        metrics.update({"recall@20": cfg.distill.alpha, "ndcg@20": 1.5})
        return result

    monkeypatch.setattr(trainer, "train", train_two_ks)
    sweep_dir = out_root / "sweep"
    assert main(["sweep", "--out", str(sweep_dir), *TINY, "--set", "eval.ks=[10,20]",
                 "--T-values", "0.25", "--alpha-values", "30"]) == 0
    assert (sweep_dir / "sweep.csv").read_text().splitlines() == [
        "axis,T,alpha,recall@10,ndcg@10,recall@20,ndcg@20",
        "none,,,0.5,3.0,20.0,1.5",
        "T,0.25,20.0,0.25,3.0,20.0,1.5",
        "alpha,0.5,30.0,0.5,3.0,30.0,1.5",
    ]


def test_sweep_dry_run_rejects_a_bad_cell(capsys):
    assert main(["sweep", "--dry-run", "--T-values", "0"]) == 1
    assert "distill.T" in capsys.readouterr().err


def test_sweep_validates_every_cell_before_training(out_root, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(trainer, "train", lambda *a, **kw: calls.append(a) or fake_train(*a))
    sweep_dir = out_root / "sweep"
    assert main(["sweep", "--out", str(sweep_dir), *TINY,
                 "--T-values", "0.25,0", "--alpha-values", "30"]) == 1
    assert "distill.T" in capsys.readouterr().err
    assert calls == [] and not sweep_dir.exists()


def test_sweep_dry_run_cell_layout(capsys):
    assert main([
        "sweep", "--dry-run",
        "--set", "distill.T=0.5", "--set", "distill.alpha=50",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13  # baseline + 6 temperatures + 6 ramp lengths
    assert lines[0].startswith("none")
    assert sum(l.startswith("T:") for l in lines) == 6
    assert sum(l.startswith("alpha:") for l in lines) == 6
    # the fixed coordinate of each axis comes from the configured preset
    assert "T: T=0.1 alpha=50.0" in lines
    assert "alpha: T=0.5 alpha=10.0" in lines
