import pytest

from modrec.config import RULES, ExperimentConfig, apply_setting, load_config


def test_defaults_are_valid():
    cfg = ExperimentConfig().validate()
    assert cfg.model.branch_list == ("v", "t", "id")


def test_validate_rejects_bad_values():
    cfg = ExperimentConfig()
    cfg.model.branches = "v,x"
    with pytest.raises(ValueError, match="branches"):
        cfg.validate()
    cfg = ExperimentConfig()
    cfg.model.fst = "cnn"
    with pytest.raises(ValueError, match="fst"):
        cfg.validate()
    cfg = ExperimentConfig()
    cfg.train.fusion = "middle"
    with pytest.raises(ValueError, match="fusion"):
        cfg.validate()
    cfg = ExperimentConfig()
    cfg.eval.ks = []
    with pytest.raises(ValueError, match="ks"):
        cfg.validate()


BAD_SETTINGS = [
    ("model.gru_layers", 0),
    ("model.d", 0),
    ("model.heads", 3),
    ("model.heads", 0),
    ("model.dropout", 1.0),
    ("model.dropout", -0.5),
    ("eval.ks", [0]),
    ("eval.ks", [10, -1]),
    ("eval.groups", 1),
    ("eval.groups", -2),
    ("distill.T", 0.0),
    ("distill.T", -0.5),
    ("train.lr", 0.0),
    ("train.lr", -1.0),
    ("train.batch_size", 1),
    ("train.epochs", -1),
    ("data.cold_frac", -0.1),
    ("data.cold_frac", 2.0),
    ("model.backbone", "transformer"),
    ("model.id_init", "zeros"),
    ("distill.alpha", 0.5),
    ("eval.val_users", -1),
    ("model.branches", "v,x"),
    ("model.branches", "v,v"),
    ("model.fst", "cnn"),
    ("train.fusion", "middle"),
    ("data.max_len", 2),
    ("data.max_len", 0),
    ("model.item_layers", -2),
    ("model.seq_layers", -1),
    ("train.patience", 0),
    ("train.patience", -3),
    ("data.p_intra", 1.7),
    ("data.p_intra", -0.1),
    ("data.p_cold_last", 1.5),
    ("data.p_cold_last", -0.2),
    ("data.item_noise", -0.1),
    ("data.row_noise", -0.3),
    ("data.n_pref", 0),
    ("data.n_items", 0),
    ("data.n_users", 0),
    ("data.n_clusters", 0),
    ("data.n_clusters", 2001),  # more clusters than the 2000 default items
    ("data.n_v", 0),
    ("data.n_t", -1),
    ("data.d_v", 0),
    ("data.d_t", 0),
    # json.loads reads Infinity and 1e999 as inf; lower bounds alone pass it
    ("distill.T", float("inf")),
    ("distill.alpha", float("inf")),
    ("train.lr", float("inf")),
    ("data.item_noise", float("inf")),
    ("data.row_noise", float("inf")),
    ("data.cold_frac", float("nan")),
]


@pytest.mark.parametrize("key, value", BAD_SETTINGS)
def test_validate_rejects_bad_model_sizes(key, value):
    cfg = ExperimentConfig()
    apply_setting(cfg, key, value)
    with pytest.raises(ValueError, match=key):
        cfg.validate()


def test_every_rule_has_a_rejecting_case():
    assert {key for key, _, _ in RULES} <= {key for key, _ in BAD_SETTINGS}


def test_validate_keeps_boundary_values():
    cfg = ExperimentConfig()
    for key, value in [("eval.groups", 0), ("train.epochs", 0), ("train.batch_size", 2),
                       ("data.cold_frac", 1.0), ("eval.ks", [1]), ("distill.alpha", 1.0),
                       ("eval.val_users", 0), ("data.max_len", 3), ("model.item_layers", 0),
                       ("model.seq_layers", 0), ("train.patience", 1), ("data.p_intra", 1.0),
                       ("data.p_cold_last", 1.0), ("data.item_noise", 0.0),
                       ("data.row_noise", 0.0), ("data.n_pref", 1),
                       ("data.n_clusters", 2000)]:
        apply_setting(cfg, key, value)
    cfg.validate()
    apply_setting(cfg, "data.cold_frac", 0.0)
    apply_setting(cfg, "eval.groups", 2)
    apply_setting(cfg, "data.p_intra", 0.0)
    apply_setting(cfg, "data.p_cold_last", 0.0)
    cfg.validate()


def test_max_len_and_item_depth_have_one_key_each():
    assert load_config(None, ["data.max_len=20"]).data.max_len == 20
    for removed in ("model.max_len=20", "model.separate_layers=1"):
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(None, [removed])


def test_sample_cut_is_no_longer_a_key():
    with pytest.raises(ValueError, match="unknown config key 'train.sample_cut'"):
        load_config(None, ["train.sample_cut=true"])


def test_apply_setting_coercions():
    cfg = ExperimentConfig()
    apply_setting(cfg, "seed", "7")
    apply_setting(cfg, "model.d", "64")
    apply_setting(cfg, "train.lr", "0.01")
    apply_setting(cfg, "distill.enabled", "false")
    apply_setting(cfg, "eval.ks", "[5, 50]")
    apply_setting(cfg, "model.fst", "separate")
    assert cfg.seed == 7 and cfg.model.d == 64 and cfg.train.lr == 0.01
    assert cfg.distill.enabled is False and cfg.eval.ks == [5, 50]
    assert cfg.model.fst == "separate"


def test_apply_setting_type_errors():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="integer"):
        apply_setting(cfg, "model.d", "2.5")
    with pytest.raises(ValueError, match="true/false"):
        apply_setting(cfg, "distill.enabled", "maybe")
    with pytest.raises(ValueError, match="number"):
        apply_setting(cfg, "train.lr", "fast")
    with pytest.raises(ValueError, match="list"):
        apply_setting(cfg, "eval.ks", "10")


def test_unknown_keys_name_the_accepted_ones():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError) as err:
        apply_setting(cfg, "model.depth", "3")
    assert "model.depth" in str(err.value) and "item_layers" in str(err.value)
    with pytest.raises(ValueError, match="section"):
        apply_setting(cfg, "optim.lr", "0.1")
    with pytest.raises(ValueError, match="unknown config key"):
        apply_setting(cfg, "verbose", "1")


def test_load_config_file_with_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# a comment\n"
        "seed = 3\n"
        "model.d = 16  # inline comment\n"
        "\n"
        "distill.T = 0.3\n"
    )
    cfg = load_config(path, overrides=["model.d=24", "train.epochs=2"])
    assert cfg.seed == 3
    assert cfg.model.d == 24  # override wins over the file
    assert cfg.distill.T == 0.3 and cfg.train.epochs == 2


def test_load_config_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("model.d\n")
    with pytest.raises(ValueError, match=":1:"):
        load_config(path)
    with pytest.raises(ValueError, match="key=value"):
        load_config(None, overrides=["model.d"])


def test_copy_is_deep_enough():
    cfg = ExperimentConfig()
    dup = cfg.copy()
    dup.model.d = 999
    dup.eval.ks.append(99)
    assert cfg.model.d != 999 and 99 not in cfg.eval.ks


def test_to_flat_round_trips_through_apply_setting():
    cfg = ExperimentConfig()
    cfg.model.d = 48
    flat = cfg.to_flat()
    rebuilt = ExperimentConfig()
    for key, value in flat.items():
        apply_setting(rebuilt, key, value)
    assert rebuilt.to_flat() == flat
