"""Experiment configuration: nested sections, a dotted key-value file format,
and command-line overrides (`--set section.key=value`)."""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field

from .item_tower import ID_INIT_MODES
from .seq_tower import BACKBONES

SECTIONS = ("data", "model", "train", "distill", "eval")


@dataclass
class DataCfg:
    source: str = "synthetic"  # "synthetic" or a catalog directory path
    n_items: int = 2000
    n_users: int = 2000
    n_clusters: int = 64
    n_v: int = 4
    n_t: int = 8
    d_v: int = 32
    d_t: int = 32
    p_intra: float = 0.8
    n_pref: int = 1
    item_noise: float = 0.3
    row_noise: float = 0.3
    cold_frac: float = 0.05
    p_cold_last: float = 0.1
    max_len: int = 15


@dataclass
class ModelCfg:
    branches: str = "v,t,id"  # subset of {v, t, id}; "id" alone = classical baseline
    fst: str = "imt"  # imt | separate | dnn
    item_layers: int = 2  # transformer depth of the imt stack and of each separate stack
    heads: int = 2
    d: int = 32
    dropout: float = 0.1
    id_mask: bool = True
    id_init: str = "avg_modal"  # avg_modal | text | image | random
    backbone: str = "self_attention"  # self_attention | recurrent
    seq_layers: int = 2
    gru_layers: int = 1

    @property
    def branch_list(self):
        return tuple(b.strip() for b in self.branches.split(",") if b.strip())


@dataclass
class TrainCfg:
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 30
    patience: int = 5
    sample_cut: bool = True
    fusion: str = "collaborative"  # collaborative | early | late


@dataclass
class DistillCfg:
    enabled: bool = True
    T: float = 0.5
    alpha: float = 20.0


@dataclass
class EvalCfg:
    ks: list = field(default_factory=lambda: [10, 20])
    groups: int = 8
    val_users: int = 0  # 0 = evaluate on all users


@dataclass
class ExperimentConfig:
    seed: int = 0
    data: DataCfg = field(default_factory=DataCfg)
    model: ModelCfg = field(default_factory=ModelCfg)
    train: TrainCfg = field(default_factory=TrainCfg)
    distill: DistillCfg = field(default_factory=DistillCfg)
    eval: EvalCfg = field(default_factory=EvalCfg)

    def validate(self):
        valid_branches = {"v", "t", "id"}
        bl = self.model.branch_list
        if not bl or not set(bl) <= valid_branches or len(set(bl)) != len(bl):
            raise ValueError(f"model.branches must be a subset of v,t,id; got {self.model.branches!r}")
        if self.model.fst not in ("imt", "separate", "dnn"):
            raise ValueError(f"model.fst must be imt|separate|dnn, got {self.model.fst!r}")
        if self.train.fusion not in ("collaborative", "early", "late"):
            raise ValueError(
                f"train.fusion must be collaborative|early|late, got {self.train.fusion!r}"
            )
        m = self.model
        if m.backbone not in BACKBONES:
            raise ValueError(f"model.backbone must be one of {BACKBONES}, got {m.backbone!r}")
        if m.id_init not in ID_INIT_MODES:
            raise ValueError(f"model.id_init must be one of {ID_INIT_MODES}, got {m.id_init!r}")
        if m.d < 1:
            raise ValueError(f"model.d must be at least 1, got {m.d}")
        if m.heads < 1 or m.d % m.heads:
            raise ValueError(
                f"model.heads must be a positive divisor of model.d={m.d}, got {m.heads}"
            )
        if m.gru_layers < 1:
            raise ValueError(f"model.gru_layers must be at least 1, got {m.gru_layers}")
        if not 0.0 <= m.dropout < 1.0:
            raise ValueError(f"model.dropout must lie in [0, 1), got {m.dropout}")
        if not self.eval.ks:
            raise ValueError("eval.ks must be nonempty")
        if not all(isinstance(k, int) and k >= 1 for k in self.eval.ks):
            raise ValueError(f"eval.ks entries must be at least 1, got {self.eval.ks}")
        if self.eval.groups != 0 and self.eval.groups < 2:
            raise ValueError(f"eval.groups must be 0 (off) or at least 2, got {self.eval.groups}")
        if self.distill.T <= 0:
            raise ValueError(f"distill.T must be positive, got {self.distill.T}")
        if self.distill.alpha < 1:
            raise ValueError(f"distill.alpha must be at least 1, got {self.distill.alpha}")
        if self.eval.val_users < 0:
            raise ValueError(f"eval.val_users must be at least 0, got {self.eval.val_users}")
        t = self.train
        if t.lr <= 0:
            raise ValueError(f"train.lr must be positive, got {t.lr}")
        if t.batch_size < 2:
            raise ValueError(f"train.batch_size must be at least 2, got {t.batch_size}")
        if t.epochs < 0:
            raise ValueError(f"train.epochs must be at least 0, got {t.epochs}")
        if not 0.0 <= self.data.cold_frac <= 1.0:
            raise ValueError(f"data.cold_frac must lie in [0, 1], got {self.data.cold_frac}")
        return self

    def to_flat(self):
        flat = {"seed": self.seed}
        for section in SECTIONS:
            for name, value in dataclasses.asdict(getattr(self, section)).items():
                flat[f"{section}.{name}"] = value
        return flat

    def copy(self):
        return copy.deepcopy(self)


def _coerce(raw, target_type, key):
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except (ValueError, json.JSONDecodeError):
            pass  # bare string value
    if target_type is bool:
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, str) and raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        raise ValueError(f"{key}: expected true/false, got {raw!r}")
    if target_type is int:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError(f"{key}: expected an integer, got {raw!r}")
        if isinstance(raw, float) and not raw.is_integer():
            raise ValueError(f"{key}: expected an integer, got {raw!r}")
        return int(raw)
    if target_type is float:
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ValueError(f"{key}: expected a number, got {raw!r}")
        return float(raw)
    if target_type is list:
        if not isinstance(raw, list):
            raise ValueError(f"{key}: expected a JSON list, got {raw!r}")
        return raw
    return str(raw)


def apply_setting(cfg, key, raw):
    """Assign one dotted key (e.g. model.d) on an ExperimentConfig."""
    if key == "seed":
        cfg.seed = _coerce(raw, int, key)
        return
    if "." not in key:
        raise ValueError(f"unknown config key {key!r}; expected seed or section.name")
    section_name, field_name = key.split(".", 1)
    if section_name not in SECTIONS:
        raise ValueError(
            f"unknown config section {section_name!r}; expected one of {', '.join(SECTIONS)}"
        )
    section = getattr(cfg, section_name)
    fields = {f.name: f for f in dataclasses.fields(section)}
    if field_name not in fields:
        raise ValueError(
            f"unknown config key {key!r}; accepted keys in [{section_name}]: "
            + ", ".join(sorted(fields))
        )
    target_type = type(getattr(section, field_name))
    setattr(section, field_name, _coerce(raw, target_type, key))


def with_overrides(cfg, settings):
    """A validated copy of `cfg` with `section.key=value` settings applied."""
    cfg = cfg.copy()
    for setting in settings:
        if "=" not in setting:
            raise ValueError(f"override {setting!r} must look like key=value")
        key, raw = (part.strip() for part in setting.split("=", 1))
        apply_setting(cfg, key, raw)
    return cfg.validate()


def load_config(path=None, overrides=()):
    """Build a validated config from an optional file plus --set overrides."""
    cfg = ExperimentConfig()
    if path is not None:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                apply_setting(cfg, key, raw)
    return with_overrides(cfg, overrides)
