"""Experiment configuration: nested sections, a dotted key-value file format,
and command-line overrides (`--set section.key=value`)."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass, field

from .item_tower import _STACKS, ID_INIT_MODES
from .seq_tower import BACKBONES

SECTIONS = ("data", "model", "train", "distill", "eval")
FUSIONS = ("collaborative", "early", "late")


def _branch_list(branches):
    return tuple(b.strip() for b in branches.split(",") if b.strip())


def _valid_branches(branches):
    bl = _branch_list(branches)
    return bl and set(bl) <= {"v", "t", "id"} and len(set(bl)) == len(bl)


# What validate() accepts, one (flat key, test, requirement) entry per check,
# checked in this order.
RULES = (
    ("model.branches", _valid_branches, "a subset of v,t,id"),
    ("model.fst", lambda v: v in _STACKS, f"one of {tuple(_STACKS)}"),
    ("train.fusion", lambda v: v in FUSIONS, f"one of {FUSIONS}"),
    ("model.backbone", lambda v: v in BACKBONES, f"one of {BACKBONES}"),
    ("model.id_init", lambda v: v in ID_INIT_MODES, f"one of {ID_INIT_MODES}"),
    ("model.d", lambda v: v >= 1, "at least 1"),
    ("model.heads", lambda v: v >= 1, "at least 1"),
    ("model.gru_layers", lambda v: v >= 1, "at least 1"),
    ("model.dropout", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    ("eval.ks", lambda ks: ks and all(isinstance(k, int) and k >= 1 for k in ks),
     "a nonempty list of integers >= 1"),
    ("eval.groups", lambda v: v == 0 or v >= 2, "0 (off) or at least 2"),
    ("distill.T", lambda v: v > 0, "positive"),
    ("distill.alpha", lambda v: v >= 1, "at least 1"),
    ("eval.val_users", lambda v: v >= 0, "at least 0"),
    ("train.lr", lambda v: v > 0, "positive"),
    ("train.batch_size", lambda v: v >= 2, "at least 2"),
    ("train.epochs", lambda v: v >= 0, "at least 0"),
    ("data.cold_frac", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("data.max_len", lambda v: v >= 3, "at least 3"),
    ("model.item_layers", lambda v: v >= 0, "at least 0"),
    ("model.seq_layers", lambda v: v >= 0, "at least 0"),
    ("train.patience", lambda v: v >= 1, "at least 1"),
    ("data.p_intra", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("data.p_cold_last", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("data.item_noise", lambda v: v >= 0, "at least 0"),
    ("data.row_noise", lambda v: v >= 0, "at least 0"),
    *((f"data.{k}", lambda v: v >= 1, "at least 1")
      for k in ("n_items", "n_users", "n_clusters", "n_v", "n_t", "d_v", "d_t", "n_pref")),
)


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
    fst: str = "imt"  # a key of item_tower._STACKS
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
        return _branch_list(self.branches)


@dataclass
class TrainCfg:
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 30
    patience: int = 5
    fusion: str = "collaborative"  # one of FUSIONS


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
        flat = self.to_flat()
        for key, value in flat.items():  # json.loads reads Infinity and 1e999 as inf
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        for key, accepts, requirement in RULES:
            if not accepts(flat[key]):
                raise ValueError(f"{key} must be {requirement}, got {flat[key]!r}")
        if self.model.d % self.model.heads:
            raise ValueError(
                f"model.heads must divide model.d={self.model.d}, got {self.model.heads}"
            )
        if self.data.n_clusters > self.data.n_items:
            raise ValueError(f"data.n_clusters must not exceed data.n_items="
                             f"{self.data.n_items}, got {self.data.n_clusters}")
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
