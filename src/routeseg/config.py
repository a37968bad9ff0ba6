"""Run configuration: plain ``key = value`` text, every key defaulted.

Unknown keys and duplicate keys are rejected naming the offender. The
effective (defaults-merged) configuration serializes back to the same
format via :func:`effective_text`; parsing that text reproduces the
config exactly, and it is the text embedded in checkpoints and echoed
into output directories.

Optimizer keys default to the selected regime's preset (``optimizer =
sgd``: lr 0.05, momentum 0.9, weight decay 1e-4, 400 epochs, batch 24,
constant schedule; ``optimizer = adam``: lr 5e-4, cosine, 200 epochs,
batch 16, no weight decay); explicit keys override the preset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from .data import AugmentConfig
from .model import ConfigError, ModelConfig
from .optim import OptimConfig


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None


def _parse_ints(raw: str) -> Tuple[int, ...]:
    return tuple(_parse_int(p.strip()) for p in raw.split(","))


def _parse_floats(raw: str) -> Tuple[float, ...]:
    return tuple(_parse_float(p.strip()) for p in raw.split(","))


def _parse_bools(raw: str) -> Tuple[bool, ...]:
    return tuple(_parse_bool(p.strip()) for p in raw.split(","))


def _parse_auto_ints(raw: str) -> Optional[Tuple[int, ...]]:
    return None if raw.lower() == "auto" else _parse_ints(raw)


def _parse_auto_int(raw: str) -> Optional[int]:
    return None if raw.lower() == "auto" else _parse_int(raw)


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return raw
    return parse


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PRESET = object()          # sentinel: default comes from the optimizer preset


@dataclass(frozen=True)
class _Key:
    name: str
    parse: Callable[[str], object]
    default: object
    doc: str


_KEYS: List[_Key] = [
    # architecture
    _Key("in_channels", _parse_int, 3, "input image channels"),
    _Key("num_classes", _parse_int, 9, "segmentation classes incl. background"),
    _Key("base_channels", _parse_int, 96, "stage-1 channel count C"),
    _Key("stage_depths", _parse_ints, (2, 2, 8, 0, 8, 2, 2),
         "blocks per stage, encoder through decoder"),
    _Key("top_k_schedule", _parse_auto_ints, None,
         "routed regions kept per stage; auto = 2,4,8,S^2,8,4,2"),
    _Key("s", _parse_int, 7, "region partition factor S"),
    _Key("input_hw", _parse_int, 224, "square input side, multiple of 32"),
    _Key("sccsa_enabled", _parse_bool, True,
         "channel+spatial skip fusion (plain concat fusion when false)"),
    _Key("skip_mask", _parse_bools, (True, True, True),
         "skip connections at 1/4, 1/8, 1/16 scale"),
    _Key("scale_mode", _choice("per_head", "model_dim"), "per_head",
         "attention logit scaling convention"),
    _Key("qkv_bias", _parse_bool, True, "bias terms on q/k/v projections"),
    # optimizer
    _Key("optimizer", _choice("sgd", "adam"), "sgd", "training regime preset"),
    _Key("lr", _parse_float, _PRESET, "initial learning rate"),
    _Key("momentum", _parse_float, _PRESET, "sgd momentum"),
    _Key("weight_decay", _parse_float, _PRESET, "coupled weight decay"),
    _Key("beta1", _parse_float, _PRESET, "adam first-moment decay"),
    _Key("beta2", _parse_float, _PRESET, "adam second-moment decay"),
    _Key("adam_eps", _parse_float, _PRESET, "adam denominator epsilon"),
    _Key("schedule", _choice("constant", "cosine"), _PRESET,
         "learning-rate schedule"),
    _Key("epochs", _parse_int, _PRESET, "training epochs"),
    _Key("batch_size", _parse_int, _PRESET, "samples per optimizer step"),
    # loss
    _Key("loss_lambda", _parse_float, 0.6,
         "hybrid weight: lambda*dice + (1-lambda)*ce; 1 = dice only"),
    # augmentation
    _Key("augment", _parse_bool, True, "apply training augmentations"),
    _Key("p_hflip", _parse_float, 0.25, "horizontal flip probability"),
    _Key("p_vflip", _parse_float, 0.25, "vertical flip probability"),
    _Key("p_rot", _parse_float, 0.25, "right-angle rotation probability"),
    _Key("p_cutout", _parse_float, 0.25, "cutout probability"),
    _Key("cutout_lo", _parse_auto_int, None, "min cutout side; auto = hw/16"),
    _Key("cutout_hi", _parse_auto_int, None, "max cutout side; auto = hw/4"),
    # data
    _Key("data_root", str, "", "dataset directory (images/ + masks/)"),
    _Key("synthetic", _parse_bool, False, "generate data instead of loading"),
    _Key("synth_n", _parse_int, 64, "synthetic sample count"),
    _Key("split_file", str, "", "id<TAB>split assignments; empty = derive"),
    _Key("split_fractions", _parse_floats, (0.8, 0.1, 0.1),
         "train/val/test fractions when deriving splits"),
    _Key("kfold", _parse_int, 0, "k for k-fold validation splits; 0 = off"),
    _Key("fold", _parse_int, 0, "validation fold index when kfold > 0"),
    # run
    _Key("seed", _parse_int, 0, "master seed for init, shuffles, augment"),
    _Key("eval_every", _parse_int, 25, "validation cadence in epochs; 0 = end only"),
    _Key("eval_hausdorff", _parse_bool, False, "include Hausdorff in eval"),
    _Key("threads", _parse_int, 1, "recorded only; pin BLAS threads with OPENBLAS_NUM_THREADS"),
]

_BY_NAME = {k.name: k for k in _KEYS}

_OPTIM_FIELD = {"lr": "lr", "momentum": "momentum", "weight_decay": "weight_decay",
                "beta1": "beta1", "beta2": "beta2", "adam_eps": "eps",
                "schedule": "schedule", "epochs": "epochs",
                "batch_size": "batch_size"}


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    optim: OptimConfig
    aug: AugmentConfig
    optimizer_kind: str
    augment: bool
    loss_lambda: float
    data_root: str
    synthetic: bool
    synth_n: int
    split_file: str
    split_fractions: Tuple[float, ...]
    kfold: int
    fold: int
    seed: int
    eval_every: int
    eval_hausdorff: bool
    threads: int

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.optim.validate()
        try:
            self.aug.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        lo, hi = self.aug.cutout_bounds(self.model.input_hw)
        for key, side in (("cutout_lo", lo), ("cutout_hi", hi)):
            if side > self.model.input_hw:
                raise ConfigError(f"{key} {side} exceeds input_hw {self.model.input_hw}")
        if lo > hi:
            raise ConfigError(f"cutout_lo {lo} exceeds cutout_hi {hi} at "
                              f"input_hw {self.model.input_hw}")
        if not 0.0 <= self.loss_lambda <= 1.0:
            raise ConfigError(f"loss_lambda must sit in [0, 1], "
                              f"got {self.loss_lambda}")
        if len(self.split_fractions) != 3:
            raise ConfigError("split_fractions wants exactly train,val,test")
        if any(f < 0 for f in self.split_fractions) \
                or abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split_fractions must be nonnegative and sum "
                              f"to 1: {self.split_fractions}")
        if self.kfold < 0 or self.kfold == 1:
            raise ConfigError(f"kfold must be 0 or >= 2, got {self.kfold}")
        if self.kfold and not 0 <= self.fold < self.kfold:
            raise ConfigError(f"fold {self.fold} outside [0, {self.kfold})")
        if self.synth_n < 1:
            raise ConfigError(f"synth_n must be >= 1, got {self.synth_n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        return self


def _assemble(values: Dict[str, object]) -> RunConfig:
    optim = OptimConfig.preset(values["optimizer"])
    overrides = {}
    for key, field_name in _OPTIM_FIELD.items():
        if values[key] is not _PRESET:
            overrides[field_name] = values[key]
    if overrides:
        optim = replace(optim, **overrides)

    model = ModelConfig(
        in_channels=values["in_channels"],
        num_classes=values["num_classes"],
        base_channels=values["base_channels"],
        stage_depths=tuple(values["stage_depths"]),
        top_k_schedule=values["top_k_schedule"],
        s=values["s"],
        input_hw=values["input_hw"],
        sccsa=values["sccsa_enabled"],
        skip_mask=tuple(values["skip_mask"]),
        scale_mode=values["scale_mode"],
        qkv_bias=values["qkv_bias"],
    )
    aug = AugmentConfig(
        p_hflip=values["p_hflip"], p_vflip=values["p_vflip"],
        p_rot=values["p_rot"], p_cutout=values["p_cutout"],
        cutout_lo=values["cutout_lo"], cutout_hi=values["cutout_hi"])
    return RunConfig(
        model=model, optim=optim, aug=aug,
        optimizer_kind=values["optimizer"],
        augment=values["augment"],
        loss_lambda=values["loss_lambda"],
        data_root=values["data_root"],
        synthetic=values["synthetic"],
        synth_n=values["synth_n"],
        split_file=values["split_file"],
        split_fractions=tuple(values["split_fractions"]),
        kfold=values["kfold"],
        fold=values["fold"],
        seed=values["seed"],
        eval_every=values["eval_every"],
        eval_hausdorff=values["eval_hausdorff"],
        threads=values["threads"],
    ).validate()


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: Dict[str, object] = {k.name: k.default for k in _KEYS}
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        spec = _BY_NAME.get(key)
        if spec is None:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            values[key] = spec.parse(raw)
        except ConfigError as e:
            raise ConfigError(f"{source}:{lineno}: {key}: {e}") from None
    return _assemble(values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from None
    return parse_config_text(text, source=path)


def default_config() -> RunConfig:
    return parse_config_text("")


def effective_text(cfg: RunConfig) -> str:
    """All keys with their effective values; parses back to ``cfg``."""
    values: Dict[str, object] = {
        "in_channels": cfg.model.in_channels,
        "num_classes": cfg.model.num_classes,
        "base_channels": cfg.model.base_channels,
        "stage_depths": cfg.model.stage_depths,
        "top_k_schedule": cfg.model.top_k_schedule,
        "s": cfg.model.s,
        "input_hw": cfg.model.input_hw,
        "sccsa_enabled": cfg.model.sccsa,
        "skip_mask": cfg.model.skip_mask,
        "scale_mode": cfg.model.scale_mode,
        "qkv_bias": cfg.model.qkv_bias,
        "optimizer": cfg.optimizer_kind,
        "lr": cfg.optim.lr,
        "momentum": cfg.optim.momentum,
        "weight_decay": cfg.optim.weight_decay,
        "beta1": cfg.optim.beta1,
        "beta2": cfg.optim.beta2,
        "adam_eps": cfg.optim.eps,
        "schedule": cfg.optim.schedule,
        "epochs": cfg.optim.epochs,
        "batch_size": cfg.optim.batch_size,
        "loss_lambda": cfg.loss_lambda,
        "augment": cfg.augment,
        "p_hflip": cfg.aug.p_hflip,
        "p_vflip": cfg.aug.p_vflip,
        "p_rot": cfg.aug.p_rot,
        "p_cutout": cfg.aug.p_cutout,
        "cutout_lo": cfg.aug.cutout_lo,
        "cutout_hi": cfg.aug.cutout_hi,
        "data_root": cfg.data_root,
        "synthetic": cfg.synthetic,
        "synth_n": cfg.synth_n,
        "split_file": cfg.split_file,
        "split_fractions": cfg.split_fractions,
        "kfold": cfg.kfold,
        "fold": cfg.fold,
        "seed": cfg.seed,
        "eval_every": cfg.eval_every,
        "eval_hausdorff": cfg.eval_hausdorff,
        "threads": cfg.threads,
    }
    lines = [f"{k.name} = {_fmt(values[k.name])}" for k in _KEYS]
    return "\n".join(lines) + "\n"


def describe_keys() -> str:
    """Human-readable key table for --help-config."""
    width = max(len(k.name) for k in _KEYS)
    lines = []
    for k in _KEYS:
        default = "(from optimizer preset)" if k.default is _PRESET \
            else _fmt(k.default)
        lines.append(f"{k.name:<{width}}  default {default:<16}  {k.doc}")
    return "\n".join(lines) + "\n"
