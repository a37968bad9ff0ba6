"""Run configuration: plain ``key = value`` text, every key defaulted.

Unknown keys and duplicate keys are rejected naming the offender; the
retired ``threads`` key, which older checkpoints embed, is ignored. The
effective (defaults-merged) configuration serializes back to the same
format via :func:`effective_text`; parsing that text reproduces any
``RunConfig`` exactly, parsed or built in code, whose strings hold no
``#``, line break or leading or trailing whitespace (those it refuses),
and it is the text embedded in checkpoints and echoed into output
directories. Every config class checks its values when it is built, so
a config that exists is valid.

Each key is one ``_KEYS`` row naming the field it sets; its default is
that field's dataclass default. The ``optimizer`` key sets ``optim.kind``,
and the other optimizer keys default to that regime's preset
(:meth:`OptimConfig.preset`); explicit keys override the preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Dict, List, Tuple

from .attention import SCALE_MODES
from .data import AugmentConfig, check_split_fractions
from .losses import check_loss_lambda
from .model import ConfigError, ModelConfig
from .optim import OPTIMIZERS, SCHEDULES, OptimConfig


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
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return raw
    return parse


def _items(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda raw: tuple(parse(p.strip()) for p in raw.split(","))


def _auto(parse: Callable[[str], object]) -> Callable[[str], object]:
    return lambda raw: None if raw.lower() == "auto" else parse(raw)


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


@dataclass(frozen=True)
class _Key:
    name: str
    field: str      # dotted RunConfig attribute: "model.sccsa", "optim.eps", "seed"
    parse: Callable[[str], object]
    doc: str


_KEYS: List[_Key] = [
    # architecture
    _Key("in_channels", "model.in_channels", _parse_int, "input image channels"),
    _Key("num_classes", "model.num_classes", _parse_int,
         "segmentation classes incl. background"),
    _Key("base_channels", "model.base_channels", _parse_int, "stage-1 channel count C"),
    _Key("stage_depths", "model.stage_depths", _items(_parse_int),
         "blocks per stage, encoder through decoder"),
    _Key("top_k_schedule", "model.top_k_schedule", _auto(_items(_parse_int)),
         "routed regions kept per stage; auto = 2,4,8,S^2,8,4,2"),
    _Key("s", "model.s", _parse_int, "region partition factor S"),
    _Key("input_hw", "model.input_hw", _parse_int, "square input side, multiple of 32"),
    _Key("sccsa_enabled", "model.sccsa", _parse_bool,
         "channel+spatial skip fusion (plain concat fusion when false)"),
    _Key("skip_mask", "model.skip_mask", _items(_parse_bool),
         "skip connections at 1/4, 1/8, 1/16 scale"),
    _Key("scale_mode", "model.scale_mode", _choice(*SCALE_MODES),
         "attention logit scaling convention"),
    _Key("qkv_bias", "model.qkv_bias", _parse_bool, "bias terms on q/k/v projections"),
    # optimizer
    _Key("optimizer", "optim.kind", _choice(*OPTIMIZERS), "training regime preset"),
    _Key("lr", "optim.lr", _parse_float, "initial learning rate"),
    _Key("momentum", "optim.momentum", _parse_float, "sgd momentum"),
    _Key("weight_decay", "optim.weight_decay", _parse_float, "coupled weight decay"),
    _Key("beta1", "optim.beta1", _parse_float, "adam first-moment decay"),
    _Key("beta2", "optim.beta2", _parse_float, "adam second-moment decay"),
    _Key("adam_eps", "optim.eps", _parse_float, "adam denominator epsilon"),
    _Key("schedule", "optim.schedule", _choice(*SCHEDULES),
         "learning-rate schedule"),
    _Key("epochs", "optim.epochs", _parse_int, "training epochs"),
    _Key("batch_size", "optim.batch_size", _parse_int, "samples per optimizer step"),
    # loss
    _Key("loss_lambda", "loss_lambda", _parse_float,
         "hybrid weight: lambda*dice + (1-lambda)*ce; 1 = dice only"),
    # augmentation
    _Key("augment", "augment", _parse_bool, "apply training augmentations"),
    _Key("p_hflip", "aug.p_hflip", _parse_float, "horizontal flip probability"),
    _Key("p_vflip", "aug.p_vflip", _parse_float, "vertical flip probability"),
    _Key("p_rot", "aug.p_rot", _parse_float, "right-angle rotation probability"),
    _Key("p_cutout", "aug.p_cutout", _parse_float, "cutout probability"),
    _Key("cutout_lo", "aug.cutout_lo", _auto(_parse_int), "min cutout side; auto = hw/16"),
    _Key("cutout_hi", "aug.cutout_hi", _auto(_parse_int), "max cutout side; auto = hw/4"),
    # data
    _Key("data_root", "data_root", str, "dataset directory (images/ + masks/)"),
    _Key("synthetic", "synthetic", _parse_bool, "generate data instead of loading"),
    _Key("synth_n", "synth_n", _parse_int, "synthetic sample count"),
    _Key("split_file", "split_file", str, "id<TAB>split assignments; empty = derive"),
    _Key("split_fractions", "split_fractions", _items(_parse_float),
         "train/val/test fractions when deriving splits"),
    _Key("kfold", "kfold", _parse_int, "k for k-fold validation splits; 0 = off"),
    _Key("fold", "fold", _parse_int, "validation fold index when kfold > 0"),
    # run
    _Key("seed", "seed", _parse_int, "master seed for init, shuffles, augment"),
    _Key("eval_every", "eval_every", _parse_int,
         "validation cadence in epochs; 0 = end only"),
    _Key("eval_hausdorff", "eval_hausdorff", _parse_bool, "include Hausdorff in eval"),
]

_BY_NAME = {k.name: k for k in _KEYS}
# keys that older checkpoints embed; accepted and ignored
_RETIRED = ("threads",)


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    optim: OptimConfig
    aug: AugmentConfig
    augment: bool = True
    loss_lambda: float = 0.6
    data_root: str = ""
    synthetic: bool = False
    synth_n: int = 64
    split_file: str = ""
    split_fractions: Tuple[float, ...] = (0.8, 0.1, 0.1)
    kfold: int = 0
    fold: int = 0
    seed: int = 0
    eval_every: int = 25
    eval_hausdorff: bool = False

    def __post_init__(self):
        lo, hi = self.aug.cutout_bounds(self.model.input_hw)
        for key, side in (("cutout_lo", lo), ("cutout_hi", hi)):
            if side > self.model.input_hw:
                raise ConfigError(f"{key} {side} exceeds input_hw {self.model.input_hw}")
        if lo > hi:
            raise ConfigError(f"cutout_lo {lo} exceeds cutout_hi {hi} at "
                              f"input_hw {self.model.input_hw}")
        check_loss_lambda(self.loss_lambda)
        check_split_fractions(self.split_fractions)
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


def _assemble(values: Dict[str, object]) -> RunConfig:
    """Build a RunConfig from the keys a text set; unset fields keep their
    dataclass default, unset optimizer fields the selected preset's value."""
    groups: Dict[str, Dict[str, object]] = {"model": {}, "optim": {}, "aug": {}, "": {}}
    for name, value in values.items():
        prefix, _, attr = _BY_NAME[name].field.rpartition(".")
        groups[prefix][attr] = value
    optim = OptimConfig.preset(groups["optim"].get("kind", OptimConfig.kind))
    return RunConfig(model=ModelConfig(**groups["model"]),
                     optim=replace(optim, **groups["optim"]),
                     aug=AugmentConfig(**groups["aug"]), **groups[""])


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: Dict[str, object] = {}
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
        if key in _RETIRED:
            continue
        spec = _BY_NAME.get(key)
        if spec is None:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
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
    """All keys with their effective values; parses back to ``cfg``. A value
    holding ``#``, a line break or edge whitespace is refused, naming its key."""
    values = {k.name: _fmt(attrgetter(k.field)(cfg)) for k in _KEYS}
    for key, v in values.items():
        if "#" in v or v != v.strip() or len(v.splitlines()) > 1:
            raise ConfigError(f"{key}: config text cannot hold {v!r} "
                              f"('#', a line break or edge whitespace)")
    return "".join(f"{key} = {v}\n" for key, v in values.items())


def describe_keys() -> str:
    """Human-readable key table for --help-config.

    Every optimizer key but ``optimizer`` has a per-preset default, so
    its row shows both: ``sgd 0.05 / adam 0.0005``. Columns are sized to
    their widest entry, so every description starts in the same column.
    """
    defaults = default_config()
    presets = [(kind, OptimConfig.preset(kind)) for kind in OPTIMIZERS]

    def default(field: str) -> str:
        if field == "optim.kind" or not field.startswith("optim."):
            return _fmt(attrgetter(field)(defaults))
        get = attrgetter(field.removeprefix("optim."))
        return " / ".join(f"{kind} {_fmt(get(p))}" for kind, p in presets)

    rows = [(k.name, default(k.field), k.doc) for k in _KEYS]
    wn, wd = (max(len(r[i]) for r in rows) for i in (0, 1))
    return "".join(f"{name:<{wn}}  default {d:<{wd}}  {doc}\n" for name, d, doc in rows)
