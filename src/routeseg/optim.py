"""SGD with momentum, Adam, classic coupled weight decay, cosine schedule.

Two preset regimes: ``sgd`` (lr 0.05, momentum 0.9, weight decay 1e-4,
400 epochs, batch 24, constant lr) and ``adam`` (lr 5e-4, cosine
schedule, 200 epochs, batch 16). Weight decay is coupled (added to the
gradient) and skips biases and norm affines; the rule is structural:
rank <= 1 tensors are exempt, weight matrices and conv kernels are not.

Updates run in the fixed parameter walk order, so a step is a pure
function of (parameters, per-name gradients, lr, state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .model import ConfigError
from .tensor import Tensor

OPTIMIZERS = ("sgd", "adam")
SCHEDULES = ("constant", "cosine")


@dataclass(frozen=True)
class OptimConfig:
    kind: str = "sgd"
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    schedule: str = "constant"
    epochs: int = 400
    batch_size: int = 24

    @staticmethod
    def preset(kind: str) -> "OptimConfig":
        if kind == "sgd":
            return OptimConfig()
        if kind == "adam":
            return OptimConfig(kind="adam", lr=5e-4, weight_decay=0.0,
                               schedule="cosine", epochs=200, batch_size=16)
        raise ConfigError(f"unknown optimizer preset {kind!r}")

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"negative weight_decay {self.weight_decay}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must be in [0, 1), got "
                                   f"({self.beta1}, {self.beta2})")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(
                f"epochs/batch_size must be >= 1, got {self.epochs}/{self.batch_size}")


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    if total_steps < 1 or not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


class Optimizer:
    """Holds per-parameter buffers keyed by name; updates in place."""

    def __init__(self, cfg: OptimConfig, named_params: Iterable[Tuple[str, Tensor]]):
        self.cfg = cfg
        self.named: List[Tuple[str, Tensor]] = list(named_params)
        seen = set()
        for name, _ in self.named:
            if name in seen:
                raise ValueError(f"duplicate parameter name {name!r}")
            seen.add(name)
        self.t = 0
        self.slots: Dict[str, Dict[str, np.ndarray]] = {}
        for name, p in self.named:
            if cfg.kind == "sgd":
                self.slots[name] = {"v": np.zeros_like(p.data)}
            else:
                self.slots[name] = {"m": np.zeros_like(p.data),
                                    "v": np.zeros_like(p.data)}

    def step(self, grads_by_name: Dict[str, np.ndarray], lr: float):
        cfg = self.cfg
        self.t += 1
        for name, p in self.named:
            g = grads_by_name.get(name)
            if g is None:
                raise ValueError(f"no gradient supplied for {name}")
            if g.shape != p.data.shape:
                raise ValueError(
                    f"{name}: gradient shape {g.shape} != param {p.data.shape}")
            if cfg.weight_decay and p.data.ndim >= 2:
                g = g + cfg.weight_decay * p.data
            slot = self.slots[name]
            if cfg.kind == "sgd":
                v = slot["v"]
                v *= cfg.momentum
                v += g
                p.data -= lr * v
            else:
                m, v = slot["m"], slot["v"]
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * g
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * np.square(g)
                mhat = m / (1.0 - cfg.beta1 ** self.t)
                vhat = v / (1.0 - cfg.beta2 ** self.t)
                p.data -= lr * mhat / (np.sqrt(vhat) + cfg.eps)

    def state_records(self) -> Dict[str, np.ndarray]:
        """Buffers under ``opt.`` names for embedding in checkpoints.

        The slot arrays are the live buffers, so copying records into them
        restores the slots; ``opt.t`` is a copy the caller reads back.
        """
        out: Dict[str, np.ndarray] = {
            "opt.t": np.array(float(self.t), dtype=np.float64)}
        for name, _ in self.named:
            for key, buf in self.slots[name].items():
                out[f"opt.{name}.{key}"] = buf
        return out
