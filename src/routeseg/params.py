"""Parameter containers and initializers.

Network parameters are frozen-ish dataclasses holding Tensors; batch-norm
running statistics are plain ndarrays (buffers, excluded from gradients
and parameter counts). Generic walkers flatten nested structures into
dotted names for checkpoints, optimizers, and counting, and ``bind``
rebuilds a structure with every Tensor watched on a tape while sharing
buffer arrays by reference.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Tuple

import numpy as np

from .tensor import Tape, Tensor


def walk_tensors(obj, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
    """Yield (dotted name, Tensor) over a nested parameter structure."""
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            head = f"{prefix}.{f.name}" if prefix else f.name
            yield from walk_tensors(getattr(obj, f.name), head)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            head = f"{prefix}.{i}" if prefix else str(i)
            yield from walk_tensors(item, head)
    # buffers (ndarray), ints, strings, None: not parameters


def walk_buffers(obj, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
    """Yield (dotted name, ndarray) for non-Tensor array fields (BN stats)."""
    if isinstance(obj, np.ndarray):
        yield prefix, obj
    elif isinstance(obj, Tensor):
        return
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            head = f"{prefix}.{f.name}" if prefix else f.name
            yield from walk_buffers(getattr(obj, f.name), head)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            head = f"{prefix}.{i}" if prefix else str(i)
            yield from walk_buffers(item, head)


def bind(obj, tape: Tape):
    """Rebuild a structure with all Tensors watched on ``tape``.

    Buffers and scalars pass through by reference, so in-place running
    stat updates made through the bound copy reach the original.
    """
    if isinstance(obj, Tensor):
        return tape.watch(Tensor(obj.data)) if obj.tape is None else obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        updates = {f.name: bind(getattr(obj, f.name), tape)
                   for f in dataclasses.fields(obj)}
        return dataclasses.replace(obj, **updates)
    if isinstance(obj, list):
        return [bind(v, tape) for v in obj]
    if isinstance(obj, tuple):
        return tuple(bind(v, tape) for v in obj)
    return obj


def named_arrays(obj) -> dict:
    """Dotted-name view of every Tensor's raw array in a structure."""
    return {name: t.data for name, t in walk_tensors(obj)}


def substitute(obj, mapping: dict, prefix: str = ""):
    """Rebuild a structure, replacing Tensors whose dotted name is mapped."""
    if isinstance(obj, Tensor):
        return mapping.get(prefix, obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        updates = {}
        for f in dataclasses.fields(obj):
            head = f"{prefix}.{f.name}" if prefix else f.name
            updates[f.name] = substitute(getattr(obj, f.name), mapping, head)
        return dataclasses.replace(obj, **updates)
    if isinstance(obj, list):
        return [substitute(v, mapping, f"{prefix}.{i}" if prefix else str(i))
                for i, v in enumerate(obj)]
    if isinstance(obj, tuple):
        return tuple(substitute(v, mapping, f"{prefix}.{i}" if prefix else str(i))
                     for i, v in enumerate(obj))
    return obj


def count_scalars(obj) -> int:
    return sum(t.size for _, t in walk_tensors(obj))


# ---------------------------------------------------------------------------
# initializers


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02,
                 dtype=np.float32) -> np.ndarray:
    """Normal(0, std) with redraws outside +-2 std."""
    out = rng.normal(0.0, std, size=shape)
    for _ in range(16):
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    np.clip(out, -2.0 * std, 2.0 * std, out=out)
    return out.astype(dtype)


def conv_init(rng: np.random.Generator, kh: int, kw: int, cin: int, cout: int,
              dtype=np.float32) -> np.ndarray:
    """Fan-in scaled normal for conv kernels laid out [kh, kw, cin, cout]."""
    std = math.sqrt(2.0 / (kh * kw * cin))
    return rng.normal(0.0, std, size=(kh, kw, cin, cout)).astype(dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    return np.zeros(shape, dtype=dtype)


def ones(shape, dtype=np.float32) -> np.ndarray:
    return np.ones(shape, dtype=dtype)
