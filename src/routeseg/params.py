"""Parameter containers and initializers.

Network parameters are frozen-ish dataclasses holding Tensors; batch-norm
running statistics are plain ndarrays (buffers, excluded from gradients
and parameter counts). One walk flattens a nested structure into dotted
names for checkpoints, optimizers and counting; one rebuild replaces
each Tensor, which ``bind`` uses to watch every Tensor on a tape while
sharing buffer arrays by reference.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Tuple

import numpy as np

from .tensor import Tape, Tensor


def _join(prefix: str, key) -> str:
    return f"{prefix}.{key}" if prefix else str(key)


def _leaves(obj, prefix: str = "") -> Iterator[Tuple[str, object]]:
    """Yield (dotted name, leaf) for every Tensor and ndarray, in field order."""
    if isinstance(obj, (Tensor, np.ndarray)):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), _join(prefix, f.name))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _leaves(item, _join(prefix, i))
    # ints, strings, None: not state


def map_tensors(obj, fn, prefix: str = ""):
    """Rebuild a structure with ``fn(dotted name, tensor)`` in place of each
    Tensor; buffers and scalars pass through by reference."""
    if isinstance(obj, Tensor):
        return fn(prefix, obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.replace(obj, **{
            f.name: map_tensors(getattr(obj, f.name), fn, _join(prefix, f.name))
            for f in dataclasses.fields(obj)})
    if isinstance(obj, (list, tuple)):
        items = [map_tensors(v, fn, _join(prefix, i)) for i, v in enumerate(obj)]
        return items if isinstance(obj, list) else tuple(items)
    return obj


def walk_tensors(obj) -> Iterator[Tuple[str, Tensor]]:
    """Yield (dotted name, Tensor) over a nested parameter structure."""
    return ((n, v) for n, v in _leaves(obj) if isinstance(v, Tensor))


def walk_buffers(obj) -> Iterator[Tuple[str, np.ndarray]]:
    """Yield (dotted name, ndarray) for non-Tensor array fields (BN stats)."""
    return ((n, v) for n, v in _leaves(obj) if isinstance(v, np.ndarray))


def bind(obj, tape: Tape):
    """Rebuild a structure with all Tensors watched on ``tape``.

    Buffers and scalars pass through by reference, so in-place running
    stat updates made through the bound copy reach the original. A Tensor
    that is already bound raises the tape's ``ValueError``.
    """
    return map_tensors(obj, lambda _, t: tape.watch(t))


def named_arrays(obj) -> dict:
    """Dotted-name view of every Tensor's raw array in a structure."""
    return {name: t.data for name, t in walk_tensors(obj)}


def substitute(obj, mapping: dict):
    """Rebuild a structure, replacing Tensors whose dotted name is mapped."""
    return map_tensors(obj, lambda name, t: mapping.get(name, t))


# ---------------------------------------------------------------------------
# initializers


def trunc_normal(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Normal(0, 0.02) with redraws outside +-0.04; blank if ``rng`` is None."""
    if rng is None:
        return np.empty(shape, dtype)
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    for _ in range(16):
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    np.clip(out, -2.0 * std, 2.0 * std, out=out)
    return out.astype(dtype)


_DRAW = 1 << 16      # values per conv_init draw: a 512 KiB float64 temporary


def conv_init(rng: np.random.Generator, kh: int, kw: int, cin: int, cout: int,
              dtype=np.float32) -> np.ndarray:
    """Fan-in scaled normal for conv kernels laid out [kh, kw, cin, cout].

    Drawn into the output in pieces of ``_DRAW`` values. ``Generator.normal``
    gives the same stream in pieces as in one call, so every value equals
    ``rng.normal(0, std, size).astype(dtype)`` bit for bit, without a
    float64 copy of the whole kernel. A None ``rng`` leaves it blank.
    """
    out = np.empty((kh, kw, cin, cout), dtype=dtype)
    if rng is None:
        return out
    std = math.sqrt(2.0 / (kh * kw * cin))
    flat = out.reshape(-1)
    for i in range(0, flat.size, _DRAW):
        flat[i:i + _DRAW] = rng.normal(0.0, std, size=min(_DRAW, flat.size - i))
    return out
