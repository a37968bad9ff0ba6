"""Dataset io, synthetic data, augmentation, and split assignment.

Directory layout: ``root/images/*.ppm|*.pgm`` and ``root/masks/*.pgm``
with matching basenames; masks hold raw class indices. Split files are
plain text, one ``id<TAB>split`` per line.

Determinism: every random choice in this module flows through
:class:`SplitMix64`, defined by an integer recurrence (all arithmetic
mod 2**64) so that any implementation, in any language, reproduces the
exact same streams:

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2**64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2**64
    output = z XOR (z >> 31)

Floats are drawn as ``(output >> 11) * 2**-53``; bounded integers by
rejection sampling on the top of the range. ``augment`` draws one
decision float per transform in a fixed order (hflip, vflip, rotation,
cutout) and draws a transform's parameters only when it fires.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import ConfigError

log = logging.getLogger(__name__)

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class DataError(ValueError):
    """Bad dataset contents or paths; the CLI maps this to exit code 3."""


class SplitMix64:
    """The documented counter-based generator. See the module docstring."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    @staticmethod
    def _mix(z):
        """Mix an int, or a uint64 array elementwise (it wraps mod 2**64)."""
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return self._mix(self._state)

    def next_array(self, n: int) -> np.ndarray:
        """n outputs at once (uint64); same stream as n next_u64 calls."""
        counters = (np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
                    + np.uint64(self._state))
        self._state = (self._state + n * _GAMMA) & MASK64
        return self._mix(counters)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_float_array(self, n: int) -> np.ndarray:
        return (self.next_array(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n < 1:
            raise ValueError(f"below() wants n >= 1, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(seed: int, *components: int) -> int:
    """Stable per-item seed: absorb each component into the stream."""
    rng = SplitMix64(seed)
    out = rng.next_u64()
    for c in components:
        rng._state = (rng._state ^ (c & MASK64)) & MASK64
        out = rng.next_u64()
    return out


# ---------------------------------------------------------------------------
# PGM (P5) / PPM (P6) io, 8-bit binary only


def _read_header_token(blob: bytes, pos: int, path: str) -> Tuple[bytes, int]:
    n = len(blob)
    while pos < n:
        c = blob[pos:pos + 1]
        if c == b"#":
            while pos < n and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise DataError(f"{path}: truncated header")
    start = pos
    while pos < n and not blob[pos:pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def _parse_pnm(path: str) -> Tuple[np.ndarray, int]:
    """(pixels, maxval): P5 -> uint8 [H, W]; P6 -> uint8 [H, W, 3]."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    magic, pos = _read_header_token(blob, 0, path)
    if magic not in (b"P5", b"P6"):
        raise DataError(f"{path}: unsupported format {magic!r}, want P5 or P6")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_header_token(blob, pos, path)
        if not token.isdigit():
            raise DataError(f"{path}: bad {name} {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad extents {width}x{height}")
    if not 1 <= maxval <= 255:
        raise DataError(f"{path}: maxval {maxval} unsupported, want <= 255")
    pos += 1                       # single whitespace byte after maxval
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    payload = blob[pos:pos + need]
    if len(payload) != need:
        raise DataError(f"{path}: expected {need} pixel bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if maxval < 255 and arr.max() > maxval:   # no byte can exceed 255
        raise DataError(f"{path}: pixel value {arr.max()} exceeds maxval {maxval}")
    shape = (height, width) if channels == 1 else (height, width, 3)
    return arr.reshape(shape).copy(), maxval


def read_pnm(path: str) -> np.ndarray:
    """P5 -> uint8 [H, W]; P6 -> uint8 [H, W, 3], values as stored."""
    return _parse_pnm(path)[0]


def write_pgm(path: str, arr: np.ndarray):
    a = np.asarray(arr)
    if a.ndim != 2:
        raise DataError(f"write_pgm wants [H, W], got shape {a.shape}")
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (a.shape[1], a.shape[0]))
        f.write(np.ascontiguousarray(a, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# samples


@dataclass
class SegSample:
    id: str
    image: np.ndarray           # f32 [H, W, C] in [0, 1]
    mask: np.ndarray            # int64 [H, W] class indices


def adapt_channels(image: np.ndarray, in_channels: int) -> np.ndarray:
    """Match the channel count: replicate gray, average to gray."""
    if image.ndim == 2:
        image = image[:, :, None]
    have = image.shape[2]
    if have == in_channels:
        return image
    if have == 1:
        return np.repeat(image, in_channels, axis=2)
    if in_channels == 1:
        return image.mean(axis=2, keepdims=True, dtype=image.dtype)
    raise DataError(f"cannot adapt {have}-channel image to {in_channels} channels")


def to_unit_image(raw: np.ndarray, in_channels: int, maxval: int) -> np.ndarray:
    scaled = raw.astype(np.float32) / np.float32(maxval)
    return adapt_channels(scaled, in_channels)


def read_image(path: str, in_channels: int) -> np.ndarray:
    """A P5/P6 file as f32 [H, W, in_channels], its maxval mapped to 1."""
    raw, maxval = _parse_pnm(path)
    return to_unit_image(raw, in_channels, maxval)


def load_dataset(root: str, in_channels: int, num_classes: int) -> List[SegSample]:
    """All samples under root, ordered lexicographically by id."""
    images_dir = os.path.join(root, "images")
    masks_dir = os.path.join(root, "masks")
    if not os.path.isdir(images_dir) or not os.path.isdir(masks_dir):
        raise DataError(f"{root}: wants images/ and masks/ subdirectories")
    by_id: Dict[str, str] = {}
    for fname in sorted(os.listdir(images_dir)):
        stem, ext = os.path.splitext(fname)
        if ext not in (".pgm", ".ppm"):
            continue
        if stem in by_id:
            raise DataError(f"{images_dir}: duplicate image id {stem!r}")
        by_id[stem] = os.path.join(images_dir, fname)
    samples = []
    for stem in sorted(by_id):
        mask_path = os.path.join(masks_dir, stem + ".pgm")
        if not os.path.isfile(mask_path):
            raise DataError(f"{by_id[stem]}: missing mask {mask_path}")
        image = read_image(by_id[stem], in_channels)
        mask = read_pnm(mask_path)
        if mask.ndim != 2:
            raise DataError(f"{mask_path}: masks must be single-channel P5")
        if image.shape[:2] != mask.shape:
            raise DataError(f"{by_id[stem]}: image {image.shape[:2]} vs "
                            f"mask {mask.shape} extent mismatch")
        top = int(mask.max())
        if top >= num_classes:
            raise DataError(f"{mask_path}: class index {top} >= K={num_classes}")
        samples.append(SegSample(id=stem, image=image, mask=mask.astype(np.int64)))
    return samples


def stack_batch(samples: Sequence[SegSample]) -> Tuple[np.ndarray, np.ndarray]:
    if not samples:
        raise DataError("empty batch")
    images = np.stack([s.image for s in samples]).astype(np.float32)
    masks = np.stack([s.mask for s in samples])
    return images, masks


# ---------------------------------------------------------------------------
# synthetic generator


_PALETTE = np.array([
    [0.82, 0.33, 0.26],
    [0.27, 0.62, 0.84],
    [0.45, 0.78, 0.34],
    [0.86, 0.72, 0.25],
    [0.62, 0.38, 0.78],
    [0.30, 0.76, 0.66],
    [0.80, 0.46, 0.64],
    [0.52, 0.55, 0.30],
], dtype=np.float32)


def _shape_interior(kind: str, hw: int, rng: SplitMix64) -> np.ndarray:
    """Boolean [hw, hw] membership for one randomly placed shape."""
    yy, xx = np.mgrid[0:hw, 0:hw].astype(np.float64)
    lo, hi = hw / 8.0, hw / 5.0
    cy = rng.uniform(hi, hw - hi)
    cx = rng.uniform(hi, hw - hi)
    if kind == "disk":
        r = rng.uniform(lo, hi)
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    if kind == "rect":
        ay = rng.uniform(lo, hi)
        ax = rng.uniform(lo, hi)
        return (np.abs(yy - cy) <= ay) & (np.abs(xx - cx) <= ax)
    ay = rng.uniform(lo, hi)
    ax = rng.uniform(lo, hi)
    return ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0


def synth_dataset(n: int, hw: int, num_classes: int, seed: int,
                  in_channels: int = 3) -> List[SegSample]:
    """Deterministic shapes-on-noise samples; masks exact by construction.

    Each image holds one to three non-overlapping shapes (disk,
    rectangle, ellipse), one foreground class per shape, on a noisy
    class-0 background. Unplaceable shapes are dropped with a log line
    rather than an error.
    """
    if num_classes < 2:
        raise DataError(f"synthetic data wants K >= 2, got {num_classes}")
    if hw < 16:
        raise DataError(f"synthetic data wants hw >= 16, got {hw}")
    samples = []
    for i in range(n):
        rng = SplitMix64(derive_seed(seed, i))
        base = rng.uniform(0.12, 0.35)
        noise = rng.next_float_array(hw * hw).reshape(hw, hw).astype(np.float32)
        image = np.empty((hw, hw, 3), dtype=np.float32)
        image[:] = (base + 0.08 * noise)[:, :, None]
        mask = np.zeros((hw, hw), dtype=np.int64)

        kinds = ["disk", "rect", "ellipse"]
        rng.shuffle(kinds)
        want = 1 + rng.below(3)
        placed = 0
        for j in range(want):
            kind = kinds[j % 3]
            cls = 1 + (j % (num_classes - 1))
            ok = None
            for _ in range(50):
                inside = _shape_interior(kind, hw, rng)
                if not (inside & (mask > 0)).any():
                    ok = inside
                    break
            if ok is None:
                log.warning("sample %d: no room for shape %d/%d (%s), dropped",
                            i, j + 1, want, kind)
                continue
            mask[ok] = cls
            color = _PALETTE[(cls - 1) % len(_PALETTE)]
            shade = 0.85 + 0.3 * rng.next_float()
            image[ok] = np.clip(color * shade, 0.0, 1.0)
            placed += 1
        tint = rng.next_float_array(hw * hw).reshape(hw, hw).astype(np.float32)
        image += 0.02 * (tint[:, :, None] - 0.5)
        np.clip(image, 0.0, 1.0, out=image)
        samples.append(SegSample(
            id=f"synth{i:05d}",
            image=adapt_channels(image, in_channels),
            mask=mask))
    return samples


# ---------------------------------------------------------------------------
# augmentation


@dataclass(frozen=True)
class AugmentConfig:
    p_hflip: float = 0.25
    p_vflip: float = 0.25
    p_rot: float = 0.25
    p_cutout: float = 0.25
    cutout_lo: Optional[int] = None      # default hw // 16
    cutout_hi: Optional[int] = None      # default hw // 4

    def __post_init__(self):
        for name in ("p_hflip", "p_vflip", "p_rot", "p_cutout"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        for name in ("cutout_lo", "cutout_hi"):
            side = getattr(self, name)
            if side is not None and side < 1:
                raise ConfigError(f"{name} must be >= 1, got {side}")

    def cutout_bounds(self, side: int) -> Tuple[int, int]:
        """Effective (lo, hi) cutout sides on an image whose short side is ``side``."""
        lo = self.cutout_lo if self.cutout_lo is not None else max(1, side // 16)
        hi = self.cutout_hi if self.cutout_hi is not None else max(lo, side // 4)
        return lo, hi


def augment(sample: SegSample, cfg: AugmentConfig, rng: SplitMix64) -> SegSample:
    """Flips and right-angle rotations move image and mask together;
    cutout zeroes a square on the image only."""
    image, mask = sample.image, sample.mask
    if rng.next_float() < cfg.p_hflip:
        image, mask = image[:, ::-1], mask[:, ::-1]
    if rng.next_float() < cfg.p_vflip:
        image, mask = image[::-1, :], mask[::-1, :]
    if rng.next_float() < cfg.p_rot:
        k = 1 + rng.below(3)
        image, mask = np.rot90(image, k), np.rot90(mask, k)
    if rng.next_float() < cfg.p_cutout:
        h, w = image.shape[:2]
        lo, hi = cfg.cutout_bounds(min(h, w))
        side = min(lo + rng.below(hi - lo + 1), h, w)
        top = rng.below(h - side + 1)
        left = rng.below(w - side + 1)
        image = image.copy()
        image[top:top + side, left:left + side, :] = 0.0
    return replace(sample, image=np.ascontiguousarray(image),
                   mask=np.ascontiguousarray(mask))


# ---------------------------------------------------------------------------
# splits


SPLIT_NAMES = ("train", "val", "test")


def check_split_fractions(fractions: Sequence[float]):
    if len(fractions) != len(SPLIT_NAMES):
        raise ConfigError("split_fractions wants exactly train,val,test")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split_fractions must be nonnegative and sum to 1: {fractions}")


def make_splits(ids: Sequence[str], fractions: Sequence[float],
                seed: int) -> Dict[str, str]:
    """Seeded shuffle, then largest-remainder apportionment of counts."""
    check_split_fractions(fractions)
    order = list(ids)
    SplitMix64(seed).shuffle(order)
    n = len(order)
    raw = [f * n for f in fractions]
    counts = [math.floor(r) for r in raw]
    leftovers = sorted(range(len(raw)),
                       key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in range(n - sum(counts)):
        counts[leftovers[i]] += 1
    out: Dict[str, str] = {}
    pos = 0
    for name, count in zip(SPLIT_NAMES, counts):
        for sid in order[pos:pos + count]:
            out[sid] = name
        pos += count
    return out


def kfold_splits(ids: Sequence[str], k: int, fold: int, seed: int) -> Dict[str, str]:
    """Fold ``fold`` of k as validation, rest training; folds disjoint."""
    if k < 2 or len(ids) < k:
        raise DataError(f"kfold wants 2 <= k <= len(ids), got k={k}, n={len(ids)}")
    if not 0 <= fold < k:
        raise DataError(f"fold index {fold} outside [0, {k})")
    order = list(ids)
    SplitMix64(seed).shuffle(order)
    out = {}
    for i, sid in enumerate(order):
        out[sid] = "val" if i % k == fold else "train"
    return out


def read_split_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: want 'id<TAB>split', got {line!r}")
        if parts[0] in out:
            raise DataError(f"{path}:{lineno}: duplicate id {parts[0]!r}")
        out[parts[0]] = parts[1]
    return out
