"""Seven-stage u-shaped network assembly.

Encoder stages 1-3 run blocks at C, 2C, 4C on strides 4, 8, 16, each
followed by a patch merge; stage 4 sits at 8C on stride 32. Decoder
stages 5-7 mirror 4C, 2C, C, each entered through a patch expand and,
where the skip mask allows, a fusion with the matching encoder output
(expand -> concat/fuse -> blocks). A final 4x expand and a linear head
produce per-pixel class logits at input resolution; the head runs on the
expand's sub-pixel cells and only the logits are pixel-shuffled.

The default depths put zero blocks in stage 4: the published parameter
and FLOP totals for this architecture are only mutually consistent with
an empty bottleneck (the merge to 8C and the expand back remain), so the
preset reproduces those totals; any other depth layout is a config edit
away and fully supported.

Partitioning (``ModelConfig.partitions``): every stage uses the factor S
where its side divides, otherwise the largest divisor of the side that
fits, so deep stages degrade to single-pixel regions and finally to one
region. top_k is clamped per stage to the available region count.
"""

from __future__ import annotations

import copy
import math
import os
import struct as structmod
import sys
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attention import LCE_KERNEL, SCALE_MODES, PartitionSpec, attention_flops, effective_s
from .blocks import (MLP_RATIO, BlockParams, PatchEmbedParams,
                     PatchExpandParams, PatchMergeParams, block_forward,
                     patch_embed, patch_expand, patch_merge, pixel_shuffle)
from .fusion import (GATE_KERNEL, GATE_REDUCTION, FusionParams,
                     PlainFuseParams, channel_spatial_fuse, plain_fuse)
from .params import bind, named_arrays, trunc_normal, walk_buffers, walk_tensors
from .tensor import Tape, Tensor, dense

HEAD_DIM = 32
NUM_STAGES = 7


class ConfigError(ValueError):
    """Bad configuration; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 3
    num_classes: int = 9
    base_channels: int = 96
    stage_depths: Tuple[int, ...] = (2, 2, 8, 0, 8, 2, 2)
    top_k_schedule: Optional[Tuple[int, ...]] = None
    s: int = 7
    input_hw: int = 224
    sccsa: bool = True
    skip_mask: Tuple[bool, bool, bool] = (True, True, True)
    scale_mode: str = "per_head"
    qkv_bias: bool = True

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.base_channels < 2 or self.base_channels % 2:
            raise ConfigError(
                f"base_channels must be even and >= 2, got {self.base_channels}")
        if len(self.stage_depths) != NUM_STAGES:
            raise ConfigError(f"stage_depths wants {NUM_STAGES} entries, "
                              f"got {len(self.stage_depths)}")
        if any(d < 0 for d in self.stage_depths):
            raise ConfigError(f"negative stage depth in {self.stage_depths}")
        for i, (_, width) in enumerate(self.stage_geometry()):
            heads = self.heads_for(width)
            if self.stage_depths[i] and width % heads:
                raise ConfigError(f"base_channels {self.base_channels}: stage {i + 1} "
                                  f"width {width} does not split into {heads} heads")
        if self.s < 1:
            raise ConfigError(f"partition factor must be >= 1, got {self.s}")
        if self.input_hw < 32 or self.input_hw % 32:
            raise ConfigError(
                f"input_hw must be a positive multiple of 32, got {self.input_hw}")
        ks = self.resolved_top_k()
        if len(ks) != NUM_STAGES or any(k < 1 for k in ks):
            raise ConfigError(f"top_k_schedule wants {NUM_STAGES} entries >= 1, "
                              f"got {ks}")
        if len(self.skip_mask) != 3:
            raise ConfigError(f"skip_mask wants 3 entries, got {self.skip_mask}")
        if self.scale_mode not in SCALE_MODES:
            raise ConfigError(f"unknown scale_mode {self.scale_mode!r}")

    def resolved_top_k(self) -> Tuple[int, ...]:
        if self.top_k_schedule is not None:
            return tuple(self.top_k_schedule)
        s2 = self.s * self.s
        return (2, 4, 8, s2, 8, 4, 2)

    def stage_geometry(self) -> List[Tuple[int, int]]:
        """Seven (side, channels) pairs, encoder through decoder."""
        q = self.input_hw // 4
        c = self.base_channels
        return [(q, c), (q // 2, 2 * c), (q // 4, 4 * c), (q // 8, 8 * c),
                (q // 4, 4 * c), (q // 2, 2 * c), (q, c)]

    def partitions(self) -> List[Tuple[PartitionSpec, int]]:
        """Seven (partition, top_k) pairs, top_k clamped to the region count."""
        specs = [PartitionSpec.build(side, side, effective_s(side, self.s))
                 for side, _ in self.stage_geometry()]
        return [(sp, min(k, sp.num_regions))
                for sp, k in zip(specs, self.resolved_top_k())]

    @staticmethod
    def heads_for(dim: int) -> int:
        return max(1, dim // HEAD_DIM)


@dataclass
class ModelParams:
    embed: PatchEmbedParams
    stages: List[List[BlockParams]]
    merges: List[PatchMergeParams]
    expands: List[PatchExpandParams]
    fuses: List[Optional[object]]       # decoder order: 1/16, 1/8, 1/4
    final_expand: PatchExpandParams
    head_w: Tensor
    head_b: Tensor


class Model:
    """A config and its parameters.

    A model from ``build_model`` draws its parameters on the first read of
    ``params`` (so of ``records``, ``bind`` or ``forward``), unless
    ``load_into_model`` or a resumed ``train_loop`` has filled them;
    ``count_params`` draws nothing."""

    def __init__(self, cfg: ModelConfig, params: Optional[ModelParams]):
        self.cfg = cfg
        self._params = params
        self._pending = None        # (seed, dtype) while undrawn
        # (partition, top_k) per stage, fixed by the config
        self.partitions = cfg.partitions()

    @property
    def params(self) -> ModelParams:
        if self._params is None:
            seed, dtype = self._pending
            self._params = _init_params(self.cfg, np.random.default_rng(seed), dtype)
        return self._params

    @params.setter
    def params(self, params: ModelParams):
        self._params = params

    def params_or_blank(self) -> ModelParams:
        """``params`` once drawn or loaded; until then blank parameters of
        the config and dtype, which draw nothing and which a load fills and
        then assigns to ``params``."""
        if self._params is not None:
            return self._params
        return _init_params(self.cfg, None, self._pending[1])

    def bind(self, tape: Tape) -> "Model":
        """This model with every parameter watched on ``tape``."""
        bound = copy.copy(self)
        bound._params = bind(self.params, tape)
        return bound

    def records(self) -> Dict[str, np.ndarray]:
        """Parameters then buffers, dotted names, insertion-ordered."""
        return {**named_arrays(self.params), **dict(walk_buffers(self.params))}

    def forward(self, x, training: bool = False) -> Tensor:
        """Logits [N, H, W, K]."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        n = x.shape[0] if x.ndim else 0
        want = (x.ndim == 4 and x.shape[1] == self.cfg.input_hw
                and x.shape[2] == self.cfg.input_hw
                and x.shape[3] == self.cfg.in_channels)
        if not want or n < 1:
            raise ValueError(
                f"forward wants [N>=1, {self.cfg.input_hw}, {self.cfg.input_hw}, "
                f"{self.cfg.in_channels}], got {x.shape}")
        p = self.params
        h = patch_embed(x, p.embed)
        skips = []
        for i, blocks in enumerate(p.stages):
            if i > 3:
                h = pixel_shuffle(patch_expand(h, p.expands[i - 4]))
                fuse = p.fuses[i - 4]
                if isinstance(fuse, FusionParams):
                    h = channel_spatial_fuse(skips[6 - i], h, fuse, training=training)
                elif fuse is not None:
                    h = plain_fuse(skips[6 - i], h, fuse)
            for blk in blocks:
                h = block_forward(h, blk, *self.partitions[i])
            if i < 3:
                skips.append(h)
                h = patch_merge(h, p.merges[i])
        # the head is token-wise, so it runs on the final expand's cells and
        # only its num_classes-wide logits are shuffled to full resolution
        return pixel_shuffle(dense(patch_expand(h, p.final_expand), p.head_w, p.head_b))


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """A model whose parameters are drawn from ``seed`` on first use."""
    model = Model(cfg, None)
    model._pending = seed, dtype
    return model


def _init_params(cfg: ModelConfig, rng: Optional[np.random.Generator],
                dtype) -> ModelParams:
    """The init drawn from ``rng`` in a fixed order; blank without ``rng``."""
    geometry = cfg.stage_geometry()

    stages = []
    for (_, dim), depth in zip(geometry, cfg.stage_depths):
        stages.append([
            BlockParams.init(dim, cfg.heads_for(dim), rng, dtype=dtype,
                             qkv_bias=cfg.qkv_bias, scale_mode=cfg.scale_mode)
            for _ in range(depth)])

    merges = [PatchMergeParams.init(dim, rng, dtype) for _, dim in geometry[:3]]
    expands = [PatchExpandParams.init(dim, 2, rng, dtype)
               for _, dim in geometry[3:6]]
    fuse_cls = FusionParams if cfg.sccsa else PlainFuseParams
    # decoder order 1/16, 1/8, 1/4; the mask runs 1/4, 1/8, 1/16
    fuses = [fuse_cls.init(dim, rng, dtype) if enabled else None
             for (_, dim), enabled in zip(geometry[4:], reversed(cfg.skip_mask))]

    c = cfg.base_channels
    return ModelParams(
        embed=PatchEmbedParams.init(cfg.in_channels, c, rng, dtype),
        stages=stages,
        merges=merges,
        expands=expands,
        fuses=fuses,
        final_expand=PatchExpandParams.init(c, 4, rng, dtype),
        head_w=Tensor(trunc_normal(rng, (c, cfg.num_classes), dtype=dtype)),
        head_b=Tensor(np.zeros((cfg.num_classes,), dtype)),
    )


# ---------------------------------------------------------------------------
# counting


def count_params(model: Model) -> Dict[str, int]:
    """Learnable scalar counts per module group, in ``count_flops``'s order,
    then ``total``; buffers excluded. An undrawn model is counted from blank
    parameters and stays undrawn."""
    p = model.params_or_blank()
    groups = {"embed": p.embed,
              **{f"stage{i + 1}": blocks for i, blocks in enumerate(p.stages)},
              "merges": p.merges, "expands": (p.expands, p.final_expand),
              "fusion": p.fuses, "head": (p.head_w, p.head_b)}
    table = {name: sum(t.size for _, t in walk_tensors(group))
             for name, group in groups.items()}
    table["total"] = sum(table.values())
    return table


FLOP_CONVENTION = (
    "MACs: one multiply-accumulate counted once; dense convs and affines "
    "cost out_positions * k_h * k_w * c_in * c_out, depth-wise convs "
    "out_positions * k_h * k_w * c_out, attention cost is the routing + "
    "token model, norms cost 2 per element; activations, gates, residual "
    "adds and rearrangements are not counted")


def count_flops(cfg: ModelConfig) -> Dict[str, object]:
    """Analytic MACs for one forward at batch 1. See FLOP_CONVENTION."""
    hw = cfg.input_hw
    c = cfg.base_channels
    geometry = cfg.stage_geometry()
    table: Dict[str, int] = {}

    half = hw // 2
    quarter = geometry[0][0]             # embed output, stage 1 side
    table["embed"] = (half * half * (9 * cfg.in_channels * (c // 2)
                                     + 2 * (c // 2))
                      + quarter * quarter * (9 * (c // 2) * c + 2 * c))

    for i, ((side, dim), depth, (spec, k)) in enumerate(
            zip(geometry, cfg.stage_depths, cfg.partitions())):
        attn = attention_flops(side * side, dim, spec.s, k)["total_macs"]
        per_block = (side * side * (9 * dim            # dw conv
                                    + 4 * dim          # two layer norms
                                    + 4 * dim * dim    # q, k, v, o projections
                                    + LCE_KERNEL ** 2 * dim
                                    + 2 * MLP_RATIO * dim * dim)
                     + attn)
        table[f"stage{i + 1}"] = depth * per_block

    table["merges"] = sum((side // 2) ** 2 * (9 * dim * 2 * dim + 2 * 2 * dim)
                          for side, dim in geometry[:3])
    table["expands"] = (sum(side * side * dim * 4 * (dim // 2)
                            for side, dim in geometry[3:6])
                        + quarter * quarter * c * 16 * c)   # final 4x expand

    total_fuse = 0
    taps = GATE_KERNEL ** 2
    for (side, n), enabled in zip(geometry[4:], reversed(cfg.skip_mask)):
        if not enabled:
            continue
        wide, mid = 2 * n, (2 * n) // GATE_REDUCTION
        if cfg.sccsa:
            total_fuse += side * side * (
                wide * mid + mid * wide            # channel gate MLP
                + taps * wide * mid + 2 * mid      # conv1 + bn
                + taps * mid * wide                # conv2
                + wide * n)                        # out affine
        else:
            total_fuse += side * side * wide * n
    table["fusion"] = total_fuse

    table["head"] = hw * hw * c * cfg.num_classes
    total = sum(table.values())
    return {"per_module": table, "total_macs": total,
            "convention": FLOP_CONVENTION}


# ---------------------------------------------------------------------------
# checkpoint io

CKPT_MAGIC = b"BRUN"
CKPT_VERSION = 1
_DTYPE_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(ValueError):
    pass


def write_records(path: str, config_text: str, records: Dict[str, np.ndarray]):
    """Binary checkpoint: magic, version, config text, named tensors.

    All header integers little-endian; payloads are raw little-endian
    scalars. Round-trips bit-exactly. The bytes go to ``<path>.tmp`` in
    the same directory, which is then renamed over ``path``, so a write
    that fails part-way leaves the previous file at ``path`` intact.
    """
    tmp = path + ".tmp"
    try:
        _write_file(tmp, config_text, records)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_file(path: str, config_text: str, records: Dict[str, np.ndarray]):
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(structmod.pack("<I", CKPT_VERSION))
        cb = config_text.encode("utf-8")
        f.write(structmod.pack("<I", len(cb)))
        f.write(cb)
        f.write(structmod.pack("<I", len(records)))
        for name, arr in records.items():
            tag = _DTYPE_TAG.get(arr.dtype)
            if tag is None:
                raise CheckpointError(f"{name}: dtype {arr.dtype} not storable")
            nb = name.encode("utf-8")
            f.write(structmod.pack("<H", len(nb)))
            f.write(nb)
            f.write(structmod.pack("<B", arr.ndim))
            if arr.ndim:
                f.write(structmod.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(structmod.pack("<B", tag))
            # written from the array's own buffer: no tobytes() copy
            payload = np.ascontiguousarray(arr, dtype=_TAG_DTYPE[tag]).reshape(-1)
            f.write(memoryview(payload).cast("B"))


def read_records(path: str) -> Tuple[str, Records]:
    """Open a checkpoint written by ``write_records``: (config text, records).

    Format, all integers little-endian: magic ``BRUN``, u32 version, u32
    config length and UTF-8 config text, u32 record count, then per record
    a u16 name length and UTF-8 name, u8 rank, rank u64 dims, u8 dtype tag
    (0 float32, 1 float64) and the raw little-endian payload.

    Only the header is read here, and all of it is checked before any
    payload is read or allocated: an unreadable file, bad magic, another
    version, text that is not UTF-8, an unknown dtype tag, dims that no
    array can hold, a field or payload that runs past the end of the file
    and trailing bytes all raise ``CheckpointError``. The payloads are read
    on access, one at a time, from the file opened here; see ``Records``.
    """
    try:
        f = open(path, "rb")
        try:
            config_text, index = _read_header(f, path)
        except BaseException:
            f.close()
            raise
    except OSError as e:
        raise CheckpointError(f"{path}: {e}") from e
    return config_text, Records(f.detach(), index)


def _read_header(f, path: str) -> Tuple[str, Dict[str, tuple]]:
    """Config text and a per-name (offset, dims, dtype) index, in file order."""
    size = left = os.fstat(f.fileno()).st_size

    def truncated(what):
        return CheckpointError(f"truncated checkpoint while reading {what}")

    def take(n, what):
        nonlocal left
        out = f.read(n) if n <= left else b""
        if len(out) != n:
            raise truncated(what)
        left -= n
        return out

    def unpack(fmt, what):
        return structmod.unpack(fmt, take(structmod.calcsize(fmt), what))

    def text(n, what):
        try:
            return take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: {what} is not UTF-8 ({e})") from e

    if take(4, "magic") != CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    (version,) = unpack("<I", "version")
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    config_text = text(unpack("<I", "config length")[0], "config")
    (count,) = unpack("<I", "record count")
    index: Dict[str, tuple] = {}
    for _ in range(count):
        name = text(unpack("<H", "name length")[0], "name")
        (rank,) = unpack("<B", "rank")
        dims = unpack(f"<{rank}Q", "dims")
        (tag,) = unpack("<B", "dtype")
        if tag not in _TAG_DTYPE:
            raise CheckpointError(f"{name}: unknown dtype tag {tag}")
        dt = _TAG_DTYPE[tag].newbyteorder("=")
        # Python ints: a corrupt header can neither overflow nor allocate
        nbytes = math.prod(dims) * dt.itemsize
        if nbytes > left:
            raise truncated(f"payload of {name}")
        # a zero-size probe; dims with data fit the file, so only their
        # rank can be refused
        try:
            np.empty(dims if nbytes == 0 else (0,) * rank, dtype=dt)
        except ValueError as e:
            raise CheckpointError(f"{name}: no array has dims {dims} ({e})") from e
        index[name] = (size - left, dims, dt)
        f.seek(nbytes, os.SEEK_CUR)
        left -= nbytes
    if left:
        raise CheckpointError(f"{path}: {left} trailing bytes")
    return config_text, index


class Records(Mapping):
    """Checkpoint records by name, in file order, read on access.

    ``records[name]`` reads that payload into a fresh native-order array
    that owns its data and is writable, aligned and C-contiguous;
    ``read_into(name, dst)`` reads it into ``dst`` instead. The file
    ``read_records`` opened stays open, unbuffered, until the mapping is
    dropped: a file renamed over the path meanwhile does not change what is
    read, and a file that has since shrunk is a ``CheckpointError``. Names,
    shapes and dtypes (``layout``) come from the header alone.
    """

    def __init__(self, raw, index: Dict[str, tuple]):
        self._raw = raw
        self._index = index
        weakref.finalize(self, raw.close)

    def __getitem__(self, name: str) -> np.ndarray:
        _, dims, dtype = self._index[name]
        arr = np.empty(dims, dtype=dtype)
        self.read_into(name, arr)
        return arr

    def read_into(self, name: str, dst: np.ndarray):
        """Read the payload of ``name`` straight into ``dst``, which must be a
        writable, C-contiguous, native-order array of the record's shape and
        dtype; anything else would be filled through a copy, so it raises
        ``ValueError`` before the file is touched.

        A read that fails part-way leaves ``dst`` partly written: a load that
        fails so keeps, in a drawn model, the records taken before it and this
        one partly written, and an undrawn model stays undrawn, since its blank
        arrays are installed only after every record is taken.
        """
        offset, dims, dtype = self._index[name]
        if not (isinstance(dst, np.ndarray) and dst.shape == dims
                and dst.dtype == dtype and dst.flags.c_contiguous
                and dst.flags.writeable):
            raise ValueError(f"{name}: cannot read into this array; wants a "
                             f"writable C-contiguous {dtype}{dims}")
        view = memoryview(dst.reshape(-1)).cast("B")
        got = 0
        try:
            self._raw.seek(offset)
            while got < len(view):
                n = self._raw.readinto(view[got:])
                if not n:   # the file shrank since its header was read
                    raise CheckpointError(
                        f"truncated checkpoint while reading payload of {name}")
                got += n
        except OSError as e:
            raise CheckpointError(f"{self._raw.name}: {e}") from e
        if sys.byteorder != "little":
            dst.byteswap(inplace=True)

    def __contains__(self, name) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def layout(self, name: str) -> Tuple[tuple, np.dtype]:
        return self._index[name][1:]


def save_model(path: str, model: Model, config_text: str = "",
               extras: Optional[Dict[str, np.ndarray]] = None):
    records = model.records()
    for key, arr in (extras or {}).items():
        if key in records:
            raise CheckpointError(f"extra record {key} collides with a parameter")
        records[key] = np.asarray(arr)
    write_records(path, config_text, records)


def take_records(records: Mapping[str, np.ndarray], wanted: Dict[str, np.ndarray],
                 source: str = "checkpoint"):
    """Fill each wanted array with ``records[name]``; ``records`` is unchanged.

    ``records`` is a dict or the ``Records`` of ``read_records``. Every
    wanted record must be present with an identical shape and dtype,
    otherwise ``source`` does not describe this run and loading aborts.
    All records are checked, without reading a payload, before any is
    taken, so a refused load leaves every wanted array as it was. Then each
    payload of a ``Records`` is read once, straight into its wanted array
    (see ``Records.read_into`` for a read that fails), and a dict's arrays
    are copied.
    """
    lazy = isinstance(records, Records)
    for name, dst in wanted.items():
        if name not in records:
            raise CheckpointError(f"{source} is missing {name}")
        shape, dtype = (records.layout(name) if lazy
                        else (records[name].shape, records[name].dtype))
        if shape != dst.shape or dtype != dst.dtype:
            raise CheckpointError(
                f"{name}: {source} has {dtype}{shape}, "
                f"this run wants {dst.dtype}{dst.shape}")
    for name, dst in wanted.items():
        if lazy:
            records.read_into(name, dst)
        else:
            dst[...] = records[name]


def load_into_model(model: Model, records: Mapping[str, np.ndarray]):
    """Fill every model parameter and buffer from ``records``, each payload
    read once into the array that keeps it. A drawn model is filled in
    place. An undrawn model never draws: blank parameters take the records
    and become its own only once all are taken, so a failed load leaves it
    undrawn."""
    params = model.params_or_blank()
    take_records(records, Model(model.cfg, params).records())
    model.params = params
