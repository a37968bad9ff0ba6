import dataclasses
import gc
import glob
import hashlib
import io
import os
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import routeseg.attention as rs_attention
import routeseg.blocks as rs_blocks
import routeseg.cli as rs_cli
import routeseg.fusion as rs_fusion
import routeseg.model as rs_model
import routeseg.params as rs_params
from routeseg.attention import RoutingRecord, recording
from routeseg.config import effective_text, load_config, parse_config_text
from routeseg.data import write_pgm
from routeseg.model import (CheckpointError, ConfigError, Model, ModelConfig,
                            build_model, count_flops, count_params,
                            load_into_model, read_records, save_model,
                            write_records)
from routeseg.params import (bind, conv_init, named_arrays, substitute,
                             walk_buffers, walk_tensors)
from routeseg.tensor import Tape, Tensor, backward, sum_

from conftest import (count_scalars, fds_open_on, forbid_draws, micro_config,
                      needs_proc_fd)


# ---------------------------------------------------------------------------
# parameter structure helpers


def test_walk_tensors_yields_dotted_names():
    model = build_model(micro_config())
    names = [n for n, _ in walk_tensors(model.params)]
    assert "embed.w1" in names
    assert "stages.0.0.attn.wq" in names
    assert "head_w" in names
    assert len(names) == len(set(names))


def test_walk_buffers_finds_bn_stats_only():
    model = build_model(micro_config())
    buffers = dict(walk_buffers(model.params))
    assert all(".bn_mean" in n or ".bn_var" in n for n in buffers)
    assert len(buffers) == 6          # three fusions, two stats each


def test_bind_rebuilds_watched_copy_sharing_arrays():
    model = build_model(micro_config())
    tape = Tape()
    bound = model.bind(tape)
    assert bound.params.head_w.tape is tape
    assert bound.params.head_w.data is model.params.head_w.data
    assert model.params.head_w.tape is None


def test_bind_refuses_an_already_bound_structure():
    # a second bind would mix two tapes in one forward
    bound = build_model(micro_config()).bind(Tape())
    with pytest.raises(ValueError, match="already bound"):
        bind(bound.params, Tape())


def test_substitute_replaces_by_name():
    model = build_model(micro_config())
    new = Tensor(np.ones_like(model.params.head_b.data))
    swapped = substitute(model.params, {"head_b": new})
    assert swapped.head_b is new
    assert swapped.head_w is model.params.head_w


def test_count_scalars_agrees_with_named_arrays():
    model = build_model(micro_config())
    arrays = named_arrays(model.params)
    assert count_scalars(model.params) == sum(a.size for a in arrays.values())


# ---------------------------------------------------------------------------
# initializers


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7, 7, 384, 96),    # 28 draws, the last partial
                                   (1, 1, 256, 512),   # exactly two draws
                                   (3, 3, 8, 16)])     # under one draw
def test_conv_init_equals_one_draw(shape, dtype):
    std = np.sqrt(2.0 / (shape[0] * shape[1] * shape[2]))
    want = np.random.default_rng(12).normal(0.0, std, shape).astype(dtype)
    got = conv_init(np.random.default_rng(12), *shape, dtype=dtype)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_build_model_holds_no_more_than_its_parameters():
    cfg = ModelConfig(base_channels=48, input_hw=64)
    tracemalloc.start()
    try:
        model = build_model(cfg, seed=2)
        model.params    # the first read draws the init
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kernels = [t.data.size for _, t in walk_tensors(model.params) if t.data.ndim == 4]
    assert max(kernels) == 7 * 7 * 384 * 96 > 27 * rs_params._DRAW
    held = sum(a.nbytes for a in model.records().values())
    assert peak <= held + 2 * 2 ** 20, \
        f"build peaked {(peak - held) / 2 ** 20:.1f} MiB above its parameters"


# ---------------------------------------------------------------------------
# config validation


def test_default_config_is_valid():
    ModelConfig()       # construction runs the checks


@pytest.mark.parametrize("field,value,msg", [
    ("num_classes", 1, "num_classes"),
    ("in_channels", 0, "in_channels"),
    ("base_channels", 7, "base_channels"),
    ("base_channels", 0, "base_channels"),
    ("stage_depths", (1, 1, 1), "stage_depths"),
    ("stage_depths", (1, 1, 1, -1, 1, 1, 1), "negative"),
    ("s", 0, "partition factor"),
    ("input_hw", 48, "multiple of 32"),
    ("input_hw", 0, "multiple of 32"),
    ("top_k_schedule", (1, 1), "top_k_schedule"),
    ("top_k_schedule", (0,) * 7, "top_k_schedule"),
    ("skip_mask", (True,), "skip_mask"),
    ("scale_mode", "global", "scale_mode"),
])
def test_config_validation_rejects(field, value, msg):
    with pytest.raises(ConfigError, match=msg):
        dataclasses.replace(ModelConfig(), **{field: value})


@pytest.mark.parametrize("base,depths,stage,width,heads", [
    (100, (2, 2, 8, 0, 8, 2, 2), 1, 100, 3),
    (70, (1, 1, 1, 1, 1, 1, 1), 4, 560, 17)])
def test_config_refuses_a_width_that_does_not_split_into_its_heads(base, depths, stage,
                                                                  width, heads):
    msg = (f"base_channels {base}: stage {stage} width {width} does not split "
           f"into {heads} heads")
    with pytest.raises(ConfigError, match=f"^{msg}$"):
        ModelConfig(base_channels=base, stage_depths=depths)


@pytest.mark.parametrize("depths", [(2, 2, 8, 0, 8, 2, 2), (1, 1, 1, 1, 1, 1, 1)])
def test_config_accepts_exactly_the_widths_whose_blocks_build(depths):
    """Only stages that run a block need their width to split into heads:
    at the default depths stage 4 runs none, so base_channels 70 builds."""
    def blocks_build(base):
        for mult, depth in zip((1, 2, 4, 8, 4, 2, 1), depths):
            width = base * mult
            try:
                if depth:
                    rs_blocks.BlockParams.init(width, ModelConfig.heads_for(width), None)
            except ValueError:
                return False
        return True

    refused = []
    for base in range(2, 132, 2):
        try:
            ModelConfig(base_channels=base, stage_depths=depths)
        except ConfigError:
            refused.append(base)
        assert (base not in refused) == blocks_build(base), base
    assert (70 in refused) == (depths[3] > 0) and 100 in refused
    count_params(build_model(ModelConfig(base_channels=70)))


def test_stage_geometry_and_heads():
    cfg = ModelConfig()
    assert cfg.stage_geometry() == [(56, 96), (28, 192), (14, 384), (7, 768),
                                    (14, 384), (28, 192), (56, 96)]
    assert [ModelConfig.heads_for(d) for d in (96, 192, 384, 768)] == [3, 6, 12, 24]
    assert ModelConfig.heads_for(8) == 1


def test_resolved_top_k_default_and_override():
    assert ModelConfig().resolved_top_k() == (2, 4, 8, 49, 8, 4, 2)
    cfg = dataclasses.replace(ModelConfig(), top_k_schedule=(1,) * 7)
    assert cfg.resolved_top_k() == (1,) * 7


def test_build_clamps_top_k_to_region_count():
    model = build_model(micro_config())       # hw 32 -> sides 8,4,2,1,...
    assert all(k <= sp.num_regions for sp, k in model.partitions)
    assert model.partitions[3][0].num_regions == 1 and model.partitions[3][1] == 1


def test_deep_stages_degrade_partition_factor():
    model = build_model(ModelConfig())
    assert [sp.s for sp, _ in model.partitions] == [7] * 7
    small = build_model(dataclasses.replace(ModelConfig(), input_hw=256))
    assert [sp.s for sp, _ in small.partitions] == [4, 4, 4, 4, 4, 4, 4]


# ---------------------------------------------------------------------------
# published size pins


def test_base_model_parameter_total():
    assert count_params(build_model(ModelConfig()))["total"] == 50_756_169


def test_plain_fusion_parameter_total():
    cfg = dataclasses.replace(ModelConfig(), sccsa=False)
    assert count_params(build_model(cfg))["total"] == 31_398_537


def test_tiny_model_parameter_total():
    cfg = dataclasses.replace(ModelConfig(), base_channels=64)
    assert count_params(build_model(cfg))["total"] == 22_637_961


def test_parameter_totals_near_published_sizes():
    for cfg, target in [
            (ModelConfig(), 50.76e6),
            (dataclasses.replace(ModelConfig(), sccsa=False), 31.40e6),
            (dataclasses.replace(ModelConfig(), base_channels=64), 22.64e6)]:
        total = count_params(build_model(cfg))["total"]
        assert abs(total - target) / target < 1e-3


def test_group_counts_sum_to_total():
    table = count_params(build_model(ModelConfig()))
    total = table.pop("total")
    assert sum(table.values()) == total
    assert table["stage4"] == 0               # empty bottleneck by default


def test_flop_totals_pinned():
    assert count_flops(ModelConfig())["total_macs"] == 17_596_027_008
    cfg = dataclasses.replace(ModelConfig(), input_hw=256)
    assert count_flops(cfg)["total_macs"] == 24_773_492_736


def test_flops_scale_with_resolution_and_skip_mask():
    base = count_flops(ModelConfig())["total_macs"]
    bigger = count_flops(dataclasses.replace(
        ModelConfig(), input_hw=448))["total_macs"]
    assert bigger > 2 * base
    nofuse = count_flops(dataclasses.replace(
        ModelConfig(), skip_mask=(False, False, False)))
    assert nofuse["per_module"]["fusion"] == 0
    assert nofuse["total_macs"] < base


def test_count_flops_validates_config():
    with pytest.raises(ConfigError):
        count_flops(dataclasses.replace(ModelConfig(), input_hw=50))


FLOP_MODULES = (["embed"] + [f"stage{i}" for i in range(1, 8)]
                + ["merges", "expands", "fusion", "head"])
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")

# count_flops(cfg)["per_module"] of every shipped config, in FLOP_MODULES order
SHIPPED_MACS = {
    "base": (148_119_552, 756_111_552, 629_225_856, 2_381_503_488, 0,
        2_381_503_488, 629_225_856, 756_111_552, 390_695_424, 635_830_272,
        8_844_347_904, 43_352_064),
    "micro64": (393_216, 1_863_936, 997_888, 1_458_176, 681_472, 1_458_176,
        997_888, 1_863_936, 891_904, 1_441_792, 20_061_184, 196_608),
    "no_sccsa": (148_119_552, 756_111_552, 629_225_856, 2_381_503_488, 0,
        2_381_503_488, 629_225_856, 756_111_552, 390_695_424, 635_830_272,
        173_408_256, 43_352_064),
    "s8_256": (193_462_272, 987_758_592, 822_214_656, 3_113_484_288, 0,
        3_113_484_288, 822_214_656, 987_758_592, 510_296_064, 830_472_192,
        11_551_801_344, 56_623_104),
    "skip0": (148_119_552, 756_111_552, 629_225_856, 2_381_503_488, 0,
        2_381_503_488, 629_225_856, 756_111_552, 390_695_424, 635_830_272, 0,
        43_352_064),
    "skip1": (148_119_552, 756_111_552, 629_225_856, 2_381_503_488, 0,
        2_381_503_488, 629_225_856, 756_111_552, 390_695_424, 635_830_272,
        2_948_241_408, 43_352_064),
    "skip2": (148_119_552, 756_111_552, 629_225_856, 2_381_503_488, 0,
        2_381_503_488, 629_225_856, 756_111_552, 390_695_424, 635_830_272,
        5_896_332_288, 43_352_064),
    "tiny": (69_844_992, 375_623_808, 291_033_344, 1_073_866_752, 0,
        1_073_866_752, 291_033_344, 375_623_808, 173_759_488, 282_591_232,
        3_930_938_368, 28_901_376),
    "topk_1": (148_119_552, 679_041_216, 600_324_480, 2_347_785_216, 0,
        2_347_785_216, 600_324_480, 679_041_216, 390_695_424, 635_830_272,
        8_844_347_904, 43_352_064),
    "topk_1_4_16": (148_119_552, 679_041_216, 629_225_856, 2_420_038_656, 0,
        2_420_038_656, 629_225_856, 679_041_216, 390_695_424, 635_830_272,
        8_844_347_904, 43_352_064),
    "topk_4_8_16": (148_119_552, 910_252_224, 667_761_024, 2_420_038_656, 0,
        2_420_038_656, 667_761_024, 910_252_224, 390_695_424, 635_830_272,
        8_844_347_904, 43_352_064),
    "topk_8_16_32": (148_119_552, 1_218_533_568, 744_831_360, 2_497_108_992,
        0, 2_497_108_992, 744_831_360, 1_218_533_568, 390_695_424,
        635_830_272, 8_844_347_904, 43_352_064),
}


def test_shipped_config_flop_tables_pinned():
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.cfg")))
    assert [os.path.basename(p)[:-4] for p in paths] == sorted(SHIPPED_MACS)
    for path in paths:
        table = count_flops(load_config(path).model)["per_module"]
        want = SHIPPED_MACS[os.path.basename(path)[:-4]]
        assert table == dict(zip(FLOP_MODULES, want)), path


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.cfg"))),
                         ids=os.path.basename)
def test_count_params_rows_follow_count_flops_and_cover_every_tensor(path):
    cfg = load_config(path).model
    model = build_model(cfg)
    table = count_params(model)
    assert list(table) == [*count_flops(cfg)["per_module"], "total"]
    assert table["total"] == sum(t.size for _, t in walk_tensors(model.params_or_blank()))


def observed_macs(monkeypatch, model):
    """MACs of one batch-1 forward, counted from the ops that actually run
    and attributed to the count_flops module whose code called them."""
    table = dict.fromkeys(FLOP_MODULES, 0)
    where = ["head"]                  # the only op outside every wrapper
    stage_of = {id(blk): i for i, blocks in enumerate(model.params.stages)
                for blk in blocks}

    def counted(fn, macs):
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            table[where[-1]] += macs(args, out)
            return out
        return run

    def scoped(fn, module):
        def run(*args, **kwargs):
            where.append(module(args))
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()
        return run

    def products(args, out):          # dense and matmul: out.size * K
        return out.size * args[0].shape[-1]

    def taps(args, out):              # conv2d: out.size * kh * kw * c_in
        kh, kw, c_in, _ = args[1].shape
        return out.size * kh * kw * c_in

    def norm(args, out):
        return 2 * out.size

    rules = {"dense": products, "matmul": products, "conv2d": taps,
             "layer_norm": norm, "batch_norm": norm}
    for module in (rs_attention, rs_blocks, rs_fusion, rs_model):
        for name, rule in rules.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(getattr(module, name), rule))

    def routing(args, out):           # region means + R x R affinity
        n, r, t, c = args[0].shape
        return n * (r * r * c + r * t * c)

    monkeypatch.setattr(rs_attention, "route_regions",
                        counted(rs_attention.route_regions, routing))
    for name, module in [
            ("patch_embed", lambda a: "embed"),
            ("block_forward", lambda a: f"stage{stage_of[id(a[1])] + 1}"),
            ("patch_merge", lambda a: "merges"),
            ("patch_expand", lambda a: "expands"),
            ("channel_spatial_fuse", lambda a: "fusion"),
            ("plain_fuse", lambda a: "fusion")]:
        monkeypatch.setattr(rs_model, name,
                            scoped(getattr(rs_model, name), module))

    cfg = model.cfg
    x = np.random.default_rng(84).standard_normal(
        (1, cfg.input_hw, cfg.input_hw, cfg.in_channels)).astype(np.float32)
    model.forward(Tensor(x))
    return table


@pytest.mark.parametrize("cfg,total", [
    (load_config(os.path.join(CONFIGS, "micro64.cfg")).model, 32_306_176),
    (ModelConfig(base_channels=16, stage_depths=(1,) * 7), 386_654_688),
    (dataclasses.replace(
        load_config(os.path.join(CONFIGS, "no_sccsa.cfg")).model,
        base_channels=16, stage_depths=(1, 1, 1, 0, 1, 1, 1)), 136_527_328),
], ids=["micro64", "base_c16_depth1", "no_sccsa_c16"])
def test_count_flops_equals_macs_of_the_ops_that_run(monkeypatch, cfg, total):
    flops = count_flops(cfg)
    assert flops["total_macs"] == total
    observed = observed_macs(monkeypatch, build_model(cfg, seed=1))
    assert observed == flops["per_module"]


# ---------------------------------------------------------------------------
# forward


def test_forward_produces_logits_at_input_resolution():
    cfg = micro_config()
    model = build_model(cfg, seed=3)
    rng = np.random.default_rng(80)
    x = rng.standard_normal((2, cfg.input_hw, cfg.input_hw, 1)).astype(np.float32)
    logits = model.forward(Tensor(x))
    assert logits.shape == (2, 32, 32, 2)
    assert np.isfinite(logits.data).all()


# the head is token-wise, so Model.forward runs it on the final expand's
# sub-pixel cells and shuffles only the logits; that must be the bits of
# shuffling the cells first
@pytest.mark.parametrize("cfg,n", [
    (load_config(os.path.join(CONFIGS, "micro64.cfg")).model, 2),
    (ModelConfig(base_channels=16, stage_depths=(1,) * 7), 1),
], ids=["micro64", "base_c16_depth1"])
def test_forward_logits_equal_expand_then_shuffle_then_head(monkeypatch, cfg, n):
    model = build_model(cfg, seed=2)
    expand_inputs = []

    def spy(h, p):
        expand_inputs.append(h)
        return rs_blocks.patch_expand(h, p)

    monkeypatch.setattr(rs_model, "patch_expand", spy)
    x = np.random.default_rng(85).standard_normal(
        (n, cfg.input_hw, cfg.input_hw, cfg.in_channels)).astype(np.float32)
    got = model.forward(Tensor(x)).data
    p = model.params
    full = rs_blocks.pixel_shuffle(rs_blocks.patch_expand(expand_inputs[-1],
                                                          p.final_expand))
    want = rs_model.dense(full, p.head_w, p.head_b).data
    assert got.shape == want.shape == (n, cfg.input_hw, cfg.input_hw,
                                       cfg.num_classes)
    assert got.tobytes() == want.tobytes()


def test_no_tape_forward_holds_no_full_resolution_copy_of_the_final_expand():
    # one full-resolution map of base_channels float32 values is 3.06 MiB
    # at this config. The final expand's cells are one such map; a shuffled
    # copy of them beside it (and the padded conv inputs) took the traced
    # peak of this forward to 8.6 MiB, against 5.9 MiB without
    cfg = ModelConfig(base_channels=16, stage_depths=(1,) * 7)
    model = build_model(cfg, seed=1)
    x = Tensor(np.random.default_rng(86).standard_normal(
        (1, 224, 224, 3)).astype(np.float32))
    model.forward(x)
    tracemalloc.start()
    try:
        model.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full_map = 224 * 224 * cfg.base_channels * 4
    assert peak < 2.3 * full_map, peak / 2 ** 20


def test_training_step_tape_is_freed_by_reference_counting():
    # a backward closure that holds a tape-bound Tensor makes the tape a
    # reference cycle; its activations then outlive the step until the
    # cyclic collector happens to run
    model = build_model(micro_config(), seed=3)
    x = np.random.default_rng(82).standard_normal((2, 32, 32, 1)).astype(np.float32)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        tape = Tape()
        logits = model.bind(tape).forward(Tensor(x), training=True)
        backward(sum_(logits))
        del tape, logits
        gc.collect()
        leaked = sum(isinstance(o, Tape) for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == 0


def test_forward_rejects_wrong_geometry():
    model = build_model(micro_config())
    with pytest.raises(ValueError, match="forward wants"):
        model.forward(Tensor(np.zeros((1, 16, 16, 1), np.float32)))
    with pytest.raises(ValueError, match="forward wants"):
        model.forward(Tensor(np.zeros((1, 32, 32, 3), np.float32)))
    with pytest.raises(ValueError, match="forward wants"):
        model.forward(Tensor(np.zeros((32, 32, 1), np.float32)))


def test_forward_is_deterministic():
    cfg = micro_config()
    model = build_model(cfg, seed=5)
    x = np.random.default_rng(81).standard_normal(
        (1, 32, 32, 1)).astype(np.float32)
    a = model.forward(Tensor(x)).data
    b = model.forward(Tensor(x)).data
    np.testing.assert_array_equal(a, b)


def test_same_seed_same_init_different_seed_differs():
    cfg = micro_config()
    a = named_arrays(build_model(cfg, seed=9).params)
    b = named_arrays(build_model(cfg, seed=9).params)
    c = named_arrays(build_model(cfg, seed=10).params)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_forward_capture_returns_stage_trace():
    cfg = micro_config(stage_depths=(1, 0, 0, 0, 0, 0, 2))
    model = build_model(cfg, seed=4)
    x = np.random.default_rng(82).standard_normal(
        (1, 32, 32, 1)).astype(np.float32)
    with recording(RoutingRecord()) as rec:
        logits = model.forward(Tensor(x))
    assert logits.shape == (1, 32, 32, 2)
    trace = rec.traces[-1]
    assert trace.spec is model.partitions[6][0]
    np.testing.assert_allclose(trace.weights.sum(axis=-1), 1.0, atol=1e-5)


def test_micro64_training_forward_records_463_tape_nodes():
    # 237 leaves, 35 layout nodes (3 in each of the 9 blocks, and the cell
    # reshape and the pixel shuffle of each of the 4 expands) and 191 other
    # ops; the count does not depend on the input values. Each block's
    # routed core (two gathers and their reshapes, three head splits, two
    # products, softmax, head merge and output projection: 12 nodes) is
    # one recompute node, whose ops record on its own tape in backward
    cfg = load_config(os.path.join(CONFIGS, "micro64.cfg")).model
    model = build_model(cfg, seed=4)
    x = np.random.default_rng(87).standard_normal(
        (8, cfg.input_hw, cfg.input_hw, cfg.in_channels)).astype(np.float32)
    tape = Tape()
    model.bind(tape).forward(Tensor(x), training=True)
    assert len(tape) == 463


def test_micro64_training_forward_holds_under_18_mib():
    # what a taped micro64 bs8 training forward leaves allocated: the tape's
    # activations and the logits. It was 21.9 MiB while each block's tape
    # kept the gathered K/V copies and the attention probabilities and gelu
    # kept its tanh, and 14.8 MiB with the routed core recomputed in
    # backward and gelu keeping only its input
    cfg = load_config(os.path.join(CONFIGS, "micro64.cfg")).model
    model = build_model(cfg, seed=4)
    model.params        # the first read draws the init: outside the window
    x = np.random.default_rng(87).standard_normal(
        (8, cfg.input_hw, cfg.input_hw, cfg.in_channels)).astype(np.float32)
    tracemalloc.start()
    try:
        tape = Tape()
        logits = model.bind(tape).forward(Tensor(x), training=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert logits.shape[0] == 8
    assert held < 18 * 2 ** 20, held / 2 ** 20


def test_recording_leaves_forward_unchanged_and_traces_every_block():
    cfg = micro_config(stage_depths=(1, 2, 0, 1, 0, 2, 1))
    model = build_model(cfg, seed=5)
    x = np.random.default_rng(83).standard_normal(
        (2, 32, 32, 1)).astype(np.float32)

    def forward():
        tape = Tape()
        logits = model.bind(tape).forward(Tensor(x), training=True)
        return logits.data, len(tape)

    plain, plain_nodes = forward()
    with recording(RoutingRecord()) as rec:
        recorded, recorded_nodes = forward()
    np.testing.assert_array_equal(recorded, plain)
    assert recorded_nodes == plain_nodes
    assert len(rec.traces) == sum(cfg.stage_depths)
    stages = [i for i, d in enumerate(cfg.stage_depths) for _ in range(d)]
    for trace, i in zip(rec.traces, stages):
        spec, top_k = model.partitions[i]
        assert trace.spec is spec
        assert trace.routing.index.shape == (2, spec.num_regions, top_k)


def test_backward_replay_records_nothing():
    # backward runs every routed core again; inside recording() only the
    # forward call leaves a trace
    cfg = micro_config(stage_depths=(1, 2, 0, 1, 0, 2, 1))
    model = build_model(cfg, seed=5)
    x = Tensor(np.random.default_rng(84).standard_normal(
        (2, 32, 32, 1)).astype(np.float32))
    with recording(RoutingRecord()) as plain:
        model.forward(x, training=True)
    with recording(RoutingRecord()) as rec:
        tape = Tape()
        backward(sum_(model.bind(tape).forward(x, training=True)))
    assert len(rec.traces) == len(plain.traces) == sum(cfg.stage_depths)
    for got, want in zip(rec.traces, plain.traces):
        np.testing.assert_array_equal(got.routing.index, want.routing.index)
        np.testing.assert_array_equal(got.weights, want.weights)


def test_skip_mask_disables_fusion_modules():
    cfg = micro_config(skip_mask=(True, False, True))
    model = build_model(cfg)
    # decoder order is 1/16, 1/8, 1/4; mask order is 1/4, 1/8, 1/16
    assert model.params.fuses[0] is not None
    assert model.params.fuses[1] is None
    assert model.params.fuses[2] is not None
    x = np.zeros((1, 32, 32, 1), np.float32)
    assert model.forward(Tensor(x)).shape == (1, 32, 32, 2)


# ---------------------------------------------------------------------------
# checkpoint io


def ckpt_path(tmp_path, name="m.ckpt"):
    return os.path.join(str(tmp_path), name)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    cfg = micro_config()
    model = build_model(cfg, seed=6)
    x = np.random.default_rng(83).standard_normal(
        (1, 32, 32, 1)).astype(np.float32)
    want = model.forward(Tensor(x)).data
    path = ckpt_path(tmp_path)
    save_model(path, model, config_text="hello = world",
               extras={"epoch": np.array(3.0)})

    text, records = read_records(path)
    assert text == "hello = world"
    fresh = build_model(cfg, seed=999)        # different init, then overwritten
    assert load_into_model(fresh, records) is None
    assert set(records) - set(fresh.records()) == {"epoch"}
    assert records["epoch"] == 3.0
    np.testing.assert_array_equal(fresh.forward(Tensor(x)).data, want)


def test_checkpoint_preserves_dtypes_and_buffers(tmp_path):
    model = build_model(micro_config(), seed=7)
    model.params.fuses[0].bn_mean[...] = 0.25
    path = ckpt_path(tmp_path)
    save_model(path, model)
    _, records = read_records(path)
    assert records["head_w"].dtype == np.float32
    assert records["fuses.0.bn_mean"].dtype == np.float64
    assert records["fuses.0.bn_mean"][0] == 0.25


def test_read_records_missing_file_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="no-such"):
        read_records(os.path.join(str(tmp_path), "no-such.ckpt"))


def test_read_records_rejects_bad_magic(tmp_path):
    path = ckpt_path(tmp_path)
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="bad magic"):
        read_records(path)


def test_read_records_rejects_wrong_version(tmp_path):
    path = ckpt_path(tmp_path)
    write_records(path, "", {})
    blob = bytearray(Path(path).read_bytes())
    blob[4] = 99
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(CheckpointError, match="unsupported version"):
        read_records(path)


def test_read_records_rejects_truncation_and_trailing(tmp_path):
    path = ckpt_path(tmp_path)
    write_records(path, "cfg", {"w": np.zeros((3,), np.float32)})
    blob = Path(path).read_bytes()
    with open(path, "wb") as f:
        f.write(blob[:-2])
    with pytest.raises(CheckpointError, match="truncated"):
        read_records(path)
    with open(path, "wb") as f:
        f.write(blob + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        read_records(path)


def test_read_records_round_trips_every_shape_into_owned_arrays(tmp_path):
    path = ckpt_path(tmp_path)
    rng = np.random.default_rng(4)
    # "big" spans several file-reader buffers (io.DEFAULT_BUFFER_SIZE)
    records = {"scalar": np.array(-1.5, np.float32),
               "empty": np.zeros((0, 3), np.float32),
               "w": rng.standard_normal((3, 4)).astype(np.float32),
               "v": rng.standard_normal(5),
               "big": rng.standard_normal((3000, 7)).astype(np.float32)}
    assert records["big"].nbytes > 8 * io.DEFAULT_BUFFER_SIZE
    write_records(path, "cfg", records)
    text, back = read_records(path)
    assert text == "cfg" and list(back) == list(records)
    for name, want in records.items():
        got = back[name]
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.dtype.isnative and got.tobytes() == want.tobytes(), name
        flags = got.flags
        assert (flags.owndata and flags.writeable and flags.aligned
                and flags.c_contiguous), name


def test_read_records_rejects_truncation_in_a_payload_and_a_header(tmp_path):
    path = ckpt_path(tmp_path)
    write_records(path, "cfg", {"big": np.ones((1000, 10), np.float32),
                                "tail": np.ones((2, 2), np.float32)})
    blob = Path(path).read_bytes()
    head = 4 + 4 + 4 + 3 + 4 + 2 + 3 + 1 + 16 + 1     # through big's dtype tag
    cuts = {head + 20000: "payload of big",              # inside the payload
            head + 40000 + 2 + 4 + 1 + 5: "dims"}        # inside tail's dims
    for cut, what in cuts.items():
        with open(path, "wb") as f:
            f.write(blob[:cut])
        with pytest.raises(CheckpointError, match=f"truncated .* {what}"):
            read_records(path)


def _record_file(path, config=b"", name=b"w", dims=(2,), payload=b"\0" * 8):
    """One float32 record with free-form header fields."""
    with open(path, "wb") as f:
        f.write(rs_model.CKPT_MAGIC + struct.pack("<II", rs_model.CKPT_VERSION,
                                                  len(config)))
        f.write(config + struct.pack("<I", 1))
        f.write(struct.pack("<H", len(name)) + name)
        f.write(struct.pack(f"<B{len(dims)}Q", len(dims), *dims))
        f.write(struct.pack("<B", 0) + payload)
    return path


def test_read_records_rejects_text_that_is_not_utf8(tmp_path):
    path = ckpt_path(tmp_path)
    read_records(_record_file(path))                   # the well-formed file
    with pytest.raises(CheckpointError, match="config is not UTF-8"):
        read_records(_record_file(path, config=b"seed = \xff"))
    with pytest.raises(CheckpointError, match="name is not UTF-8"):
        read_records(_record_file(path, name=b"w\xc3"))


@pytest.mark.parametrize("dims,match", [
    ((2 ** 33, 2 ** 31), "truncated .* payload of w"),  # overflows int64
    ((2 ** 64 - 1,), "truncated .* payload of w"),
    ((3,), "truncated .* payload of w"),                  # 12 bytes declared, 8 held
    ((0, 2 ** 63), "no array has dims"),                  # zero bytes, no array
    ((1,) * 70, "no array has dims")])                    # beyond numpy's rank
def test_read_records_rejects_dims_the_file_cannot_hold(tmp_path, dims, match):
    path = _record_file(ckpt_path(tmp_path), dims=dims)
    with pytest.raises(CheckpointError, match=match):
        read_records(path)


def test_read_records_holds_no_more_than_its_records(tmp_path):
    path = ckpt_path(tmp_path)
    records = {"small": np.ones((3, 5), np.float32),
               "big": np.ones(2 ** 22, np.float32),      # 16 MiB
               "v": np.ones(7)}
    write_records(path, "cfg", records)
    del records
    tracemalloc.start()
    try:
        _, back = read_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the header alone is read; the 16 MiB payload waits for its access
    assert peak <= 2 ** 20, f"read peaked at {peak / 2 ** 20:.1f} MiB"
    assert back["big"].nbytes == 2 ** 24


def test_records_read_the_file_that_was_opened(tmp_path):
    path = ckpt_path(tmp_path)
    old = np.arange(4, dtype=np.float32)
    write_records(path, "old", {"w": old})
    _, records = read_records(path)
    write_records(path, "new", {"w": old + 7})         # renamed over the path
    assert read_records(path)[1]["w"][0] == 7
    np.testing.assert_array_equal(records["w"], old)


def test_records_of_a_file_truncated_after_opening_refuse_to_read(tmp_path):
    path = ckpt_path(tmp_path)
    write_records(path, "cfg", {"a": np.ones(4, np.float32),
                                "b": np.ones((64, 64), np.float32)})
    _, records = read_records(path)
    np.testing.assert_array_equal(records["a"], 1.0)
    os.truncate(path, os.path.getsize(path) - 8)       # inside b
    with pytest.raises(CheckpointError, match="truncated .* payload of b"):
        records["b"]
    np.testing.assert_array_equal(records["a"], 1.0)
    os.truncate(path, 0)
    with pytest.raises(CheckpointError, match="truncated .* payload of a"):
        records["a"]
    # a load into an undrawn model that fails part-way leaves it undrawn
    save_model(path, build_model(micro_config(), seed=2))
    _, records = read_records(path)
    assert list(records)[-1] == "fuses.2.bn_var"
    os.truncate(path, os.path.getsize(path) - 8)
    model = build_model(micro_config(), seed=3)
    with pytest.raises(CheckpointError,
                       match="truncated .* payload of fuses.2.bn_var"):
        load_into_model(model, records)
    assert model._params is None
    assert_same_records(model.records(), build_model(micro_config(), seed=3).records())


@pytest.mark.parametrize("dst", ["transposed", "strided", "float64",
                                 "big-endian", "read-only", "flat"])
def test_read_into_refuses_an_array_it_would_fill_through_a_copy(tmp_path, dst):
    path = ckpt_path(tmp_path)
    want = np.arange(12, dtype=np.float32).reshape(3, 4)
    write_records(path, "cfg", {"w": want})
    _, records = read_records(path)
    good = np.zeros((3, 4), np.float32)
    records.read_into("w", good)
    assert good.tobytes() == want.tobytes()
    arr = {"transposed": lambda: np.zeros((4, 3), np.float32).T,
           "strided": lambda: np.zeros((3, 8), np.float32)[:, ::2],
           "float64": lambda: np.zeros((3, 4)),
           "big-endian": lambda: np.zeros((3, 4), ">f4"),
           "read-only": lambda: np.zeros((3, 4), np.float32),
           "flat": lambda: np.zeros(12, np.float32)}[dst]()
    arr.flags.writeable = dst != "read-only"
    # emptied, so a refusal that came after a read would be a truncation
    os.truncate(path, 0)
    with pytest.raises(ValueError, match=r"w: cannot read into this array; "
                       r"wants a writable C-contiguous float32\(3, 4\)"):
        records.read_into("w", arr)
    assert not arr.any()


@needs_proc_fd
def test_dropping_records_closes_their_file(tmp_path):
    path = ckpt_path(tmp_path)
    write_records(path, "cfg", {"w": np.ones(3, np.float32)})
    _, records = read_records(path)
    assert records["w"][0] == 1.0 and "w" in records
    assert fds_open_on(path) == 1                      # open between reads
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        del records
        gc.collect()
    assert fds_open_on(path) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_write_records_rejects_unstorable_dtype(tmp_path):
    with pytest.raises(CheckpointError, match="not storable"):
        write_records(ckpt_path(tmp_path), "", {"ids": np.zeros(3, np.int64)})


def test_write_records_bytes_equal_a_tobytes_encoding(tmp_path):
    path = ckpt_path(tmp_path)
    records = {"scalar": np.array(2.5, np.float32),
               "w": np.arange(12, dtype=np.float32).reshape(3, 4).T,
               "v": np.linspace(-1.0, 1.0, 5),
               "empty": np.zeros((0, 3), np.float32)}
    write_records(path, "cfg", records)
    want = [rs_model.CKPT_MAGIC, struct.pack("<I", rs_model.CKPT_VERSION),
            struct.pack("<I", 3), b"cfg", struct.pack("<I", len(records))]
    for name, arr in records.items():
        tag = 0 if arr.dtype == np.float32 else 1
        want += [struct.pack("<H", len(name)), name.encode(),
                 struct.pack("<B", arr.ndim),
                 struct.pack(f"<{arr.ndim}Q", *arr.shape), struct.pack("<B", tag),
                 np.ascontiguousarray(arr, dtype="<f4" if tag == 0 else "<f8").tobytes()]
    with open(path, "rb") as f:
        assert f.read() == b"".join(want)


def test_failed_write_keeps_previous_checkpoint(tmp_path):
    path = ckpt_path(tmp_path)
    good = {"w": np.arange(3, dtype=np.float32)}
    write_records(path, "cfg", good)
    # the second record cannot be stored, so the rewrite fails part-way
    with pytest.raises(CheckpointError, match="not storable"):
        write_records(path, "cfg", {"w": np.zeros(3, np.float32),
                                    "ids": np.zeros(3, np.int8)})
    text, records = read_records(path)
    assert text == "cfg" and set(records) == {"w"}
    np.testing.assert_array_equal(records["w"], good["w"])
    assert os.listdir(str(tmp_path)) == [os.path.basename(path)]


def test_save_model_rejects_extra_name_collision(tmp_path):
    model = build_model(micro_config())
    with pytest.raises(CheckpointError, match="collides"):
        save_model(ckpt_path(tmp_path), model,
                   extras={"head_w": np.zeros(1, np.float32)})


def test_load_into_model_rejects_missing_and_mismatched(tmp_path):
    model = build_model(micro_config(), seed=8)
    records = model.records()
    partial = dict(records)
    partial.pop("head_b")
    with pytest.raises(CheckpointError, match="missing head_b"):
        load_into_model(build_model(micro_config()), dict(partial))
    wrong = dict(records)
    wrong["head_b"] = np.zeros((7,), np.float32)
    with pytest.raises(CheckpointError, match="head_b"):
        load_into_model(build_model(micro_config()), wrong)
    as64 = dict(records)
    as64["head_b"] = records["head_b"].astype(np.float64)
    with pytest.raises(CheckpointError, match="head_b"):
        load_into_model(build_model(micro_config()), as64)


def test_failed_load_leaves_model_unchanged():
    # the missing record comes last, so a load that copied as it checked
    # would already have overwritten every other array
    model = build_model(micro_config(), seed=8)
    before = {k: v.copy() for k, v in model.records().items()}
    records = build_model(micro_config(), seed=9).records()
    assert list(records)[-1] == "fuses.2.bn_var"
    records.pop("fuses.2.bn_var")
    with pytest.raises(CheckpointError, match="missing fuses.2.bn_var"):
        load_into_model(model, records)
    for name, arr in model.records().items():
        np.testing.assert_array_equal(arr, before[name])


@pytest.mark.parametrize("change", ["shape", "dtype"])
def test_failed_load_of_lazy_records_reads_no_payload(tmp_path, change):
    # the mismatch is the last record; the file is emptied once its header
    # is read, so a load that read a payload before checking them all fails
    # with a truncation instead
    path = ckpt_path(tmp_path)
    model = build_model(micro_config(), seed=9)
    var = model.params.fuses[2].bn_var
    model.params.fuses[2].bn_var = (np.ones(var.size + 1) if change == "shape"
                                    else var.astype(np.float32))
    save_model(path, model)
    _, records = read_records(path)
    os.truncate(path, 0)
    fresh = build_model(micro_config(), seed=8)
    before = {k: v.copy() for k, v in fresh.records().items()}
    with pytest.raises(CheckpointError,
                       match="fuses.2.bn_var: checkpoint has"):
        load_into_model(fresh, records)
    for name, arr in fresh.records().items():
        np.testing.assert_array_equal(arr, before[name])


def test_load_holds_the_model_and_one_record(tmp_path):
    # read_records, build_model, load_into_model, as `routeseg infer` loads
    cfg = ModelConfig(base_channels=48, input_hw=64)
    path = ckpt_path(tmp_path)
    save_model(path, build_model(cfg, seed=3), "cfg")
    gc.collect()
    tracemalloc.start()
    try:
        _, records = read_records(path)
        model = build_model(cfg, seed=4)
        load_into_model(model, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [a.nbytes for a in model.records().values()]
    assert sum(sizes) > 48 * 2 ** 20
    # each payload is read straight into its parameter, so no record is held
    # a second time on the way
    bound = sum(sizes) + 2 ** 20
    assert peak <= bound, \
        f"load peaked {(peak - bound) / 2 ** 20:.1f} MiB above its bound"


# ---------------------------------------------------------------------------
# drawing the init on first use


def micro64_checkpoint(tmp_path) -> str:
    # drawn from seed 5 while the embedded config names seed 7, so a load
    # that kept its own init would not match
    run = load_config(os.path.join(CONFIGS, "micro64.cfg"))
    path = ckpt_path(tmp_path)
    save_model(path, build_model(run.model, seed=5), effective_text(run))
    return path


def assert_same_records(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def test_load_into_an_undrawn_model_never_draws(tmp_path, monkeypatch):
    path = micro64_checkpoint(tmp_path)
    forbid_draws(monkeypatch)
    text, records = read_records(path)
    run = parse_config_text(text, source=path)
    model = build_model(run.model, seed=run.seed)
    load_into_model(model, records)
    assert_same_records(model.records(), records)


def test_infer_loads_its_checkpoint_without_drawing(tmp_path, monkeypatch,
                                                    capsys):
    path = micro64_checkpoint(tmp_path)
    image = str(tmp_path / "x.pgm")
    write_pgm(image, np.arange(64 * 64).reshape(64, 64).astype(np.uint8))
    load, loaded = rs_cli._load_checkpoint_model, []
    monkeypatch.setattr(rs_cli, "_load_checkpoint_model",
                        lambda p: loaded.append(load(p)) or loaded[-1])
    forbid_draws(monkeypatch)
    assert rs_cli.main(["infer", "--checkpoint", path, "--image", image,
                        "--out", str(tmp_path / "pred")]) == 0
    assert_same_records(loaded[0][0].records(), read_records(path)[1])


# sha256 over (name, bytes) of build_model(micro64, seed=7).records(), the
# values the eager build drew before the init moved to first use
MICRO64_SEED7_SHA = {
    np.float32: "f9f770c871fff2ccec02316244851621c79193f0d63435847844d97ee3a7c8e2",
    np.float64: "271a8d92781ca0511abecaac9f153648086e3c024d7f4587214c005b8a5a2cd6",
}


@pytest.mark.parametrize("first", ["records", "forward", "bind"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_first_use_draws_the_seeds_init_bit_for_bit(dtype, first):
    cfg = load_config(os.path.join(CONFIGS, "micro64.cfg")).model
    model = build_model(cfg, seed=7, dtype=dtype)
    if first == "forward":
        model.forward(np.zeros((1, cfg.input_hw, cfg.input_hw,
                                cfg.in_channels), dtype))
    elif first == "bind":
        model.bind(Tape())
    h = hashlib.sha256()
    for name, arr in model.records().items():
        h.update(name.encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == MICRO64_SEED7_SHA[dtype]


@pytest.mark.parametrize("overrides,total", [
    ({}, 50_756_169), ({"sccsa": False}, 31_398_537),
    ({"base_channels": 64}, 22_637_961)])
def test_counting_an_undrawn_model_draws_nothing(monkeypatch, overrides, total):
    forbid_draws(monkeypatch)
    model = build_model(dataclasses.replace(ModelConfig(), **overrides))
    assert count_params(model)["total"] == total
    assert model._params is None


def test_count_params_is_the_same_drawn_and_undrawn():
    model = build_model(micro_config(), seed=4)
    undrawn = count_params(model)
    assert model._params is None
    model.params
    assert count_params(model) == undrawn


def test_refused_load_leaves_the_model_undrawn(monkeypatch):
    cfg = micro_config()
    records = build_model(cfg, seed=2).records()
    records["head_w"] = records["head_w"][:, :1].copy()
    forbid_draws(monkeypatch)
    model = build_model(cfg, seed=3)
    with pytest.raises(CheckpointError, match="head_w: checkpoint has"):
        load_into_model(model, records)
    monkeypatch.undo()
    assert_same_records(model.records(), build_model(cfg, seed=3).records())
