import dataclasses
import glob
import os

import pytest

from routeseg.config import (_KEYS, RunConfig, default_config, describe_keys,
                             effective_text, load_config, parse_config_text)
from routeseg.data import AugmentConfig
from routeseg.model import ConfigError, ModelConfig
from routeseg.optim import OptimConfig

SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "*.cfg")))

# effective_text(default_config()) as it is embedded in checkpoints
DEFAULT_TEXT = (
    "in_channels = 3\n" "num_classes = 9\n" "base_channels = 96\n"
    "stage_depths = 2,2,8,0,8,2,2\n" "top_k_schedule = auto\n" "s = 7\n"
    "input_hw = 224\n" "sccsa_enabled = true\n" "skip_mask = true,true,true\n"
    "scale_mode = per_head\n" "qkv_bias = true\n" "optimizer = sgd\n"
    "lr = 0.05\n" "momentum = 0.9\n" "weight_decay = 0.0001\n" "beta1 = 0.9\n"
    "beta2 = 0.999\n" "adam_eps = 1e-08\n" "schedule = constant\n"
    "epochs = 400\n" "batch_size = 24\n" "loss_lambda = 0.6\n"
    "augment = true\n" "p_hflip = 0.25\n" "p_vflip = 0.25\n" "p_rot = 0.25\n"
    "p_cutout = 0.25\n" "cutout_lo = auto\n" "cutout_hi = auto\n"
    "data_root = \n" "synthetic = false\n" "synth_n = 64\n" "split_file = \n"
    "split_fractions = 0.8,0.1,0.1\n" "kfold = 0\n" "fold = 0\n" "seed = 0\n"
    "eval_every = 25\n" "eval_hausdorff = false\n")


def test_empty_text_yields_full_defaults():
    run = default_config()
    assert run.model.base_channels == 96
    assert run.model.stage_depths == (2, 2, 8, 0, 8, 2, 2)
    assert run.model.input_hw == 224
    assert run.model.sccsa is True
    assert run.optim.kind == "sgd"
    assert run.optim.lr == 0.05 and run.optim.momentum == 0.9
    assert run.optim.schedule == "constant" and run.optim.epochs == 400
    assert run.loss_lambda == 0.6
    assert run.augment is True
    assert run.split_fractions == (0.8, 0.1, 0.1)


def test_adam_preset_swaps_optimizer_defaults():
    run = parse_config_text("optimizer = adam\n")
    assert run.optim.kind == "adam"
    assert run.optim.lr == 5e-4
    assert run.optim.schedule == "cosine"
    assert run.optim.epochs == 200 and run.optim.batch_size == 16
    assert run.optim.weight_decay == 0.0


def test_explicit_keys_override_preset_regardless_of_order():
    before = parse_config_text("lr = 0.25\noptimizer = adam\n")
    after = parse_config_text("optimizer = adam\nlr = 0.25\n")
    assert before.optim.lr == after.optim.lr == 0.25
    assert before.optim.schedule == "cosine"
    assert before == after


def test_comments_blanks_and_inline_comments_ignored():
    run = parse_config_text(
        "# full line comment\n"
        "\n"
        "base_channels = 32   # inline comment\n"
        "s = 2\n")
    assert run.model.base_channels == 32
    assert run.model.s == 2


def test_effective_text_round_trips_exactly():
    run = parse_config_text(
        "optimizer = adam\nlr = 0.002\nstage_depths = 1,1,2,1,2,1,1\n"
        "input_hw = 64\nnum_classes = 3\nbase_channels = 16\ns = 2\n"
        "synthetic = true\nsynth_n = 8\nsplit_fractions = 1,0,0\n"
        "augment = false\nseed = 7\n")
    text = effective_text(run)
    again = parse_config_text(text)
    assert again == run
    assert effective_text(again) == text


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_configs_round_trip(path):
    run = load_config(path)
    text = effective_text(run)
    again = parse_config_text(text)
    assert again == run
    assert effective_text(again) == text


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_code_built_config_round_trips(kind):
    run = dataclasses.replace(default_config(), optim=OptimConfig.preset(kind))
    assert parse_config_text(effective_text(run)) == run


@pytest.mark.parametrize("key,value", [
    ("data_root", "/data/scan#2"), ("split_file", " lead.txt"),
    ("split_file", "lead.txt "), ("data_root", "a\nb"), ("data_root", "a\rb")])
def test_effective_text_refuses_a_string_it_cannot_round_trip(key, value):
    run = dataclasses.replace(default_config(), **{key: value})
    with pytest.raises(ConfigError, match=f"^{key}: config text cannot hold"):
        effective_text(run)


def test_effective_text_round_trips_inner_spaces_and_tabs():
    run = dataclasses.replace(default_config(), data_root="/data/my  scans\tv2",
                              split_file="a b.txt")
    assert parse_config_text(effective_text(run)) == run


def _run_config(**kw):
    return RunConfig(ModelConfig(), OptimConfig(), AugmentConfig(), **kw)


@pytest.mark.parametrize("build,bad,msg", [
    (ModelConfig, dict(s=0), "partition factor"),
    (OptimConfig, dict(lr=0.0), "lr must be positive"),
    (AugmentConfig, dict(p_rot=1.5), "p_rot must be in"),
    (_run_config, dict(seed=-1), "seed must be nonnegative"),
], ids=["model", "optim", "aug", "run"])
def test_every_config_class_checks_when_built(build, bad, msg):
    with pytest.raises(ConfigError, match=msg):
        build(**bad)
    with pytest.raises(ConfigError, match=msg):
        dataclasses.replace(build(), **bad)


def test_shipped_configs_are_found():
    assert len(SHIPPED_CONFIGS) >= 12


def test_default_effective_text_is_pinned():
    assert effective_text(default_config()) == DEFAULT_TEXT


def test_retired_threads_key_is_ignored():
    # checkpoints written before the key was retired embed a threads line
    run = parse_config_text(DEFAULT_TEXT + "threads = 4\n")
    assert run == default_config()
    assert effective_text(run) == DEFAULT_TEXT


def test_every_config_field_is_set_by_exactly_one_key():
    fields = [f"model.{f.name}" for f in dataclasses.fields(ModelConfig)]
    fields += [f"aug.{f.name}" for f in dataclasses.fields(AugmentConfig)]
    fields += [f"optim.{f.name}" for f in dataclasses.fields(OptimConfig)]
    fields += [f.name for f in dataclasses.fields(RunConfig)
               if f.name not in ("model", "optim", "aug")]
    assert sorted(k.field for k in _KEYS) == sorted(fields)


def test_auto_values_serialize_and_parse():
    run = default_config()
    assert run.model.top_k_schedule is None
    assert run.aug.cutout_lo is None
    text = effective_text(run)
    assert "top_k_schedule = auto" in text
    assert parse_config_text(text).model.top_k_schedule is None
    explicit = parse_config_text("top_k_schedule = 1,2,3,4,3,2,1\n")
    assert explicit.model.top_k_schedule == (1, 2, 3, 4, 3, 2, 1)


@pytest.mark.parametrize("text,fragment,lineno", [
    ("frobnicate = 1\n", "unknown key", 1),
    ("s = 2\ns = 3\n", "duplicate key", 2),
    ("base_channels\n", "expected 'key = value'", 1),
    ("epochs = many\n", "expected an integer", 1),
    ("lr = fast\n", "expected a number", 1),
    ("augment = maybe\n", "expected a boolean", 1),
    ("optimizer = rmsprop\n", "expected one of", 1),
    ("scale_mode = global\n", "expected one of", 1),
    ("lr = nan\n", "expected a finite number", 1),
    ("s = 2\nweight_decay = inf\n", "expected a finite number", 2),
    ("split_fractions = nan,0,0\n", "expected a finite number", 1),
])
def test_parse_errors_name_source_and_line(text, fragment, lineno):
    with pytest.raises(ConfigError, match=fragment) as exc:
        parse_config_text(text, source="run.cfg")
    assert f"run.cfg:{lineno}" in str(exc.value)


def test_semantic_errors_surface_from_validation():
    with pytest.raises(ConfigError, match="multiple of 32"):
        parse_config_text("input_hw = 100\n")
    with pytest.raises(ConfigError, match="loss_lambda"):
        parse_config_text("loss_lambda = 2\n")
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config_text("split_fractions = 0.5,0.1,0.1\n")
    with pytest.raises(ConfigError, match="kfold"):
        parse_config_text("kfold = 1\n")
    with pytest.raises(ConfigError, match="fold"):
        parse_config_text("kfold = 3\nfold = 3\n")
    with pytest.raises(ConfigError, match="p_rot"):
        parse_config_text("p_rot = 7\n")


@pytest.mark.parametrize("text,key", [
    ("cutout_lo = 0\n", "cutout_lo"),
    ("cutout_hi = -3\n", "cutout_hi"),
    ("cutout_lo = 10\ncutout_hi = 5\n", "cutout_lo 10 exceeds cutout_hi 5"),
    # auto lo at input_hw 224 is 224 // 16 = 14
    ("cutout_hi = 5\n", "cutout_lo 14 exceeds cutout_hi 5"),
    # bounds above the image: auto hi follows lo up to 300
    ("cutout_lo = 300\n", "cutout_lo 300 exceeds input_hw 224"),
    ("cutout_hi = 500\n", "cutout_hi 500 exceeds input_hw 224"),
])
def test_cutout_bounds_rejected_at_parse(text, key):
    with pytest.raises(ConfigError, match=key):
        parse_config_text(text)


def test_cutout_bounds_accept_auto_and_equal_sides():
    assert parse_config_text("cutout_lo = 40\n").aug.cutout_bounds(224) == (40, 56)
    assert parse_config_text("cutout_lo = 5\ncutout_hi = 5\n").aug.cutout_bounds(224) == (5, 5)


def test_load_config_reads_file_and_reports_missing(tmp_path):
    path = os.path.join(str(tmp_path), "a.cfg")
    with open(path, "w") as f:
        f.write("base_channels = 8\nnum_classes = 2\n")
    run = load_config(path)
    assert run.model.base_channels == 8
    with pytest.raises(ConfigError, match="nope.cfg"):
        load_config(os.path.join(str(tmp_path), "nope.cfg"))


def test_load_config_errors_carry_path_and_line(tmp_path):
    path = os.path.join(str(tmp_path), "bad.cfg")
    with open(path, "w") as f:
        f.write("# fine\nbogus_key = 3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        load_config(path)


def test_describe_keys_covers_every_key():
    text = describe_keys()
    for name in ("base_channels", "stage_depths", "optimizer", "lr",
                 "loss_lambda", "p_cutout", "split_fractions"):
        assert name in text
    assert "sgd 0.05 / adam 0.0005" in text


def test_describe_keys_aligns_descriptions_and_names_both_presets():
    rows = describe_keys().splitlines()
    assert len(rows) == len(_KEYS)
    starts = set()
    for k, row in zip(_KEYS, rows):
        assert row.startswith(k.name + " ") and row.endswith("  " + k.doc)
        starts.add(len(row) - len(k.doc))
    assert len(starts) == 1
    lr = next(row for k, row in zip(_KEYS, rows) if k.name == "lr")
    assert (f"sgd {OptimConfig.preset('sgd').lr!r} / "
            f"adam {OptimConfig.preset('adam').lr!r}") in lr
