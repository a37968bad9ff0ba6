import dataclasses
import json
import os

import numpy as np
import pytest

import routeseg.cli
import routeseg.gradcheck
import routeseg.tensor
import routeseg.train
from routeseg.attention import RoutingRecord, attention_flops, recording
from routeseg.cli import main
from routeseg.config import default_config, effective_text, parse_config_text
from routeseg.data import make_splits, read_pnm, synth_dataset
from routeseg.gradcheck import GradCheckReport
from routeseg.metrics import confusion_counts
from routeseg.model import (ModelConfig, build_model, read_records, save_model,
                            write_records)

from conftest import CONFIGS_DIR, forbid_draws, save_dataset, write_split_file

QUICK_CFG = """\
in_channels = 1
num_classes = 2
base_channels = 8
stage_depths = 1,0,0,0,0,0,1
s = 2
input_hw = 32
optimizer = adam
lr = 0.005
epochs = 3
batch_size = 4
synthetic = true
synth_n = 4
split_fractions = 1,0,0
augment = false
eval_every = 1
seed = 3
"""


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def slurp(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


@pytest.fixture(scope="session")
def quick_run(tmp_path_factory):
    """One trained micro checkpoint shared by the read-only CLI tests."""
    base = tmp_path_factory.mktemp("quickrun")
    cfg = write(str(base / "quick.cfg"), QUICK_CFG)
    out = str(base / "out")
    assert main(["train", "--config", cfg, "--out", out]) == 0

    data_root = str(base / "data")
    samples = synth_dataset(4, 32, 2, seed=17, in_channels=1)
    save_dataset(samples, data_root)
    split_path = str(base / "splits.tsv")
    write_split_file(split_path, {samples[0].id: "val", samples[1].id: "val",
                                  samples[2].id: "train",
                                  samples[3].id: "train"})
    return {"cfg": cfg, "out": out, "ckpt": os.path.join(out, "best.ckpt"),
            "last": os.path.join(out, "last.ckpt"), "data": data_root,
            "splits": split_path, "ids": [s.id for s in samples],
            "base": str(base)}


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts_and_reports_params(quick_run, capsys):
    out = quick_run["out"]
    for name in ("best.ckpt", "last.ckpt", "train_log.jsonl", "effective.cfg"):
        assert os.path.isfile(os.path.join(out, name))
    effective = slurp(os.path.join(out, "effective.cfg"))
    assert "base_channels = 8" in effective
    assert "lr = 0.005" in effective
    log = [json.loads(l) for l in
           slurp(os.path.join(out, "train_log.jsonl")).splitlines()]
    kinds = {r["kind"] for r in log}
    assert kinds == {"step", "epoch", "val"}
    assert sum(r["kind"] == "epoch" for r in log) == 3


def test_checkpoint_embeds_effective_config(quick_run):
    text, records = read_records(quick_run["ckpt"])
    assert text == slurp(os.path.join(quick_run["out"], "effective.cfg"))
    assert "state.epoch" in records and "opt.t" in records


def test_train_is_bit_reproducible(quick_run, tmp_path, capsys):
    out2 = str(tmp_path / "again")
    assert main(["train", "--config", quick_run["cfg"], "--out", out2]) == 0
    for name in ("best.ckpt", "last.ckpt", "train_log.jsonl"):
        assert slurp(os.path.join(quick_run["out"], name), "rb") == \
            slurp(os.path.join(out2, name), "rb"), name


def test_interrupted_then_resumed_run_matches(quick_run, tmp_path, capsys):
    out = str(tmp_path / "resumed")
    assert main(["train", "--config", quick_run["cfg"], "--out", out,
                 "--stop-after-epochs", "1"]) == 0
    assert main(["train", "--config", quick_run["cfg"], "--out", out,
                 "--resume", os.path.join(out, "last.ckpt")]) == 0
    assert slurp(os.path.join(out, "last.ckpt"), "rb") == \
        slurp(quick_run["last"], "rb")


def test_micro64_resume_draws_no_init_and_ends_as_a_straight_run(
        tmp_path, monkeypatch, capsys):
    with open(os.path.join(CONFIGS_DIR, "micro64.cfg"), encoding="utf-8") as f:
        micro64 = f.read().replace("epochs = 200", "epochs = 2")
    cfg = write(str(tmp_path / "micro64.cfg"), micro64)
    straight, resumed = str(tmp_path / "straight"), str(tmp_path / "resumed")
    assert main(["train", "--config", cfg, "--out", straight]) == 0
    assert main(["train", "--config", cfg, "--out", resumed,
                 "--stop-after-epochs", "1"]) == 0
    forbid_draws(monkeypatch)
    assert main(["train", "--config", cfg, "--out", resumed,
                 "--resume", os.path.join(resumed, "last.ckpt")]) == 0
    for name in ("last.ckpt", "train_log.jsonl"):
        assert slurp(os.path.join(straight, name), "rb") == \
            slurp(os.path.join(resumed, name), "rb"), name


def test_resume_with_another_optimizer_is_data_error(quick_run, tmp_path, capsys):
    cfg = write(str(tmp_path / "sgd.cfg"),
                QUICK_CFG.replace("optimizer = adam", "optimizer = sgd"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--resume", quick_run["last"]]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "is not used by this run" in err


@pytest.mark.parametrize("dropped,named", [("state.", "state.epoch"),
                                           ("opt.", "opt.t")])
def test_resume_from_checkpoint_missing_run_state_is_data_error(
        quick_run, tmp_path, capsys, dropped, named):
    text, records = read_records(quick_run["last"])
    kept = {k: v for k, v in records.items() if not k.startswith(dropped)}
    ckpt = str(tmp_path / "partial.ckpt")
    write_records(ckpt, text, kept)
    assert main(["train", "--config", quick_run["cfg"], "--out",
                 str(tmp_path / "o"), "--resume", ckpt]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"is missing {named}" in err


def test_train_out_on_an_existing_file_is_data_error(tmp_path, capsys):
    cfg = write(str(tmp_path / "quick.cfg"), QUICK_CFG)
    out = write(str(tmp_path / "taken"), "")
    assert main(["train", "--config", cfg, "--out", out]) == 3
    assert "data error" in capsys.readouterr().err


def test_train_missing_config_is_config_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_train_bad_key_is_config_error(tmp_path, capsys):
    cfg = write(str(tmp_path / "bad.cfg"), "base_channels = seven\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:1" in err


def test_train_inverted_cutout_bounds_is_config_error(tmp_path, capsys):
    cfg = write(str(tmp_path / "cut.cfg"), QUICK_CFG.replace(
        "augment = false", "augment = true\np_cutout = 1.0\ncutout_lo = 10\ncutout_hi = 5"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "cutout_lo 10 exceeds cutout_hi 5" in capsys.readouterr().err


def test_train_cutout_larger_than_image_is_config_error(tmp_path, capsys):
    cfg = write(str(tmp_path / "cut.cfg"), QUICK_CFG.replace(
        "augment = false", "augment = true\np_cutout = 1.0\ncutout_hi = 40"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "cutout_hi 40 exceeds input_hw 32" in capsys.readouterr().err


def test_train_non_finite_split_fractions_is_config_error(tmp_path, capsys):
    cfg = write(str(tmp_path / "nan.cfg"), QUICK_CFG.replace(
        "split_fractions = 1,0,0", "split_fractions = nan,0,0"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "nan.cfg:13: split_fractions" in capsys.readouterr().err


def test_train_without_data_is_data_error(tmp_path, capsys):
    cfg = write(str(tmp_path / "nodata.cfg"),
                "synthetic = false\nnum_classes = 2\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_train_stop_after_epochs_below_one_is_usage_error(tmp_path, epochs,
                                                          capsys):
    cfg = write(str(tmp_path / "quick.cfg"), QUICK_CFG)
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out),
                 "--stop-after-epochs", epochs]) == 2
    assert f"--stop-after-epochs must be >= 1, got {epochs}" in capsys.readouterr().err
    assert not out.exists()


def test_train_names_only_the_checkpoints_it_wrote(tmp_path, capsys):
    cfg = write(str(tmp_path / "quick.cfg"),
                QUICK_CFG.replace("eval_every = 1", "eval_every = 2"))
    out = str(tmp_path / "o")
    best, last = os.path.join(out, "best.ckpt"), os.path.join(out, "last.ckpt")
    # stopped before the first validation at epoch 2: no best.ckpt yet
    assert main(["train", "--config", cfg, "--out", out,
                 "--stop-after-epochs", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {last}"
    assert not os.path.exists(best)
    assert main(["train", "--config", cfg, "--out", out, "--resume", last]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {best} and {last}"


def test_fresh_train_into_another_runs_out_is_data_error(tmp_path, capsys):
    with open(os.path.join(CONFIGS_DIR, "micro64.cfg"), encoding="utf-8") as f:
        micro64 = f.read().replace("epochs = 200", "epochs = 2")
    first = write(str(tmp_path / "first.cfg"),
                  micro64.replace("eval_every = 10", "eval_every = 1"))
    second = write(str(tmp_path / "second.cfg"), micro64.replace(
        "seed = 7", "seed = 5").replace("eval_every = 10", "eval_every = 2"))
    out = tmp_path / "o"
    assert main(["train", "--config", first, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"best.ckpt", "last.ckpt", "train_log.jsonl",
                           "effective.cfg"}
    capsys.readouterr()
    assert main(["train", "--config", second, "--out", str(out),
                 "--stop-after-epochs", "1"]) == 3
    assert "holds another run's best.ckpt" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_train_without_validation_says_so(tmp_path, capsys):
    cfg = write(str(tmp_path / "quick.cfg"),
                QUICK_CFG.replace("eval_every = 1", "eval_every = 2"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--stop-after-epochs", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == \
        "done: 1 epochs, 1 steps, no validation ran"


def test_train_with_undefined_foreground_dsc_says_so(tmp_path, monkeypatch,
                                                     capsys):
    # every validation scores all-background maps against all-background
    # masks, so no foreground class has a DSC
    real = routeseg.train.evaluate_predictions

    def background_only(preds, targets, num_classes, **kw):
        blank = [np.zeros_like(t) for t in targets]
        return real(blank, blank, num_classes, **kw)

    monkeypatch.setattr(routeseg.train, "evaluate_predictions", background_only)
    cfg = write(str(tmp_path / "quick.cfg"), QUICK_CFG)
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == \
        "done: 3 epochs, 3 steps, foreground DSC undefined at every validation"
    assert (out / "best.ckpt").exists()


def test_train_on_pixels_above_maxval_is_data_error(tmp_path, capsys):
    samples = synth_dataset(2, 32, 2, seed=19, in_channels=1)
    root = str(tmp_path / "data")
    save_dataset(samples, root)
    bad = os.path.join(root, "images", samples[0].id + ".pgm")
    with open(bad, "wb") as f:
        f.write(b"P5\n2 1\n15\n" + bytes([3, 200]))
    cfg = write(str(tmp_path / "over.cfg"), QUICK_CFG.replace(
        "synthetic = true", f"synthetic = false\ndata_root = {root}"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "pixel value 200 exceeds maxval 15" in capsys.readouterr().err


def test_train_on_images_of_another_size_is_data_error(tmp_path, capsys):
    samples = synth_dataset(2, 32, 2, seed=19, in_channels=1)
    root = str(tmp_path / "data")
    save_dataset(samples, root)
    cfg = write(str(tmp_path / "big.cfg"), QUICK_CFG.replace(
        "input_hw = 32", "input_hw = 64").replace(
        "synthetic = true", f"synthetic = false\ndata_root = {root}"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"sample {samples[0].id!r}: extents 32x32 do not match" in err
    assert "64x64" in err


def test_diverging_run_exits_numeric_abort(tmp_path, capsys):
    cfg = write(str(tmp_path / "blow.cfg"), QUICK_CFG.replace(
        "optimizer = adam\nlr = 0.005\nepochs = 3",
        "optimizer = sgd\nlr = 1e12\nepochs = 3"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "numeric abort: non-finite loss" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_parameter_overflow_exits_numeric_abort(tmp_path, capsys):
    # the loss and gradients stay finite; only the single update overflows
    cfg = write(str(tmp_path / "over.cfg"), QUICK_CFG.replace(
        "optimizer = adam\nlr = 0.005\nepochs = 3",
        "optimizer = sgd\nlr = 1e300\nepochs = 1"))
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 4
    assert ("numeric abort: non-finite parameter embed.w1 after the update "
            "at epoch 0, step 0" in capsys.readouterr().err)
    assert not (out / "best.ckpt").exists() and not (out / "last.ckpt").exists()


def test_non_finite_gradient_exits_numeric_abort(tmp_path, monkeypatch, capsys):
    real = routeseg.train.backward

    class AllNaN:
        def __init__(self, grads):
            self.grads = grads

        def __getitem__(self, t):
            return np.full_like(self.grads[t], np.nan)

    monkeypatch.setattr(routeseg.train, "backward",
                        lambda loss: AllNaN(real(loss)))
    cfg = write(str(tmp_path / "quick.cfg"), QUICK_CFG)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert ("numeric abort: non-finite gradient of embed.w1 at epoch 0, step 0"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_metrics_json(quick_run, tmp_path, capsys):
    out_json = str(tmp_path / "report.json")
    code = main(["eval", "--checkpoint", quick_run["ckpt"],
                 "--data", quick_run["data"], "--out", out_json])
    assert code == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc == json.loads(slurp(out_json))
    assert doc["num_images"] == 4 and doc["num_classes"] == 2

    # the reported mean IoU must be re-derivable from the counts
    ious = []
    for tp, fp, fn, _ in doc["counts"]:
        den = tp + fp + fn
        if den:
            ious.append(tp / den)
    assert abs(doc["means"]["iou"] - sum(ious) / len(ious)) < 1e-9


def test_eval_split_filtering(quick_run, capsys):
    code = main(["eval", "--checkpoint", quick_run["ckpt"],
                 "--data", quick_run["data"], "--split", "val",
                 "--split-file", quick_run["splits"]])
    assert code == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["num_images"] == 2


def with_run_config(quick_run, path, **changes):
    """quick_run's best.ckpt with ``changes`` made to its embedded run config."""
    text, records = read_records(quick_run["ckpt"])
    run = dataclasses.replace(parse_config_text(text), **changes)
    write_records(path, effective_text(run), records)
    return path


def test_eval_of_a_synthetic_run_uses_its_samples(quick_run, capsys):
    log = [json.loads(l) for l in
           slurp(os.path.join(quick_run["out"], "train_log.jsonl")).splitlines()]
    best = max(r["fg_dsc"] for r in log if r["kind"] == "val")
    assert main(["eval", "--checkpoint", quick_run["ckpt"]]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    # split_fractions = 1,0,0: validation ran on all four synthetic samples
    assert doc["num_images"] == 4
    assert doc["foreground_means"]["dsc"] == best


@pytest.mark.parametrize("split", ["val", "test"])
def test_eval_split_selects_what_make_splits_assigns(quick_run, tmp_path,
                                                     monkeypatch, split, capsys):
    samples = synth_dataset(8, 32, 2, seed=29, in_channels=1)
    root = str(tmp_path / "data")
    save_dataset(samples, root)
    fractions = (0.5, 0.25, 0.25)
    ckpt = with_run_config(quick_run, str(tmp_path / "f.ckpt"),
                           split_fractions=fractions)
    seen = []
    real = routeseg.cli.evaluate
    monkeypatch.setattr(routeseg.cli, "evaluate", lambda model, got, **kw:
                        seen.append([s.id for s in got]) or real(model, got, **kw))
    assert main(["eval", "--checkpoint", ckpt, "--data", root,
                 "--split", split]) == 0
    assignment = make_splits([s.id for s in samples], fractions, seed=3)
    want = [s.id for s in samples if assignment[s.id] == split]
    assert len(want) == 2 and seen == [want]


def test_eval_split_without_file_uses_the_runs_splits(quick_run, tmp_path,
                                                      capsys):
    ckpt = with_run_config(quick_run, str(tmp_path / "half.ckpt"),
                           split_fractions=(0.5, 0.5, 0.0))
    assert main(["eval", "--checkpoint", ckpt,
                 "--data", quick_run["data"], "--split", "val"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["num_images"] == 2
    # quick_run's own fractions (1,0,0) leave the validation split empty
    assert main(["eval", "--checkpoint", quick_run["ckpt"],
                 "--data", quick_run["data"], "--split", "val"]) == 3
    assert "split 'val' selects no samples" in capsys.readouterr().err


@pytest.mark.parametrize("last,message", [(None, "no split for id"),
                                          ("holdout", "unknown split name")],
                         ids=["missing", "unknown"])
def test_eval_split_file_must_place_every_sample(quick_run, tmp_path, last,
                                                 message, capsys):
    ids = quick_run["ids"]
    splits = {sid: "val" for sid in ids[:-1]}
    if last:
        splits[ids[-1]] = last
    split_path = str(tmp_path / "splits.tsv")
    write_split_file(split_path, splits)
    assert main(["eval", "--checkpoint", quick_run["ckpt"], "--data",
                 quick_run["data"], "--split", "val",
                 "--split-file", split_path]) == 3
    assert message in capsys.readouterr().err
    # --split all reads no split file
    assert main(["eval", "--checkpoint", quick_run["ckpt"], "--data",
                 quick_run["data"], "--split-file", split_path]) == 0


def test_eval_missing_checkpoint_is_data_error(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                 "--data", str(tmp_path)]) == 3
    assert "data error" in capsys.readouterr().err


def test_eval_without_any_dataset_is_data_error(quick_run, tmp_path, capsys):
    ckpt = with_run_config(quick_run, str(tmp_path / "nodata.ckpt"),
                           synthetic=False)
    assert main(["eval", "--checkpoint", ckpt]) == 3
    assert "no dataset" in capsys.readouterr().err


def test_eval_on_images_of_another_size_is_data_error(quick_run, tmp_path,
                                                     capsys):
    samples = synth_dataset(2, 16, 2, seed=23, in_channels=1)
    root = str(tmp_path / "small")
    save_dataset(samples, root)
    assert main(["eval", "--checkpoint", quick_run["ckpt"],
                 "--data", root]) == 3
    err = capsys.readouterr().err
    assert f"sample {samples[0].id!r}: extents 16x16 do not match" in err
    assert "32x32" in err


def test_eval_hausdorff_flag_populates_field(quick_run, capsys):
    code = main(["eval", "--checkpoint", quick_run["ckpt"],
                 "--data", quick_run["data"], "--hausdorff"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(doc["hausdorff"]) == 2


# ---------------------------------------------------------------------------
# infer


def image_path(quick_run):
    return os.path.join(quick_run["data"], "images",
                        quick_run["ids"][0] + ".pgm")


def test_checkpoint_with_retired_threads_key_still_loads(quick_run, tmp_path,
                                                        capsys):
    text, records = read_records(quick_run["ckpt"])
    assert "threads" not in text
    old = str(tmp_path / "old.ckpt")
    write_records(old, text + "threads = 1\n", records)
    assert main(["eval", "--checkpoint", old, "--data", quick_run["data"]]) == 0
    assert main(["infer", "--checkpoint", old, "--image", image_path(quick_run),
                 "--out", str(tmp_path / "pred")]) == 0


def test_infer_writes_consistent_prediction_and_probs(quick_run, tmp_path,
                                                      capsys):
    out = str(tmp_path / "infer")
    code = main(["infer", "--checkpoint", quick_run["ckpt"],
                 "--image", image_path(quick_run), "--out", out, "--probs"])
    assert code == 0
    pred = read_pnm(os.path.join(out, "pred.pgm"))
    assert pred.shape == (32, 32) and pred.max() <= 1
    qmaps = np.stack([read_pnm(os.path.join(out, f"prob_{k:02d}.pgm"))
                      for k in range(2)])
    # rounding to 255 levels is monotone, so the argmax class must still
    # carry a maximal quantized value everywhere
    qmax = qmaps.max(axis=0)
    chosen = qmaps[pred, np.arange(32)[:, None], np.arange(32)[None, :]]
    np.testing.assert_array_equal(chosen, qmax)


def test_infer_on_every_image_adds_up_to_evals_counts(quick_run, tmp_path,
                                                      capsys):
    assert main(["eval", "--checkpoint", quick_run["ckpt"],
                 "--data", quick_run["data"]]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    counts = np.zeros((2, 4), dtype=np.int64)
    for sid in quick_run["ids"]:
        out = str(tmp_path / sid)
        assert main(["infer", "--checkpoint", quick_run["ckpt"], "--image",
                     os.path.join(quick_run["data"], "images", sid + ".pgm"),
                     "--out", out]) == 0
        mask = read_pnm(os.path.join(quick_run["data"], "masks", sid + ".pgm"))
        counts += confusion_counts(read_pnm(os.path.join(out, "pred.pgm")),
                                   mask, 2)
    assert counts.tolist() == doc["counts"]


def test_infer_is_bit_reproducible(quick_run, tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        assert main(["infer", "--checkpoint", quick_run["ckpt"],
                     "--image", image_path(quick_run), "--out", out]) == 0
    assert slurp(os.path.join(a, "pred.pgm"), "rb") == \
        slurp(os.path.join(b, "pred.pgm"), "rb")


def test_infer_rejects_wrong_extent_image(quick_run, tmp_path, capsys):
    from routeseg.data import write_pgm
    small = str(tmp_path / "small.pgm")
    write_pgm(small, np.zeros((16, 16), np.uint8))
    assert main(["infer", "--checkpoint", quick_run["ckpt"],
                 "--image", small, "--out", str(tmp_path / "o")]) == 3
    assert "do not match" in capsys.readouterr().err


def test_infer_on_checkpoint_with_non_utf8_config_is_data_error(quick_run, tmp_path,
                                                               capsys):
    text, records = read_records(quick_run["ckpt"])
    bad = str(tmp_path / "latin1.ckpt")
    write_records(bad, text, records)
    blob = bytearray(slurp(bad, "rb"))
    blob[12] = 0xff                            # first byte of the config text
    with open(bad, "wb") as f:
        f.write(blob)
    assert main(["infer", "--checkpoint", bad, "--image", image_path(quick_run),
                 "--out", str(tmp_path / "o")]) == 3
    assert "config is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["bogus_key = 1\n", "base_channels = 100\n"])
@pytest.mark.parametrize("command", ["eval", "infer", "dump-attention"])
def test_checkpoint_with_an_unusable_config_is_data_error(quick_run, tmp_path, capsys,
                                                          command, text):
    bad = str(tmp_path / "bad.ckpt")
    write_records(bad, text, {"a": np.zeros(2, np.float32)})
    out = str(tmp_path / "o")
    args = {"eval": ["--data", quick_run["data"]],
            "infer": ["--image", image_path(quick_run), "--out", out],
            "dump-attention": ["--image", image_path(quick_run), "--row", "0",
                               "--col", "0", "--out", out]}[command]
    assert main([command, "--checkpoint", bad, *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"routeseg: data error: {bad}: ") and err.count("\n") == 1
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# report


@pytest.mark.parametrize("extra", ["", "sccsa_enabled = false\n",
                                   "base_channels = 64\n"])
def test_report_passes_published_targets(tmp_path, capsys, extra):
    cfg = write(str(tmp_path / "r.cfg"), extra)
    assert main(["report", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "published target" in out and "PASS" in out
    assert "FAIL" not in out


BASE_MODULE_ROWS = [
    ("embed", 43_200, 148_119_552),
    ("stage1", 193_344, 756_111_552),
    ("stage2", 755_328, 629_225_856),
    ("stage3", 11_940_864, 2_381_503_488),
    ("stage4", 0, 0),
    ("stage5", 11_940_864, 2_381_503_488),
    ("stage6", 755_328, 629_225_856),
    ("stage7", 193_344, 756_111_552),
    ("merges", 3_487_680, 390_695_424),
    ("expands", 1_699_968, 635_830_272),
    ("fusion", 19_745_376, 8_844_347_904),
    ("head", 873, 43_352_064),
    ("total", 50_756_169, 17_596_027_008),
]


def test_report_module_rows_on_base_are_pinned(capsys):
    assert main(["report", "--config", os.path.join(CONFIGS_DIR, "base.cfg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:2 + len(BASE_MODULE_ROWS)]]
    assert [(name, int(p.replace(",", "")), int(m.replace(",", "")))
            for name, p, m in rows] == BASE_MODULE_ROWS
    assert lines[2 + len(BASE_MODULE_ROWS)].startswith("total params")


def test_report_on_micro64_draws_no_init(monkeypatch, capsys):
    forbid_draws(monkeypatch)
    assert main(["report", "--config",
                 os.path.join(CONFIGS_DIR, "micro64.cfg")]) == 0
    assert "total params" in capsys.readouterr().out


def test_report_without_target_says_so(tmp_path, capsys):
    cfg = write(str(tmp_path / "micro.cfg"), QUICK_CFG)
    out_path = str(tmp_path / "report.txt")
    assert main(["report", "--config", cfg, "--out", out_path]) == 0
    text = slurp(out_path)
    assert "no published parameter target" in text
    assert "total params" in text and "total flops" in text


def test_width_that_does_not_split_into_heads_is_config_error(tmp_path, capsys):
    cfg = write(str(tmp_path / "b100.cfg"), "base_channels = 100\n")
    assert main(["report", "--config", cfg]) == 2
    assert capsys.readouterr().err == ("routeseg: config error: base_channels 100: "
                                       "stage 1 width 100 does not split into 3 heads\n")
    out = tmp_path / "o"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "does not split into 3 heads" in capsys.readouterr().err
    assert not out.exists()


# One other value for every ModelConfig field, and whether the published
# targets range over that field (so the report still prints a target line).
TARGET_FIELD_CHANGES = {
    "in_channels": (1, False),
    "num_classes": (2, False),
    "base_channels": (64, True),
    "stage_depths": ((2, 2, 8, 1, 8, 2, 2), False),
    "top_k_schedule": ((1, 1, 1, 1, 1, 1, 1), False),
    "s": (8, False),
    "input_hw": (256, False),
    "sccsa": (False, True),
    "skip_mask": ((True, True, False), False),
    "scale_mode": ("model_dim", True),
    "qkv_bias": (False, True),
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ModelConfig)])
def test_report_keeps_a_published_target_only_for_the_fields_it_ranges_over(field):
    value, kept = TARGET_FIELD_CHANGES[field]
    model = dataclasses.replace(ModelConfig(), **{field: value})
    text = routeseg.cli._report_text(dataclasses.replace(default_config(), model=model))
    targets = [l for l in text.splitlines() if l.startswith("published target [")]
    assert len(targets) == int(kept)
    assert ("no published parameter target for this configuration" in text) != kept


def test_report_to_an_unwritable_path_is_data_error(tmp_path, capsys):
    cfg = write(str(tmp_path / "micro.cfg"), QUICK_CFG)
    blocker = write(str(tmp_path / "a_file"), "")
    assert main(["report", "--config", cfg,
                 "--out", os.path.join(blocker, "report.txt")]) == 3
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench-scaling


def test_bench_scaling_fits_subquadratic_exponent(tmp_path, capsys):
    out_path = str(tmp_path / "scan.txt")
    assert main(["bench-scaling", "--sides", "32,64,128,256",
                 "--out", out_path]) == 0
    text = slurp(out_path)
    routed = [l for l in text.splitlines() if "routed minimum" in l][0]
    full = [l for l in text.splitlines() if "full attention" in l][0]
    routed_exp = float(routed.split(":")[1].split("(")[0])
    full_exp = float(full.split(":")[1])
    assert abs(routed_exp - 4.0 / 3.0) < 0.05
    assert abs(full_exp - 2.0) < 1e-6


@pytest.mark.parametrize("sides,top_k,channels", [
    ([32, 64, 128, 256], 4, 64), ([8, 16, 32, 64], 1, 8), ([6, 12, 24], 2, 3)])
def test_bench_scaling_full_cost_is_attention_over_one_region(sides, top_k, channels):
    rows = routeseg.cli.bench_scaling_table(sides, top_k, channels)["rows"]
    assert [r["side"] for r in rows] == sides
    for r in rows:
        hw = r["hw"]
        assert r["full_macs"] == 2 * hw * hw * channels \
            == attention_flops(hw, channels, 1, 1)["token_macs"]


def test_bench_scaling_needs_three_sides(capsys):
    assert main(["bench-scaling", "--sides", "32,64"]) == 2
    assert "at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--top-k", "--channels"])
def test_bench_scaling_values_below_one_are_usage_errors(option, capsys):
    assert main(["bench-scaling", option, "0"]) == 2
    assert f"{option} must be >= 1, got 0" in capsys.readouterr().err


def test_bench_scaling_top_k_above_every_partition_is_usage_error(capsys):
    # side 2 holds at most 2 x 2 regions
    assert main(["bench-scaling", "--sides", "2,4,8", "--top-k", "5"]) == 2
    assert "no valid partition factor for hw 4" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dump-attention


def test_dump_attention_exports_routing_and_heatmap(quick_run, tmp_path,
                                                    capsys):
    out = str(tmp_path / "attn")
    code = main(["dump-attention", "--checkpoint", quick_run["ckpt"],
                 "--image", image_path(quick_run), "--stage", "1",
                 "--row", "1", "--col", "2", "--out", out])
    assert code == 0
    assert "attention mass 1.0" in capsys.readouterr().out

    region_map = read_pnm(os.path.join(out, "region_map.pgm"))
    heat_up = read_pnm(os.path.join(out, "heatmap.pgm"))
    assert region_map.shape == (32, 32) and heat_up.shape == (32, 32)
    # stage 1 runs at side 8 with 4x4 regions and top_k 2: exactly two
    # routed regions, upsampled 4x -> 2 * 16 * 16 lit pixels
    assert int(np.count_nonzero(region_map)) == 2 * 16 * 16

    lines = slurp(os.path.join(out, "heatmap.txt")).splitlines()
    assert lines[0].startswith("# stage 1 query (1, 2)")
    heat = np.array([[float(v) for v in l.split()] for l in lines[1:]])
    assert heat.shape == (8, 8)
    assert abs(heat.sum() - 1.0) < 1e-6      # f32 softmax

    assert (heat[region_map[::4, ::4] == 0] == 0.0).all()


def test_dump_attention_last_block_is_block_depth_minus_one(quick_run, tmp_path,
                                                           capsys):
    # stage 7 holds three blocks and follows a two-block stage 1, so the
    # picked trace sits past the first stage's
    text = QUICK_CFG.replace("stage_depths = 1,0,0,0,0,0,1",
                             "stage_depths = 2,0,0,0,0,0,3")
    run = parse_config_text(text)
    ckpt = str(tmp_path / "deep.ckpt")
    save_model(ckpt, build_model(run.model, seed=run.seed), text)

    def dump(block):
        out = str(tmp_path / f"block{block}")
        assert main(["dump-attention", "--checkpoint", ckpt,
                     "--image", image_path(quick_run), "--stage", "7",
                     "--block", block, "--row", "5", "--col", "3",
                     "--out", out]) == 0
        return [slurp(os.path.join(out, name), "rb")
                for name in ("region_map.pgm", "heatmap.pgm", "heatmap.txt")]

    last = dump("-1")
    assert dump("2") == last
    assert dump("0") != last


def _dump_by_loops(ckpt, image, stage, row, col):
    """The three dump-attention files worked out with plain loops over the
    row-major region grid and, within a region, the row-major token grid."""
    model, run = routeseg.cli._load_checkpoint_model(ckpt)
    with recording(RoutingRecord()) as rec:
        routeseg.train.predict(model, routeseg.cli._read_input_image(image, run))
    trace = rec.traces[sum(run.model.stage_depths[:stage - 1])]
    spec = trace.spec
    side, s, rh, rw = spec.feat_h, spec.s, spec.region_h, spec.region_w
    pixel_of = {}                         # (region, token) -> (y, x)
    for ry in range(s):
        for rx in range(s):
            for ty in range(rh):
                for tx in range(rw):
                    pixel_of[ry * s + rx, ty * rw + tx] = (ry * rh + ty, rx * rw + tx)
    region, token = next(k for k, v in pixel_of.items() if v == (row, col))
    routed = [int(r) for r in trace.routing.index[0, region]]
    weights = trace.weights[0, region, :, token, :].mean(axis=0)
    lit = np.zeros((side, side), bool)
    heat = np.zeros((side, side))
    for j, rid in enumerate(routed):
        for t in range(rh * rw):
            lit[pixel_of[rid, t]] = True
            heat[pixel_of[rid, t]] = weights[j * rh * rw + t]
    factor = run.model.input_hw // side
    up = lambda m: np.kron(m, np.ones((factor, factor), m.dtype))
    return (up(lit.astype(np.uint8) * 255),
            np.rint(up(heat) / heat.max() * 255.0).astype(np.uint8),
            f"# stage {stage} query ({row}, {col}) region {region} routed {routed}",
            heat, len(routed))


@pytest.mark.parametrize("stage,row,col", [
    (1, 0, 0), (1, 5, 2), (1, 7, 7), (2, 3, 1), (6, 2, 3), (7, 6, 1)])
def test_dump_attention_matches_a_loop_derivation(quick_run, tmp_path, stage,
                                                  row, col):
    # stages 1 and 7 at side 8 route 2 of 4 regions; 2 and 6 at side 4 all 4
    text = QUICK_CFG.replace("stage_depths = 1,0,0,0,0,0,1",
                             "stage_depths = 1,1,0,0,0,1,1")
    run = parse_config_text(text)
    ckpt = str(tmp_path / "m.ckpt")
    save_model(ckpt, build_model(run.model, seed=run.seed), text)
    out = str(tmp_path / "attn")
    assert main(["dump-attention", "--checkpoint", ckpt,
                 "--image", image_path(quick_run), "--stage", str(stage),
                 "--row", str(row), "--col", str(col), "--out", out]) == 0
    region_map, heat_pgm, header, heat, k = _dump_by_loops(
        ckpt, image_path(quick_run), stage, row, col)
    assert k > 1
    np.testing.assert_array_equal(read_pnm(os.path.join(out, "region_map.pgm")),
                                  region_map)
    np.testing.assert_array_equal(read_pnm(os.path.join(out, "heatmap.pgm")),
                                  heat_pgm)
    lines = slurp(os.path.join(out, "heatmap.txt")).splitlines()
    assert lines[0] == header
    np.testing.assert_array_equal(
        np.array([[float(v) for v in line.split()] for line in lines[1:]]), heat)


def test_dump_attention_validates_query_and_stage(quick_run, tmp_path, capsys):
    args = ["dump-attention", "--checkpoint", quick_run["ckpt"],
            "--image", image_path(quick_run), "--out", str(tmp_path / "x")]
    assert main(args + ["--stage", "1", "--row", "8", "--col", "0"]) == 2
    assert main(args + ["--stage", "2", "--row", "0", "--col", "0"]) == 2
    assert "no blocks" in capsys.readouterr().err
    assert main(args + ["--stage", "9", "--row", "0", "--col", "0"]) == 2


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_command_passes_clean_build(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all 32 gradient checks passed" in out


def test_gradcheck_command_catches_broken_backward(monkeypatch, capsys):
    def broken_sqrt(a):
        out = np.sqrt(a.data)
        if a.tape is None:
            return routeseg.tensor.Tensor(out)
        node = a.tape._append("sqrt", (a.node,), lambda g: (g,))
        return routeseg.tensor.Tensor(out, tape=a.tape, node=node)

    monkeypatch.setattr(routeseg.tensor, "sqrt", broken_sqrt)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "sqrt" in out


@pytest.mark.parametrize("option,value", [
    ("--step", "0"), ("--step", "-1e-4"), ("--step", "nan"), ("--step", "inf"),
    ("--tol", "-1e-3"), ("--tol", "nan"), ("--tol", "inf")])
def test_gradcheck_bad_step_or_tol_is_usage_error(option, value, monkeypatch,
                                                  capsys):
    def no_suite(**kw):
        raise AssertionError("the suite ran before the options were checked")

    monkeypatch.setattr(routeseg.gradcheck, "run_standard_suite", no_suite)
    assert main(["gradcheck", f"{option}={value}"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and option in err


def test_gradcheck_worst_offender_names_a_nan_check(monkeypatch, capsys):
    def suite(step, tol):
        return [GradCheckReport("finite", tol, step, 0.5, False, 3),
                GradCheckReport("nan_grad", tol, step, float("nan"), False, 3)]

    monkeypatch.setattr(routeseg.gradcheck, "run_standard_suite", suite)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "nan_grad: max rel err nan" in out
    assert "worst offender nan_grad at rel err nan" in out


# ---------------------------------------------------------------------------
# top level


def test_help_config_lists_keys(capsys):
    assert main(["--help-config"]) == 0
    out = capsys.readouterr().out
    assert "base_channels" in out and "loss_lambda" in out


def test_no_subcommand_prints_help_and_fails(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out
