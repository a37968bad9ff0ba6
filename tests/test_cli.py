import json
import os

import numpy as np
import pytest

import routeseg.tensor
import routeseg.train
from routeseg.cli import main
from routeseg.config import parse_config_text
from routeseg.data import (read_pnm, save_dataset, synth_dataset,
                           write_split_file)
from routeseg.model import build_model, read_records, save_model, write_records

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


def test_eval_split_without_file_is_config_error(quick_run, capsys):
    assert main(["eval", "--checkpoint", quick_run["ckpt"],
                 "--data", quick_run["data"], "--split", "val"]) == 2
    assert "needs a split file" in capsys.readouterr().err


def test_eval_missing_checkpoint_is_data_error(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                 "--data", str(tmp_path)]) == 3
    assert "data error" in capsys.readouterr().err


def test_eval_without_any_dataset_is_data_error(quick_run, capsys):
    assert main(["eval", "--checkpoint", quick_run["ckpt"]]) == 3
    assert "no dataset" in capsys.readouterr().err


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


def test_report_without_target_says_so(tmp_path, capsys):
    cfg = write(str(tmp_path / "micro.cfg"), QUICK_CFG)
    out_path = str(tmp_path / "report.txt")
    assert main(["report", "--config", cfg, "--out", out_path]) == 0
    text = slurp(out_path)
    assert "no published parameter target" in text
    assert "total params" in text and "total flops" in text


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


def test_bench_scaling_needs_three_sides(capsys):
    assert main(["bench-scaling", "--sides", "32,64"]) == 2
    assert "at least 3" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# top level


def test_help_config_lists_keys(capsys):
    assert main(["--help-config"]) == 0
    out = capsys.readouterr().out
    assert "base_channels" in out and "loss_lambda" in out


def test_no_subcommand_prints_help_and_fails(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out
