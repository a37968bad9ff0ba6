import dataclasses
import io
import json
import math
import os
import shutil
import tracemalloc

import numpy as np
import pytest

import routeseg.train
from routeseg.config import load_config
from routeseg.data import AugmentConfig, synth_dataset
from routeseg.model import CheckpointError, build_model, read_records
from routeseg.optim import OptimConfig
from routeseg.params import named_arrays
from routeseg.train import (NumericAbort, TrainState, evaluate,
                            predict_batches, train_loop)

from conftest import micro_config


def tiny_optim(epochs=2, **kw):
    base = dict(kind="adam", lr=1e-3, weight_decay=0.0, schedule="cosine",
                epochs=epochs, batch_size=4)
    base.update(kw)
    return OptimConfig(**base)


def tiny_run(seed=0, epochs=2, n=6, **loop_kw):
    samples = synth_dataset(n, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=seed)
    stream = io.StringIO()
    state = train_loop(model, samples, [], tiny_optim(epochs=epochs),
                       seed=seed, eval_every=0, log_stream=stream, **loop_kw)
    return model, state, stream.getvalue()


def parse_log(text):
    return [json.loads(line) for line in text.splitlines()]


def test_training_reduces_loss():
    samples = synth_dataset(6, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=0)
    stream = io.StringIO()
    state = train_loop(model, samples, [], tiny_optim(epochs=8, lr=5e-3),
                       seed=0, eval_every=0, log_stream=stream)
    epochs = [r["mean_loss"] for r in parse_log(stream.getvalue())
              if r["kind"] == "epoch"]
    assert len(epochs) == 8
    assert epochs[-1] < epochs[0]
    assert state.epoch == 8 and state.step == 16    # 6 samples / batch 4 -> 2


def test_two_runs_are_bit_identical():
    model_a, _, log_a = tiny_run(seed=3)
    model_b, _, log_b = tiny_run(seed=3)
    assert log_a == log_b
    a, b = named_arrays(model_a.params), named_arrays(model_b.params)
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_update_is_invariant_to_sample_arrival_order():
    samples = synth_dataset(6, 32, 2, seed=17, in_channels=1)
    logs = []
    for arrangement in (samples, samples[::-1]):
        model = build_model(micro_config(), seed=3)
        stream = io.StringIO()
        train_loop(model, list(arrangement), [], tiny_optim(epochs=1),
                   seed=3, eval_every=0, log_stream=stream)
        logs.append(stream.getvalue())
    assert logs[0] == logs[1]


def test_step_records_carry_loss_components():
    _, _, log = tiny_run(epochs=1)
    steps = [r for r in parse_log(log) if r["kind"] == "step"]
    assert steps, "no step records"
    for r in steps:
        assert set(r) == {"kind", "epoch", "step", "lr", "loss", "dice", "ce"}
        # model runs in f32, so the recombination check gets f32 headroom
        assert abs(r["loss"] - (0.6 * r["dice"] + 0.4 * r["ce"])) < 1e-6


def test_cosine_schedule_appears_in_logs():
    _, _, log = tiny_run(epochs=4)
    by_epoch = {}
    for r in parse_log(log):
        if r["kind"] == "step":
            by_epoch.setdefault(r["epoch"], r["lr"])
    lrs = [by_epoch[e] for e in sorted(by_epoch)]
    assert lrs[0] == 1e-3
    assert all(x > y for x, y in zip(lrs, lrs[1:]))


def test_validation_falls_back_to_train_split():
    samples = synth_dataset(4, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=1)
    stream = io.StringIO()
    state = train_loop(model, samples, [], tiny_optim(epochs=1),
                       seed=1, eval_every=1, log_stream=stream)
    vals = [r for r in parse_log(stream.getvalue()) if r["kind"] == "val"]
    assert len(vals) == 1
    assert state.best_dsc == vals[0]["fg_dsc"]


def test_artifacts_written_and_resume_matches_straight_run(tmp_path):
    samples = synth_dataset(6, 32, 2, seed=17, in_channels=1)
    straight_dir = os.path.join(str(tmp_path), "straight")
    model = build_model(micro_config(), seed=5)
    train_loop(model, samples, [], tiny_optim(epochs=4), seed=5,
               eval_every=2, out_dir=straight_dir)
    for name in ("best.ckpt", "last.ckpt", "train_log.jsonl"):
        assert os.path.isfile(os.path.join(straight_dir, name))

    resumed_dir = os.path.join(str(tmp_path), "resumed")
    model2 = build_model(micro_config(), seed=5)
    train_loop(model2, samples, [], tiny_optim(epochs=4), seed=5,
               eval_every=2, out_dir=resumed_dir, stop_after_epochs=2)
    mid = read_records(os.path.join(resumed_dir, "last.ckpt"))[1]
    assert mid["state.epoch"] == 2.0
    model3 = build_model(micro_config(), seed=5)
    train_loop(model3, samples, [], tiny_optim(epochs=4), seed=5,
               eval_every=2, out_dir=resumed_dir,
               resume_from=os.path.join(resumed_dir, "last.ckpt"))

    a = open(os.path.join(straight_dir, "last.ckpt"), "rb").read()
    b = open(os.path.join(resumed_dir, "last.ckpt"), "rb").read()
    assert a == b
    log_a = open(os.path.join(straight_dir, "train_log.jsonl")).read()
    log_b = open(os.path.join(resumed_dir, "train_log.jsonl")).read()
    assert parse_log(log_a)[-6:] == parse_log(log_b)[-6:]


def test_resume_cuts_the_log_back_to_the_checkpoint(tmp_path):
    samples = synth_dataset(6, 32, 2, seed=17, in_channels=1)

    def run(out, **kw):
        train_loop(build_model(micro_config(), seed=5), samples, [],
                   tiny_optim(epochs=4), seed=5, eval_every=2,
                   out_dir=str(tmp_path / out), **kw)

    run("straight")
    run("resumed", stop_after_epochs=2)
    older = str(tmp_path / "epoch2.ckpt")
    shutil.copy(str(tmp_path / "resumed" / "last.ckpt"), older)
    # run on past that checkpoint, then crash while writing a record
    run("resumed", stop_after_epochs=3, resume_from=older)
    log_path = str(tmp_path / "resumed" / "train_log.jsonl")
    with open(log_path, "a", encoding="utf-8") as f:
        f.write('{"kind": "st')
    run("resumed", resume_from=older)

    for name in ("train_log.jsonl", "last.ckpt"):
        assert open(str(tmp_path / "straight" / name), "rb").read() == \
            open(str(tmp_path / "resumed" / name), "rb").read(), name


def test_train_loop_peak_memory_does_not_grow_with_steps():
    # a step's tape must be gone before the next step's forward, so three
    # epochs of micro64 (one step each) peak no higher than one
    run = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "configs", "micro64.cfg"))
    samples = synth_dataset(run.synth_n, run.model.input_hw,
                            run.model.num_classes, seed=run.seed,
                            in_channels=run.model.in_channels)

    def peak(epochs):
        model = build_model(run.model, seed=run.seed)
        tracemalloc.start()
        try:
            train_loop(model, samples, [],
                       dataclasses.replace(run.optim, epochs=epochs),
                       loss_lambda=run.loss_lambda, seed=run.seed, eval_every=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(1), peak(3)
    assert three <= 1.1 * one, f"1 epoch {one / 2 ** 20:.0f} MiB, 3 epochs {three / 2 ** 20:.0f} MiB"


def test_resume_rejects_non_training_checkpoint(tmp_path):
    from routeseg.model import save_model
    samples = synth_dataset(2, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=0)
    bare = os.path.join(str(tmp_path), "bare.ckpt")
    save_model(bare, model)
    with pytest.raises(Exception, match="opt|state"):
        train_loop(build_model(micro_config(), seed=0), samples, [],
                   tiny_optim(), resume_from=bare)


def test_resume_rejects_another_optimizers_checkpoint(tmp_path):
    samples = synth_dataset(2, 32, 2, seed=17, in_channels=1)
    out = str(tmp_path / "adam")
    train_loop(build_model(micro_config(), seed=0), samples, [],
               tiny_optim(epochs=1), eval_every=0, out_dir=out)
    # SGD takes Adam's second moment "v" as its momentum; the "m" slots are left
    with pytest.raises(CheckpointError, match=r"record opt\.\S+\.m is not used"):
        train_loop(build_model(micro_config(), seed=0), samples, [],
                   tiny_optim(epochs=2, kind="sgd", momentum=0.9),
                   resume_from=os.path.join(out, "last.ckpt"))


def test_augmented_run_differs_but_stays_deterministic():
    samples = synth_dataset(6, 32, 2, seed=17, in_channels=1)
    aug = AugmentConfig(p_hflip=0.9, p_vflip=0.9, p_rot=0.9, p_cutout=0.9)
    outs = []
    for _ in range(2):
        model = build_model(micro_config(), seed=2)
        stream = io.StringIO()
        train_loop(model, samples, [], tiny_optim(epochs=1), seed=2,
                   eval_every=0, aug=aug, log_stream=stream)
        outs.append(stream.getvalue())
    assert outs[0] == outs[1]
    _, _, plain = tiny_run(seed=2, epochs=1)
    assert outs[0] != plain


def test_non_finite_loss_raises_numeric_abort():
    samples = synth_dataset(4, 32, 2, seed=17, in_channels=1)
    samples[0].image[0, 0, 0] = np.nan
    model = build_model(micro_config(), seed=0)
    with pytest.raises(NumericAbort, match="non-finite loss"):
        train_loop(model, samples, [], tiny_optim(epochs=1), seed=0,
                   eval_every=0)


def nan_gradient_of(monkeypatch, poisoned):
    """Rebind the trainer's backward so that ``poisoned(t)`` leaves get a
    NaN in their gradient."""
    real = routeseg.train.backward

    class Poisoned:
        def __init__(self, grads):
            self.grads = grads

        def __getitem__(self, t):
            g = self.grads[t]
            if poisoned(t):
                g = g.copy()
                g.flat[0] = np.nan
            return g

    monkeypatch.setattr(routeseg.train, "backward",
                        lambda loss: Poisoned(real(loss)))


def test_non_finite_gradient_aborts_before_the_update(monkeypatch):
    samples = synth_dataset(4, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=0)
    before = {k: v.copy() for k, v in named_arrays(model.params).items()}
    head_b = model.params.head_b.data
    nan_gradient_of(monkeypatch, lambda t: t.data is head_b)
    with pytest.raises(NumericAbort,
                       match="non-finite gradient of head_b at epoch 0, step 0"):
        train_loop(model, samples, [], tiny_optim(epochs=1), seed=0,
                   eval_every=0)
    # the forward pass updates the batch-norm buffers; the parameters
    # must not have moved
    for name, arr in named_arrays(model.params).items():
        np.testing.assert_array_equal(arr, before[name])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_parameter_overflow_aborts_before_logging_or_checkpointing(tmp_path):
    samples = synth_dataset(4, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=0)
    with pytest.raises(NumericAbort, match="non-finite parameter embed.w1 "
                       "after the update at epoch 0, step 0") as info:
        train_loop(model, samples, [], tiny_optim(epochs=1, kind="sgd", lr=1e300),
                   seed=0, eval_every=0, out_dir=str(tmp_path))
    assert math.isfinite(info.value.value)
    assert not os.path.exists(tmp_path / "last.ckpt")
    assert not os.path.exists(tmp_path / "best.ckpt")
    with open(tmp_path / "train_log.jsonl", encoding="utf-8") as f:
        assert f.read() == ""


def test_train_loop_input_validation():
    samples = synth_dataset(2, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=0)
    with pytest.raises(ValueError, match="no training samples"):
        train_loop(model, [], [], tiny_optim())
    with pytest.raises(ValueError, match="duplicate sample ids"):
        train_loop(model, [samples[0], samples[0]], [], tiny_optim())
    with pytest.raises(ValueError, match="loss_lambda"):
        train_loop(model, samples, [], tiny_optim(), loss_lambda=1.5)


def test_predict_batches_matches_batchwise_forward():
    samples = synth_dataset(5, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=4)
    preds = predict_batches(model, samples, batch_size=2)
    assert len(preds) == 5
    assert all(p.shape == (32, 32) and p.dtype == np.int64 for p in preds)
    solo = predict_batches(model, samples, batch_size=1)
    for a, b in zip(preds, solo):
        np.testing.assert_array_equal(a, b)


def test_evaluate_wraps_metrics_report():
    samples = synth_dataset(3, 32, 2, seed=17, in_channels=1)
    model = build_model(micro_config(), seed=4)
    report = evaluate(model, samples, batch_size=2)
    assert report.num_images == 3 and report.num_classes == 2
    assert report.means["accuracy"] is not None


def test_best_checkpoint_tracks_highest_dsc(tmp_path):
    samples = synth_dataset(6, 32, 2, seed=17, in_channels=1)
    out = os.path.join(str(tmp_path), "run")
    model = build_model(micro_config(), seed=6)
    state = train_loop(model, samples, samples[:2], tiny_optim(epochs=3),
                       seed=6, eval_every=1, out_dir=out)
    best = read_records(os.path.join(out, "best.ckpt"))[1]
    assert float(best["state.best_dsc"]) == state.best_dsc
    log = [json.loads(l) for l in
           open(os.path.join(out, "train_log.jsonl")).read().splitlines()]
    dscs = [r["fg_dsc"] for r in log if r["kind"] == "val"]
    assert state.best_dsc == max(d for d in dscs if d is not None)
