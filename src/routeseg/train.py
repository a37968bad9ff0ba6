"""Training loop: seeded shuffling, hybrid loss, checkpoints, eval cadence.

Determinism layout: the run seed never mutates shared state. Epoch
shuffles use ``derive_seed(seed, SHUFFLE_TAG, epoch)`` and per-sample
augmentation uses ``derive_seed(seed, AUGMENT_TAG, epoch, sample_index)``
where sample_index is the position in the sorted id universe. Every
random decision is therefore a pure function of (seed, epoch, identity),
which is what makes resume-from-checkpoint bit-exact: restoring
parameters, optimizer slots, and the epoch counter is sufficient.

Batches are canonicalized by sorting ids ascending before stacking, so
the gradient reduction order, and hence the update, is independent of
the order samples arrived in.

Logs are line-delimited JSON. Step records carry kind/epoch/step/lr/
loss/dice/ce; epoch records kind/epoch/mean_loss; val records
kind/epoch/foreground dsc and iou. A resumed run first cuts the log back
to the checkpoint's step and epoch, so it ends as an uninterrupted run's.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO

import numpy as np

from .data import AugmentConfig, SegSample, SplitMix64, augment, derive_seed, stack_batch
from .losses import cross_entropy_loss, dice_loss, one_hot
from .metrics import MetricsReport, evaluate_predictions
from .model import (CheckpointError, Model, load_into_model, read_records,
                    save_model, take_records)
from .optim import Optimizer, OptimConfig, cosine_lr
from .params import walk_tensors
from .tensor import Tape, Tensor, add, backward, mul, softmax_lastdim

SHUFFLE_TAG = 101
AUGMENT_TAG = 202


class NumericAbort(RuntimeError):
    """Loss, a gradient or a parameter became non-finite; the CLI maps this
    to exit code 4.

    ``value`` is the step's loss. ``what`` names the first non-finite
    gradient or updated parameter, in walk order, for example "gradient of
    embed.w1"; it is None when the loss itself is non-finite.
    """

    def __init__(self, epoch: int, step: int, value: float,
                 what: Optional[str] = None):
        what = f"loss {value}" if what is None else what
        super().__init__(f"non-finite {what} at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step
        self.value = value


@dataclass
class TrainState:
    epoch: int = 0              # epochs completed
    step: int = 0               # optimizer steps taken
    best_dsc: float = -1.0


def _batches(order: Sequence[str], batch_size: int) -> List[List[str]]:
    return [sorted(order[i:i + batch_size])
            for i in range(0, len(order), batch_size)]


def _state_records(state: TrainState) -> Dict[str, np.ndarray]:
    return {"state.epoch": np.array(float(state.epoch)),
            "state.step": np.array(float(state.step)),
            "state.best_dsc": np.array(float(state.best_dsc))}


def _cut_log(path: str, state: TrainState):
    """Drop the log records written after the checkpoint ``state`` came from.

    A run resumed from that checkpoint writes them again, so keeping them
    would duplicate them. A line torn by a crash is dropped as well.
    """
    if not os.path.exists(path):
        return
    kept = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec["epoch"] < state.epoch and rec.get("step", 0) <= state.step:
                kept.append(line)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.writelines(kept)
    os.replace(tmp, path)


def predict_batches(model: Model, samples: Sequence[SegSample],
                    batch_size: int = 8) -> List[np.ndarray]:
    """Argmax class maps, one [H, W] int array per sample, in input order."""
    preds: List[np.ndarray] = []
    for i in range(0, len(samples), batch_size):
        x, _ = stack_batch(samples[i:i + batch_size])
        logits = model.forward(Tensor(x), training=False)
        preds.extend(np.argmax(logits.data, axis=-1).astype(np.int64))
    return preds


def evaluate(model: Model, samples: Sequence[SegSample], batch_size: int = 8,
             with_hausdorff: bool = False) -> MetricsReport:
    preds = predict_batches(model, samples, batch_size)
    targets = [s.mask for s in samples]
    return evaluate_predictions(preds, targets, model.cfg.num_classes,
                                with_hausdorff=with_hausdorff)


def train_loop(model: Model, train_samples: Sequence[SegSample],
               val_samples: Sequence[SegSample], ocfg: OptimConfig,
               loss_lambda: float = 0.6, seed: int = 0,
               out_dir: Optional[str] = None, eval_every: int = 25,
               aug: Optional[AugmentConfig] = None,
               log_stream: Optional[TextIO] = None,
               config_text: str = "",
               resume_from: Optional[str] = None,
               stop_after_epochs: Optional[int] = None) -> TrainState:
    """Run Algorithm-1-style epochs; returns the final state.

    When ``val_samples`` is empty, validation falls back to the training
    split so the best checkpoint is still defined. With ``out_dir`` set,
    best.ckpt / last.ckpt and train_log.jsonl are written there.
    ``stop_after_epochs`` interrupts the run early without altering the
    schedule, so resuming from its last.ckpt continues bit-exactly.
    """
    ocfg.validate()
    if not 0.0 <= loss_lambda <= 1.0:
        raise ValueError(f"loss_lambda must sit in [0, 1], got {loss_lambda}")
    if not train_samples:
        raise ValueError("no training samples")
    by_id = {s.id: s for s in train_samples}
    if len(by_id) != len(train_samples):
        raise ValueError("duplicate sample ids in the training split")
    universe = sorted(by_id)
    index_of = {sid: i for i, sid in enumerate(universe)}
    eval_set = val_samples if val_samples else train_samples

    opt = Optimizer(ocfg, walk_tensors(model.params))
    state = TrainState()
    if resume_from is not None:
        _, records = read_records(resume_from)
        extras = load_into_model(model, records)
        run_state = {**opt.state_records(), **_state_records(state)}
        take_records(extras, run_state, resume_from)
        # a record nothing took, such as another optimizer's slots, means the
        # checkpoint comes from a different kind of run
        if extras:
            unused = sorted(extras)
            raise CheckpointError(f"{resume_from}: record {unused[0]} is not used by "
                                  f"this run ({len(unused)} unused records)")
        opt.t = int(run_state["opt.t"])
        state = TrainState(epoch=int(run_state["state.epoch"]),
                           step=int(run_state["state.step"]),
                           best_dsc=float(run_state["state.best_dsc"]))

    own_stream = None
    if log_stream is None and out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "train_log.jsonl")
        if resume_from:
            _cut_log(log_path, state)
        own_stream = open(log_path, "a" if resume_from else "w", encoding="utf-8")
        log_stream = own_stream

    def emit(record: dict):
        if log_stream is not None:
            log_stream.write(json.dumps(record, sort_keys=True) + "\n")
            log_stream.flush()

    def checkpoint(name: str):
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        extras = dict(opt.state_records())
        extras.update(_state_records(state))
        save_model(os.path.join(out_dir, name), model, config_text, extras)

    num_classes = model.cfg.num_classes

    def step_grads(epoch: int, batch_ids: List[str]):
        """Forward and backward of one batch on a tape of its own.

        The tape, bound parameters and activations live only in this
        frame, so they are freed before the optimizer step and the next
        forward pass. Returns the parameter gradients by name and the
        loss, dice and ce values; a non-finite loss or gradient raises
        NumericAbort before the optimizer can write it into a parameter.
        """
        batch = []
        for sid in batch_ids:
            s = by_id[sid]
            if aug is not None:
                rng = SplitMix64(derive_seed(seed, AUGMENT_TAG, epoch, index_of[sid]))
                s = augment(s, aug, rng)
            batch.append(s)
        x, y = stack_batch(batch)
        target = one_hot(y, num_classes, dtype=x.dtype)

        tape = Tape()
        bound = model.bind(tape)
        logits = bound.forward(Tensor(x), training=True)
        probs = softmax_lastdim(logits)
        d = dice_loss(probs, Tensor(target))
        c = cross_entropy_loss(probs, Tensor(target))
        loss = add(mul(d, loss_lambda), mul(c, 1.0 - loss_lambda))

        loss_val = float(loss.data)
        if not math.isfinite(loss_val):
            raise NumericAbort(epoch, state.step, loss_val)
        grads = backward(loss)
        gdict = {name: grads[t] for name, t in walk_tensors(bound.params)}
        for name, g in gdict.items():
            if not np.isfinite(g).all():
                raise NumericAbort(epoch, state.step, loss_val,
                                   f"gradient of {name}")
        return gdict, loss_val, float(d.data), float(c.data)

    end_epoch = ocfg.epochs if stop_after_epochs is None \
        else min(ocfg.epochs, stop_after_epochs)
    try:
        for epoch in range(state.epoch, end_epoch):
            lr = (cosine_lr(epoch, ocfg.epochs, ocfg.lr)
                  if ocfg.schedule == "cosine" else ocfg.lr)
            order = list(universe)
            SplitMix64(derive_seed(seed, SHUFFLE_TAG, epoch)).shuffle(order)
            epoch_losses = []
            for batch_ids in _batches(order, ocfg.batch_size):
                gdict, loss_val, dice, ce = step_grads(epoch, batch_ids)
                opt.step(gdict, lr)
                del gdict  # parameter-sized; not needed by the next forward
                # a finite gradient times a large lr can still overflow, and
                # the last step has no next loss to show it
                for name, p in opt.named:
                    if not np.isfinite(p.data).all():
                        raise NumericAbort(epoch, state.step, loss_val,
                                           f"parameter {name} after the update")
                state.step += 1
                epoch_losses.append(loss_val)
                emit({"kind": "step", "epoch": epoch, "step": state.step,
                      "lr": lr, "loss": loss_val, "dice": dice, "ce": ce})
            state.epoch = epoch + 1
            emit({"kind": "epoch", "epoch": epoch,
                  "mean_loss": float(np.mean(epoch_losses))})

            last_epoch = state.epoch == ocfg.epochs
            if (eval_every and state.epoch % eval_every == 0) or last_epoch:
                report = evaluate(model, eval_set)
                fg = report.foreground_means.get("dsc")
                score = -1.0 if fg is None else float(fg)
                emit({"kind": "val", "epoch": epoch, "fg_dsc": fg,
                      "fg_iou": report.foreground_means.get("iou")})
                if score >= state.best_dsc:
                    state.best_dsc = score
                    checkpoint("best.ckpt")
        checkpoint("last.ckpt")
    finally:
        if own_stream is not None:
            own_stream.close()
    return state
