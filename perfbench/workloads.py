"""The benchmark workloads: inputs, set-up, the timed run and output checks.

Every input is derived from the run seed with ``derive_seed`` (tags
below), so one seed always gives the same inputs and the program only
ever sees the generated data. Each workload measures whole operations:
a training step, an inferred image or an evaluated image. Checks run
outside the timed region.

A run makes a fixed number of operations, enough to last the requested
seconds at the operation time measured on the seed commit (``op_s``
below, 2 cores, one BLAS thread). Timing the loop instead let the host's
speed decide how many steps a run made, and peak RSS follows the step
count on train_base (2150 MiB after two steps, 2603 MiB after three).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np

import routeseg.data as rs_data
import routeseg.metrics as rs_metrics
import routeseg.model as rs_model
import routeseg.train as rs_train
from routeseg.config import effective_text, load_config, parse_config_text
from routeseg.data import (SplitMix64, augment, derive_seed, read_pnm,
                           stack_batch, write_pgm)
from routeseg.losses import hybrid_loss, one_hot
from routeseg.model import build_model, save_model
from routeseg.tensor import Tensor, softmax_lastdim

from tracing import perf

DATA_TAG, MODEL_TAG, TRAIN_TAG, OFFSET_TAG = 11, 12, 13, 14

# float32 against float64 on the same weights and inputs. First-step
# losses differed by up to 5e-5 relative over seeds 1-5 of train_micro64
# and by about 1e-7 on train_base, so the loss bound leaves 20x room.
# Image-0 probabilities of infer_base differed by at most 4.4e-6 over
# seeds 1-10.
LOSS_RTOL = 1e-3
PROB_ATOL = 1e-4


@dataclass
class Measured:
    count: int                                   # segments or images
    items: int                                   # samples trained / images
    windows: List[Tuple[float, float]]           # one (start, end) per op
    busy_s: float
    outputs: dict                                # the traced run must match
    failed_ops: int = 0
    extra: dict = field(default_factory=dict)    # what the checks need

    @property
    def op_s(self) -> List[float]:
        return [b - a for a, b in self.windows]


def _sha(*parts) -> str:
    """sha256 over arrays (their raw bytes) and strings, in order."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str)
                 else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _file_sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 24), b""):
            h.update(chunk)
    return h.hexdigest()


def _float64_twin(model):
    """The same weights and buffers in float64, for reference forwards."""
    twin = build_model(model.cfg, seed=0, dtype=np.float64)
    rs_model.load_into_model(
        twin, {k: v.astype(np.float64) for k, v in model.records().items()})
    return twin


class StepClock:
    """``log_stream`` for train_loop: timestamps each record as it arrives.

    train_loop writes one JSON record per step, so step latencies come
    from the real, unpatched training path.
    """

    def __init__(self, on_step=None):
        self.times: List[float] = []
        self.lines: List[str] = []
        self._on_step = on_step

    def write(self, text: str):
        self.times.append(perf())
        self.lines.append(text)
        if self._on_step is not None and '"kind": "step"' in text:
            self._on_step()

    def flush(self):
        pass


class TrainWorkload:
    """``train_loop`` segments on a shipped config and synthetic samples.

    A segment is one ``train_loop`` call with ``stop_after_epochs`` and
    ``eval_every = 0``: it runs no validation and ends by writing
    last.ckpt. A run makes a fixed number of segments on the same model;
    each starts a fresh optimizer at epoch 0.
    """

    trains = True

    def __init__(self, name: str, config: str, num_samples: int,
                 batch_size: int, use_augment: bool, segment_epochs: int,
                 setup_repeats: int, op_s: float):
        self.name = name
        self.op_s = op_s
        self.config = config
        self.num_samples = num_samples
        self.batch_size = batch_size
        self.use_augment = use_augment
        self.segment_epochs = segment_epochs
        self.setup_repeats = setup_repeats

    def count_for(self, seconds: float) -> int:
        """Segments that take about ``seconds`` at the nominal step time."""
        steps = self.segment_epochs * math.ceil(self.num_samples / self.batch_size)
        return max(1, math.ceil(seconds / (steps * self.op_s)))

    def inputs(self, seed: int, work_dir: str):
        return SimpleNamespace(seed=seed, out_dir=os.path.join(work_dir, "train"))

    def setup(self, inp):
        run = load_config(self.config)
        cfg = run.model
        samples = rs_data.synth_dataset(
            self.num_samples, cfg.input_hw, cfg.num_classes,
            derive_seed(inp.seed, DATA_TAG), in_channels=cfg.in_channels)
        model = build_model(cfg, seed=derive_seed(inp.seed, MODEL_TAG))
        return SimpleNamespace(
            run=run, samples=samples, model=model,
            ocfg=dataclasses.replace(run.optim, batch_size=self.batch_size),
            aug=run.aug if self.use_augment else None,
            seed=derive_seed(inp.seed, TRAIN_TAG),
            text=effective_text(run), out_dir=inp.out_dir)

    def digest(self, st) -> str:
        arrays = [a for s in st.samples for a in (s.image, s.mask)]
        return _sha(*arrays, *st.model.records().values())

    def before(self, st) -> dict:
        """Float64 loss of the first step, from the untrained weights."""
        ids = sorted(s.id for s in st.samples)
        by_id = {s.id: s for s in st.samples}
        order = list(ids)
        SplitMix64(derive_seed(st.seed, rs_train.SHUFFLE_TAG, 0)).shuffle(order)
        batch = []
        for sid in sorted(order[:self.batch_size]):
            s = by_id[sid]
            if st.aug is not None:
                s = augment(s, st.aug, SplitMix64(derive_seed(
                    st.seed, rs_train.AUGMENT_TAG, 0, ids.index(sid))))
            batch.append(s)
        x, y = stack_batch(batch)
        twin = _float64_twin(st.model)
        logits = twin.forward(Tensor(x.astype(np.float64)), training=True)
        target = one_hot(y, st.model.cfg.num_classes, dtype=np.float64)
        loss = hybrid_loss(logits, Tensor(target), lam=st.run.loss_lambda)
        return {"first_loss_f64": float(loss.data)}

    def measure(self, st, count: int, tracer=None) -> Measured:
        losses: List[float] = []
        windows: List[Tuple[float, float]] = []
        busy, segments, failed = 0.0, 0, 0
        while segments < count:
            clock = StepClock(tracer.on_step if tracer is not None else None)
            t0 = perf()
            try:
                rs_train.train_loop(
                    st.model, st.samples, [], st.ocfg,
                    loss_lambda=st.run.loss_lambda, seed=st.seed,
                    out_dir=st.out_dir, eval_every=0, aug=st.aug,
                    log_stream=clock, config_text=st.text,
                    stop_after_epochs=self.segment_epochs)
            except rs_train.NumericAbort as e:
                failed, abort_loss = 1, e.value
            busy += perf() - t0
            segments += 1
            prev = t0
            for t, line in zip(clock.times, clock.lines):
                rec = json.loads(line)
                if rec["kind"] == "step":
                    windows.append((prev, t))
                    losses.append(rec["loss"])
                    prev = t
            if failed:
                losses.append(abort_loss)
                break
        ckpt = os.path.join(st.out_dir, "last.ckpt")
        outputs = {"losses": losses,
                   "ckpt_sha256": _file_sha(ckpt) if not failed else None}
        return Measured(count=segments, items=len(windows) * self.batch_size,
                        windows=windows, busy_s=busy, outputs=outputs,
                        failed_ops=failed,
                        extra={"ckpt": ckpt,
                               "ckpt_mb": os.path.getsize(ckpt) / 2 ** 20
                               if not failed else 0.0})

    def checks(self, st, m: Measured, ref: dict) -> List[Tuple[str, bool]]:
        losses = m.outputs["losses"]
        out = [("every logged loss is finite",
                all(math.isfinite(v) for v in losses))]
        if m.failed_ops:
            return out
        _, records = rs_model.read_records(m.extra["ckpt"])
        exact = True
        for name, arr in st.model.records().items():
            got = records.get(name)
            exact = exact and got is not None and got.dtype == arr.dtype \
                and got.shape == arr.shape \
                and np.array_equal(got.reshape(-1).view(np.uint8),
                                   arr.reshape(-1).view(np.uint8))
        out.append(("last.ckpt reloads to the final parameters bit-exactly",
                    exact))
        want = ref["first_loss_f64"]
        out.append((f"first-step loss within rel {LOSS_RTOL:g} of float64 "
                    f"({losses[0]!r} vs {want!r})",
                    abs(losses[0] - want) <= LOSS_RTOL * abs(want)))
        return out


class InferWorkload:
    """``routeseg infer`` per image: load a checkpoint, forward, softmax, argmax.

    Inputs are a checkpoint of a seeded model and a pool of synthetic
    images; set-up is the load (read_records, build, load_into_model).
    """

    trains = False
    setup_repeats = 3

    def __init__(self, name: str, config: str, pool: int, op_s: float):
        self.name = name
        self.config = config
        self.pool = pool
        self.op_s = op_s

    def count_for(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.op_s))

    def inputs(self, seed: int, work_dir: str):
        run = dataclasses.replace(load_config(self.config),
                                  seed=derive_seed(seed, MODEL_TAG))
        cfg = run.model
        os.makedirs(work_dir, exist_ok=True)
        ckpt = os.path.join(work_dir, "model.ckpt")
        save_model(ckpt, build_model(cfg, seed=run.seed), effective_text(run))
        images = [s.image for s in rs_data.synth_dataset(
            self.pool, cfg.input_hw, cfg.num_classes,
            derive_seed(seed, DATA_TAG), in_channels=cfg.in_channels)]
        return SimpleNamespace(ckpt=ckpt, images=images)

    def setup(self, inp):
        text, records = rs_model.read_records(inp.ckpt)
        run = parse_config_text(text, source=inp.ckpt)
        model = build_model(run.model, seed=run.seed)
        rs_model.load_into_model(model, records)
        return SimpleNamespace(model=model, images=inp.images, ckpt=inp.ckpt)

    def digest(self, st) -> str:
        return _sha(*st.images, _file_sha(st.ckpt))

    def before(self, st) -> dict:
        return {}

    def measure(self, st, count: int, tracer=None) -> Measured:
        h = hashlib.sha256()
        windows: List[Tuple[float, float]] = []
        first = None
        while len(windows) < count:
            image = st.images[len(windows) % len(st.images)]
            t0 = perf()
            logits = st.model.forward(Tensor(image[None]), training=False)
            probs = softmax_lastdim(logits).data[0]
            pred = np.argmax(probs, axis=-1)
            windows.append((t0, perf()))
            h.update(probs.tobytes())
            h.update(pred.tobytes())
            if first is None:
                first = probs
        return Measured(count=len(windows), items=len(windows), windows=windows,
                        busy_s=sum(b - a for a, b in windows),
                        outputs={"probs_pred_sha256": h.hexdigest()},
                        extra={"first_probs": first})

    def checks(self, st, m: Measured, ref: dict) -> List[Tuple[str, bool]]:
        twin = _float64_twin(st.model)
        image = st.images[0][None].astype(np.float64)
        want = softmax_lastdim(twin.forward(Tensor(image), training=False)).data[0]
        got = m.extra["first_probs"]
        err = float(np.max(np.abs(got - want)))
        return [(f"image 0 probabilities within {PROB_ATOL:g} of float64 "
                 f"(max err {err:.2e})", err <= PROB_ATOL)]


class EvalWorkload:
    """Exact-Hausdorff evaluation of predictions that are translated targets.

    Each target map holds one rectangle of class 1 (576 pixels) and one of
    class 2 (288 pixels); the seed picks their shapes and places. Brute
    force Hausdorff costs |A|*|B| per class, so fixing the pixel counts
    fixes the work per image, the stated input size, while the seed still
    changes every map. Each prediction is its target moved by a seeded
    offset t, and a margin of ``max_shift`` keeps every foreground pixel
    inside the image, so the Hausdorff distance of every foreground class
    is exactly |t|. Set-up reads the maps back from PGM files, as stored
    predictions would be.
    """

    trains = False
    setup_repeats = 9
    max_shift = 4
    rects = {1: ((24, 24), (16, 36), (36, 16), (18, 32), (32, 18)),
             2: ((12, 24), (24, 12), (16, 18), (18, 16))}

    def __init__(self, name: str, hw: int, pool: int, op_s: float):
        self.name = name
        self.hw = hw
        self.num_classes = 1 + len(self.rects)
        self.pool = pool
        self.op_s = op_s

    def count_for(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.op_s))

    def _target(self, rng: SplitMix64) -> np.ndarray:
        m = np.zeros((self.hw, self.hw), dtype=np.int64)
        room = self.hw - 2 * self.max_shift
        for k, shapes in self.rects.items():
            while True:
                h, w = shapes[rng.below(len(shapes))]
                top = self.max_shift + rng.below(room - h + 1)
                left = self.max_shift + rng.below(room - w + 1)
                if not m[top:top + h, left:left + w].any():
                    break
            m[top:top + h, left:left + w] = k
        return m

    def inputs(self, seed: int, work_dir: str):
        os.makedirs(work_dir, exist_ok=True)
        offsets, paths = [], []
        for i in range(self.pool):
            target = self._target(SplitMix64(derive_seed(seed, DATA_TAG, i)))
            rng = SplitMix64(derive_seed(seed, OFFSET_TAG, i))
            t = (0, 0)
            while t == (0, 0):
                t = tuple(rng.below(2 * self.max_shift + 1) - self.max_shift
                          for _ in range(2))
            ys, xs = np.nonzero(target)
            pred = np.zeros_like(target)
            pred[ys + t[0], xs + t[1]] = target[ys, xs]
            pair = []
            for kind, arr in (("target", target), ("pred", pred)):
                path = os.path.join(work_dir, f"{kind}{i:03d}.pgm")
                write_pgm(path, arr.astype(np.uint8))
                pair.append(path)
            paths.append(tuple(pair))
            offsets.append(t)
        return SimpleNamespace(paths=paths, offsets=offsets)

    def setup(self, inp):
        targets, preds = [], []
        for target_path, pred_path in inp.paths:
            targets.append(read_pnm(target_path).astype(np.int64))
            preds.append(read_pnm(pred_path).astype(np.int64))
        return SimpleNamespace(targets=targets, preds=preds, offsets=inp.offsets)

    def digest(self, st) -> str:
        return _sha(*st.targets, *st.preds, np.array(st.offsets))

    def before(self, st) -> dict:
        return {}

    def measure(self, st, count: int, tracer=None) -> Measured:
        h = hashlib.sha256()
        windows: List[Tuple[float, float]] = []
        reports = []
        while len(windows) < count:
            i = len(windows) % len(st.targets)
            t0 = perf()
            rep = rs_metrics.evaluate_predictions(
                [st.preds[i]], [st.targets[i]], self.num_classes,
                with_hausdorff=True)
            windows.append((t0, perf()))
            h.update(rep.to_json().encode())
            reports.append((i, rep.hausdorff, [r["dsc"] for r in rep.per_class]))
        return Measured(count=len(windows), items=len(windows), windows=windows,
                        busy_s=sum(b - a for a, b in windows),
                        outputs={"reports_sha256": h.hexdigest()},
                        extra={"reports": reports})

    def checks(self, st, m: Measured, ref: dict) -> List[Tuple[str, bool]]:
        out = []
        for i, hd, dsc in m.extra["reports"]:
            target, pred = st.targets[i], st.preds[i]
            ty, tx = st.offsets[i]
            shift = math.sqrt(float(ty * ty + tx * tx))
            out.append((f"image {i}: every foreground Hausdorff equals |t| = {shift:g}",
                        all(hd[k] == shift for k in range(1, self.num_classes)
                            if (target == k).any())))
            recount = []
            for k in range(self.num_classes):
                pk, tk = pred == k, target == k
                tp = int(np.count_nonzero(pk & tk))
                den = int(np.count_nonzero(pk)) + int(np.count_nonzero(tk))
                recount.append(2 * tp / den if den else None)
            out.append((f"image {i}: DSC equals a direct recount", dsc == recount))
        return out


WORKLOADS: Dict[str, object] = {
    "train_micro64": TrainWorkload("train_micro64", "configs/micro64.cfg",
                                   num_samples=8, batch_size=8,
                                   use_augment=False, segment_epochs=10,
                                   setup_repeats=9, op_s=0.25),
    "train_base": TrainWorkload("train_base", "configs/base.cfg",
                                num_samples=1, batch_size=1,
                                use_augment=True, segment_epochs=1,
                                setup_repeats=3, op_s=6.5),
    "infer_base": InferWorkload("infer_base", "configs/base.cfg", pool=8,
                                op_s=2.3),
    "eval_hd64": EvalWorkload("eval_hd64", hw=64, pool=80, op_s=0.2),
}
