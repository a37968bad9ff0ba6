import os

import numpy as np
import pytest

from routeseg.data import DataError, write_pgm
from routeseg.model import ModelConfig
from routeseg.params import walk_tensors

CONFIGS_DIR = "configs"

needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                   reason="needs /proc/self/fd")


def fds_open_on(path: str) -> int:
    """How many of this process's file descriptors refer to ``path``, also
    after another file was renamed over it."""
    want = os.path.realpath(path)
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(os.path.join("/proc/self/fd", fd))
        except OSError:          # the descriptor listdir itself used
            continue
        count += target in (want, want + " (deleted)")
    return count


def forbid_draws(monkeypatch):
    """From here on, every Generator made raises on ``normal``, which is how
    each initializer draws."""
    make = np.random.default_rng

    class NoDraws:
        def __init__(self, *args, **kwargs):
            self._rng = make(*args, **kwargs)

        def normal(self, *args, **kwargs):
            raise AssertionError("Generator.normal was called")

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", NoDraws)


def count_scalars(obj) -> int:
    """Learnable scalars in a parameter structure; buffers excluded."""
    return sum(t.size for _, t in walk_tensors(obj))


def write_ppm(path: str, arr: np.ndarray):
    """uint8 [H, W, 3] as a binary P6 file, the RGB form ``read_pnm`` reads."""
    a = np.asarray(arr)
    if a.ndim != 3 or a.shape[2] != 3:
        raise DataError(f"write_ppm wants [H, W, 3], got shape {a.shape}")
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (a.shape[1], a.shape[0]))
        f.write(np.ascontiguousarray(a, dtype=np.uint8).tobytes())


def save_dataset(samples, root: str):
    """Write samples in the layout ``load_dataset`` reads: images/<id>.pgm
    or .ppm scaled to 0-255, masks/<id>.pgm holding class indices."""
    images_dir = os.path.join(root, "images")
    masks_dir = os.path.join(root, "masks")
    os.makedirs(images_dir, exist_ok=True)
    os.makedirs(masks_dir, exist_ok=True)
    for s in samples:
        raw = np.rint(np.clip(s.image, 0.0, 1.0) * 255.0).astype(np.uint8)
        if raw.shape[2] == 1:
            write_pgm(os.path.join(images_dir, s.id + ".pgm"), raw[:, :, 0])
        elif raw.shape[2] == 3:
            write_ppm(os.path.join(images_dir, s.id + ".ppm"), raw)
        else:
            raise DataError(f"{s.id}: only 1- or 3-channel images are writable")
        write_pgm(os.path.join(masks_dir, s.id + ".pgm"),
                  s.mask.astype(np.uint8))


def write_split_file(path: str, splits):
    """One ``id<TAB>split`` line per id, sorted by id."""
    with open(path, "w", encoding="utf-8") as f:
        for sid in sorted(splits):
            f.write(f"{sid}\t{splits[sid]}\n")


def micro_config(**overrides) -> ModelConfig:
    """Smallest legal geometry; single-block stages keep forwards cheap."""
    base = dict(in_channels=1, num_classes=2, base_channels=8,
                stage_depths=(1, 0, 0, 0, 0, 0, 1), s=2, input_hw=32)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def gradcheck_reports():
    # one run shared by the unit test and the acceptance criterion
    from routeseg.gradcheck import run_standard_suite
    return run_standard_suite(step=1e-4, tol=1e-3)
