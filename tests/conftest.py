import os

import numpy as np
import pytest

from routeseg.model import ModelConfig

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
