import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polyreg import Grid, disk_mask


@pytest.fixture
def unit_grid():
    """9 x 9 grid over the unit square, no mask."""
    return Grid(((0.0, 1.0), (0.0, 1.0)), 9, 9)


@pytest.fixture
def disk_grid():
    """24 x 24 grid over [-1, 1]^2 with the unit-disk mask."""
    base = Grid(((-1.0, 1.0), (-1.0, 1.0)), 24, 24)
    return base.with_mask(disk_mask(base, radius=1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid}, reaped only now"
    pytest.fail(f"a child process outlived the test ({state})")
