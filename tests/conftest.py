import math
import os
import tempfile

import pytest
from hypothesis import configuration, settings

from lyapqubit import BlochAngles, SystemParams, from_bloch

# every run draws the same examples and keeps no example database, so the
# suite gives the same result each time and writes nothing into the checkout
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
# hypothesis also caches the constants it reads from the source files while
# pytest collects; that cache goes to the system's temporary directory
configuration.set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "lyapqubit-hypothesis"))


@pytest.fixture
def params01():
    return SystemParams(1.0, 0.1)


@pytest.fixture
def params005():
    return SystemParams(1.0, 0.05)


def bloch_state(gamma: float, phi: float):
    return from_bloch(BlochAngles(gamma, phi))


@pytest.fixture
def fig1_state():
    # 1/sqrt(2) (|e> + e^{-i pi/4} |g>), with the phase reduced to [0, 2*pi)
    return bloch_state(math.pi / 2, 7 * math.pi / 4)
