import copy
import dataclasses
import math
import os
import pickle
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


def _check_frozen_record(built, public):
    """``built`` comes from an internal hot path, ``public`` from the checked
    constructor with the same field values."""
    assert type(built) is type(public)
    assert built == public and hash(built) == hash(public)
    assert not hasattr(built, "__dict__")
    name = dataclasses.fields(built)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, getattr(built, name))
    assert dataclasses.replace(built) == public
    assert copy.deepcopy(built) == public
    assert pickle.loads(pickle.dumps(built)) == public


@pytest.fixture
def frozen_record():
    """Check that a record built on a hot path is its public twin: equal,
    hashed alike, frozen, slotted, and intact through ``replace``,
    ``deepcopy`` and ``pickle``."""
    return _check_frozen_record
