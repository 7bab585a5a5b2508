"""Tests for the shared utilities: RNG derivation, JSON I/O, config."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import PipelineConfig
from repro.utils.io import read_json, write_json
from repro.utils.rng import child_seed, rng_for, stable_fraction
from repro.utils.validation import as_points


# -- rng ------------------------------------------------------------------------


def test_child_seed_deterministic_and_distinct():
    assert child_seed(1, "a") == child_seed(1, "a")
    assert child_seed(1, "a") != child_seed(1, "b")
    assert child_seed(1, "a") != child_seed(2, "a")


@given(st.integers(0, 2**31), st.text(max_size=10))
def test_child_seed_in_64_bit_range(seed, key):
    value = child_seed(seed, key)
    assert 0 <= value < 2**64


def test_rng_for_reproducible_streams():
    a = rng_for(5, "task", 1).random(4)
    b = rng_for(5, "task", 1).random(4)
    assert np.allclose(a, b)


def test_stable_fraction_bounds():
    for key in ("a", "b", "exec-queue", 123):
        f = stable_fraction(key)
        assert 0.0 <= f < 1.0
        assert f == stable_fraction(key)


# -- io ----------------------------------------------------------------------------------


def test_json_roundtrip_with_numpy(tmp_path):
    data = {"array": np.arange(3), "value": np.float64(1.5), "flag": np.bool_(True)}
    path = write_json(tmp_path / "sub" / "data.json", data)
    loaded = read_json(path)
    assert loaded == {"array": [0, 1, 2], "value": 1.5, "flag": True}


# -- validation ----------------------------------------------------------------------------


def test_validation_helpers():
    with pytest.raises(ValueError):
        as_points([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_points([[np.inf, 0.0, 0.0]])


# -- config ---------------------------------------------------------------------------------


def test_config_presets_and_updates():
    paper = PipelineConfig.paper()
    fast = PipelineConfig.fast()
    assert paper.final_shots == 100_000
    assert paper.vqe_iterations > fast.vqe_iterations
    updated = fast.with_updates(docking_seeds=9)
    assert updated.docking_seeds == 9
    assert fast.docking_seeds != 9  # original untouched (frozen dataclass)
