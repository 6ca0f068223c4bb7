"""Seeded stream derivation and finiteness guards."""

import numpy as np
import pytest

from focus_forecast.errors import (
    ConfigError,
    ContainerError,
    FocusError,
    NumericalError,
    ParseError,
    ShapeError,
)
from focus_forecast.util import require_finite, seed_stream


def test_seed_stream_deterministic_per_label():
    a = seed_stream(3, "init").standard_normal(8)
    b = seed_stream(3, "init").standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_seed_stream_labels_are_independent():
    a = seed_stream(3, "init").standard_normal(8)
    b = seed_stream(3, "shuffle").standard_normal(8)
    c = seed_stream(4, "init").standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_stream_frozen_draw():
    # pin the derivation so a refactor can't silently reseed every stage,
    # which would invalidate all frozen expectations downstream
    got = seed_stream(0, "init").integers(0, 1_000_000, size=3)
    assert got.tolist() == [781549, 761324, 997633]


@pytest.mark.parametrize("seed", [2**63, 2**64, -(2**63) - 1])
def test_seed_stream_rejects_seeds_outside_int64(seed):
    with pytest.raises(ConfigError, match="seed"):
        seed_stream(seed, "init")


def test_seed_stream_accepts_the_int64_extremes():
    seed_stream(2**63 - 1, "init")
    seed_stream(-(2**63), "init")


def test_require_finite_passes_through():
    arr = np.array([1.0, -2.0, 0.0])
    assert require_finite("x", arr) is arr


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_require_finite_raises(bad):
    with pytest.raises(NumericalError, match="'x'"):
        require_finite("x", np.array([1.0, bad]))


def test_error_hierarchy():
    for cls in (ConfigError, ParseError, ContainerError, ShapeError, NumericalError):
        assert issubclass(cls, FocusError)
