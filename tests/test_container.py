"""Binary tensor container: golden bytes, round trips, corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focus_forecast.clustering import FitMeta, PrototypeSet
from focus_forecast.container import (
    load_model,
    load_prototypes,
    prototype_entries,
    read_container,
    save_model,
    save_prototypes,
    write_container,
)
from focus_forecast.errors import ContainerError
from focus_forecast.model import HyperParams, init_params, predict

# what every model file carries for two entities
NORM = dict(norm_stats=(np.zeros(2), np.ones(2)), ratio=(0.7, 0.1, 0.2))


def test_golden_bytes(tmp_path):
    """Freeze the on-disk layout against an independently packed byte string."""
    path = tmp_path / "g.bin"
    vec = np.array([1.5, -2.0], dtype=np.float64)
    n = np.asarray(7, dtype=np.int64)
    write_container(path, {"vec": vec, "n": n})

    expected = b"FOCS" + struct.pack("<I", 1) + struct.pack("<I", 2)
    # entries are name-sorted: "n" first, then "vec"
    expected += struct.pack("<I", 1) + b"n" + struct.pack("<BI", 2, 0)
    expected += struct.pack("<q", 7)
    expected += struct.pack("<I", 3) + b"vec" + struct.pack("<BI", 0, 1)
    expected += struct.pack("<Q", 2) + struct.pack("<2d", 1.5, -2.0)
    assert path.read_bytes() == expected


array_strategy = st.sampled_from(["<f8", "<f4", "<i8"]).flatmap(
    lambda dt: st.tuples(
        st.just(dt),
        st.lists(st.integers(1, 4), min_size=0, max_size=3),
        st.integers(0, 2**31),
    )
)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "bb", "c/d", "Ω"]), array_strategy, min_size=1, max_size=4))
def test_round_trip_bit_exact(tmp_path_factory, cases):
    path = tmp_path_factory.mktemp("rt") / "t.bin"
    tensors = {}
    for name, (dt, shape, seed) in cases.items():
        rng = np.random.default_rng(seed)
        if dt == "<i8":
            tensors[name] = rng.integers(-(2**40), 2**40, size=shape).astype(dt)
        else:
            tensors[name] = rng.standard_normal(shape).astype(dt)
    write_container(path, tensors)
    back = read_container(path)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert arr.tobytes() == back[name].tobytes()  # bit-exact, NaN-safe


def test_scalar_and_empty_arrays_survive(tmp_path):
    path = tmp_path / "t.bin"
    tensors = {"s": np.asarray(np.pi), "empty": np.zeros((2, 0, 3))}
    write_container(path, tensors)
    back = read_container(path)
    assert back["s"].shape == () and back["s"] == np.pi
    assert back["empty"].shape == (2, 0, 3)


def test_write_rejects_unsupported_dtype_and_empty_name(tmp_path):
    path = tmp_path / "t.bin"
    with pytest.raises(ContainerError):
        write_container(path, {"c": np.zeros(2, dtype=np.complex128)})
    with pytest.raises(ContainerError):
        write_container(path, {"i4": np.zeros(2, dtype=np.int32)})
    with pytest.raises(ContainerError):
        write_container(path, {"": np.zeros(2)})


def valid_bytes():
    vec = np.arange(3, dtype=np.float64)
    out = b"FOCS" + struct.pack("<II", 1, 1)
    out += struct.pack("<I", 1) + b"x" + struct.pack("<BI", 0, 1)
    out += struct.pack("<Q", 3) + vec.tobytes()
    return out


def test_read_error_paths(tmp_path):
    good = valid_bytes()
    cases = {
        "bad_magic.bin": b"JUNK" + good[4:],
        "bad_version.bin": good[:4] + struct.pack("<I", 9) + good[8:],
        "truncated_header.bin": good[:6],
        "truncated_payload.bin": good[:-8],
        "trailing.bin": good + b"\x00",
        "bad_dtype.bin": good[: 4 + 8 + 4 + 1] + bytes([9]) + good[4 + 8 + 4 + 1 + 1 :],
    }
    dup = good[:8] + struct.pack("<I", 2) + good[12:] + good[12:]
    cases["duplicate.bin"] = dup
    for fname, blob in cases.items():
        path = tmp_path / fname
        path.write_bytes(blob)
        with pytest.raises(ContainerError):
            read_container(path)


def _one_entry(name: bytes, dims: tuple[int, ...], payload: bytes = b"") -> bytes:
    out = b"FOCS" + struct.pack("<II", 1, 1)
    out += struct.pack("<I", len(name)) + name + struct.pack("<BI", 0, len(dims))
    return out + struct.pack(f"<{len(dims)}Q", *dims) + payload


def _read_blob(tmp_path, blob: bytes):
    path = tmp_path / "t.bin"
    path.write_bytes(blob)
    return read_container(path)


def test_read_rejects_name_that_is_not_utf8(tmp_path):
    with pytest.raises(ContainerError, match="UTF-8"):
        _read_blob(tmp_path, _one_entry(b"\xff\xfe", (1,), b"\x00" * 8))


def test_read_rejects_dims_whose_int64_product_overflows(tmp_path):
    # the int64 product 2**62 * 4 wraps to 0, matching the empty payload
    with pytest.raises(ContainerError):
        _read_blob(tmp_path, _one_entry(b"x", (2**62, 4)))


def test_read_rejects_dim_beyond_numpy_index_range(tmp_path):
    with pytest.raises(ContainerError):
        _read_blob(tmp_path, _one_entry(b"x", (2**63,)))
    # zero-size payload, so only the shape itself is unrepresentable
    with pytest.raises(ContainerError):
        _read_blob(tmp_path, _one_entry(b"x", (2**63, 0)))


def test_read_missing_file(tmp_path):
    with pytest.raises((ContainerError, OSError)):
        read_container(tmp_path / "nope.bin")


# --------------------------------------------------------------- wrappers


def test_prototype_round_trip(tmp_path):
    path = tmp_path / "protos.bin"
    rows = np.random.default_rng(0).standard_normal((4, 6))
    protos = PrototypeSet(rows, alpha=0.3, fit_meta=FitMeta(12, 1.25, seed=9))
    save_prototypes(path, protos)
    back = load_prototypes(path)
    np.testing.assert_array_equal(back.prototypes, rows)
    assert back.alpha == 0.3
    assert (back.k, back.p) == (4, 6)
    # only the seed survives; iteration count and loss are not stored
    assert back.fit_meta.seed == 9
    assert back.fit_meta.iterations == 0
    assert np.isnan(back.fit_meta.final_loss)


def test_files_keep_k_and_p_only_as_the_prototype_shape(tmp_path):
    hyper = HyperParams(p=4, d=8, m=2, k=3, lookback=16, horizon=4, n_entities=2)
    save_prototypes(tmp_path / "protos.bin", PrototypeSet(np.zeros((3, 4)), alpha=0.0))
    save_model(
        tmp_path / "model.bin", init_params(hyper, PrototypeSet(np.zeros((3, 4)), alpha=0.0)),
        **NORM,
    )
    assert sorted(read_container(tmp_path / "protos.bin")) == ["alpha", "prototypes", "seed"]
    model_names = set(read_container(tmp_path / "model.bin"))
    assert {n for n in model_names if n.startswith(("hyper/", "protos/"))} == {
        "hyper/d", "hyper/m", "hyper/lookback", "hyper/horizon", "hyper/n_entities",
        "protos/alpha", "protos/prototypes", "protos/seed",
    }


def test_files_in_the_layout_with_k_and_p_entries_load_bit_identically(tmp_path):
    # files written before k and p were dropped carry them as int64 scalars
    rows = np.random.default_rng(4).standard_normal((3, 4))
    protos = PrototypeSet(rows, alpha=0.3, fit_meta=FitMeta(7, 0.5, seed=9))
    old = prototype_entries(protos) | {
        "k": np.asarray(3, dtype=np.int64), "p": np.asarray(4, dtype=np.int64)
    }
    write_container(tmp_path / "protos.bin", old)
    back = load_prototypes(tmp_path / "protos.bin")
    assert back.prototypes.tobytes() == rows.tobytes()
    assert (back.alpha, back.fit_meta.seed) == (0.3, 9)

    hyper = HyperParams(p=4, d=8, m=2, k=3, lookback=16, horizon=4, n_entities=2)
    params = init_params(hyper, protos, seed=2)
    mean, std = np.array([0.5, -1.0]), np.array([2.0, 0.25])
    save_model(tmp_path / "new.bin", params, norm_stats=(mean, std), ratio=(0.6, 0.15, 0.25))
    tensors = read_container(tmp_path / "new.bin")
    for name in ("protos/k", "hyper/k"):
        tensors[name] = np.asarray(3, dtype=np.int64)
    for name in ("protos/p", "hyper/p"):
        tensors[name] = np.asarray(4, dtype=np.int64)
    write_container(tmp_path / "old.bin", tensors)
    back, (back_mean, back_std), ratio = load_model(tmp_path / "old.bin")
    assert back.hyper == hyper
    assert back.protos.prototypes.tobytes() == rows.tobytes()
    assert back.protos.alpha == 0.3
    for name, arr in params.arrays().items():
        assert back.arrays()[name].tobytes() == arr.tobytes()
    assert back_mean.tobytes() == mean.tobytes() and back_std.tobytes() == std.tobytes()
    assert ratio == (0.6, 0.15, 0.25)


@pytest.mark.parametrize("value", [np.nan, np.inf, 2.5])
@pytest.mark.parametrize("name", ["hyper/d", "protos/seed"])
def test_model_load_rejects_integer_field_that_is_not_whole(tmp_path, name, value):
    # int() of a float NaN or infinity raised ValueError/OverflowError
    path = tmp_path / "model.bin"
    hyper = HyperParams(p=4, d=8, m=2, k=3, lookback=16, horizon=4, n_entities=2)
    save_model(path, init_params(hyper, PrototypeSet(np.zeros((3, 4)), alpha=0.0)), **NORM)
    tensors = read_container(path)
    tensors[name] = np.asarray(value)
    write_container(path, tensors)
    with pytest.raises(ContainerError, match="whole number"):
        load_model(path)


def test_prototype_load_rejects_nan_alpha(tmp_path):
    path = tmp_path / "protos.bin"
    save_prototypes(path, PrototypeSet(np.zeros((2, 4)), alpha=0.0))
    tensors = read_container(path)
    tensors["alpha"] = np.asarray(np.nan)
    write_container(path, tensors)
    with pytest.raises(ContainerError, match="alpha"):
        load_prototypes(path)


def test_prototype_load_rejects_infinite_alpha(tmp_path):
    # an infinite correlation weight makes every distance NaN or infinite
    path = tmp_path / "protos.bin"
    save_prototypes(path, PrototypeSet(np.zeros((2, 4)), alpha=0.0))
    tensors = read_container(path)
    tensors["alpha"] = np.asarray(np.inf)
    write_container(path, tensors)
    with pytest.raises(ContainerError, match="alpha must be finite") as info:
        load_prototypes(path)
    assert str(path) in str(info.value)


def test_model_round_trip_with_norm_stats(tmp_path):
    path = tmp_path / "model.bin"
    hyper = HyperParams(p=4, d=8, m=2, k=3, lookback=16, horizon=4, n_entities=2)
    protos = PrototypeSet(
        np.random.default_rng(1).standard_normal((3, 4)), alpha=0.2, fit_meta=FitMeta(5, 0.5, 3)
    )
    params = init_params(hyper, protos, seed=2)
    mean = np.array([0.5, -1.0])
    std = np.array([2.0, 0.25])
    save_model(path, params, norm_stats=(mean, std), ratio=(0.7, 0.1, 0.2))

    back, stats, ratio = load_model(path)
    assert back.hyper == hyper
    np.testing.assert_array_equal(back.protos.prototypes, protos.prototypes)
    assert back.protos.alpha == 0.2
    for name, arr in params.arrays().items():
        np.testing.assert_array_equal(back.arrays()[name], arr)
    np.testing.assert_array_equal(stats[0], mean)
    np.testing.assert_array_equal(stats[1], std)
    assert ratio == (0.7, 0.1, 0.2)

    x = np.random.default_rng(3).standard_normal((2, 16, 2))
    np.testing.assert_array_equal(predict(back, x), predict(params, x))


@pytest.mark.parametrize(
    "name,value,match",
    [
        ("norm/mean", [np.inf, 0.0], "norm/mean has a non-finite entry"),
        ("norm/mean", [0.0, 0.0, 0.0], r"norm/mean must have shape \(2,\)"),
        ("norm/std", [1.0, np.nan], "norm/std has a non-finite entry"),
        ("norm/std", [1.0, 0.0], "norm/std entries must be positive"),
        ("norm/std", [[1.0, 1.0]], r"norm/std must have shape \(2,\)"),
        ("norm/ratio", [0.7, np.nan, 0.2], "norm/ratio has a non-finite entry"),
        ("norm/ratio", [0.5, 0.5, 0.5], "norm/ratio: split fractions must sum to 1"),
        ("norm/ratio", [-0.1, 0.9, 0.2], "norm/ratio: split fractions must be finite and positive"),
    ],
    ids=["mean-inf", "mean-shape", "std-nan", "std-zero", "std-shape", "ratio-nan",
         "ratio-sum", "ratio-negative"],
)
def test_model_load_rejects_bad_norm_entries(tmp_path, name, value, match):
    # eval and forecast used to fail later, on the normalized input or the split
    path = tmp_path / "model.bin"
    hyper = HyperParams(p=4, d=8, m=2, k=3, lookback=16, horizon=4, n_entities=2)
    params = init_params(hyper, PrototypeSet(np.zeros((3, 4)), alpha=0.0))
    save_model(path, params, **NORM)
    tensors = read_container(path)
    tensors[name] = np.asarray(value, dtype=np.float64)
    write_container(path, tensors)
    with pytest.raises(ContainerError, match=match) as info:
        load_model(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "name,value,match",
    [
        # p is read from the prototype width, so a p of 1 is a (3, 1) prototype array
        pytest.param(
            "protos/prototypes", np.zeros((3, 1)), r"need k >= 1 and p >= 2, got k=3, p=1",
            id="hyper/p-1-as-prototype-width",
        ),
        ("hyper/d", 0, "d must be >= 1"),
        ("protos/alpha", -1.0, "alpha must be finite and >= 0"),
    ],
)
def test_model_load_reports_a_rejected_hyper_or_prototype_value_as_corrupt(
    tmp_path, name, value, match
):
    path = tmp_path / "model.bin"
    hyper = HyperParams(p=4, d=8, m=2, k=3, lookback=16, horizon=4, n_entities=2)
    save_model(path, init_params(hyper, PrototypeSet(np.zeros((3, 4)), alpha=0.0)), **NORM)
    tensors = read_container(path)
    tensors[name] = np.asarray(value, dtype=tensors[name].dtype)
    write_container(path, tensors)
    with pytest.raises(ContainerError, match=match) as info:
        load_model(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("name", ["norm/mean", "norm/std", "norm/ratio"])
def test_model_load_requires_every_norm_entry(tmp_path, name):
    # without any one of them, eval cannot reproduce the training-time input
    path = tmp_path / "model.bin"
    hyper = HyperParams(p=4, d=8, m=2, k=3, lookback=16, horizon=4, n_entities=2)
    save_model(path, init_params(hyper, PrototypeSet(np.zeros((3, 4)), alpha=0.0)), **NORM)
    tensors = read_container(path)
    del tensors[name]
    write_container(path, tensors)
    with pytest.raises(ContainerError, match=f"missing tensor '{name}'") as info:
        load_model(path)
    assert str(path) in str(info.value)


def test_model_load_reports_missing_tensor(tmp_path):
    path = tmp_path / "model.bin"
    hyper = HyperParams(p=4, d=8, m=2, k=3, lookback=16, horizon=4, n_entities=2)
    protos = PrototypeSet(np.zeros((3, 4)), alpha=0.0)
    save_model(path, init_params(hyper, protos, seed=0), **NORM)
    tensors = read_container(path)
    del tensors["head_w"]
    write_container(path, tensors)
    with pytest.raises(ContainerError):
        load_model(path)
