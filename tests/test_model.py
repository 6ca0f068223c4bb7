"""Forecaster assembly: branches, gating, head, and input checking."""

import numpy as np
import pytest

from focus_forecast import autodiff as ad
from focus_forecast import protoattn
from focus_forecast import model as model_module
from focus_forecast.autodiff import Tensor, no_grad
from focus_forecast.bench import traced_peak_bytes
from focus_forecast.clustering import PrototypeSet, nearest
from focus_forecast.errors import ConfigError, NumericalError, ShapeError
from focus_forecast.model import (
    HyperParams,
    _param_shapes,
    extract_entity,
    extract_temporal,
    forecast_window,
    forward,
    fuse_and_forecast,
    init_params,
    params_from_arrays,
    predict,
)
from focus_forecast.training import gradient_check

HYPER = HyperParams(p=4, d=8, m=2, k=4, lookback=16, horizon=4, n_entities=3)


def tokens(feature):
    """The (..., rows, d) tokens a branch feature stands for, built for checking."""
    return feature.scaled.data @ feature.out_map.data + feature.bias.data


def make_params(seed=5, hyper=HYPER):
    protos = PrototypeSet(
        np.random.default_rng(11).standard_normal((hyper.k, hyper.p)), alpha=0.2
    )
    return init_params(hyper, protos, seed=seed)


# ------------------------------------------------------------ hyperparams


def test_hyper_l_property():
    assert HYPER.l == 4
    assert HyperParams(p=16, d=8, m=2, k=4, lookback=96, horizon=8, n_entities=2).l == 6


@pytest.mark.parametrize(
    "override",
    [
        {"p": 1},
        {"d": 0},
        {"m": 0},
        {"k": 0},
        {"horizon": 0},
        {"n_entities": 0},
        {"lookback": 15},  # not a multiple of p
        {"lookback": 0},
    ],
)
def test_hyper_validation(override):
    kw = dict(p=4, d=8, m=2, k=4, lookback=16, horizon=4, n_entities=3)
    kw.update(override)
    with pytest.raises(ConfigError):
        HyperParams(**kw)


def test_param_shapes_do_not_depend_on_lookback():
    a = _param_shapes(HYPER)
    b = _param_shapes(
        HyperParams(p=4, d=8, m=2, k=4, lookback=64, horizon=4, n_entities=3)
    )
    assert a == b


def test_head_shape_scales_with_readout_and_horizon():
    h = HyperParams(p=16, d=64, m=6, k=8, lookback=512, horizon=96, n_entities=7)
    shapes = dict((name, shape) for name, shape, _ in _param_shapes(h))
    assert shapes["head_w"] == (6 * 64, 96)
    assert shapes["head_b"] == (96,)
    assert shapes["q_read"] == (6, 64)
    assert shapes["gate_w"] == (128, 64)


# ------------------------------------------------------------------ init


def test_init_is_deterministic_and_shaped():
    a, b = make_params(seed=3), make_params(seed=3)
    expected = {name: shape for name, shape, _ in _param_shapes(HYPER)}
    assert set(a.tensors) == set(expected)
    for name in expected:
        assert a.tensors[name].data.shape == expected[name]
        np.testing.assert_array_equal(a.tensors[name].data, b.tensors[name].data)
    assert not np.array_equal(
        a.tensors["w_in"].data, make_params(seed=4).tensors["w_in"].data
    )


def test_init_norm_params_start_at_identity():
    params = make_params()
    for branch in ("t", "e"):
        np.testing.assert_array_equal(params.tensors[f"ln_{branch}_gain"].data, 1.0)
        np.testing.assert_array_equal(params.tensors[f"ln_{branch}_bias"].data, 0.0)
    np.testing.assert_array_equal(params.tensors["head_b"].data, 0.0)
    np.testing.assert_array_equal(params.tensors["gate_b"].data, 0.0)


def test_params_from_arrays_round_trip_and_validation():
    params = make_params()
    rebuilt = params_from_arrays(HYPER, params.protos, params.arrays())
    for name, t in params.tensors.items():
        np.testing.assert_array_equal(rebuilt.tensors[name].data, t.data)

    arrays = params.arrays()
    missing = dict(arrays)
    del missing["q_read"]
    with pytest.raises(ConfigError):
        params_from_arrays(HYPER, params.protos, missing)

    extra = dict(arrays)
    extra["bogus"] = np.zeros(3)
    with pytest.raises(ConfigError):
        params_from_arrays(HYPER, params.protos, extra)

    bad_shape = dict(arrays)
    bad_shape["head_b"] = np.zeros(5)
    with pytest.raises(ShapeError):
        params_from_arrays(HYPER, params.protos, bad_shape)

    bad_val = {k: v.copy() for k, v in arrays.items()}
    bad_val["w_in"][0, 0] = np.nan
    with pytest.raises(NumericalError):
        params_from_arrays(HYPER, params.protos, bad_val)

    small_protos = PrototypeSet(np.zeros((HYPER.k - 1, HYPER.p)), alpha=0.2)
    with pytest.raises(ConfigError):
        params_from_arrays(HYPER, small_protos, arrays)


def test_grad_helpers():
    params = make_params()
    assert all(np.all(g == 0) for g in params.grads().values())
    params.tensors["head_b"].grad = np.ones(HYPER.horizon)
    assert np.all(params.grads()["head_b"] == 1)
    params.zero_grad()
    assert params.tensors["head_b"].grad is None


# --------------------------------------------------------------- forward


def test_forward_shape_and_determinism():
    params = make_params()
    x = np.random.default_rng(0).standard_normal((5, HYPER.lookback, HYPER.n_entities))
    out = forward(params, x)
    assert isinstance(out, Tensor)
    assert out.shape == (5, HYPER.horizon, HYPER.n_entities)
    np.testing.assert_array_equal(out.data, forward(params, x).data)
    np.testing.assert_array_equal(out.data, predict(params, x))
    assert predict(params, x[:0]).shape == (0, HYPER.horizon, HYPER.n_entities)


def test_branch_feature_shapes():
    params = make_params()
    x = np.random.default_rng(1).standard_normal((2, HYPER.lookback, HYPER.n_entities))
    assert tokens(extract_temporal(params, x)).shape == (2, 3, HYPER.l, HYPER.d)
    assert tokens(extract_entity(params, x)).shape == (2, 3, HYPER.l, HYPER.d)


def test_forward_assigns_segments_once(monkeypatch):
    calls = []

    def counting(segments, protos):
        calls.append(segments.shape)
        return nearest(segments, protos)

    monkeypatch.setattr(model_module, "nearest", counting)
    x = np.random.default_rng(12).standard_normal((2, HYPER.lookback, HYPER.n_entities))
    forward(make_params(), x)
    assert calls == [(2, HYPER.n_entities, HYPER.l, HYPER.p)]


def test_forward_and_proto_attention_run_the_one_kernel(monkeypatch):
    kernel = ad.bucket_contexts
    calls = []

    def counting(q_raw, raw, scale):
        calls.append(raw.shape)
        return kernel(q_raw, raw, scale)

    monkeypatch.setattr(ad, "bucket_contexts", counting)
    x = np.random.default_rng(14).standard_normal((2, HYPER.lookback, HYPER.n_entities))
    forward(make_params(), x)
    n, l, p = HYPER.n_entities, HYPER.l, HYPER.p
    assert calls == [(2, n, l, p), (2, l, n, p)]  # temporal, then entity branch

    calls.clear()
    rng = np.random.default_rng(15)
    w = protoattn.ProtoAttnWeights(*(rng.standard_normal((4, 4)) for _ in range(4)))
    idx = rng.integers(3, size=6)
    protoattn.proto_attention(rng.standard_normal((6, 4)), idx, rng.standard_normal((3, 4)), w)
    assert calls == [(6, 4)]


def test_predict_equals_public_branch_composition_bit_for_bit():
    """The benchmark's traced pass composes the public extractors and
    compares against the training loss bit for bit."""
    params = make_params()
    x = np.random.default_rng(13).standard_normal((3, HYPER.lookback, HYPER.n_entities))
    with no_grad():
        composed = fuse_and_forecast(
            params, extract_temporal(params, x), extract_entity(params, x)
        ).data
    np.testing.assert_array_equal(predict(params, x), composed)


def test_gradients_match_finite_differences_with_narrow_segments():
    """p < d makes w_in non-square and N < k leaves entity buckets empty,
    so every absorbed weight product is exercised in both branches."""
    hyper = HyperParams(p=3, d=5, m=2, k=6, lookback=12, horizon=3, n_entities=2)
    params = make_params(seed=8, hyper=hyper)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, hyper.lookback, hyper.n_entities))
    y = rng.standard_normal((2, hyper.horizon, hyper.n_entities))
    rel = gradient_check(params, x, y)
    assert set(rel) == set(params.tensors)
    assert max(rel.values()) <= 1e-6, rel


def _np_ln(x, gain, bias, eps=1e-8):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_branch(w, protos, raw, prefix):
    idx = nearest(raw, protos)
    emb = raw @ w["w_in"]
    pe = protos.prototypes @ w["w_in"]
    scores = (pe @ w[f"{prefix}_we"]) @ np.swapaxes(emb @ w[f"{prefix}_wk"], -1, -2)
    scores /= np.sqrt(emb.shape[-1])
    bucket = (_np_softmax(scores) @ (emb @ w[f"{prefix}_wv"])) @ w[f"{prefix}_wo"]
    gathered = np.take_along_axis(bucket, idx[..., None], axis=-2)
    return _np_ln(gathered + emb, w[f"ln_{prefix}_gain"], w[f"ln_{prefix}_bias"])


def test_forward_matches_plain_numpy_transcription():
    """End-to-end oracle: the whole network re-derived with raw numpy."""
    params = make_params(seed=9)
    h, w = HYPER, params.arrays()
    x = np.random.default_rng(2).standard_normal((3, h.lookback, h.n_entities))

    h_t = _np_branch(w, params.protos, x.transpose(0, 2, 1).reshape(3, h.n_entities, h.l, h.p), "t")
    raw_e = x.reshape(3, h.l, h.p, h.n_entities).transpose(0, 1, 3, 2)
    h_e = _np_branch(w, params.protos, raw_e, "e").transpose(0, 2, 1, 3)

    scale = 1.0 / np.sqrt(h.d)
    f_t = _np_softmax(w["q_read"] @ np.swapaxes(h_t, -1, -2) * scale) @ h_t
    f_e = _np_softmax(w["q_read"] @ np.swapaxes(h_e, -1, -2) * scale) @ h_e
    z = np.concatenate([f_t, f_e], axis=-1) @ w["gate_w"] + w["gate_b"]
    gate = 1.0 / (1.0 + np.exp(-z))
    assert np.all(gate > 0) and np.all(gate < 1)
    blended = gate * f_t + (1 - gate) * f_e
    pred = blended.reshape(3, h.n_entities, h.m * h.d) @ w["head_w"] + w["head_b"]
    expected = pred.transpose(0, 2, 1)

    np.testing.assert_allclose(predict(params, x), expected, atol=1e-10)


def test_branch_matches_d_wide_bucket_form_for_few_and_many_rows():
    """The branch maps gathered p-wide contexts to width d last; the form it
    replaced mapped every segment to width d first and gathered d-wide
    bucket rows. Temporal groups here have l=8 rows > k=4, entity groups
    N=3 rows < k=4."""
    hyper = HyperParams(p=4, d=8, m=2, k=4, lookback=32, horizon=4, n_entities=3)
    params = make_params(seed=10, hyper=hyper)
    w = params.arrays()
    x = np.random.default_rng(15).standard_normal((2, hyper.lookback, hyper.n_entities))
    raw, idx = model_module._segment(params, x)
    pe = params.protos.prototypes @ w["w_in"]
    for prefix, r, i in (
        ("t", raw, idx),
        ("e", raw.transpose(0, 2, 1, 3), idx.transpose(0, 2, 1)),
    ):
        emb = r @ w["w_in"]
        q_raw = (pe @ w[f"{prefix}_we"]) @ w[f"{prefix}_wk"].T @ w["w_in"].T
        w_val = w["w_in"] @ w[f"{prefix}_wv"] @ w[f"{prefix}_wo"]
        scores = q_raw @ np.swapaxes(r, -1, -2) / np.sqrt(hyper.d)
        bucket = _np_softmax(scores) @ (r @ w_val)
        gathered = np.take_along_axis(bucket, i[..., None], axis=-2)
        ref = _np_ln(gathered + emb, w[f"ln_{prefix}_gain"], w[f"ln_{prefix}_bias"])
        out = tokens(model_module._branch(params, r, i, prefix))
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref)), prefix


def test_zero_input_yields_layer_norm_bias_tokens():
    """x = 0 kills both the residual and the value path, so every token
    collapses to the layer-norm bias exactly."""
    params = make_params()
    bias = np.random.default_rng(3).standard_normal(HYPER.d)
    params.tensors["ln_t_bias"].data[:] = bias
    x = np.zeros((2, HYPER.lookback, HYPER.n_entities))
    out = tokens(extract_temporal(params, x))
    np.testing.assert_array_equal(out, np.broadcast_to(bias, out.shape))


def test_width_one_tokens_equal_layer_norm_bias():
    """At d = 1 a layer-normed token is its bias: the centred map is zero
    and the clamped scale stays finite."""
    hyper = HyperParams(p=4, d=1, m=2, k=4, lookback=16, horizon=4, n_entities=3)
    params = make_params(hyper=hyper)
    rng = np.random.default_rng(16)
    for prefix in ("t", "e"):
        params.tensors[f"ln_{prefix}_bias"].data[:] = rng.standard_normal(1)
    x = rng.standard_normal((2, hyper.lookback, hyper.n_entities))
    for prefix, extract in (("t", extract_temporal), ("e", extract_entity)):
        out = tokens(extract(params, x))
        bias = params.tensors[f"ln_{prefix}_bias"].data
        np.testing.assert_array_equal(out, np.broadcast_to(bias, out.shape))
    assert np.all(np.isfinite(predict(params, x)))


def test_default_norm_gives_standardized_tokens():
    params = make_params()
    x = np.random.default_rng(4).standard_normal((4, HYPER.lookback, HYPER.n_entities))
    out = tokens(extract_temporal(params, x))
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)


def test_identical_entities_share_temporal_features():
    params = make_params()
    series = np.random.default_rng(5).standard_normal((2, HYPER.lookback))
    x = np.repeat(series[:, :, None], HYPER.n_entities, axis=2)
    out = tokens(extract_temporal(params, x))
    for n in range(1, HYPER.n_entities):
        np.testing.assert_array_equal(out[:, n], out[:, 0])


def test_temporal_branch_never_builds_a_rows_by_d_array():
    """Every per-segment array stays 2p wide: at d = 32p one (rows, d)
    float64 array would be 1 MiB, above the whole branch's peak."""
    hyper = HyperParams(p=4, d=128, m=2, k=4, lookback=256, horizon=4, n_entities=4)
    params = make_params(hyper=hyper)
    x = np.random.default_rng(17).standard_normal((4, hyper.lookback, hyper.n_entities))
    rows_by_d = 4 * hyper.n_entities * hyper.l * hyper.d * 8
    assert rows_by_d == 1_048_576
    with no_grad():
        extract_temporal(params, x)
        peak = traced_peak_bytes(lambda: extract_temporal(params, x))
    assert peak < rows_by_d, peak


def test_entity_permutation_equivariance():
    params = make_params()
    x = np.random.default_rng(6).standard_normal((3, HYPER.lookback, HYPER.n_entities))
    perm = np.array([2, 0, 1])
    np.testing.assert_allclose(
        predict(params, x[:, :, perm]), predict(params, x)[:, :, perm], atol=1e-9
    )


def test_saturated_gate_silences_entity_branch():
    """With gate_b pinned high the blend is effectively all-temporal, so the
    entity branch's value projection can't move the output."""
    params = make_params()
    params.tensors["gate_b"].data[:] = 30.0
    x = np.random.default_rng(7).standard_normal((2, HYPER.lookback, HYPER.n_entities))
    base = predict(params, x)
    params.tensors["e_wv"].data += 0.5
    assert np.max(np.abs(predict(params, x) - base)) < 1e-6
    params.tensors["e_wv"].data -= 0.5
    params.tensors["t_wv"].data += 0.5
    assert np.max(np.abs(predict(params, x) - base)) > 1e-4


# ------------------------------------------------------- input validation


def test_check_input_shapes():
    params = make_params()
    with pytest.raises(ShapeError):
        predict(params, np.zeros((2, HYPER.lookback + 1, HYPER.n_entities)))
    with pytest.raises(ShapeError):
        predict(params, np.zeros((2, HYPER.lookback, HYPER.n_entities + 1)))
    with pytest.raises(ShapeError):
        predict(params, np.zeros((HYPER.lookback, HYPER.n_entities)))


def test_check_input_rejects_non_finite():
    params = make_params()
    x = np.zeros((1, HYPER.lookback, HYPER.n_entities))
    x[0, 3, 1] = np.inf
    with pytest.raises(NumericalError):
        predict(params, x)


# -------------------------------------------------------- forecast_window


def test_forecast_window_shapes_and_denorm():
    params = make_params()
    window = np.random.default_rng(8).standard_normal((HYPER.lookback, HYPER.n_entities))
    identity = forecast_window(params, window, (np.zeros(3), np.ones(3)))
    assert identity.prediction.shape == (HYPER.horizon, HYPER.n_entities)
    np.testing.assert_array_equal(identity.denormalized, identity.prediction)

    mean = np.array([1.0, -2.0, 0.5])
    std = np.array([2.0, 0.5, 3.0])
    scaled = forecast_window(params, window, norm_stats=(mean, std))
    np.testing.assert_array_equal(scaled.prediction, identity.prediction)
    np.testing.assert_allclose(scaled.denormalized, identity.prediction * std + mean)


def test_forecast_window_rejects_batched_input():
    params = make_params()
    with pytest.raises(ShapeError):
        forecast_window(
            params,
            np.zeros((1, HYPER.lookback, HYPER.n_entities)),
            (np.zeros(HYPER.n_entities), np.ones(HYPER.n_entities)),
        )


def test_prototype_values_reach_a_branch_only_through_the_assignment():
    # at k <= p <= d, any full-rank P' with a matching w_e' gives the same
    # queries P' w_in w_e' w_k^T w_in^T, so the same assignment gives the
    # same branch output whatever the prototype values are
    assert HYPER.k <= HYPER.p <= HYPER.d
    params = make_params()
    arrays = params.arrays()
    x = np.random.default_rng(6).standard_normal((3, HYPER.lookback, HYPER.n_entities))
    raw, idx = model_module._segment(params, x)
    w_in, w_k = arrays["w_in"], arrays["t_wk"]
    p_old = params.protos.prototypes
    p_new = np.random.default_rng(12).standard_normal((HYPER.k, HYPER.p))
    q_raw = p_old @ w_in @ arrays["t_we"] @ w_k.T @ w_in.T
    w_e = np.linalg.pinv(w_in) @ np.linalg.pinv(p_new) @ q_raw @ np.linalg.pinv(w_in.T)
    w_e = w_e @ np.linalg.inv(w_k.T)
    swapped = params_from_arrays(
        HYPER, PrototypeSet(p_new, alpha=0.2), arrays | {"t_we": w_e}
    )
    with no_grad():
        want = model_module._branch(params, raw, idx, "t").scaled.data
        got = model_module._branch(swapped, raw, idx, "t").scaled.data
    assert not np.allclose(nearest(raw, swapped.protos), idx)  # P' would assign otherwise
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
