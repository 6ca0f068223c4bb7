"""The prototype-attention kernel and its cost model."""

import numpy as np
import pytest

from focus_forecast import autodiff as ad
from focus_forecast.autodiff import Tensor
from focus_forecast.clustering import PrototypeSet
from focus_forecast.errors import ConfigError, ShapeError
from focus_forecast.protoattn import (
    ProtoAttnWeights,
    build_assignment,
    count_flops,
    count_flops_full,
    full_attention,
    proto_attention,
)


def rand_weights(rng, d):
    return ProtoAttnWeights(*(rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(4)))


# ------------------------------------------------------------- assignment


def test_build_assignment_equal_segments_fill_one_column():
    rng = np.random.default_rng(1)
    protos = PrototypeSet(rng.standard_normal((4, 6)), alpha=0.2)
    seg = rng.standard_normal(6)
    idx = build_assignment(np.tile(seg, (7, 1)), protos)
    assert idx.shape == (7,) and idx.dtype == np.int64
    assert len(set(idx.tolist())) == 1


# ----------------------------------------------------------------- kernel


def _kernel_case(rng, l=12, k=4, d=8):
    segs = rng.standard_normal((l, d))
    protos_emb = rng.standard_normal((k, d))
    idx = rng.integers(k, size=l)
    return segs, idx, protos_emb, rand_weights(rng, d)


def _textbook_attention(queries, segs, w):
    scores = queries @ (segs @ w.w_k).T * w.scale
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ (segs @ w.w_v) @ w.w_o


def test_matches_textbook_attention_with_per_segment_projections():
    """Both wrappers fold the key map into the queries; transcriptions
    that project every segment compute the same functions: prototype
    queries for proto_attention, each segment's own for full_attention."""
    rng = np.random.default_rng(9)
    segs, idx, protos_emb, w = _kernel_case(rng, l=11, k=3, d=6)
    proto_ref = _textbook_attention((protos_emb @ w.w_e)[idx], segs, w)
    full_ref = _textbook_attention(segs @ w.w_e, segs, w)
    np.testing.assert_allclose(proto_attention(segs, idx, protos_emb, w), proto_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(full_attention(segs, w), full_ref, rtol=1e-12, atol=1e-12)


def test_full_attention_differs_from_prototype_queries_off_the_prototypes():
    # on segments that are not their prototypes, per-segment queries see
    # different attention weights than the prototype's
    rng = np.random.default_rng(10)
    gaps = []
    for _ in range(20):
        segs, idx, protos_emb, w = _kernel_case(rng)
        gap = proto_attention(segs, idx, protos_emb, w) - full_attention(segs, w)
        gaps.append(np.max(np.abs(gap)))
    assert min(gaps) > 1e-3, gaps


def test_matches_full_attention_on_prototype_valued_inputs():
    rng = np.random.default_rng(2)
    for _ in range(5):
        k, d = 4, 8
        protos_emb = rng.standard_normal((k, d))
        idx = rng.integers(k, size=10)
        segs = protos_emb[idx]  # each row IS its assigned prototype
        w = rand_weights(rng, d)
        got = proto_attention(segs, idx, protos_emb, w)
        ref = full_attention(segs, w)
        assert np.max(np.abs(got - ref)) <= 1e-6


def test_shared_assignment_rows_are_bit_identical():
    rng = np.random.default_rng(3)
    segs, idx, protos_emb, w = _kernel_case(rng)
    out = proto_attention(segs, idx, protos_emb, w)
    for i in range(idx.size):
        for j in range(i + 1, idx.size):
            if idx[i] == idx[j]:
                assert np.array_equal(out[i], out[j])


def test_single_prototype_collapses_to_one_distribution():
    rng = np.random.default_rng(4)
    segs = rng.standard_normal((9, 6))
    protos_emb = rng.standard_normal((1, 6))
    out = proto_attention(segs, np.zeros(9, dtype=np.int64), protos_emb, rand_weights(rng, 6))
    np.testing.assert_array_equal(out, np.tile(out[0], (9, 1)))


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    segs, idx, protos_emb, w = _kernel_case(rng)
    out = proto_attention(segs, idx, protos_emb, w)
    perm = rng.permutation(idx.size)
    out_p = proto_attention(segs[perm], idx[perm], protos_emb, w)
    np.testing.assert_allclose(out_p, out[perm], atol=1e-9)


def test_kernel_output_shape_and_purity():
    rng = np.random.default_rng(6)
    segs, idx, protos_emb, w = _kernel_case(rng, l=7, k=3, d=5)
    before = segs.copy()
    out = proto_attention(segs, idx, protos_emb, w)
    assert out.shape == (7, 5)
    np.testing.assert_array_equal(segs, before)
    np.testing.assert_array_equal(out, proto_attention(segs, idx, protos_emb, w))


def test_kernel_is_one_op_that_builds_no_segment_gradient(monkeypatch):
    # the kernel's scores, softmax and contexts are one autodiff op, so
    # proto_attention, and a forward and backward through the op, call
    # none of the ops it replaced
    rng = np.random.default_rng(8)
    segs, idx, protos_emb, w = _kernel_case(rng, l=6, k=3, d=5)
    expected = proto_attention(segs, idx, protos_emb, w)

    def forbidden(*args):
        raise AssertionError("bucket_contexts called a composed op")

    for name in ("softmax", "scale", "matmul"):
        monkeypatch.setattr(ad, name, forbidden)
    np.testing.assert_array_equal(proto_attention(segs, idx, protos_emb, w), expected)
    raw = rng.standard_normal((2, 6, 3, 5)).transpose(0, 2, 1, 3)
    q = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    out = ad.bucket_contexts(q, raw, 0.5)
    assert out.shape == (2, 3, 4, 5) and out._parents == (q,)
    ad.mean_all(out).backward()
    assert q.grad.shape == (4, 5)


def test_kernel_rejects_mismatched_shapes():
    rng = np.random.default_rng(7)
    segs, idx, protos_emb, w = _kernel_case(rng)
    with pytest.raises(ShapeError):
        proto_attention(segs[:, :4], idx, protos_emb, w)
    with pytest.raises(ShapeError):
        proto_attention(segs, idx, protos_emb[:, :4], w)
    with pytest.raises(ShapeError):
        proto_attention(segs, idx[:-1], protos_emb, w)
    with pytest.raises(ShapeError):
        proto_attention(segs, idx[:, None], protos_emb, w)
    with pytest.raises(ShapeError):
        full_attention(segs[:, :4], w)


def test_proto_attention_rejects_out_of_range_indices():
    # a negative index would otherwise wrap round in the final gather
    rng = np.random.default_rng(11)
    segs, _, protos_emb, w = _kernel_case(rng, l=2, k=3)
    for bad in ([0, 3], [-1, 0]):
        with pytest.raises(ConfigError):
            proto_attention(segs, np.array(bad), protos_emb, w)


def test_weights_validation():
    rng = np.random.default_rng(8)
    good = rand_weights(rng, 4)
    assert good.d == 4
    assert good.scale == pytest.approx(0.5)
    with pytest.raises(ShapeError):  # every map is square
        ProtoAttnWeights(np.zeros((6, 4)), np.zeros((6, 4)), np.zeros((6, 4)), good.w_o)
    with pytest.raises(ShapeError):
        ProtoAttnWeights(good.w_e, good.w_k[:3], good.w_v, good.w_o)
    with pytest.raises(ShapeError):
        ProtoAttnWeights(good.w_e, good.w_k, good.w_v, np.zeros((4, 5)))


# ------------------------------------------------------------- cost model


def test_flop_count_is_projections_plus_kernel():
    # l=128, k=8, d=32: the four maps on k rows (P w_e, then w_k^T, C w_v,
    # then w_o), 4*k*d^2 = 32768, plus kernel_flops_per_row(k, d) = 2*k*d
    # = 512 per segment, times l = 65536; no assignment stage
    assert count_flops(128, 8, 32) == 32768 + 65536
    # `focus bench` defaults at l=256
    assert count_flops(256, 16, 64) == 786432


def test_flop_count_at_zero_segments_keeps_prototype_embedding():
    # with no segments only the four (k, d) x (d, d) products remain, 4*k*d^2
    assert count_flops(0, 8, 32) == 4 * 8 * 32 * 32


def test_flop_total_is_affine_in_l():
    k, d = 8, 32
    f = [count_flops(l, k, d) for l in (64, 128, 192)]
    assert f[2] - f[1] == f[1] - f[0]  # exact integers


def test_full_attention_quadratic_stage_ratio():
    # count_flops_full = 2*l^2*d (scores, aggregation) + 4*l*d^2 (query,
    # value and output maps per segment); the first part quadruples when l
    # doubles
    d = 32
    for l in (64, 256, 1024):
        quad = count_flops_full(2 * l, d) - 4 * (2 * l) * d * d
        base = count_flops_full(l, d) - 4 * l * d * d
        assert quad == 4 * base == 4 * 2 * l * l * d


def test_flop_validation():
    with pytest.raises(ConfigError):
        count_flops(-1, 8, 32)
    with pytest.raises(ConfigError):
        count_flops_full(-1, 32)

