"""Gradient checks and graph mechanics for the reverse-mode engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focus_forecast import autodiff as ad
from focus_forecast.autodiff import Tensor
from focus_forecast.errors import ShapeError
from focus_forecast.model import forward


def fd(fn, x, h=1e-6):
    """Central-difference gradient of scalar fn at array x."""
    x = x.copy()
    flat = x.ravel()
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        g[i] = (up - down) / (2 * h)
    return g.reshape(x.shape)


def check_grad(build, *shapes, seed=0, tol=1e-7):
    """Compare backward() against finite differences for each input slot.

    build maps Tensors to an output Tensor; the test loss is a fixed random
    projection of that output so every element matters.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    w = rng.standard_normal(out.data.shape)
    loss = ad.mean_all(ad.mul(out, ad.constant(w)))
    loss.backward()

    for slot in range(len(arrays)):
        def scalar(x, slot=slot):
            probe = [Tensor(a) for a in arrays]
            probe[slot] = Tensor(x)
            return float(np.mean(build(*probe).data * w))

        numeric = fd(scalar, arrays[slot])
        analytic = tensors[slot].grad
        assert analytic is not None, f"slot {slot} got no gradient"
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom <= tol, f"slot {slot}"


# --------------------------------------------------------- op gradients


def test_add_broadcast_grad():
    check_grad(ad.add, (3, 1, 5), (4, 5))


def test_sub_broadcast_grad():
    check_grad(ad.sub, (2, 4), (4,))


def test_mul_broadcast_grad():
    check_grad(ad.mul, (3, 4), (3, 1))


def test_scale_grad():
    check_grad(lambda a: ad.scale(a, -2.5), (3, 4))


def test_matmul_grad_batched():
    check_grad(ad.matmul, (2, 3, 4), (2, 4, 5))


def test_matmul_grad_broadcast_rhs():
    check_grad(ad.matmul, (2, 3, 4), (4, 5))


def test_matmul_grad_broadcast_lhs():
    check_grad(ad.matmul, (3, 4), (2, 4, 5))


def test_matmul_grad_4d_input_times_weight():
    # the model's entity-branch shape: a weight shared by two batch axes
    check_grad(ad.matmul, (2, 3, 4, 5), (5, 3))


def test_matmul_grad_weight_times_4d_input():
    # queries (k, d) against (batch, rows, d, seg) keys
    check_grad(ad.matmul, (3, 4), (2, 3, 4, 5))


def test_matmul_grad_4d_input_times_transposed_view():
    check_grad(lambda a, b: ad.matmul(a, ad.transpose_last(b)), (3, 4), (2, 3, 5, 4))


def test_transpose_last_grad():
    check_grad(ad.transpose_last, (2, 3, 4))


def test_permute_grad():
    check_grad(lambda a: ad.permute(a, (2, 0, 3, 1)), (2, 3, 4, 5))


def test_reshape_grad():
    check_grad(lambda a: ad.reshape(a, (6, 4)), (2, 3, 4))


def test_sigmoid_grad():
    check_grad(ad.sigmoid, (3, 5))


def test_softmax_grad():
    check_grad(ad.softmax, (4, 6), tol=1e-6)


def layer_norm(a, gain, bias):
    """Plain layer norm in the model's factored form: the rows of a through
    the identity map, whose row-centred form is C = I - 1/d."""
    d = a.shape[-1]
    c = np.eye(d) - 1.0 / d
    scaled = ad.rms_rows(a, ad.constant(c @ c.T / d))
    return ad.add(ad.matmul(scaled, ad.mul(ad.constant(c), gain)), bias)


def residual_layer_norm(a, res, gain, bias):
    """Layer norm of a + res in the model's factored form: u = [a | res]
    through W = [I; I], so Wc = [C; C] and G = Wc Wc^T / d."""
    d = a.shape[-1]
    w_c = np.vstack([np.eye(d), np.eye(d)]) - 1.0 / d
    scaled = ad.rms_rows(ad.concat_last(a, res), ad.constant(w_c @ w_c.T / d))
    return ad.add(ad.matmul(scaled, ad.mul(ad.constant(w_c), gain)), bias)


def test_layer_norm_grads_all_three_slots():
    check_grad(layer_norm, (2, 5, 8), (8,), (8,), tol=1e-6)


def test_gather_rows_grad_with_duplicate_indices():
    idx = np.array([[1, 0, 1, 2], [2, 2, 0, 1]])
    check_grad(lambda a: ad.gather_rows(a, idx), (2, 3, 4))


def test_layer_norm_grads_4d():
    check_grad(layer_norm, (2, 3, 4, 8), (8,), (8,), tol=1e-6)


def test_residual_layer_norm_grads_all_four_slots_4d():
    check_grad(residual_layer_norm, (2, 3, 4, 8), (2, 3, 4, 8), (8,), (8,), tol=1e-6)


def test_rms_rows_grads_both_slots_4d():
    # G = g + 8 I keeps every row's quadratic form positive, and g is not
    # symmetric, so both halves of G + G^T are checked
    shift = ad.constant(8.0 * np.eye(6))
    check_grad(lambda u, g: ad.rms_rows(u, ad.add(g, shift)), (2, 3, 4, 6), (6, 6), tol=1e-6)


def test_rms_rows_grads_are_zero_through_the_clamp():
    # G = g - 1000 I makes every row's quadratic form negative, so the clamp
    # holds everywhere: r = 1/sqrt(eps) is constant and out = r u
    check_grad(lambda u, g: ad.rms_rows(u, ad.sub(g, ad.constant(1e3 * np.eye(6)))),
               (2, 3, 4, 6), (6, 6), tol=1e-6)


def test_gather_rows_grad_two_leading_axes_and_unused_bucket():
    # k=4 buckets; bucket 3 is never selected, so its gradient rows are 0
    idx = np.array([[[0, 2, 2, 1, 0], [1, 1, 0, 2, 2]], [[2, 0, 1, 1, 1], [0, 0, 0, 2, 1]],
                    [[1, 2, 0, 0, 2], [2, 1, 1, 0, 0]]])
    check_grad(lambda a: ad.gather_rows(a, idx), (3, 2, 4, 6))
    a = Tensor(np.random.default_rng(4).standard_normal((3, 2, 4, 6)), requires_grad=True)
    ad.mean_all(ad.gather_rows(a, idx)).backward()
    assert np.all(a.grad[..., 3, :] == 0.0)
    assert np.all(a.grad[..., :3, :] != 0.0)


def test_concat_last_grad():
    check_grad(ad.concat_last, (2, 3), (2, 5))


def test_mean_all_grad():
    check_grad(lambda a: ad.reshape(ad.mean_all(a), (1,)), (4, 5))


# ------------------------------------------------------- forward values


def test_sigmoid_saturates_without_overflow():
    y = ad.sigmoid(Tensor([-800.0, 0.0, 800.0])).data
    np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.all(np.isfinite(y))


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(1)
    y = ad.softmax(Tensor(rng.standard_normal((5, 7)) * 50)).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(y >= 0)


def test_softmax_shift_invariance():
    x = np.random.default_rng(2).standard_normal((3, 4))
    a = ad.softmax(Tensor(x)).data
    b = ad.softmax(Tensor(x + 1000.0)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_layer_norm_standardizes_tokens():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6, 16)) * 3 + 2
    out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)


def test_layer_norm_matches_np_var_formula():
    rng = np.random.default_rng(8)
    x, gain, bias = rng.standard_normal((3, 4, 5, 16)) * 3 + 1, rng.standard_normal(16), rng.standard_normal(16)
    ref = (x - x.mean(axis=-1, keepdims=True)) * (
        1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-8)
    ) * gain + bias
    out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def _rms_rows_reference(u, g, eps=1e-8):
    q = np.einsum("...i,...i->...", u @ g, u)[..., None]
    return u * (1.0 / np.sqrt(np.maximum(q, 0.0) + eps))


def test_rms_rows_forward_matches_reference_formula_bitwise():
    # the entity branch's rows arrive as a permuted, non-contiguous view
    rng = np.random.default_rng(9)
    u = np.transpose(rng.standard_normal((3, 5, 4, 12)) * 3 + 1, (0, 2, 1, 3))
    a = rng.standard_normal((12, 16))
    g = a @ a.T / 16
    assert not u.flags.c_contiguous
    for v in (u, np.ascontiguousarray(u)):
        out = ad.rms_rows(Tensor(v), Tensor(g)).data
        assert np.array_equal(out, _rms_rows_reference(v, g))


def test_rms_rows_clamps_a_row_in_the_left_null_space():
    """2p = 6 > d = 2: rows u with u Wc = 0 have a zero quadratic form,
    which rounding takes below zero for some of them."""
    rng = np.random.default_rng(10)
    w = rng.standard_normal((6, 2))
    w_c = w - w.mean(axis=1, keepdims=True)
    g = w_c @ w_c.T / 2
    null = np.linalg.svd(w_c.T)[2][2:]  # (4, 6) rows orthogonal to Wc's columns
    u = 1e5 * (rng.standard_normal((64, 4)) @ null)
    q = np.einsum("...i,...i->...", u @ g, u)
    below = q < -1e-8
    assert below.any()  # the case exists: without the clamp these rows are NaN
    ut, gt = Tensor(u, requires_grad=True), Tensor(g, requires_grad=True)
    out = ad.rms_rows(ut, gt)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_array_equal(out.data[below], u[below] * (1.0 / np.sqrt(1e-8)))
    ad.mean_all(out).backward()
    assert np.all(np.isfinite(ut.grad)) and np.all(np.isfinite(gt.grad))


def test_gather_rows_selects():
    x = np.arange(12.0).reshape(4, 3)
    out = ad.gather_rows(Tensor(x), np.array([3, 0, 0])).data
    np.testing.assert_array_equal(out, x[[3, 0, 0]])


def test_gather_rows_forward_equals_take_along_axis_bitwise():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 5, 16, 8))
    idx = rng.integers(0, 16, size=(3, 5, 7))
    out = ad.gather_rows(Tensor(a), idx).data
    ref = np.take_along_axis(a, idx[..., None], axis=-2)
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


@pytest.mark.parametrize(
    "idx", [np.array([[0, 4]]), np.array([[-1, 0]]), np.array([0, 1]), np.array([[[0, 1]]])]
)
def test_gather_rows_rejects_bad_indices(idx):
    with pytest.raises(ShapeError):
        ad.gather_rows(Tensor(np.zeros((1, 4, 2))), idx)


@pytest.mark.parametrize("res_shape", [(2, 1, 8), (8,), (2, 3, 4), (3, 2, 8)])
def test_residual_layer_norm_rejects_residual_not_matching_input(res_shape):
    # concat_last rejects differing leading axes; a residual of another
    # width makes u too wide for the gram, which rms_rows rejects
    with pytest.raises(ShapeError):
        residual_layer_norm(
            Tensor(np.zeros((2, 3, 8))), Tensor(np.zeros(res_shape)),
            Tensor(np.ones(8)), Tensor(np.zeros(8)),
        )


@pytest.mark.parametrize("g_shape", [(8,), (8, 7), (7, 8), (2, 8, 8)])
def test_rms_rows_rejects_gram_not_matching_last_axis(g_shape):
    with pytest.raises(ShapeError):
        ad.rms_rows(Tensor(np.zeros((2, 3, 8))), Tensor(np.zeros(g_shape)))


def test_sigmoid_matches_reference_formula_bitwise():
    x = np.random.default_rng(7).standard_normal(1000) * 20
    ref = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )
    assert np.array_equal(ad.sigmoid(Tensor(x)).data, ref)


def test_model_forward_is_bit_identical_with_and_without_grad(tiny_model):
    params, x, _ = tiny_model
    with_grad = forward(params, x)
    assert with_grad.requires_grad
    with ad.no_grad():
        without = forward(params, x)
    assert not without.requires_grad
    assert np.array_equal(with_grad.data, without.data)


# -------------------------------------------------------- graph mechanics


def test_diamond_graph_accumulates_both_paths():
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    z = ad.add(ad.mul(x, x), x)  # z = x^2 + x, dz/dx = 2x + 1
    ad.mean_all(z).backward()
    np.testing.assert_allclose(x.grad, (2 * x.data + 1) / 2.0, atol=1e-12)


def test_reused_node_feeds_two_consumers():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.mul(x, x)
    z = ad.add(y, y)  # z = 2x^2, dz/dx = 4x
    z.backward()
    np.testing.assert_allclose(x.grad, [12.0], atol=1e-12)


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad
    assert y._parents == ()
    y.backward()  # no-op: nothing wired
    assert x.grad is None


def test_no_grad_restores_on_exit():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        pass
    y = ad.mul(x, x)
    assert y.requires_grad


def test_constants_collect_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    c = ad.constant(np.full(3, 2.0))
    ad.mean_all(ad.mul(x, c)).backward()
    assert c.grad is None
    np.testing.assert_allclose(x.grad, 2.0 / 3.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.integers(0, 2),
    a_ones=st.lists(st.booleans(), min_size=2, max_size=3),
    seed=st.integers(0, 2**31),
)
def test_broadcast_grads_match_input_shapes(lead, a_ones, seed):
    """Whatever broadcasting the forward did, gradients land with each
    input's own shape."""
    rng = np.random.default_rng(seed)
    core = [2 if one else 3 for one in a_ones]
    a_shape = tuple(1 if one else s for one, s in zip(a_ones, core))
    b_shape = tuple([4] * lead + core)
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
    ad.mean_all(ad.add(ad.mul(a, b), a)).backward()
    assert a.grad.shape == a_shape
    assert b.grad.shape == b_shape
