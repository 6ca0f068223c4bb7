"""Composite-metric clustering: correlation, distances, assignment, loss, fit."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from focus_forecast import clustering
from focus_forecast.bench import traced_peak_bytes
from focus_forecast.clustering import (
    CLUSTER_OPT_DEFAULTS,
    FitMeta,
    PrototypeSet,
    assign,
    clustering_loss,
    clustering_loss_grad,
    distance,
    distance_matrix,
    fit,
    nearest,
    pearson_corr,
)
from focus_forecast.data import generate_synthetic, segment
from focus_forecast.errors import ConfigError, ShapeError
from focus_forecast.optim import AdamW
from focus_forecast.protoattn import build_assignment
from focus_forecast.util import seed_stream

from conftest import make_segments

finite_vecs = hnp.arrays(
    np.float64,
    st.integers(2, 12),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


# ----------------------------------------------------------- correlation


def test_corr_of_positive_affine_map_is_one():
    assert pearson_corr([9, 10, 11], [7, 10, 13]) == pytest.approx(1.0, abs=1e-12)


def test_corr_of_reversal_is_minus_one():
    assert pearson_corr([9, 10, 11], [11, 10, 9]) == pytest.approx(-1.0, abs=1e-12)


def test_corr_constant_vector_convention():
    assert pearson_corr([5, 5, 5], [1, 7, 2]) == 0.0
    assert pearson_corr([1, 7, 2], [5, 5, 5]) == 0.0


@settings(max_examples=80, deadline=None)
@given(a=finite_vecs, b=finite_vecs)
def test_corr_bounded_and_symmetric(a, b):
    if a.size != b.size:
        b = np.resize(b, a.size)
    c = pearson_corr(a, b)
    assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
    assert pearson_corr(b, a) == pytest.approx(c, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(a=finite_vecs, shift=st.floats(-50, 50), gain=st.floats(0.1, 10))
def test_corr_invariant_under_positive_affine_maps(a, shift, gain):
    b = np.sin(a) + np.linspace(0, 1, a.size)  # some non-constant partner
    base = pearson_corr(a, b)
    assert pearson_corr(a, gain * b + shift) == pytest.approx(base, abs=1e-9)


# -------------------------------------------------------------- distance


def test_distance_examples_split_euclidean_and_corr_parts():
    seg = np.array([9.0, 10.0, 11.0])
    assert distance(seg, np.array([7.0, 10.0, 13.0]), 0.2) == pytest.approx(8.0, abs=1e-12)
    assert distance(seg, np.array([11.0, 10.0, 9.0]), 0.2) == pytest.approx(8.4, abs=1e-12)
    assert distance(seg, seg, 17.0) == pytest.approx(0.0, abs=1e-12)


def test_distance_matrix_matches_scalar_distance():
    rng = np.random.default_rng(0)
    segs = rng.standard_normal((12, 6))
    protos = rng.standard_normal((5, 6))
    mat = distance_matrix(segs, protos, 0.3)
    for i in range(12):
        for j in range(5):
            assert mat[i, j] == pytest.approx(distance(segs[i], protos[j], 0.3), abs=1e-9)


def test_center_unit_equals_its_where_formula_byte_for_byte():
    # flat rows (constant, all ±0, spread below the floor), a NaN row, and
    # rows over six decades
    rng = np.random.default_rng(14)
    x = rng.standard_normal((400, 16)) * 10.0 ** rng.uniform(-3, 3, size=(400, 1))
    x[0], x[1], x[2], x[3] = 0.0, -0.0, 7.5, np.nan
    x[4, ::2] = -0.0
    x[4, 1::2] = 0.0
    x[5] = 1.0 + 1e-14 * rng.standard_normal(16)
    x[6, 3] = np.nan
    centered = x - x.mean(axis=-1, keepdims=True)
    norm = np.linalg.norm(centered, axis=-1, keepdims=True)
    want = np.where(norm < clustering.CORR_NORM_FLOOR, 0.0,
                    centered / np.where(norm < clustering.CORR_NORM_FLOOR, 1.0, norm))
    got = clustering._center_unit(x)
    assert got.tobytes() == want.tobytes()
    assert clustering._center_unit(x[7]).tobytes() == want[7].tobytes()
    assert np.all(got[:3] == 0.0) and not np.signbit(got[:2]).any()
    assert np.isnan(got[3]).all() and np.isnan(got[6]).all()


# ------------------------------------------------------------- assignment


def test_assignment_prefers_correlated_prototype():
    protos = PrototypeSet(np.array([[7.0, 10.0, 13.0], [11.0, 10.0, 9.0]]), alpha=0.2)
    state = assign(make_segments([[9.0, 10.0, 11.0]]), protos)
    assert state.assignment.tolist() == [0]


def test_assignment_single_bucket():
    protos = PrototypeSet(np.array([[0.0, 0.0, 1.0]]), alpha=0.2)
    state = assign(make_segments(np.random.default_rng(1).standard_normal((7, 3))), protos)
    assert state.assignment.tolist() == [0] * 7
    assert state.bucket_sizes.tolist() == [7]


def test_assignment_identity_on_prototype_rows():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((4, 5))
    protos = PrototypeSet(rows.copy(), alpha=0.2)
    state = assign(make_segments(rows), protos)
    assert state.assignment.tolist() == [0, 1, 2, 3]


def test_assignment_tie_breaks_to_lowest_index():
    dup = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [9.0, 9.0, 9.0]])
    protos = PrototypeSet(dup, alpha=0.2)
    state = assign(make_segments([[1.0, 2.0, 3.0]]), protos)
    assert state.assignment.tolist() == [0]


@pytest.mark.parametrize(
    "assigner",
    [nearest, lambda segs, protos: assign(make_segments(segs), protos), build_assignment],
    ids=["nearest", "assign", "build_assignment"],
)
def test_assignment_rejects_length_mismatch(assigner):
    protos = PrototypeSet(np.zeros((2, 4)), alpha=0.0)
    with pytest.raises(ShapeError):
        assigner(np.zeros((3, 5)), protos)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 6), alpha=st.floats(0, 2))
def test_assignment_is_optimal(seed, k, alpha):
    rng = np.random.default_rng(seed)
    segs = rng.standard_normal((10, 4))
    protos = PrototypeSet(rng.standard_normal((k, 4)), alpha=alpha)
    state = assign(make_segments(segs), protos)
    d = distance_matrix(segs, protos.prototypes, alpha)
    chosen = d[np.arange(10), state.assignment]
    assert np.all(chosen <= d.min(axis=1) + 1e-9)
    assert state.bucket_sizes.sum() == 10
    # any leading axes: each (p,) row maps as it does in the flat matrix
    np.testing.assert_array_equal(nearest(segs.reshape(2, 5, 4), protos), state.assignment.reshape(2, 5))


@pytest.mark.parametrize("p", [2, 16])
@pytest.mark.parametrize("k", [1, 2, 16, 17])
@pytest.mark.parametrize("n", [1, 2, 2047, 2048, 2049, 4097, 6145])
def test_closest_rows_equals_argmin_of_the_full_distance_matrix(n, k, p):
    # 4097 and 6145 rows would leave a 1-row block under fixed 2048-row
    # blocks, and a 1-row product is not bit-equal to its row of the GEMM
    rng = np.random.default_rng(n * 1000 + k * 10 + p)
    segs = rng.standard_normal((n, p))
    protos = rng.standard_normal((k, p))
    want = np.argmin(distance_matrix(segs, protos, 0.2), axis=1)
    feats = clustering._features_t(segs)
    assert np.array_equal(clustering._closest_rows(feats, protos, 0.2), want)
    assert np.array_equal(nearest(segs, PrototypeSet(protos, 0.2)), want)


@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("n", [2047, 2049, 4097, 6145])
def test_fit_and_nearest_features_choose_the_same_indices(n, alpha):
    # fit scores one whole-array feature array, nearest builds the features
    # block by block
    segs, protos = _midpoint_rows(n, n)
    whole = clustering._features_t(segs)
    for lo, hi in clustering._blocks(n):
        assert whole[:, lo:hi].tobytes() == clustering._features_t(segs[lo:hi]).tobytes()
    got = clustering._closest_rows(whole, protos, alpha)
    assert got.tobytes() == nearest(segs, PrototypeSet(protos, alpha)).tobytes()


def _check_each_scoring(monkeypatch):
    """Make every `_rescore` call assert that its indices equal a full
    `_closest_rows` pass bit for bit; returns, per call, whether it was
    given no last scoring, whether it scored every row, and how many rows
    its bound kept from the last scoring."""
    real, real_full, seen, passes = clustering._rescore, clustering._full_pass, [], []

    def full_pass(*args):
        passes.append(1)
        return real_full(*args)

    def rescore(feats_t, fnorm, protos, alpha, last):
        before = len(passes)
        out = real(feats_t, fnorm, protos, alpha, last)
        assert out.idx.tobytes() == clustering._closest_rows(feats_t, protos, alpha).tobytes()
        kept = 0
        if last is not None:
            w_max, norm_max = max(out.w_max, last.w_max), max(out.norm_max, last.norm_max)
            gap, tau = clustering._decayed_gaps(last, fnorm, out.w, out.norms, w_max, norm_max)
            kept = int((gap > tau).sum())
        seen.append((last is None, len(passes) > before, kept))
        return out

    monkeypatch.setattr(clustering, "_rescore", rescore)
    monkeypatch.setattr(clustering, "_full_pass", full_pass)
    return seen


def _fnorm(feats_t):
    return np.sqrt(clustering._column_sq_norms(feats_t) + 1.0)


def _midpoint_rows(n, seed):
    # rows at the midpoint of two prototypes tie in exact arithmetic at
    # alpha=0, so there rounding alone picks the index
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((16, 16))
    pairs = rng.integers(0, 16, size=(n, 2))
    segs = (protos[pairs[:, 0]] + protos[pairs[:, 1]]) / 2.0
    segs[::3] += rng.normal(0.0, 0.1, size=segs[::3].shape)
    return segs, protos


def _duplicates_with_repairs():
    # 300 copies of two rows, 5% of them jittered: with k=7 some buckets go
    # empty and are re-seeded now and then, between incremental iterations
    rng = np.random.default_rng(8)
    segs = 3.0 * rng.standard_normal((2, 4))[rng.integers(0, 2, size=300)]
    jitter = rng.random(300) < 0.05
    segs[jitter] += 0.01 * rng.standard_normal((jitter.sum(), 4))
    return segs


@pytest.mark.parametrize(
    "case",
    ["planted", "large steps", "midpoints", "repairs", "repair each iteration", "k1", "n1", "n2049"],
)
def test_tracked_indices_equal_a_full_pass_at_every_iteration(monkeypatch, case):
    rng = np.random.default_rng(21)
    alpha, max_iters, tol, seed, lr = 0.2, 40, float("-inf"), 1, clustering.CLUSTER_OPT_DEFAULTS.lr
    if case == "planted":
        sm, k, max_iters, tol = _planted_segments(0)[0], 4, 500, clustering.DEFAULT_TOL
    elif case == "large steps":
        sm, k, lr = _planted_segments(0)[0], 4, 1.0
    elif case == "midpoints":
        sm, k, alpha = make_segments(_midpoint_rows(4097, 4097)[0]), 16, 0.0
    elif case == "repairs":
        sm, k, alpha, seed = make_segments(_duplicates_with_repairs()), 7, 0.0, 8
    elif case == "repair each iteration":
        # noiseless copies of 4 templates with k=6: the re-seeded prototypes
        # duplicate others, so their buckets are empty again at once
        templates = generate_synthetic(4, 800, 4, 0.0, seed=5).templates
        sm, k = make_segments(templates[rng.integers(0, 4, size=3000)]), 6
    elif case == "k1":
        sm, k = make_segments(rng.standard_normal((50, 4))), 1
    elif case == "n1":
        sm, k = make_segments(rng.standard_normal((1, 4))), 1
    else:
        sm, k = make_segments(rng.standard_normal((2049, 8))), 5
    seen = _check_each_scoring(monkeypatch)
    repairs = []
    real_repair = clustering._repair_empty

    def repair(segs, feats_t, protos, alpha, idx):
        out = real_repair(segs, feats_t, protos, alpha, idx)
        repairs.append(out[1] is not idx)
        return out

    monkeypatch.setattr(clustering, "_repair_empty", repair)
    fit(sm, k, alpha, lr=lr, max_iters=max_iters, tol=tol, seed=seed)
    assert len(seen) > 10
    # the first scoring starts from the seeds' one; only the first after
    # each repair is given no last one
    assert [fresh for fresh, _, _ in seen] == [False] + repairs[: len(seen) - 1]
    assert all(full for fresh, full, _ in seen if fresh)
    # a scoring given the last one scores every row when its bound keeps
    # fewer than half of them, and only then
    n = sm.segments.shape[0]
    assert all(full == (2 * (n - kept) > n) for fresh, full, kept in seen if not fresh)
    if case == "repair each iteration":
        assert all(repairs)
    else:
        assert any(not full for _, full, _ in seen)  # the bound skipped rows
    if case == "large steps":  # steps of lr 1 also empty buckets now and then
        assert any(full for fresh, full, _ in seen if not fresh)
    elif case != "repair each iteration":
        assert any(repairs) == (case == "repairs")


def test_rescore_takes_the_block_index_at_near_ties():
    # m rows near a far prototype that the set holds twice tie between the
    # copies, and no other row does. Scored again at the same prototypes,
    # only they are stale, and a gather of 2-64 rows takes OpenBLAS's
    # small-matrix path, where equal columns can score a last bit apart: 7
    # of these 6,754 gathered rows chose the later copy on a SkylakeX
    # build. Each tie must take the index its block gives it
    for seed in range(200):
        rng = np.random.default_rng(seed)
        p, k, m = int(rng.choice([4, 8, 16, 17])), int(rng.integers(2, 9)), int(rng.integers(2, 65))
        base, far = rng.standard_normal((k, p)), 8.0 + rng.standard_normal(p)
        protos = np.concatenate([base, [far, far]])
        near = far + 0.1 * rng.standard_normal((m, p))
        feats = clustering._features_t(np.concatenate([near, rng.standard_normal((3000, p))]))
        alpha = float(rng.choice([0.0, 0.2]))
        fnorm = _fnorm(feats)
        want = clustering._closest_rows(feats, protos, alpha).tobytes()
        last = clustering._rescore(feats, fnorm, protos, alpha, None)
        assert np.all(last.gap[:m] == 0.0)
        for _ in range(2):
            last = clustering._rescore(feats, fnorm, protos, alpha, last)
            assert last.idx.tobytes() == want


def test_the_bound_counts_a_change_of_prototype_norms():
    # at alpha=0 a row orthogonal to both prototypes scores only their
    # squared norms, 100 and 104.04; moving the first to norm 10.3 moves its
    # score by 6.09, more than twice ||f|| ||dw_1|| = 1.2
    segs = np.array([[0.0, 0.1], [0.0, -0.1]])
    feats = clustering._features_t(segs)
    fnorm = _fnorm(feats)
    protos = np.array([[10.0, 0.0], [-10.2, 0.0]])
    last = clustering._rescore(feats, fnorm, protos, 0.0, None)
    assert last.idx.tolist() == [0, 0]
    moved = np.array([[10.3, 0.0], [-10.2, 0.0]])
    assert clustering._rescore(feats, fnorm, moved, 0.0, last).idx.tolist() == [1, 1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31), n=st.integers(1, 300), k=st.integers(1, 6),
    p=st.integers(2, 6), alpha=st.floats(0, 2), log_move=st.floats(-8, 1),
)
def test_rows_the_bound_skips_keep_their_full_pass_index(seed, n, k, p, alpha, log_move):
    rng = np.random.default_rng(seed)
    segs = rng.standard_normal((n, p))
    protos = segs[rng.integers(0, n, size=k)] + 0.1 * rng.standard_normal((k, p))
    feats = clustering._features_t(segs)
    fnorm = _fnorm(feats)
    last = clustering._rescore(feats, fnorm, protos, alpha, None)
    moved = protos + 10.0**log_move * rng.standard_normal((k, p))
    out = clustering._rescore(feats, fnorm, moved, alpha, last)
    want = clustering._closest_rows(feats, moved, alpha)
    w_max, norm_max = max(out.w_max, last.w_max), max(out.norm_max, last.norm_max)
    gap, tau = clustering._decayed_gaps(last, fnorm, out.w, out.norms, w_max, norm_max)
    skipped = gap > tau
    assert last.idx[skipped].tobytes() == want[skipped].tobytes()
    assert out.idx.tobytes() == want.tobytes()


def test_rescore_scores_every_row_when_most_are_stale():
    # a step of a tenth of the prototypes' scale leaves ~89% of the gaps
    # at or below tau, and then the scoring is the one a full pass gives,
    # bounds included, not the kept rows' lowered gaps
    rng = np.random.default_rng(4)
    feats = clustering._features_t(rng.standard_normal((3000, 8)))
    fnorm = _fnorm(feats)
    protos = rng.standard_normal((6, 8))
    last = clustering._rescore(feats, fnorm, protos, 0.2, None)
    moved = protos + 0.1 * rng.standard_normal((6, 8))
    got = clustering._rescore(feats, fnorm, moved, 0.2, last)
    w_max, norm_max = max(got.w_max, last.w_max), max(got.norm_max, last.norm_max)
    gap, tau = clustering._decayed_gaps(last, fnorm, got.w, got.norms, w_max, norm_max)
    assert 2 * np.count_nonzero(~(gap > tau)) > feats.shape[1]
    want = clustering._rescore(feats, fnorm, moved, 0.2, None)
    assert got.idx.tobytes() == want.idx.tobytes()
    assert got.gap.tobytes() == want.gap.tobytes()
    assert (got.w_max, got.norm_max) == (want.w_max, want.norm_max)


@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("case", ["midpoints", "duplicates", "k1", "n1", "k=n"])
def test_rescore_from_the_seeds_scoring_equals_a_full_pass(case, alpha):
    # the seeding rounds score every row by GEMV, rounding otherwise than
    # the block GEMMs; their gaps stand only where the bound lets them
    rng = np.random.default_rng(23)
    if case == "midpoints":  # exact ties at alpha=0
        segs, k = _midpoint_rows(4097, 4097)[0], 16
    elif case == "duplicates":  # more seeds than distinct rows: seeds repeat
        segs, k = rng.standard_normal((3, 4))[rng.integers(0, 3, size=500)], 5
    elif case == "k1":
        segs, k = rng.standard_normal((50, 4)), 1
    elif case == "n1":
        segs, k = rng.standard_normal((1, 4)), 1
    else:
        segs, k = rng.standard_normal((40, 4)), 40
    feats = clustering._features_t(segs)
    sq = clustering._column_sq_norms(feats)
    protos, seeded = clustering._seed(feats, sq, k, alpha, np.random.default_rng(0))
    w, norms = clustering._score_terms(protos, alpha)
    assert seeded.w.tobytes() == w.tobytes() and seeded.norms.tobytes() == norms.tobytes()
    want = clustering._closest_rows(feats, protos, alpha)
    fnorm = np.sqrt(sq + 1.0)
    gap, tau = clustering._decayed_gaps(seeded, fnorm, w, norms, seeded.w_max, seeded.norm_max)
    full = clustering._rescore(feats, fnorm, protos, alpha, None)
    if k == 1:
        assert np.all(seeded.gap == np.inf) and np.all(full.gap == np.inf)
    else:  # the seeds' gaps are the block pass's, to rounding
        assert np.all(np.abs(seeded.gap - full.gap) <= tau)
    kept = gap > tau
    assert seeded.idx[kept].tobytes() == want[kept].tobytes()
    assert clustering._rescore(feats, fnorm, protos, alpha, seeded).idx.tobytes() == want.tobytes()
    if case == "duplicates":
        assert not kept.all()  # rows tie between repeated seeds and are scored again


def test_duplicate_prototype_rows_resolve_to_the_lowest_index():
    # 21 rows holding 5 distinct prototypes, with copies in the product's
    # edge columns. A lone row would go through gemv, whose equal columns
    # can score a last bit apart; scored that way, about 1 in 40 of these
    # single rows chose a later copy
    rng = np.random.default_rng(3)
    base = rng.standard_normal((5, 17))
    order = np.array([2, 1, 2, 0, 2, 0, 1, 4, 2, 0, 2, 0, 2, 1, 2, 3, 1, 1, 0, 3, 3])
    first = np.array([np.flatnonzero(order == b)[0] for b in range(5)])
    dup, distinct = PrototypeSet(base[order], alpha=0.2), PrototypeSet(base, alpha=0.2)
    segs = base[rng.integers(0, 5, size=2049)]
    segs[1::2] += rng.normal(0.0, 0.3, size=segs[1::2].shape)
    for rows in (segs, segs[:2], segs[:5]):
        assert nearest(rows, dup).tolist() == first[nearest(rows, distinct)].tolist()
    for row in segs[:400]:
        assert nearest(row, dup) == first[nearest(row, distinct)]


def test_nearest_never_holds_a_full_distance_matrix():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((100_000, 16))
    protos = PrototypeSet(rng.standard_normal((16, 16)), alpha=0.2)
    peak = traced_peak_bytes(lambda: nearest(x, protos))
    assert peak < 100_000 * 16 * 8


def test_fit_peak_memory_stays_within_its_bound():
    # fit keeps one (2p, n) feature array, which seeding reads too. The
    # seeding rounds and the incremental scoring add a few per-row vectors
    # (squared and feature norms, scores, score gaps, indices): 2.50x the
    # segments at this size, against 2.17x with a full pass per iteration
    x = np.random.default_rng(13).standard_normal((100_000, 16))
    sm = make_segments(x)
    peak = traced_peak_bytes(lambda: fit(sm, 16, 0.2, max_iters=3, tol=float("-inf"), seed=0))
    assert peak <= 3.2 * x.nbytes


# ------------------------------------------------------------------ loss


def test_loss_at_perfect_fit():
    rng = np.random.default_rng(3)
    protos_arr = rng.standard_normal((3, 6))
    segs = np.repeat(protos_arr, 4, axis=0)  # each bucket holds exact copies
    protos = PrototypeSet(protos_arr.copy(), alpha=0.2)
    sm = make_segments(segs)
    state = assign(sm, protos)
    total, rec, corr = clustering_loss(sm, protos, state)
    assert rec == pytest.approx(0.0, abs=1e-12)
    assert corr == pytest.approx(-3.0, abs=1e-12)
    assert total == pytest.approx(-0.2 * 3.0, abs=1e-12)


def test_loss_constant_centered_segments_hit_corr_convention():
    # segments [0,0] and [2,2] are flat, prototype sits at their mean
    protos = PrototypeSet(np.array([[1.0, 1.0]]), alpha=0.5)
    sm = make_segments([[0.0, 0.0], [2.0, 2.0]])
    state = assign(sm, protos)
    total, rec, corr = clustering_loss(sm, protos, state)
    assert rec == pytest.approx(0.0, abs=1e-12)
    assert corr == pytest.approx(0.0, abs=1e-12)
    assert total == pytest.approx(0.0, abs=1e-12)


def test_loss_uniform_displacement_costs_p_delta_sq():
    rng = np.random.default_rng(4)
    segs = rng.standard_normal((9, 5))
    delta = 0.37
    proto_arr = (segs.mean(axis=0) + delta)[None, :]
    protos = PrototypeSet(proto_arr, alpha=0.0)
    sm = make_segments(segs)
    state = assign(sm, protos)
    _, rec, _ = clustering_loss(sm, protos, state)
    assert rec == pytest.approx(5 * delta**2, rel=1e-12)


def test_loss_decomposes_as_rec_plus_alpha_corr():
    rng = np.random.default_rng(5)
    sm = make_segments(rng.standard_normal((30, 8)))
    protos = PrototypeSet(rng.standard_normal((4, 8)), alpha=0.7)
    state = assign(sm, protos)
    total, rec, corr = clustering_loss(sm, protos, state)
    assert total == pytest.approx(rec + 0.7 * corr, rel=1e-12)


def test_loss_ignores_empty_buckets():
    # second prototype is far away and attracts nothing
    sm = make_segments([[0.0, 0.1], [0.1, 0.0]])
    protos = PrototypeSet(np.array([[0.05, 0.05], [500.0, 500.0]]), alpha=0.2)
    state = assign(sm, protos)
    assert state.bucket_sizes.tolist() == [2, 0]
    total, rec, corr = clustering_loss(sm, protos, state)
    assert np.isfinite(total) and np.isfinite(rec) and np.isfinite(corr)


def test_bucket_sums_equal_add_at_bit_for_bit():
    # bucket 3 stays empty and bucket 4 holds one segment; rows span six
    # decades and buckets hold thousands of rows, so any other summation
    # order (a blocked one-hot GEMM, say) rounds differently
    rng = np.random.default_rng(12)
    n = 20_000
    segs = rng.standard_normal((n, 16)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    idx = rng.integers(0, 3, size=n)
    idx[123] = 4
    unit = clustering._center_unit(segs)
    counts, sums, unit_sums = clustering._bucket_stats(clustering._features_t(segs), idx, 5)
    want_sums = np.zeros((5, 16))
    np.add.at(want_sums, idx, segs)
    want_unit = np.zeros((5, 16))
    np.add.at(want_unit, idx, unit)
    assert counts.tolist() == np.bincount(idx, minlength=5).tolist()
    assert counts[3] == 0 and counts[4] == 1
    assert sums.tobytes() == want_sums.tobytes()
    assert unit_sums.tobytes() == want_unit.tobytes()
    assert sums[4].tobytes() == segs[123].tobytes()


# -------------------------------------------------------------- gradient


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    segs = rng.standard_normal((40, 7))
    protos_arr = rng.standard_normal((5, 7))
    alpha = 0.4
    sm = make_segments(segs)
    state = assign(sm, PrototypeSet(protos_arr.copy(), alpha=alpha))

    def loss_at(arr):
        ps = PrototypeSet(arr.copy(), alpha=alpha)
        return clustering_loss(sm, ps, state)[0]  # assignments held fixed

    analytic = clustering_loss_grad(sm, PrototypeSet(protos_arr.copy(), alpha=alpha), state)
    h = 1e-6
    fd = np.zeros_like(protos_arr)
    for j in range(5):
        for q in range(7):
            up = protos_arr.copy()
            up[j, q] += h
            down = protos_arr.copy()
            down[j, q] -= h
            fd[j, q] = (loss_at(up) - loss_at(down)) / (2 * h)
    rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
    assert rel <= 1e-5


def test_gradient_vanishes_at_stationary_prototypes():
    # each prototype equals its bucket mean and members are exact copies
    rng = np.random.default_rng(7)
    protos_arr = rng.standard_normal((3, 6))
    segs = np.repeat(protos_arr, 5, axis=0)
    protos = PrototypeSet(protos_arr.copy(), alpha=0.3)
    sm = make_segments(segs)
    grad = clustering_loss_grad(sm, protos, assign(sm, protos))
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_gradient_zero_for_empty_buckets():
    sm = make_segments([[0.0, 0.1], [0.1, 0.0]])
    protos = PrototypeSet(np.array([[0.05, 0.05], [500.0, 501.0]]), alpha=0.2)
    grad = clustering_loss_grad(sm, protos, assign(sm, protos))
    np.testing.assert_array_equal(grad[1], 0.0)


# ------------------------------------------------------------------- fit


def _planted_segments(seed, sigma=0.05):
    res = generate_synthetic(4, 2400, 4, sigma, seed=seed)
    return segment(res.dataset.values, 16), res.templates


def test_fit_reduces_loss_from_init():
    sm, _ = _planted_segments(0)
    init = fit(sm, 4, 0.2, max_iters=0, seed=0)
    fitted = fit(sm, 4, 0.2, seed=0)
    assert fitted.fit_meta.final_loss < init.fit_meta.final_loss


def test_fit_is_bit_deterministic():
    sm, _ = _planted_segments(1)
    a = fit(sm, 4, 0.2, max_iters=40, seed=3)
    b = fit(sm, 4, 0.2, max_iters=40, seed=3)
    np.testing.assert_array_equal(a.prototypes, b.prototypes)
    assert a.fit_meta == b.fit_meta


def test_fit_zero_iters_returns_seeded_segment_rows():
    rng = np.random.default_rng(8)
    segs = rng.standard_normal((25, 6))
    out = fit(make_segments(segs), 3, 0.2, max_iters=0, seed=4)
    assert out.fit_meta.iterations == 0
    # every starting prototype is literally one of the input segments
    for row in out.prototypes:
        assert np.any(np.all(segs == row, axis=1))


def _farthest_point_seeds(segs, k, alpha, seed):
    """fit's seeding rule from its definition: a seeded first pick, then
    each round the row farthest under `distance_matrix` from every pick so
    far, the lowest index on ties."""
    rng = seed_stream(seed, "init")
    chosen = [int(rng.integers(len(segs)))]
    d = np.full(len(segs), np.inf)
    for _ in range(k):
        np.minimum(d, distance_matrix(segs, segs[chosen[-1:]], alpha)[:, 0], out=d)
        d[chosen] = -np.inf
        chosen.append(int(np.argmax(d)))
    return segs[chosen[:k]]


@pytest.mark.parametrize("alpha", [0.0, 0.2, 2.0])
def test_fit_seeds_the_farthest_points_under_distance_matrix(alpha):
    # fit ranks rows by scores, not distances, so a pick can differ from
    # this rule only between rows whose distances agree to rounding. Exact
    # copies of one row can score a last bit apart, so on the copies the
    # rule fixes the seeds' values, not which copy is picked; the values
    # are what fit returns
    rng = np.random.default_rng(17)
    planted = _planted_segments(2)[0].segments
    copies = rng.standard_normal((6, 8))[rng.integers(0, 6, size=900)]
    for segs, k in [
        (rng.standard_normal((3000, 8)), 16),
        (rng.standard_normal((40, 3)), 40),
        (planted, 4),
        (planted, 16),
        (copies, 6),
    ]:
        for seed in range(3):
            got = fit(make_segments(segs), k, alpha, max_iters=0, seed=seed).prototypes
            assert got.tobytes() == _farthest_point_seeds(segs, k, alpha, seed).tobytes()


def test_fit_rejects_k_above_segment_count():
    with pytest.raises(ConfigError):
        fit(make_segments(np.zeros((3, 4))), 5, 0.2)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_fit_rejects_non_finite_alpha_before_computing_any_distance(monkeypatch, alpha):
    calls = []
    real = clustering._seed
    monkeypatch.setattr(clustering, "_seed", lambda *a: calls.append(1) or real(*a))
    with pytest.raises(ConfigError, match="alpha must be finite"):
        fit(make_segments(np.zeros((8, 4))), 2, alpha, max_iters=5)
    assert calls == []


def test_fit_rejects_a_seed_outside_int64():
    # the prototype file stores the seed as int64
    segs = make_segments(np.random.default_rng(3).standard_normal((20, 4)))
    with pytest.raises(ConfigError, match="seed"):
        fit(segs, 2, 0.2, max_iters=3, seed=2**64)


def test_fit_rejects_nan_tol_and_accepts_minus_inf():
    segs = make_segments(np.random.default_rng(3).standard_normal((20, 4)))
    with pytest.raises(ConfigError, match="tol"):
        fit(segs, 2, 0.2, max_iters=30, tol=float("nan"))
    assert fit(segs, 2, 0.2, max_iters=30, tol=-np.inf).fit_meta.iterations == 30


def test_fit_rejects_negative_max_iters_and_accepts_zero():
    segs = make_segments(np.random.default_rng(3).standard_normal((20, 4)))
    with pytest.raises(ConfigError, match="max_iters"):
        fit(segs, 2, 0.2, max_iters=-5)
    assert fit(segs, 2, 0.2, max_iters=0).fit_meta.iterations == 0


def test_fit_handles_duplicate_heavy_input():
    # only two distinct rows but k=2: fit should land on them exactly
    base = np.array([[0.0, 1.0, 0.0, -1.0], [3.0, 3.5, 4.0, 4.5]])
    segs = base[np.random.default_rng(9).integers(2, size=30)]
    out = fit(make_segments(segs), 2, 0.2, seed=0)
    got = out.prototypes[np.argsort(out.prototypes[:, 0])]
    np.testing.assert_allclose(got, base, atol=1e-9)


def test_fit_alpha_zero_tracks_one_lloyd_pass():
    """At alpha=0 the objective is k-means-like; the iterated fit must land
    within the optimizer's finite-step floor of a one-pass Lloyd jump.

    A fixed-lr AdamW oscillates around each bucket mean with amplitude
    O(lr) per coordinate, so exact rec=0 fixed points are approached but
    not hit; the slack below budgets k*p coordinates at a few multiples
    of lr^2 (measured worst excess over 20 seeds: 0.068).
    """
    rng = np.random.default_rng(1)
    segs = rng.standard_normal((200, 8)) + np.repeat(
        rng.uniform(-4, 4, (4, 8)), 50, axis=0
    )
    sm = make_segments(segs)
    init_ps = fit(sm, 4, 0.0, max_iters=0, seed=1)
    init_rec = clustering_loss(sm, init_ps, assign(sm, init_ps))[1]

    # one Lloyd pass from the same start: assign, then jump to bucket means
    d = distance_matrix(segs, init_ps.prototypes, 0.0)
    idx = np.argmin(d, axis=1)
    lloyd = init_ps.prototypes.copy()
    for j in range(4):
        members = segs[idx == j]
        if members.size:
            lloyd[j] = members.mean(axis=0)
    lloyd_protos = PrototypeSet(lloyd, alpha=0.0)
    lloyd_rec = clustering_loss(sm, lloyd_protos, assign(sm, lloyd_protos))[1]

    fitted = fit(sm, 4, 0.0, seed=1)
    final_rec = clustering_loss(sm, fitted, assign(sm, fitted))[1]
    assert final_rec <= lloyd_rec + 0.15
    assert final_rec <= init_rec / 100.0


def test_fit_recovers_noiseless_templates():
    res = generate_synthetic(4, 1600, 4, 0.0, seed=2)
    sm = segment(res.dataset.values, 16)
    out = fit(sm, 4, 0.2, seed=0)
    for proto in out.prototypes:
        rms = np.sqrt(((res.templates - proto) ** 2).mean(axis=1)).min()
        assert rms <= 1e-3


def _fit_from_public_calls(sm, start, alpha, iters):
    """fit's loop rebuilt from assign, distance_matrix, clustering_loss,
    clustering_loss_grad and AdamW, with the convergence stop off.
    Returns the best prototypes, their loss, and the repairs made."""
    def at(protos):
        return PrototypeSet(protos.copy(), alpha=alpha)

    protos = start.copy()
    adam = AdamW(CLUSTER_OPT_DEFAULTS)
    best, best_loss, repairs = protos.copy(), np.inf, 0
    for _ in range(iters):
        buckets = assign(sm, at(protos))
        empties = np.flatnonzero(buckets.bucket_sizes == 0)
        if empties.size:
            d = distance_matrix(sm.segments, protos, alpha)
            own = d[np.arange(sm.n), buckets.assignment]
            protos = protos.copy()
            protos[empties] = sm.segments[np.argsort(-own, kind="stable")[: empties.size]]
            buckets = assign(sm, at(protos))
            repairs += empties.size
        total = clustering_loss(sm, at(protos), buckets)[0]
        if total < best_loss:
            best, best_loss = protos.copy(), total
        grad = clustering_loss_grad(sm, at(protos), buckets)
        adam.step({"prototypes": protos}, {"prototypes": grad})
    total = clustering_loss(sm, at(protos), assign(sm, at(protos)))[0]
    if total < best_loss:
        best, best_loss = protos.copy(), total
    return best, best_loss, repairs


def test_fit_equals_loop_of_public_calls_bit_for_bit():
    # noiseless, with k above the 4 planted templates, so buckets go empty
    res = generate_synthetic(4, 800, 4, 0.0, seed=5)
    sm = segment(res.dataset.values, 16)
    start = fit(sm, 6, 0.2, max_iters=0, seed=1).prototypes
    best, best_loss, repairs = _fit_from_public_calls(sm, start, 0.2, 12)
    out = fit(sm, 6, 0.2, max_iters=12, tol=float("-inf"), seed=1)
    assert repairs > 0
    assert out.prototypes.tobytes() == best.tobytes()
    assert out.fit_meta.final_loss == best_loss
    assert out.fit_meta.iterations == 12


def test_fit_reseeds_empty_buckets_at_the_farthest_segments_under_distance_matrix(monkeypatch):
    # 3,000 noiseless copies of 4 templates (two assignment blocks), k=6
    templates = generate_synthetic(4, 800, 4, 0.0, seed=5).templates
    sm = make_segments(templates[np.random.default_rng(0).integers(0, 4, size=3000)])
    real, seen = clustering._repair_empty, []

    def repair(segs, feats_t, protos, alpha, idx):
        out = real(segs, feats_t, protos, alpha, idx)
        seen.append((protos.copy(), idx.copy(), out[0].copy()))
        return out

    monkeypatch.setattr(clustering, "_repair_empty", repair)
    fit(sm, 6, 0.2, max_iters=12, tol=float("-inf"), seed=1)
    repairs = 0
    for protos, idx, got in seen:
        empties = np.flatnonzero(np.bincount(idx, minlength=6) == 0)
        own = distance_matrix(sm.segments, protos, 0.2)[np.arange(sm.n), idx]
        want = protos.copy()
        want[empties] = sm.segments[np.argsort(-own, kind="stable")[: empties.size]]
        assert got.tobytes() == want.tobytes()
        repairs += empties.size
    assert repairs > 0


@pytest.mark.parametrize("iters", [0, 25])
def test_clustering_loss_equals_the_loss_fit_records(iters):
    # fit and the public loss share one objective, so the bits agree
    sm, _ = _planted_segments(4)
    out = fit(sm, 4, 0.2, max_iters=iters, tol=float("-inf"), seed=2)
    total = clustering_loss(sm, out, assign(sm, out))[0]
    assert total == out.fit_meta.final_loss


def test_fit_result_is_read_only():
    sm, _ = _planted_segments(3)
    out = fit(sm, 4, 0.2, max_iters=10, seed=0)
    with pytest.raises(ValueError):
        out.prototypes[0, 0] = 99.0


def test_loss_evaluation_time_scales_linearly():
    """Doubling n about doubles the loss evaluation time.

    Both sizes put every full-size array (38 and 77 MB) beyond L2 and
    beyond glibc malloc's 32 MiB ceiling for reusing freed heap blocks, so
    each call of either size works on freshly mapped pages. Between those
    limits (20k/40k straddles the 4 MiB L2, 80k/160k the heap ceiling) the
    ratio times a memory-regime cliff instead of O(n). Small and big calls
    alternate, so a change in host speed hits both medians alike.
    """
    rng = np.random.default_rng(11)
    protos = PrototypeSet(rng.standard_normal((8, 16)), alpha=0.2)
    cases = []
    for n in (300_000, 600_000):
        sm = make_segments(rng.standard_normal((n, 16)))
        cases.append((sm, protos, assign(sm, protos)))

    def eval_ns(case):
        t0 = time.perf_counter_ns()
        clustering_loss(*case)
        return time.perf_counter_ns() - t0

    eval_ns(cases[0])  # warm up before measuring
    times = np.array([[eval_ns(case) for case in cases] for _ in range(7)])
    ratio = np.median(times[:, 1]) / np.median(times[:, 0])
    assert 1.6 <= ratio <= 2.4


@pytest.mark.parametrize("max_iters, early", [(500, True), (12, False)])
def test_fit_scores_each_prototype_state_once(monkeypatch, max_iters, early):
    # an early stop has scored its last state already; only a fit that runs
    # out of iterations scores the state its last step made, after the loop.
    # `_rescore` scores each state; `_closest_rows` runs only in a repair
    sm, _ = _planted_segments(0)
    scorings, closest, in_repairs = [], [], []
    real_rescore, real_closest = clustering._rescore, clustering._closest_rows
    real_repair = clustering._repair_empty

    def repair(*a):
        before = len(closest)
        out = real_repair(*a)
        in_repairs.append(len(closest) - before)
        return out

    monkeypatch.setattr(clustering, "_rescore", lambda *a: scorings.append(1) or real_rescore(*a))
    monkeypatch.setattr(clustering, "_closest_rows", lambda *a: closest.append(1) or real_closest(*a))
    monkeypatch.setattr(clustering, "_repair_empty", repair)
    iters = fit(sm, 4, 0.2, max_iters=max_iters, seed=0).fit_meta.iterations
    assert (iters < max_iters) == early
    assert len(scorings) == iters + (not early)
    assert len(closest) == sum(in_repairs)
