"""Offline prototype discovery over time series segments.

Alternates hard bucket assignment under a composite metric (squared
Euclidean distance plus a weighted Pearson-correlation penalty) with AdamW
refinement of the prototypes against a reconstruction + correlation loss.

The segments never change during a fit, so `fit` builds one feature
array once, `_features_t`: the rows and their centred-unit rows,
transposed to (2p, n). Every assignment and bucket-statistics pass reads
it. Loss and gradient come from one pass, `_objective`, over each
iteration's one set of bucket statistics. The public functions build the
same features from the segments per call, so they equal `fit`'s internal
path bit for bit.

Assignment ranks prototypes by a score, not by their distance. For a
row s with centred-unit row u, the distance to prototype c (centred-unit
row v) is ||s||^2 - 2 s.c + ||c||^2 + alpha - alpha u.v. The terms ||s||^2
and alpha are the same for every prototype, so they cannot move the
argmin, and `_closest_rows` takes the argmin of

    score = [s, u] @ [-2 P^T ; -alpha V^T] + ||c||^2,

one GEMM over the 2p features and one add. The score rounds in another
order than `distance_matrix`, and it drops the clamp max(., 0) that
`distance_matrix` puts on the Euclidean part; the clamp acts only when
||s - c||^2 rounds below zero, that is, when s equals c to rounding. So
the chosen index can differ from the argmin of `distance_matrix` only
between prototypes whose distances agree to rounding.

Rows are scored in ceil(n / 2048) near-equal blocks, so no (n, k) matrix
is built and each block's scores stay in cache. `fit` and `nearest` cut
the same blocks, so they choose the same indices. Near-equal blocks have
more than 1,024 rows whenever there are two or more, because OpenBLAS
sends a one-row product through gemv: its sums can differ in the last
bit from the GEMM row, and equal prototype columns can score a last bit
apart. So a lone row (n = 1) is scored as two.

Bucket sums are one `np.bincount(idx, weights=row)` per feature row,
which adds the segments in order and so equals `np.add.at` bit for bit.
True distances (`_distances`) are computed only to re-seed an empty
bucket and in `distance_matrix`. The re-seed computes them block by
block, which gives `distance_matrix`'s rows bit for bit.

`fit` seeds by farthest point (Gonzalez 1985) from the same feature
array (`_seed`): after a seeded first pick, each round takes the row
farthest from every seed so far, the lowest index on ties. A row's
distance to a seed is ||s||^2 + alpha plus its score, so each round
scores every row for its new seed with one GEMV and keeps each row's
best and second-best score. A pick can differ from the argmax under
`distance_matrix` only between rows whose distances agree to rounding.
The k rounds leave each row's nearest seed and score gap: a scoring that
the first iteration starts from, as if after a step of size zero.

One AdamW step moves the prototypes little, so `fit` scores again only
the rows a step can move (`_rescore`), and its indices still equal
`_closest_rows`' bit for bit.
Write a row's score for prototype j as f.w_j + n_j, with f = [s, u], w_j
the j-th column of the weights above and n_j = ||c_j||^2. A step moves it
by f.dw_j + dn_j, at most ||f|| ||dw_j|| + |dn_j| by Cauchy-Schwarz, and
||f|| <= sqrt(||s||^2 + 1) is computed once per fit. So each row keeps
its gap, second-best minus best score, from its last scoring, less
2 (||f|| max_j ||dw_j|| + max_j |dn_j|) for every step since, rounded
down. A row whose gap is still above tau keeps its index.

tau bounds rounding. In any order of summation, the seeding rounds'
GEMV included, a computed score is within (2p + 1) u (||f|| ||w_j|| +
n_j) of f.w_j + n_j, where u = 2^-53, so within eps = (2p + 2) u (||f|| W
+ N), where W and N are the largest ||w_j|| and n_j since the last full
pass (which covers the row's last scoring; the seeding rounds count as
one). The recorded gap and a full pass each err by at most 2 eps, so a
gap above 4 eps, about 8.9e-16 (p + 1) (||f|| W + N), leaves the full
pass's argmin where it was, with no tie. `_rescore` takes
tau = 1e-12 (p + 1) (||f|| W + N), about 1,100 times that, which also
covers the rounding of the bound itself.

The rows at or below tau are scored again in gathers of at most 2,048
columns. OpenBLAS can round a gathered row otherwise than the same row
inside its block (its small-matrix path), but within eps per score, so a
fresh gap above tau gives the block's index too. A row whose fresh gap is
not above tau, as at duplicate prototypes or at a midpoint at alpha = 0,
takes its index from its own block, scored as `_closest_rows` scores it.
The first iteration after an empty bucket is re-seeded, and any whose
step leaves more than half the rows at or below tau (as large learning
rates do), score every row that way, since a full pass of block GEMMs
costs less than gathering most of the columns.

Every iteration sums every bucket again with `_bucket_stats`, also when
no index moved: reusing the last sums then would make a fit's cost
depend on how many of its steps move a row, that is, on the data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import SegmentMatrix
from .errors import ConfigError, NumericalError, ShapeError
from .optim import AdamW, OptimizerConfig
from .util import seed_stream

CORR_NORM_FLOOR = 1e-12

# engineering defaults; weight decay stays 0 so prototypes are not pulled
# toward zero against the reconstruction term
CLUSTER_OPT_DEFAULTS = OptimizerConfig(lr=1e-2, weight_decay=0.0)
DEFAULT_MAX_ITERS = 500
DEFAULT_TOL = 1e-5
_TOL_WINDOW = 10
_BLOCK_ROWS = 2048  # rows per assignment block: 2048 x 16 float64 is 256 KiB
_TAU = 1e-12  # the rescore threshold per unit of (p + 1) x score scale; see above


@dataclass(frozen=True)
class FitMeta:
    iterations: int
    final_loss: float
    seed: int


@dataclass(frozen=True)
class PrototypeSet:
    """k learned length-p prototypes plus their clustering hyperparameters."""

    prototypes: np.ndarray  # (k, p)
    alpha: float
    fit_meta: FitMeta | None = None

    def __post_init__(self):
        if self.prototypes.ndim != 2:
            raise ConfigError("prototypes must be a k x p matrix")
        if self.k < 1 or self.p < 2:
            raise ConfigError(f"need k >= 1 and p >= 2, got k={self.k}, p={self.p}")
        if not 0 <= self.alpha < np.inf:  # NaN too
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not np.all(np.isfinite(self.prototypes)):
            raise NumericalError("non-finite value in tensor 'prototypes'")
        self.prototypes.flags.writeable = False

    @property
    def k(self) -> int:
        return self.prototypes.shape[0]

    @property
    def p(self) -> int:
        return self.prototypes.shape[1]


@dataclass(frozen=True)
class BucketState:
    """Per-segment prototype index plus per-bucket member counts."""

    assignment: np.ndarray  # (n,) int64
    bucket_sizes: np.ndarray  # (k,) int64


def _center_unit(x: np.ndarray) -> np.ndarray:
    """Center rows and scale to unit norm; degenerate rows become zeros."""
    out = x - x.mean(axis=-1, keepdims=True)
    norm = np.linalg.norm(out, axis=-1, keepdims=True)
    flat = norm < CORR_NORM_FLOOR
    norm[flat] = 1.0
    out /= norm
    np.copyto(out, 0.0, where=flat)
    return out


def pearson_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation, with the constant-vector convention corr = 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac = a - a.mean()
    bc = b - b.mean()
    na = np.linalg.norm(ac)
    nb = np.linalg.norm(bc)
    if na < CORR_NORM_FLOOR or nb < CORR_NORM_FLOOR:
        return 0.0
    return float(np.dot(ac, bc) / (na * nb))


def distance(seg: np.ndarray, proto: np.ndarray, alpha: float) -> float:
    """Composite metric: squared L2 plus alpha * (1 - Pearson correlation)."""
    diff = np.asarray(seg, dtype=np.float64) - np.asarray(proto, dtype=np.float64)
    return float(np.dot(diff, diff) + alpha * (1.0 - pearson_corr(seg, proto)))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return (x * x).sum(axis=1)


def _proto_terms(protos: np.ndarray):
    """The prototype side of `_distances`: (2P)^T, squared norms and
    centred-unit rows transposed. Scaling by 2 is exact."""
    return (2.0 * protos).T, _sq_norms(protos), _center_unit(protos).T


def _distances(
    segments: np.ndarray, sq: np.ndarray, unit: np.ndarray, terms, alpha: float
) -> np.ndarray:
    """distance_matrix given the segments' squared norms and centred-unit
    rows and the prototype terms; in place, in distance_matrix's op order."""
    two_t, norms, unit_t = terms
    d = segments @ two_t
    np.subtract(sq[:, None], d, out=d)
    d += norms
    np.maximum(d, 0.0, out=d)
    corr = unit @ unit_t
    np.subtract(1.0, corr, out=corr)
    corr *= alpha
    d += corr
    return d


def distance_matrix(segments: np.ndarray, protos: np.ndarray, alpha: float) -> np.ndarray:
    """Pairwise composite distances, (n, k)."""
    return _distances(
        segments, _sq_norms(segments), _center_unit(segments), _proto_terms(protos), alpha
    )


def _blocks(n: int) -> list[tuple[int, int]]:
    """(lo, hi) of ceil(n / 2048) near-equal row blocks: none has one row
    unless n does."""
    blocks = max(1, -(-n // _BLOCK_ROWS))
    edges = [n * b // blocks for b in range(blocks + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _features_t(rows: np.ndarray) -> np.ndarray:
    """The (n, p) rows and their centred-unit rows, transposed: (2p, n).
    Built block by block, so no (n, p) temporary sits beside it."""
    n, p = rows.shape
    out = np.empty((2 * p, n))
    for lo, hi in _blocks(n):
        out[:p, lo:hi] = rows[lo:hi].T
        out[p:, lo:hi] = _center_unit(rows[lo:hi]).T
    return out


def _score_terms(protos: np.ndarray, alpha: float):
    """The score weights [-2 P^T ; -alpha V^T], (2p, k), and ||c||^2."""
    return np.concatenate([-2.0 * protos.T, -alpha * _center_unit(protos).T]), _sq_norms(protos)


def _block_scores(feats_t: np.ndarray, lo: int, hi: int, w: np.ndarray, norms: np.ndarray):
    """The scores of the `_blocks` block lo:hi, (hi - lo, k)."""
    f = feats_t[:, lo:hi]
    if hi - lo == 1:  # two rows take the GEMM path, whose equal columns score equal
        f = np.repeat(f, 2, axis=1)
    d = f.T @ w
    d += norms
    return d[: hi - lo]


def _closest_rows(feats_t: np.ndarray, protos: np.ndarray, alpha: float) -> np.ndarray:
    """Each row's nearest prototype, (n,) int64, from its `_features_t`
    column; the lowest index wins ties.

    Takes the argmin of the score -2 s.c - alpha u.v + ||c||^2, block by
    block; see the module docstring. It can differ from the argmin of
    `distance_matrix` only between prototypes whose distances agree to
    rounding.
    """
    w, norms = _score_terms(protos, alpha)
    idx = np.empty(feats_t.shape[1], dtype=np.int64)
    for lo, hi in _blocks(feats_t.shape[1]):
        idx[lo:hi] = np.argmin(_block_scores(feats_t, lo, hi, w, norms), axis=1)
    return idx


def _best_two(d: np.ndarray):
    """Each row's argmin, the lowest index on ties, and its second-best
    minus best score (inf when k = 1); overwrites d."""
    idx = np.argmin(d, axis=1)
    rows = np.arange(d.shape[0])
    best = d[rows, idx]
    d[rows, idx] = np.inf
    second = d[:, 0].copy()
    for col in d.T[1:]:  # d.min(axis=1) runs numpy's inner loop once per k-wide row
        np.minimum(second, col, out=second)
    return idx, second - best


@dataclass(frozen=True)
class _Scoring:
    """Each row's nearest prototype under the score weights w and norms,
    and a lower bound on its gap, second-best minus best score."""

    idx: np.ndarray  # (n,) int64
    gap: np.ndarray  # (n,)
    w: np.ndarray  # (2p, k)
    norms: np.ndarray  # (k,)
    w_max: float  # the largest ||w_j|| since the last full pass
    norm_max: float  # the largest ||c_j||^2 since the last full pass


def _column_sq_norms(feats_t: np.ndarray) -> np.ndarray:
    """||s||^2 per `_features_t` column, summed row by row, with no (2p, n)
    temporary."""
    p = feats_t.shape[0] // 2
    return np.einsum("ij,ij->j", feats_t[:p], feats_t[:p])


def _decayed_gaps(last: _Scoring, fnorm: np.ndarray, w: np.ndarray, norms: np.ndarray,
                  w_max: float, norm_max: float):
    """Each row's gap under the score weights w and norms, bounded below
    from its last scoring, and the threshold tau above which its index
    cannot change; see the module docstring."""
    dw = np.linalg.norm(w - last.w, axis=0).max()
    dn = np.abs(norms - last.norms).max()
    gap = last.gap - 2.0 * (fnorm * dw + dn)
    gap *= 1.0 - 2.0**-52  # a positive gap one ulp down, below the exact difference
    tau = _TAU * (w.shape[0] // 2 + 1) * (fnorm * w_max + norm_max)
    return gap, tau


def _full_pass(feats_t: np.ndarray, w: np.ndarray, norms: np.ndarray):
    """Each row's index and score gap, block by block as in `_closest_rows`."""
    n = feats_t.shape[1]
    idx, gap = np.empty(n, dtype=np.int64), np.empty(n)
    for lo, hi in _blocks(n):
        idx[lo:hi], gap[lo:hi] = _best_two(_block_scores(feats_t, lo, hi, w, norms))
    return idx, gap


def _rescore(
    feats_t: np.ndarray, fnorm: np.ndarray, protos: np.ndarray, alpha: float,
    last: _Scoring | None,
) -> _Scoring:
    """`_closest_rows(feats_t, protos, alpha)` bit for bit, with each row's
    score gap; fnorm is sqrt(||s||^2 + 1) per row. Given the last scoring,
    only the rows whose gap the step may have closed are scored again,
    unless they are more than half the rows; otherwise every row is, block
    by block as in `_closest_rows`.
    """
    n = feats_t.shape[1]
    w, norms = _score_terms(protos, alpha)
    w_max, norm_max = float(np.linalg.norm(w, axis=0).max()), float(norms.max())
    if last is None:
        return _Scoring(*_full_pass(feats_t, w, norms), w, norms, w_max, norm_max)
    held_max = max(w_max, last.w_max), max(norm_max, last.norm_max)
    gap, tau = _decayed_gaps(last, fnorm, w, norms, *held_max)
    stale = np.flatnonzero(~(gap > tau))  # NaN too
    if 2 * stale.size > n:  # then one pass over every block costs less than the gathers
        return _Scoring(*_full_pass(feats_t, w, norms), w, norms, w_max, norm_max)
    w_max, norm_max = held_max
    idx = last.idx.copy()
    for lo in range(0, stale.size, _BLOCK_ROWS):
        rows = stale[lo : lo + _BLOCK_ROWS]
        d = feats_t[:, rows].T @ w
        d += norms
        idx[rows], gap[rows] = _best_two(d)
    near = stale[~(gap[stale] > tau[stale])]  # near ties: the block's own product decides
    if near.size:
        for lo, hi in _blocks(n):
            rows = near[np.searchsorted(near, lo) : np.searchsorted(near, hi)]
            if rows.size:
                d = _block_scores(feats_t, lo, hi, w, norms)[rows - lo]
                idx[rows], gap[rows] = _best_two(d)
    return _Scoring(idx, gap, w, norms, w_max, norm_max)


def _sizes(idx: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(idx, minlength=k).astype(np.int64)


def nearest(segments: np.ndarray, protos: PrototypeSet) -> np.ndarray:
    """Index of each (..., p) segment's nearest prototype under the
    composite metric, (...) int64; the lowest index wins ties."""
    segments = np.asarray(segments, dtype=np.float64)
    if segments.shape[-1:] != (protos.p,):
        raise ShapeError(f"segments must be (..., {protos.p}), got {segments.shape}")
    rows = segments.reshape(-1, protos.p)
    idx = np.empty(rows.shape[0], dtype=np.int64)
    for lo, hi in _blocks(rows.shape[0]):
        idx[lo:hi] = _closest_rows(_features_t(rows[lo:hi]), protos.prototypes, protos.alpha)
    return idx.reshape(segments.shape[:-1])


def assign(segments: SegmentMatrix, protos: PrototypeSet) -> BucketState:
    """Map every segment to its nearest prototype under the composite metric."""
    idx = nearest(segments.segments, protos)
    return BucketState(assignment=idx, bucket_sizes=_sizes(idx, protos.k))


def _bucket_stats(feats_t: np.ndarray, idx: np.ndarray, k: int):
    """Per-bucket counts, segment sums, and sums of centered-unit rows.

    Each sum is one bincount per `_features_t` row, which adds the rows in
    segment order: the same additions as np.add.at, far cheaper.
    """
    p = feats_t.shape[0] // 2
    cols = [np.bincount(idx, weights=row, minlength=k) for row in feats_t]
    return _sizes(idx, k).astype(np.float64), np.stack(cols[:p], 1), np.stack(cols[p:], 1)


def _objective(stats, protos: np.ndarray, alpha: float):
    """(total, reconstruction, correlation, gradient) of the loss at fixed
    bucket statistics, from one pass over them."""
    counts, sums, unit_sums = stats
    nonempty = counts > 0
    means = np.where(nonempty[:, None], sums / np.maximum(counts, 1.0)[:, None], protos)
    diff = protos - means
    rec = float((diff[nonempty] ** 2).sum())
    proto_unit = _center_unit(protos)
    # sum of corr(seg, c_j) over members of bucket j, then average per bucket
    corr_sums = (unit_sums * proto_unit).sum(axis=1)
    corr = -float((corr_sums[nonempty] / counts[nonempty]).sum())

    grad = 2.0 * diff
    grad[~nonempty] = 0.0
    # d corr(s, c)/dc = (u_s - corr * v_c) / ||c - mean(c)||, already centered
    cnorm = np.linalg.norm(protos - protos.mean(axis=1, keepdims=True), axis=1)
    ok = nonempty & (cnorm >= CORR_NORM_FLOOR)
    corr_grad = np.zeros_like(protos)
    corr_grad[ok] = (
        -(alpha / counts[ok, None])
        * (unit_sums[ok] - corr_sums[ok, None] * proto_unit[ok])
        / cnorm[ok, None]
    )
    return rec + alpha * corr, rec, corr, grad + corr_grad


def _public_objective(segments: SegmentMatrix, protos: PrototypeSet, buckets: BucketState):
    stats = _bucket_stats(_features_t(segments.segments), buckets.assignment, protos.k)
    return _objective(stats, protos.prototypes, protos.alpha)


def clustering_loss(
    segments: SegmentMatrix, protos: PrototypeSet, buckets: BucketState
) -> tuple[float, float, float]:
    """(total, reconstruction, correlation) loss at fixed assignments.

    reconstruction sums each prototype's squared distance to its bucket
    mean; correlation is the negated per-bucket mean Pearson correlation.
    Empty buckets contribute zero to both terms.
    """
    return _public_objective(segments, protos, buckets)[:3]


def clustering_loss_grad(
    segments: SegmentMatrix, protos: PrototypeSet, buckets: BucketState
) -> np.ndarray:
    """Analytic gradient of the total loss w.r.t. each prototype row."""
    return _public_objective(segments, protos, buckets)[3]


def _seed(feats_t: np.ndarray, sq: np.ndarray, k: int, alpha: float, rng: np.random.Generator):
    """Greedy farthest-point seeding under the composite metric, from the
    `_features_t` columns and their squared norms sq, so well-separated
    clusters each receive a starting prototype. Returns the k seeds and
    their scoring, each row's nearest seed and score gap from one GEMV
    per seed; see the module docstring.
    """
    n, p = feats_t.shape[1], feats_t.shape[0] // 2
    far = sq + alpha
    best, second, idx = np.full(n, np.inf), np.full(n, np.inf), np.zeros(n, dtype=np.int64)
    s, tmp = np.empty(n), np.empty(n)
    chosen, cols = [int(rng.integers(n))], []
    for j in range(k):
        cols.append(_score_terms(feats_t[:p, [chosen[j]]].T, alpha))
        w, norm = cols[-1]
        np.matmul(w[:, 0], feats_t, out=s)
        s += norm[0]
        np.minimum(second, np.maximum(best, s, out=tmp), out=second)
        np.copyto(idx, j, where=s < best)  # strict: the lowest index wins ties
        np.minimum(best, s, out=best)
        if j + 1 < k:
            d = np.add(far, best, out=tmp)
            d[chosen] = -np.inf
            chosen.append(int(np.argmax(d)))
    w, norms = np.concatenate([c[0] for c in cols], axis=1), np.concatenate([c[1] for c in cols])
    scoring = _Scoring(
        idx, second - best, w, norms, float(np.linalg.norm(w, axis=0).max()), float(norms.max())
    )
    return np.ascontiguousarray(feats_t[:p, chosen].T), scoring


def _repair_empty(
    segments: np.ndarray, feats_t: np.ndarray, protos: np.ndarray, alpha: float,
    idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-seed empty buckets to the segments farthest from their prototype
    under `distance_matrix`; idx is each segment's nearest prototype."""
    empties = np.flatnonzero(_sizes(idx, protos.shape[0]) == 0)
    if empties.size == 0:
        return protos, idx
    terms = _proto_terms(protos)
    own = np.empty(segments.shape[0])
    for lo, hi in _blocks(segments.shape[0]):  # distance_matrix's rows, block by block
        rows = segments[lo:hi]
        d = _distances(rows, _sq_norms(rows), _center_unit(rows), terms, alpha)
        own[lo:hi] = d[np.arange(hi - lo), idx[lo:hi]]
    order = np.argsort(-own, kind="stable")
    protos = protos.copy()
    protos[empties] = segments[order[: empties.size]]
    return protos, _closest_rows(feats_t, protos, alpha)


def fit(
    segments: SegmentMatrix,
    k: int,
    alpha: float,
    lr: float = CLUSTER_OPT_DEFAULTS.lr,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> PrototypeSet:
    """Learn k prototypes from segments by alternating assign/refine steps.

    Each outer iteration refreshes assignments (repairing empty buckets),
    then takes one AdamW step of learning rate lr (the other settings are
    CLUSTER_OPT_DEFAULTS) on the prototypes against the analytic loss
    gradient. Stops when the relative loss improvement over a 10-iteration
    window falls below tol, or at max_iters. Returns the best state seen,
    so the final loss never exceeds the initial one; deterministic given
    identical inputs and seed.
    """
    segs = np.asarray(segments.segments, dtype=np.float64)
    n, p = segs.shape
    if k < 1 or k > n:
        raise ConfigError(f"k must be in [1, {n}], got {k}")
    if not 0 <= alpha < np.inf:  # NaN too
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    if np.isnan(tol):  # it would fail every stop test and run all max_iters; -inf is valid
        raise ConfigError("tol must not be NaN")
    if max_iters < 0:
        raise ConfigError(f"max_iters must be >= 0, got {max_iters}")
    rng = seed_stream(seed, "init")
    adam = AdamW(replace(CLUSTER_OPT_DEFAULTS, lr=lr))
    feats = _features_t(segs)
    sq = _column_sq_norms(feats)
    protos, scored = _seed(feats, sq, k, alpha, rng)
    sq += 1.0  # seeding is done with it
    fnorm = np.sqrt(sq, out=sq)  # bounds ||[s, u]||, since ||u|| <= 1

    losses: list[float] = []
    best_loss = np.inf
    best = protos.copy()
    iters = 0
    for it in range(max_iters):
        iters = it + 1
        scored = _rescore(feats, fnorm, protos, alpha, scored)
        protos, idx = _repair_empty(segs, feats, protos, alpha, scored.idx)
        if idx is not scored.idx:  # a re-seeded bucket: the next pass scores every row
            scored = None
        total, _, _, grad = _objective(_bucket_stats(feats, idx, k), protos, alpha)
        losses.append(total)
        if total < best_loss:
            best_loss = total
            best = protos.copy()
        if len(losses) > _TOL_WINDOW:
            prev = losses[-1 - _TOL_WINDOW]
            if (prev - total) < tol * max(abs(prev), 1e-12):
                break
        adam.step({"prototypes": protos}, {"prototypes": grad})
    else:  # no early stop, so the last step's prototypes are not scored yet
        idx = _rescore(feats, fnorm, protos, alpha, scored).idx
        total = _objective(_bucket_stats(feats, idx, k), protos, alpha)[0]
        if total < best_loss:
            best_loss = total
            best = protos.copy()
    return PrototypeSet(best, alpha, FitMeta(iters, best_loss, seed))
