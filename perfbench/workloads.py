"""The three workloads: set-up, the untraced measurement, the traced pass
and the correctness checks.

Each workload is a closed loop with a single caller: the next call starts
when the previous one returns. Untraced, it times only the calls a user
makes (`training.train`, `model.forecast_window` and `training.evaluate`,
`clustering.fit`). The traced pass rebuilds the same work from the
modules' public functions with a span around each call, and then probes
the layers the workload does not use, so every workload reports every
per-layer metric.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from focus_forecast import autodiff as ad
from focus_forecast import clustering, container, data, model, protoattn, training
from focus_forecast.errors import FocusError
from focus_forecast.optim import AdamW, OptimizerConfig

from inputs import ALPHA, K, P, Geometry
from tracer import Tracer

GEOMETRY = {
    # ETTh1 model geometry on a short series: 131 train, 29 val, 70 test windows
    "train": Geometry(n_steps=2048, n_entities=7, ratio=(0.36, 0.31, 0.33)),
    # ETTh1 length and split: 2,878 test windows, 5,334 train segments
    "infer": Geometry(n_steps=17420, n_entities=7, ratio=(0.7, 0.1, 0.2)),
    # 48,405 train segments; only the fit and the probes use it
    "fit": Geometry(n_steps=52696, n_entities=21, ratio=(0.7, 0.1, 0.2)),
}
TRAIN_EPOCHS = 3
FIT_ITERS = 10
BATCH = 32
EVAL_BATCH = 64  # training.evaluate's batch size
EVAL_CHUNK = 8 * EVAL_BATCH  # infer's windows per evaluate call
SETUP_REPS = 3  # at least; more while the set-ups so far took under SETUP_SECONDS
SETUP_SECONDS = 1.0
MIN_CALLS = 2
# B=1 and B=64 runs may take different BLAS kernels, so sums can differ
# in the last bits; anything near this bound is a real disagreement
B1_TOLERANCE = 1e-9
# how much of each layer the traced pass runs, beyond the workload's own loop
PROBES = {
    "train": {"steps": 0, "b1": 16, "b64": 2, "fit_iters": 5, "stride": 1},
    "infer": {"steps": 4, "b1": 256, "b64": 8, "fit_iters": 5, "stride": 1},
    "fit": {"steps": 4, "b1": 16, "b64": 1, "stride": 150},
}
# the loop whose AdamW steps optim.adamw_step_ms reports
ADAMW_PARENT = {"train": "training.step", "infer": "training.step", "fit": "clustering.fit_iter"}


@dataclass
class Run:
    """Operation counts and check outcomes of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)

    def op(self, fn, *args, finite, **kwargs):
        """Call fn; a FocusError or a non-finite `finite(output)` is a
        failed operation and gives None, and the run goes on."""
        try:
            out = fn(*args, **kwargs)
        except FocusError as e:
            self.attempted += 1
            self.failed += 1
            print(f"failed: {fn.__module__}.{fn.__qualname__}: {e}")
            return None
        return out if self.outcome(finite(out)) else None

    def outcome(self, value) -> bool:
        """Count one attempted operation that produced `value`; it failed
        if any entry is non-finite."""
        self.attempted += 1
        if np.all(np.isfinite(value)):
            return True
        self.failed += 1
        self.check("outputs are finite", False)
        print("failed: non-finite output")
        return False

    def check(self, name: str, ok) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def _timed_loop(seconds: float, call, min_calls: int = MIN_CALLS) -> None:
    """Call `call()` until `seconds` have passed, at least `min_calls` times."""
    deadline = perf_counter() + seconds
    n = 0
    while n < min_calls or perf_counter() < deadline:
        call()
        n += 1


# ---------------------------------------------------------------- set-up


def setup(workload: str, inputs) -> dict:
    """What a user pays before the work starts; returns the loaded state."""
    geo = GEOMETRY[workload]
    if workload == "infer":  # the `focus eval` path
        params, norm, ratio = container.load_model(inputs.model)
        ds = data.normalize_with(data.load_csv(inputs.csv), norm[0], norm[1], ratio)
        x, y = training.stack_windows(data.make_windows(ds, geo.lookback, geo.horizon, "test"))
        return {"params": params, "norm": norm, "x": x, "y": y}
    ds = data.split_and_normalize(data.load_csv(inputs.csv), geo.ratio)
    if workload == "train":
        return {"ds": ds, "protos": container.load_prototypes(inputs.protos)}
    return {"segments": data.segment(ds.values[: ds.split[0]], P)}


def timed_setup(workload: str, inputs, reps: int) -> tuple[dict, float]:
    """Set up at least `reps` times, and until SETUP_SECONDS have passed,
    up to 25 times; return the last state and the median seconds."""
    times = []
    state = None
    while len(times) < reps or (sum(times) < SETUP_SECONDS and len(times) < 25):
        state = None  # let the previous state go before building the next
        t0 = perf_counter()
        state = setup(workload, inputs)
        times.append(perf_counter() - t0)
    return state, statistics.median(times)


# ------------------------------------------------------- untraced measurement


def measure(workload: str, state: dict, seed: int, seconds: float, run: Run) -> dict:
    """Run the workload's calls for `seconds`; returns named end-to-end metrics."""
    return {"train": _measure_train, "infer": _measure_infer, "fit": _measure_fit}[workload](
        GEOMETRY[workload], state, seed, seconds, run
    )


def _train_config(seed: int) -> OptimizerConfig:
    # patience >= epochs switches early stopping off
    return OptimizerConfig(max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS, batch_size=BATCH, seed=seed)


def _measure_train(geo: Geometry, state, seed, seconds, run):
    n_train = geo.n_windows("train")
    opt = _train_config(seed)
    call_s, epoch_s, reports = [], [], []

    def call():
        marks = []  # training.train logs once at the end of every epoch
        t0 = perf_counter()
        out = run.op(training.train, state["ds"], state["protos"], geo.hyper, opt,
                     log=lambda _line: marks.append(perf_counter()),
                     finite=lambda o: (o[1].best_val, o[1].test_mse) + o[1].train_loss)
        t1 = perf_counter()
        if out is not None:
            call_s.append(t1 - t0)
            epoch_s.extend(np.diff(marks))
            reports.append(out[1])

    _timed_loop(seconds, call)
    if not reports:
        return {}
    first = reports[0]
    run.check("train ran exactly the requested epochs", all(r.epochs == TRAIN_EPOCHS for r in reports))
    run.check("repeated training runs are bit-identical",
              all(r.train_loss == first.train_loss and r.val_loss == first.val_loss
                  and r.test_mse == first.test_mse for r in reports))
    run.check("benchmark and program agree on the train window count",
              len(data.make_windows(state["ds"], geo.lookback, geo.horizon, "train")) == n_train)
    return {
        "epoch_ms_p50": statistics.median(epoch_s) * 1e3,
        "train_windows_per_s": statistics.median(TRAIN_EPOCHS * n_train / s for s in call_s),
        "val_mse": first.best_val,
        "test_mse": first.test_mse,
        "samples": len(call_s),
    }


def _measure_infer(geo: Geometry, state, seed, seconds, run):
    """Cycles over the test windows in chunks of EVAL_CHUNK: each chunk's
    B=1 forecasts, then one evaluate call over the same windows. Runs at
    least one whole pass."""
    params, norm, x, y = state["params"], state["norm"], state["x"], state["y"]
    n = x.shape[0]
    starts = range(0, n, EVAL_CHUNK)
    b1 = np.full(y.shape, np.nan)
    latency_ms, rates, sq = [], [], {}
    calls = iter(range(10**9))

    def chunk():
        lo = starts[next(calls) % len(starts)]
        hi = min(lo + EVAL_CHUNK, n)
        for i in range(lo, hi):
            t0 = perf_counter()
            out = run.op(model.forecast_window, params, x[i], norm, finite=lambda o: o.prediction)
            latency_ms.append((perf_counter() - t0) * 1e3)
            if out is not None:
                b1[i] = out.prediction
        t0 = perf_counter()
        out = run.op(training.evaluate, params, x[lo:hi], y[lo:hi], finite=lambda o: o)
        if out is not None:
            if hi - lo == EVAL_CHUNK:
                rates.append(EVAL_CHUNK / (perf_counter() - t0))
            total = out[0] * (hi - lo)
            run.check("repeated evaluations are bit-identical", sq.setdefault(lo, total) == total)

    _timed_loop(seconds, chunk, min_calls=len(starts))
    if len(sq) < len(starts) or not rates:
        return {}
    # B=1 rows against the batched pass, on the first, a middle and the last batch
    worst = 0.0
    for lo in sorted({0, (n // 2) // EVAL_BATCH * EVAL_BATCH, (n - 1) // EVAL_BATCH * EVAL_BATCH}):
        batched = model.predict(params, x[lo : lo + EVAL_BATCH])
        worst = max(worst, float(np.max(np.abs(batched - b1[lo : lo + EVAL_BATCH]))))
    run.check(f"B=1 forecasts match the batched rows within {B1_TOLERANCE:g}", worst <= B1_TOLERANCE)
    test_mse = sum(sq.values()) / n
    b1_mse = float(np.mean((b1 - y) ** 2))
    run.check("evaluate's MSE matches the B=1 forecasts",
              abs(b1_mse - test_mse) <= B1_TOLERANCE * max(1.0, b1_mse))
    return {
        "forecast_ms_p50": statistics.median(latency_ms),
        "forecast_ms_p99": statistics.quantiles(latency_ms, n=100, method="inclusive")[98],
        "eval_windows_per_s": statistics.median(rates),
        "test_mse": test_mse,
        "samples": len(latency_ms),
    }


def _fit(segments, seed):
    # tol = -inf disables the convergence stop, so every fit runs FIT_ITERS
    return clustering.fit(segments, K, ALPHA, max_iters=FIT_ITERS, tol=float("-inf"), seed=seed)


def composite_distortion(segments: np.ndarray, protos: np.ndarray) -> float:
    """Mean composite distance of each segment to its nearest prototype,
    computed here from the metric's definition: squared distance plus
    ALPHA * (1 - Pearson correlation)."""

    def unit(a):
        c = a - a.mean(axis=1, keepdims=True)
        norm = np.linalg.norm(c, axis=1, keepdims=True)
        return np.where(norm < 1e-12, 0.0, c / np.where(norm < 1e-12, 1.0, norm))

    sq = (segments**2).sum(axis=1)[:, None] - 2.0 * segments @ protos.T + (protos**2).sum(axis=1)
    return float(np.mean(np.min(sq + ALPHA * (1.0 - unit(segments) @ unit(protos).T), axis=1)))


def _measure_fit(geo: Geometry, state, seed, seconds, run):
    segments = state["segments"]
    fit_s, fits = [], []

    def call():
        t0 = perf_counter()
        out = run.op(_fit, segments, seed, finite=lambda o: (o.fit_meta.final_loss,))
        if out is not None:
            fit_s.append(perf_counter() - t0)
            fits.append(out)

    _timed_loop(seconds, call)
    if not fits:
        return {}
    first = fits[0]
    run.check("fit ran exactly the requested iterations",
              all(f.fit_meta.iterations == FIT_ITERS for f in fits))
    run.check("repeated fits are bit-identical",
              all(np.array_equal(f.prototypes, first.prototypes) for f in fits))
    distortion = composite_distortion(segments.segments, first.prototypes)
    run.check("distortion is finite", np.isfinite(distortion))
    return {
        "fit_s": statistics.median(fit_s),
        "fit_loss": first.fit_meta.final_loss,
        "fit_distortion": distortion,
        "fit_segment_iters_per_s": segments.n * FIT_ITERS / statistics.median(fit_s),
        "samples": len(fit_s),
    }


# per workload, the named metrics behind op_ms_p50 (the median time of its
# unit call), items_per_s (its throughput) and quality_loss (its error)
E2E_SOURCES = {
    "train": ("epoch_ms_p50", "train_windows_per_s", "test_mse"),
    "infer": ("forecast_ms_p50", "eval_windows_per_s", "test_mse"),
    "fit": ("fit_s", "fit_segment_iters_per_s", "fit_distortion"),
}


def end_to_end(workload: str, named: dict, setup_s: float, peak_rss_mb: float) -> dict:
    """The metrics every workload reports, from its named metrics."""
    op, items, quality = E2E_SOURCES[workload]
    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
            "op_ms_p50": named[op] * (1e3 if op == "fit_s" else 1.0),
            "items_per_s": named[items], "quality_loss": named[quality]}


# ------------------------------------------------------------ traced pass


@dataclass
class _Traced:
    """State of one traced pass: the tracer, the run's counts, and the
    steps whose loss is checked once the pass is over."""

    tr: Tracer
    run: Run
    pending: list = field(default_factory=list)


def _step(t: _Traced, params, adam, xb, yb, check_loss: bool) -> None:
    """One training step from public calls, in training.train's order."""
    tr = t.tr
    before = {name: a.copy() for name, a in params.arrays().items()} if check_loss else None
    with tr.span("training.step"):
        params.zero_grad()
        with tr.span("model.extract_temporal"):
            h_t = model.extract_temporal(params, xb)
        with tr.span("model.extract_entity"):
            h_e = model.extract_entity(params, xb)
        with tr.span("model.fuse_and_forecast"):
            pred = model.fuse_and_forecast(params, h_t, h_e)
        with tr.span("autodiff.mse_loss"):
            err = ad.sub(pred, ad.constant(yb))
            loss = ad.mean_all(ad.mul(err, err))
        with tr.span("autodiff.backward"):
            loss.backward()
        with tr.span("optim.adamw_step"):
            adam.step(params.arrays(), params.grads())
    t.run.outcome(loss.data)
    if check_loss:
        t.pending.append((params.hyper, params.protos, before, xb, yb, float(loss.data)))


def _check_losses(t: _Traced) -> None:
    """Each checked step's loss against training.loss_value on the
    parameters and batch that step saw."""
    for hyper, protos, arrays, xb, yb, loss in t.pending:
        expected = training.loss_value(model.params_from_arrays(hyper, protos, arrays), xb, yb)
        t.run.check("traced step loss equals training.loss_value bit for bit", loss == expected)


def _forward(tr: Tracer, params, xb, suffix: str) -> np.ndarray:
    with ad.no_grad():
        with tr.span(f"model.extract_temporal{suffix}"):
            h_t = model.extract_temporal(params, xb)
        with tr.span(f"model.extract_entity{suffix}"):
            h_e = model.extract_entity(params, xb)
        with tr.span(f"model.fuse_and_forecast{suffix}"):
            return model.fuse_and_forecast(params, h_t, h_e).data


def _load(tr: Tracer, workload: str, inputs, geo: Geometry):
    """Traced set-up: every workload loads the CSV, the model file and
    segments its train split; `data.segment` and `container.load_model`
    are probes where the workload itself does not need them."""
    with tr.span("data.load_csv"):
        raw = data.load_csv(inputs.csv)
    with tr.span("container.load_model"):
        params, norm, ratio = container.load_model(inputs.model)
    with tr.span("data.normalize"):
        if workload == "infer":
            ds = data.normalize_with(raw, norm[0], norm[1], ratio)
        else:
            ds = data.split_and_normalize(raw, geo.ratio)
    with tr.span("data.segment"):
        segments = data.segment(ds.values[: ds.split[0]], P)
    return ds, params, norm, segments


def _windows(tr: Tracer, ds, geo: Geometry, part: str, stride: int):
    with tr.span("data.make_windows"):
        windows = data.make_windows(ds, geo.lookback, geo.horizon, part, stride=stride)
    with tr.span("training.stack_windows"):
        x, y = training.stack_windows(windows)
    tr.count("data.window_mb", (x.nbytes + y.nbytes) / 2**20)
    return x, y


def _train(t: _Traced, ds, protos, geo: Geometry, seed: int, rng) -> tuple[dict, dict]:
    """training.train from public calls, from the same initial weights.
    Returns the windows and the traced epoch time and throughput."""
    tr = t.tr
    opt = _train_config(seed)
    with tr.span("training.train"):
        xy = {part: _windows(tr, ds, geo, part, 1) for part in ("train", "val", "test")}
        params = model.init_params(geo.hyper, protos, seed=opt.seed)
        adam = AdamW(opt)
        x, y = xy["train"]
        starts = range(0, x.shape[0], BATCH)
        for epoch in range(TRAIN_EPOCHS):
            with tr.span("training.epoch"):
                perm = rng.permutation(x.shape[0])
                for lo in starts:
                    idx = perm[lo : lo + BATCH]
                    _step(t, params, adam, x[idx], y[idx], epoch == 0 and lo in (0, starts[-1]))
                with tr.span("training.evaluate"):
                    t.run.outcome(training.evaluate(params, *xy["val"]))
        with tr.span("training.evaluate"):
            t.run.outcome(training.evaluate(params, *xy["test"]))
    total_s = tr.durations_ms("training.train")[0] / 1e3
    traced = {"op_ms_p50": statistics.median(tr.durations_ms("training.epoch")[1:]),
              "items_per_s": TRAIN_EPOCHS * x.shape[0] / total_s}
    return xy, traced


def _fit_loop(t: _Traced, segments, start: np.ndarray, iters: int) -> clustering.PrototypeSet:
    """clustering.fit's loop from public calls: assign, empty-bucket
    repair, loss, gradient and AdamW, keeping the best state seen, with
    the convergence stop off. From fit's initial prototypes it returns
    what fit returns."""
    tr = t.tr
    protos = start.copy()
    adam = AdamW(clustering.CLUSTER_OPT_DEFAULTS)
    best, best_loss = protos.copy(), np.inf

    def assign(protos):
        with tr.span("clustering.assign"):
            return clustering.assign(segments, clustering.PrototypeSet(protos.copy(), ALPHA))

    def loss(protos, buckets):
        with tr.span("clustering.clustering_loss"):
            return clustering.clustering_loss(segments, clustering.PrototypeSet(protos.copy(), ALPHA), buckets)[0]

    for _ in range(iters):
        with tr.span("clustering.fit_iter"):
            buckets = assign(protos)
            empties = np.flatnonzero(buckets.bucket_sizes == 0)
            if empties.size:  # re-seed empty buckets at the worst-served segments
                with tr.span("clustering.distance_matrix"):
                    d = clustering.distance_matrix(segments.segments, protos, ALPHA)
                own = d[np.arange(d.shape[0]), buckets.assignment]
                protos = protos.copy()
                protos[empties] = segments.segments[np.argsort(-own, kind="stable")[: empties.size]]
                buckets = assign(protos)
            total = loss(protos, buckets)
            if total < best_loss:
                best, best_loss = protos.copy(), total
            with tr.span("clustering.clustering_loss_grad"):
                grad = clustering.clustering_loss_grad(
                    segments, clustering.PrototypeSet(protos.copy(), ALPHA), buckets)
            with tr.span("optim.adamw_step"):
                adam.step({"prototypes": protos}, {"prototypes": grad})
        t.run.outcome(total)
    total = loss(protos, assign(protos))
    if total < best_loss:
        best, best_loss = protos.copy(), total
    return clustering.PrototypeSet(best, ALPHA, clustering.FitMeta(iters, best_loss, 0))


def _probe_forecasts(t: _Traced, params, norm, x, y, n_b1: int, n_b64: int) -> None:
    """B=1 forecasts as forecast_window makes them, then evaluate's loop
    over n_b64 batches, then evaluate itself on the same windows."""
    tr = t.tr
    mean, std = norm
    for i in range(min(n_b1, x.shape[0])):
        with tr.span("model.forecast_b1"):
            pred = _forward(tr, params, x[i : i + 1], "_b1")[0] * std + mean
        t.run.outcome(pred)
    n = min(n_b64 * EVAL_BATCH, x.shape[0])
    with tr.span("training.evaluate_traced"):
        sq = 0.0
        for lo in range(0, n, EVAL_BATCH):
            hi = min(lo + EVAL_BATCH, n)
            with tr.span("model.forward_b64"):
                err = _forward(tr, params, x[lo:hi], "_b64") - y[lo:hi]
            sq += (err**2).sum()
    with tr.span("training.evaluate"):
        expected = training.evaluate(params, x[:n], y[:n])[0]
    t.run.outcome(expected)
    t.run.check("traced evaluation equals training.evaluate bit for bit", float(sq / y[:n].size) == expected)


def _segment_matrix(raw: np.ndarray) -> data.SegmentMatrix:
    flat = np.ascontiguousarray(raw.reshape(-1, P))
    return data.SegmentMatrix(flat, np.zeros((flat.shape[0], 2), dtype=np.int64))


def _branch_segments(xb: np.ndarray):
    """Raw segments of both branches for a batch, as the model cuts them:
    (B, N, l, P) temporal and (B, l, N, P) entity."""
    b, length, n_ent = xb.shape
    temporal = xb.transpose(0, 2, 1).reshape(b, n_ent, length // P, P)
    entity = xb.reshape(b, length // P, P, n_ent).transpose(0, 1, 3, 2)
    return temporal, entity


def _probe_assign(tr: Tracer, protos, x, reps: int = 5) -> None:
    for b in (1, BATCH, EVAL_BATCH):
        mats = [_segment_matrix(r) for r in _branch_segments(x[:b])]
        for _ in range(reps):
            with tr.span(f"clustering.assign_b{b}"):
                for m in mats:
                    clustering.assign(m, protos)


def _probe_proto_attention(tr: Tracer, params, window: np.ndarray, reps: int = 5) -> None:
    """The kernel over one window's sequences: N temporal ones of l
    segments and l entity ones of N segments, at the model's weights."""
    arrays, protos = params.arrays(), params.protos
    protos_emb = protos.prototypes @ arrays["w_in"]
    calls = []
    for prefix, raw in zip(("t", "e"), _branch_segments(window[None])):
        weights = protoattn.ProtoAttnWeights(*(arrays[f"{prefix}_{w}"] for w in ("we", "wk", "wv", "wo")))
        for seq in raw[0]:
            calls.append((seq @ arrays["w_in"], protoattn.build_assignment(seq, protos), weights))
    for _ in range(reps):
        with tr.span("protoattn.proto_attention"):
            for emb, assignment, weights in calls:
                protoattn.proto_attention(emb, assignment, protos_emb, weights)


def traced_pass(workload: str, inputs, seed: int, run: Run) -> tuple[Tracer, dict]:
    """The traced pass: the workload's own calls rebuilt from public
    functions, then probes of every other layer. Returns the tracer and
    the traced counterparts of op_ms_p50 and items_per_s."""
    geo = GEOMETRY[workload]
    probes = PROBES[workload]
    t = _Traced(Tracer(), run)
    tr = t.tr
    ds, params, norm, segments = _load(tr, workload, inputs, geo)
    rng = np.random.default_rng(seed)
    traced = {}

    if workload == "train":
        xy, traced = _train(t, ds, container.load_prototypes(inputs.protos), geo, seed, rng)
        x, y = xy["test"]
    else:
        x, y = _windows(tr, ds, geo, "test", probes["stride"])

    if workload == "fit":
        with tr.span("clustering.fit_init"):
            start = clustering.fit(segments, K, ALPHA, max_iters=0, seed=seed).prototypes
        got = _fit_loop(t, segments, start, FIT_ITERS)
        want = _fit(segments, seed)
        run.check("traced fit equals clustering.fit bit for bit",
                  np.array_equal(got.prototypes, want.prototypes)
                  and got.fit_meta.final_loss == want.fit_meta.final_loss)
        total_ms = sum(tr.durations_ms("clustering.fit_init") + tr.durations_ms("clustering.fit_iter"))
        traced = {"op_ms_p50": total_ms, "items_per_s": segments.n * FIT_ITERS / (total_ms / 1e3)}
    else:
        _fit_loop(t, segments, params.protos.prototypes, probes["fit_iters"])
    for _ in range(3):
        with tr.span("clustering.distance_matrix"):
            clustering.distance_matrix(segments.segments, params.protos.prototypes, ALPHA)

    if probes["steps"]:
        probe_params = container.load_model(inputs.model)[0]
        adam = AdamW(OptimizerConfig(batch_size=BATCH, seed=seed))
        for s in range(probes["steps"]):
            idx = rng.choice(x.shape[0], size=BATCH, replace=False)
            _step(t, probe_params, adam, x[idx], y[idx], s in (0, probes["steps"] - 1))

    _probe_forecasts(t, params, norm, x, y, probes["b1"], probes["b64"])
    if workload == "infer":
        traced = {"op_ms_p50": tr.median_ms("model.forecast_b1"),
                  "items_per_s": x[: probes["b64"] * EVAL_BATCH].shape[0]
                  / (tr.durations_ms("training.evaluate_traced")[0] / 1e3)}
    _probe_assign(tr, params.protos, x)
    _probe_proto_attention(tr, params, x[0])
    _check_losses(t)
    return tr, traced


def layer_metrics(workload: str, tr: Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from the spans: the median call for loop layers,
    the total for set-up layers, plus the tracing overhead."""
    med = tr.median_ms
    out = {"autodiff.backward_ms": med("autodiff.backward")}
    for fn in ("extract_temporal", "extract_entity", "fuse_and_forecast"):
        for suffix in ("", "_b1", "_b64"):
            out[f"model.{fn}{suffix}_ms"] = med(f"model.{fn}{suffix}")
    for b in (1, BATCH, EVAL_BATCH):
        out[f"clustering.assign_b{b}_ms"] = med(f"clustering.assign_b{b}")
    for name in ("distance_matrix", "clustering_loss", "clustering_loss_grad", "fit_iter"):
        out[f"clustering.{name}_ms"] = med(f"clustering.{name}")
    out["optim.adamw_step_ms"] = med("optim.adamw_step", parent=ADAMW_PARENT[workload])
    for name in ("data.load_csv", "data.segment", "container.load_model",
                 "data.make_windows", "training.stack_windows"):
        out[f"{name}_ms"] = sum(tr.durations_ms(name))
    out["data.window_mb"] = tr.counts["data.window_mb"]
    out["training.evaluate_ms"] = med("training.evaluate")
    steps = tr.durations_ms("training.step")
    out["training.step_ms_p50"] = statistics.median(steps)
    out["training.step_ms_p90"] = statistics.quantiles(steps, n=10, method="inclusive")[8]
    out["trace.uncovered_ms"] = statistics.median(tr.uncovered_ms("training.step"))
    out["protoattn.proto_attention_ms"] = med("protoattn.proto_attention")
    out["trace.overhead_op_ms"] = traced["op_ms_p50"] - untraced["op_ms_p50"]
    out["trace.overhead_items_per_s"] = traced["items_per_s"] - untraced["items_per_s"]
    return out
