"""Dataset loading, normalization, windowing, and segmentation.

Values live in a T x N matrix (time steps x entities). Normalization uses
statistics from the training split only; windows never cross a split
boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ParseError
from .util import seed_stream

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Immutable multivariate series with optional split/normalization state.

    split is (train_end, val_end): train rows are [0, train_end), validation
    rows [train_end, val_end), test rows [val_end, T). norm_stats holds the
    per-entity (mean, std) of the raw train split, with std floored at
    STD_FLOOR (degenerate entities normalize to zeros).
    """

    values: np.ndarray
    entity_names: list[str]
    split: tuple[int, int] | None = None
    norm_stats: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.values.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_entities(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Windows:
    """The strided (lookback, horizon) windows of one partition.

    x (n, lookback, N) and y (n, horizon, N) are read-only views of the
    series, not copies: for origin o of window i, x[i] is the C-contiguous
    slice values[o : o + lookback] and y[i] the horizon rows after it.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x.flags.writeable = False
        self.y.flags.writeable = False

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SegmentMatrix:
    """n segments of length p, each a contiguous slice of the source series.

    provenance maps each row to its (entity index, window index).
    """

    segments: np.ndarray
    provenance: np.ndarray  # (n, 2) int array of (entity, window)

    @property
    def n(self) -> int:
        return self.segments.shape[0]


def load_csv(path: str) -> TimeSeriesDataset:
    """Parse a UTF-8 CSV with a header row of entity names.

    Every data cell must parse as a finite real; ragged or malformed rows
    raise ParseError naming the offending row (1-based file line) or cell.
    Plain files go through np.loadtxt; any file it refuses, or might read
    differently, goes through the per-cell reader, which names the error.
    """
    plain = _load_plain(path)
    if plain is None:
        return _load_per_cell(path)
    return TimeSeriesDataset(values=plain[1], entity_names=plain[0])


def _load_per_cell(path: str) -> TimeSeriesDataset:
    """load_csv through the csv module, one float() per cell."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            names, rows = _parse_csv_rows(csv.reader(fh), path)
    except UnicodeDecodeError as e:
        # the reader decodes lazily, so any row can raise it
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from e
    values = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(names))
    return TimeSeriesDataset(values=values, entity_names=names)


_PLAIN_CHUNK = 1 << 20


def _load_plain(path: str) -> tuple[list[str], np.ndarray] | None:
    """Header names and values of a plain CSV, streamed through np.loadtxt;
    None where the per-cell reader must decide.

    Plain means: no quote, carriage return, NUL or blank line, one value
    row per line, every value finite. loadtxt skips blank lines and treats
    quotes and carriage returns otherwise than the csv module; it refuses
    some cells float() takes, such as '1_0'. Where it accepts a cell, its
    value equals float(cell).
    """
    lines, prev = 0, b"\n"
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_PLAIN_CHUNK), b""):
            if b'"' in chunk or b"\r" in chunk or b"\0" in chunk or b"\n\n" in prev[-1:] + chunk:
                return None
            lines += chunk.count(b"\n")
            prev = chunk
    lines += prev[-1:] != b"\n"  # a last line without a newline
    if lines < 2:
        return None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            names = [h.strip() for h in fh.readline().removesuffix("\n").split(",")]
            values = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # UnicodeDecodeError too
            return None
    if "" in names or values.shape != (lines - 1, len(names)) or not np.isfinite(values).all():
        return None
    return names, values


def _parse_csv_rows(reader, path: str) -> tuple[list[str], list[list[float]]]:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header row") from None
    names = [h.strip() for h in header]
    if not names or any(n == "" for n in names):
        raise ParseError(f"{path}: header row has empty entity names")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(names):
            raise ParseError(f"{path}: row {lineno} has {len(row)} cells, expected {len(names)}")
        parsed = []
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {lineno}, column '{names[j]}': "
                    f"cannot parse {cell!r} as a real number"
                ) from None
            if not math.isfinite(v):
                raise ParseError(
                    f"{path}: row {lineno}, column '{names[j]}': non-finite value {cell!r}"
                )
            parsed.append(v)
        rows.append(parsed)
    return names, rows


def check_ratio(ratio: tuple[float, float, float]) -> None:
    """Raise ConfigError unless the three split fractions are finite,
    positive and sum to 1."""
    if not all(r > 0 and math.isfinite(r) for r in ratio):
        raise ConfigError(f"split fractions must be finite and positive, got {ratio}")
    if abs(sum(ratio) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {ratio}")


def _split_indices(t: int, ratio: tuple[float, float, float]) -> tuple[int, int]:
    check_ratio(ratio)
    r_train, r_val, _ = ratio
    train_end = int(math.floor(r_train * t))
    val_end = int(math.floor((r_train + r_val) * t))
    if not (0 < train_end < val_end < t):
        raise ConfigError(f"T={t} too small for nonempty partitions with ratio {ratio}")
    return train_end, val_end


def split_and_normalize(
    ds: TimeSeriesDataset, ratio: tuple[float, float, float]
) -> TimeSeriesDataset:
    """Set split boundaries by floor(ratio * T) and z-score with train stats."""
    train = ds.values[: _split_indices(ds.n_steps, ratio)[0]]
    std = train.std(axis=0)
    return normalize_with(ds, train.mean(axis=0), np.where(std < STD_FLOOR, 1.0, std), ratio)


def normalize_with(
    ds: TimeSeriesDataset,
    mean: np.ndarray,
    std: np.ndarray,
    ratio: tuple[float, float, float],
) -> TimeSeriesDataset:
    """Set the split by floor(ratio * T) and z-score with the given stats.

    The one transform training, evaluation and forecasting apply; the
    latter two pass the stats and ratio stored in the model file.
    """
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if mean.shape != (ds.n_entities,) or std.shape != (ds.n_entities,):
        raise ConfigError(
            f"normalization stats must have shape ({ds.n_entities},), got "
            f"{mean.shape} and {std.shape}"
        )
    if np.any(std <= 0):
        raise ConfigError("normalization std entries must be positive")
    split = _split_indices(ds.n_steps, ratio)
    normalized = (ds.values - mean) / std
    return replace(ds, values=normalized, split=split, norm_stats=(mean, std))


def save_csv(path: str, ds: TimeSeriesDataset) -> None:
    """Write the dataset in the same CSV dialect load_csv reads.

    Cells are printed with 17 significant digits so a round trip is
    value-exact for float64.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.entity_names)
        for row in ds.values:
            writer.writerow([f"{v:.17g}" for v in row])


def segment(x: np.ndarray, p: int) -> SegmentMatrix:
    """Slice an L x N window into non-overlapping length-p segments per entity.

    The oldest steps are truncated so p divides the remaining length; rows
    are ordered entity-major.
    """
    if p < 2:
        raise ConfigError(f"segment length must be >= 2, got {p}")
    length, n_entities = x.shape
    if p > length:
        raise ConfigError(f"segment length {p} exceeds window length {length}")
    l = length // p
    off = length - l * p  # drop the oldest remainder
    trimmed = x[off:]
    segs = trimmed.reshape(l, p, n_entities).transpose(2, 0, 1).reshape(-1, p)
    prov = np.stack(
        [np.repeat(np.arange(n_entities), l), np.tile(np.arange(l), n_entities)],
        axis=1,
    )
    return SegmentMatrix(segments=np.ascontiguousarray(segs), provenance=prov)


def make_windows(
    ds: TimeSeriesDataset, lookback: int, horizon: int, partition: str, stride: int = 1
) -> Windows:
    """The strided (lookback, target) windows inside one partition, as views.

    No window crosses a split boundary: both the lookback and target lie
    entirely in the requested partition, which must hold at least one
    window. Window i starts at the partition's first row plus i * stride.
    Memory is O(1) in the window count: nothing is copied.
    """
    if ds.split is None:
        raise ConfigError("dataset has no split; call split_and_normalize first")
    train_end, val_end = ds.split
    bounds = {
        "train": (0, train_end),
        "val": (train_end, val_end),
        "test": (val_end, ds.n_steps),
    }
    if partition not in bounds:
        raise ConfigError(f"unknown partition {partition!r}")
    if stride < 1:
        raise ConfigError(f"window stride must be >= 1, got {stride}")
    start, end = bounds[partition]
    span = lookback + horizon
    if end - start < span:
        raise ConfigError(
            f"{partition} partition has {end - start} rows, too few for one window of "
            f"lookback {lookback} + horizon {horizon}"
        )
    spans = np.lib.stride_tricks.sliding_window_view(ds.values[start:end], span, axis=0)
    spans = spans[::stride].transpose(0, 2, 1)  # (n, span, N)
    return Windows(x=spans[:, :lookback], y=spans[:, lookback:])


def smooth_templates(k: int, p: int) -> np.ndarray:
    """Fixed bank of k well-separated smooth length-p shapes."""
    t = np.arange(p, dtype=np.float64) / p
    out = np.empty((k, p))
    for i in range(k):
        freq = 1.0 + (i % 3)
        phase = 2.0 * np.pi * i / max(k, 1)
        trend = (-1.0) ** i * (0.5 + i / max(k, 1))
        out[i] = np.sin(2.0 * np.pi * freq * t + phase) + trend * (t - 0.5)
    return out


def mean_matched_templates(k: int, p: int) -> np.ndarray:
    """Zero-mean bank of +/- shape pairs: close in L2 yet anti-correlated.

    Built so distance-only clustering struggles to tell members of a pair
    apart while a correlation term separates them cleanly.
    """
    t = np.arange(p, dtype=np.float64) / p
    # consecutive pairs draw mutually near-orthogonal bases
    shapes = [
        np.sin(2.0 * np.pi * t),
        np.cos(2.0 * np.pi * 2.0 * t),
        np.sin(2.0 * np.pi * 3.0 * t),
        np.cos(2.0 * np.pi * 4.0 * t),
    ]
    out = np.empty((k, p))
    for i in range(k):
        base = shapes[(i // 2) % len(shapes)]
        base = base - base.mean()
        base = base / np.linalg.norm(base)
        out[i] = (-1.0) ** i * 0.3 * (1.0 + 0.15 * (i // 2)) * base  # pair j: norm 0.3 (1 + 0.15 j)
    return out


@dataclass(frozen=True)
class SyntheticResult:
    """Planted dataset plus the ground-truth templates behind it."""

    dataset: TimeSeriesDataset
    templates: np.ndarray  # (k_true, p)
    template_ids: np.ndarray  # (n_entities, n_windows)


def generate_synthetic(
    n_entities: int,
    n_steps: int,
    k_true: int,
    noise_sigma: float,
    seed: int,
    p: int = 16,
    bank: str = "smooth",
) -> SyntheticResult:
    """Build a planted dataset by concatenating seeded template draws.

    Each entity's series is a run of length-p templates chosen uniformly
    from a fixed bank of k_true smooth shapes, plus i.i.d. Gaussian noise.
    The templates are returned for oracle comparison.
    """
    if k_true < 1:
        raise ConfigError(f"k_true must be >= 1, got {k_true}")
    if p < 2:
        raise ConfigError(f"template length p must be >= 2, got {p}")
    if not 0 <= noise_sigma < math.inf:  # NaN too
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if n_entities < 1 or n_steps < p:
        raise ConfigError(f"need n_entities >= 1 and n_steps >= p, got {n_entities}, {n_steps}")
    rng = seed_stream(seed, "synth")
    if bank == "smooth":
        templates = smooth_templates(k_true, p)
    elif bank == "mean_matched":
        templates = mean_matched_templates(k_true, p)
    else:
        raise ConfigError(f"unknown template bank {bank!r}")
    n_windows = -(-n_steps // p)
    ids = rng.integers(0, k_true, size=(n_entities, n_windows))
    clean = templates[ids].reshape(n_entities, n_windows * p)[:, :n_steps]
    noise = rng.normal(0.0, noise_sigma, size=(n_entities, n_steps)) if noise_sigma > 0 else 0.0
    values = np.ascontiguousarray((clean + noise).T)
    ds = TimeSeriesDataset(values=values, entity_names=[f"e{i}" for i in range(n_entities)])
    return SyntheticResult(dataset=ds, templates=templates, template_ids=ids)
