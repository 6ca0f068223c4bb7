"""Dataset loading, splitting, normalization, segmentation, and synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focus_forecast.clustering import pearson_corr
from focus_forecast.data import (
    TimeSeriesDataset,
    generate_synthetic,
    load_csv,
    make_windows,
    mean_matched_templates,
    normalize_with,
    save_csv,
    segment,
    smooth_templates,
    split_and_normalize,
)
from focus_forecast.errors import ConfigError, ParseError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- CSV I/O


def test_load_csv_transcribes_values(tmp_path):
    ds = load_csv(write(tmp_path, "a,b\n1,2\n3,4\n5,6\n"))
    assert ds.entity_names == ["a", "b"]
    np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])
    assert ds.split is None and ds.norm_stats is None


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, ""))


def test_load_csv_ragged_row_names_line(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, "a,b\n1,2\n3\n"))
    assert "row 3 has 1 cells" in str(exc.value)


def test_load_csv_rejects_nan_cell(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, "a,b\n1,NaN\n"))
    assert "row 2, column 'b'" in str(exc.value)


@pytest.mark.parametrize(
    "text, row",
    [
        ("a,b\n1,2\n\n3,4\n", 3),  # np.loadtxt would skip the blank line
        ("a,b\n1,2\r3,4\n\n", 4),  # a CR ends row 2 and the blank line is row 4
        ("a,b\n1,1e400\n", 2),  # np.loadtxt reads inf
    ],
)
def test_load_csv_names_the_row_loadtxt_would_misread(tmp_path, text, row):
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, text))
    assert f"row {row}" in str(exc.value)


def test_load_csv_reads_quoted_names_as_the_csv_module_does(tmp_path):
    ds = load_csv(write(tmp_path, '"a",b\n1,2\n'))
    assert ds.entity_names == ["a", "b"]


def test_load_csv_rejects_non_numeric(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "a,b\n1,oops\n"))


@pytest.mark.parametrize("data", [b"a,b\n1,2\n3,\xff\n", b"\xff,b\n1,2\n"])
def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(str(path))


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((40, 3)) * np.array([1e-9, 1.0, 1e12])
    ds = TimeSeriesDataset(values=values, entity_names=["x", "y", "z"])
    path = str(tmp_path / "rt.csv")
    save_csv(path, ds)
    back = load_csv(path)
    assert back.entity_names == ds.entity_names
    np.testing.assert_array_equal(back.values, values)


# ------------------------------------------------------- split + normalize


def test_split_boundaries_floor_of_ratio():
    ds = TimeSeriesDataset(values=np.arange(20.0).reshape(10, 2), entity_names=["a", "b"])
    out = split_and_normalize(ds, (0.6, 0.2, 0.2))
    assert out.split == (6, 8)


def test_split_rejects_tiny_series():
    ds = TimeSeriesDataset(values=np.zeros((3, 1)), entity_names=["a"])
    with pytest.raises(ConfigError):
        split_and_normalize(ds, (0.7, 0.1, 0.2))


@pytest.mark.parametrize(
    "ratio",
    [
        (0.5, 0.5, 0.0),
        (0.6, 0.3, 0.2),
        (-0.2, 0.6, 0.6),
        (0.7, float("nan"), 0.2),
        (float("nan"),) * 3,
        (0.7, 0.1, float("inf")),
    ],
)
def test_split_rejects_bad_fractions(ratio):
    ds = TimeSeriesDataset(values=np.zeros((100, 1)), entity_names=["a"])
    with pytest.raises(ConfigError):
        split_and_normalize(ds, ratio)


def test_train_stats_standardize_train_rows():
    rng = np.random.default_rng(1)
    ds = TimeSeriesDataset(
        values=rng.normal(5.0, 3.0, size=(500, 4)), entity_names=list("abcd")
    )
    out = split_and_normalize(ds, (0.7, 0.1, 0.2))
    train = out.values[: out.split[0]]
    assert np.all(np.abs(train.mean(axis=0)) <= 1e-6)
    assert np.all(np.abs(train.std(axis=0) - 1.0) <= 1e-4)


def test_constant_entity_normalizes_to_zeros():
    values = np.column_stack([np.full(50, 7.0), np.arange(50.0)])
    ds = TimeSeriesDataset(values=values, entity_names=["flat", "ramp"])
    out = split_and_normalize(ds, (0.6, 0.2, 0.2))
    np.testing.assert_array_equal(out.values[:, 0], np.zeros(50))


def test_known_stats_give_known_zscore():
    # train column alternates 3 and 7: mean 5, std 2; later value 9 -> 2.0
    col = np.array([3.0, 7.0] * 7 + [0.0] * 5 + [9.0])
    ds = TimeSeriesDataset(values=col[:, None], entity_names=["a"])
    out = split_and_normalize(ds, (0.7, 0.15, 0.15))
    assert out.split[0] == 14
    assert out.values[-1, 0] == pytest.approx(2.0, abs=1e-12)


def test_normalize_with_matches_fresh_split():
    rng = np.random.default_rng(3)
    ds = TimeSeriesDataset(values=rng.normal(0, 2, (100, 2)), entity_names=["a", "b"])
    fresh = split_and_normalize(ds, (0.7, 0.1, 0.2))
    mean, std = fresh.norm_stats
    external = normalize_with(ds, mean, std, (0.7, 0.1, 0.2))
    np.testing.assert_array_equal(external.values, fresh.values)
    assert external.split == fresh.split


def test_normalize_with_validates_stats():
    ds = TimeSeriesDataset(values=np.zeros((100, 2)), entity_names=["a", "b"])
    with pytest.raises(ConfigError):
        normalize_with(ds, np.zeros(3), np.ones(3), (0.7, 0.1, 0.2))
    with pytest.raises(ConfigError):
        normalize_with(ds, np.zeros(2), np.array([1.0, 0.0]), (0.7, 0.1, 0.2))


# ------------------------------------------------------------ segmentation


def test_segment_exact_division():
    x = np.arange(8.0)[:, None]
    sm = segment(x, 4)
    np.testing.assert_array_equal(sm.segments, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_segment_truncates_oldest_steps():
    x = np.arange(10.0)[:, None]
    sm = segment(x, 4)
    np.testing.assert_array_equal(sm.segments, [[2, 3, 4, 5], [6, 7, 8, 9]])


def test_segment_rows_are_entity_major():
    # entity 0 carries 0..7, entity 1 carries 100..107
    x = np.column_stack([np.arange(8.0), np.arange(100.0, 108.0)])
    sm = segment(x, 4)
    np.testing.assert_array_equal(
        sm.segments,
        [[0, 1, 2, 3], [4, 5, 6, 7], [100, 101, 102, 103], [104, 105, 106, 107]],
    )
    np.testing.assert_array_equal(sm.provenance, [[0, 0], [0, 1], [1, 0], [1, 1]])


@settings(max_examples=30, deadline=None)
@given(
    n_entities=st.integers(1, 4),
    l=st.integers(1, 5),
    p=st.integers(2, 6),
    seed=st.integers(0, 2**31),
)
def test_segment_reassembles_to_source(n_entities, l, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((l * p, n_entities))
    sm = segment(x, p)
    rebuilt = sm.segments.reshape(n_entities, l * p).T
    np.testing.assert_array_equal(rebuilt, x)


def test_segment_rejects_oversized_p():
    with pytest.raises(ConfigError):
        segment(np.zeros((4, 1)), 8)


# ---------------------------------------------------------------- windows


def _split_ds(t=100, n=2, seed=4):
    rng = np.random.default_rng(seed)
    ds = TimeSeriesDataset(
        values=rng.standard_normal((t, n)), entity_names=[f"e{i}" for i in range(n)]
    )
    return split_and_normalize(ds, (0.7, 0.1, 0.2))


def _origins(ds, windows, lo, hi):
    """The origin of each window, found as the one start row in [lo, hi)
    whose slice equals it; random data makes the match unique."""
    out = []
    for x in windows.x:
        hits = [o for o in range(lo, hi) if np.array_equal(ds.values[o : o + len(x)], x)]
        assert len(hits) == 1
        out.append(hits[0])
    return out


def test_windows_counts_and_origins():
    ds = _split_ds()  # splits at 70, 80
    train = make_windows(ds, 8, 2, "train")
    assert len(train) == 70 - 10 + 1
    np.testing.assert_array_equal(train.x[0], ds.values[0:8])
    np.testing.assert_array_equal(train.x[-1], ds.values[60:68])
    val = make_windows(ds, 8, 2, "val")
    assert _origins(ds, val, 0, 100) == [70]
    test = make_windows(ds, 8, 2, "test")
    assert _origins(ds, test, 0, 100) == list(range(80, 91))


def test_windows_never_cross_partition_boundary():
    ds = _split_ds()
    for part, (lo, hi) in (("train", (0, 70)), ("val", (70, 80)), ("test", (80, 100))):
        windows = make_windows(ds, 8, 2, part)
        for i, o in enumerate(_origins(ds, windows, 0, 100)):
            assert lo <= o and o + 10 <= hi
            np.testing.assert_array_equal(windows.y[i], ds.values[o + 8 : o + 10])


def test_windows_slice_contiguously():
    ds = _split_ds()
    windows = make_windows(ds, 8, 2, "train")
    x, y = windows.x[13], windows.y[13]
    np.testing.assert_array_equal(x, ds.values[13:21])
    np.testing.assert_array_equal(y, ds.values[21:23])
    assert x.flags.c_contiguous and y.flags.c_contiguous


def test_windows_are_read_only_views_of_the_series():
    ds = _split_ds()
    windows = make_windows(ds, 8, 2, "test")
    for arr in (windows.x, windows.y):
        assert np.shares_memory(arr, ds.values)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_windows_of_a_short_partition_raise():
    ds = _split_ds()  # val holds 10 rows
    with pytest.raises(ConfigError, match="val partition has 10 rows.*lookback 8 \\+ horizon 3"):
        make_windows(ds, 8, 3, "val")
    assert len(make_windows(ds, 8, 2, "val")) == 1  # one window fits exactly


def test_windows_require_split_and_known_partition():
    raw = TimeSeriesDataset(values=np.zeros((50, 1)), entity_names=["a"])
    with pytest.raises(ConfigError):
        make_windows(raw, 8, 2, "train")
    with pytest.raises(ConfigError):
        make_windows(_split_ds(), 8, 2, "holdout")


def test_windows_stride():
    ds = _split_ds()
    windows = make_windows(ds, 8, 2, "train", stride=7)
    assert _origins(ds, windows, 0, 70) == list(range(0, 61, 7))
    with pytest.raises(ConfigError):
        make_windows(ds, 8, 2, "train", stride=0)


# --------------------------------------------------------------- synthesis


def test_synthetic_is_deterministic():
    a = generate_synthetic(3, 160, 4, 0.1, seed=9)
    b = generate_synthetic(3, 160, 4, 0.1, seed=9)
    np.testing.assert_array_equal(a.dataset.values, b.dataset.values)
    np.testing.assert_array_equal(a.template_ids, b.template_ids)
    c = generate_synthetic(3, 160, 4, 0.1, seed=10)
    assert not np.array_equal(a.dataset.values, c.dataset.values)


def test_noiseless_single_template_repeats_exactly():
    res = generate_synthetic(2, 96, 1, 0.0, seed=0, p=16)
    series = res.dataset.values.T  # (entities, steps)
    for ent in series:
        for w in ent.reshape(-1, 16):
            np.testing.assert_array_equal(w, res.templates[0])


def test_noiseless_windows_match_planted_ids():
    res = generate_synthetic(3, 80, 4, 0.0, seed=7, p=8)
    series = res.dataset.values.T
    for e in range(3):
        for i, w in enumerate(series[e].reshape(-1, 8)):
            np.testing.assert_array_equal(w, res.templates[res.template_ids[e, i]])


def test_synthetic_validates_parameters():
    with pytest.raises(ConfigError):
        generate_synthetic(2, 100, 0, 0.1, seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(2, 100, 4, -0.1, seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(0, 100, 4, 0.1, seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(2, 100, 4, 0.1, seed=0, bank="granite")


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_synthetic_rejects_non_finite_noise(sigma):
    # NaN fails `sigma > 0` and would give noise-free data; an infinity a CSV
    # that load_csv rejects
    with pytest.raises(ConfigError, match="noise_sigma"):
        generate_synthetic(2, 100, 4, sigma, seed=0)


def test_smooth_templates_are_distinct():
    bank = smooth_templates(4, 16)
    assert bank.shape == (4, 16)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(bank[i] - bank[j]) > 0.5


def test_mean_matched_pairs_share_mean_but_anticorrelate():
    bank = mean_matched_templates(4, 16)
    assert np.all(np.abs(bank.mean(axis=1)) < 1e-12)
    # consecutive rows are sign-flipped copies: tiny L2 mean gap, corr -1
    assert pearson_corr(bank[0], bank[1]) == pytest.approx(-1.0, abs=1e-9)
    assert pearson_corr(bank[2], bank[3]) == pytest.approx(-1.0, abs=1e-9)
