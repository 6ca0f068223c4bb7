"""End-to-end command-line behavior, driven in-process through main()."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from focus_forecast.bench import SWEEP_MODES
from focus_forecast.cli import main
from focus_forecast.container import (
    load_model,
    load_prototypes,
    read_container,
    write_container,
)
from focus_forecast.data import load_csv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def kv(text):
    pairs = {}
    for line in text.strip().splitlines():
        if "," in line:
            continue  # CSV rows
        for token in line.split():
            if "=" in token:
                key, _, val = token.partition("=")
                pairs[key] = val
    return pairs


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> cluster -> train, shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text("max_epochs=2\nbatch_size=32\npatience=3\ncluster_max_iters=60\n")
    data = str(root / "synth.csv")
    protos = str(root / "protos.bin")
    model = str(root / "model.bin")

    code, out_synth, _ = run(
        ["synth", "--out", data, "--entities", "3", "--steps", "400",
         "--k-true", "3", "--sigma", "0.1", "--p", "8", "--seed", "0"]
    )
    assert code == 0
    code, out_cluster, _ = run(
        ["cluster", "--data", data, "--p", "8", "--k", "4", "--alpha", "0.2",
         "--out", protos, "--config", str(cfg)]
    )
    assert code == 0
    code, out_train, _ = run(
        ["train", "--data", data, "--protos", protos, "--lookback", "32",
         "--horizon", "8", "--d", "8", "--m", "2", "--out", model,
         "--config", str(cfg)]
    )
    assert code == 0
    return {
        "root": root, "cfg": cfg, "data": data, "protos": protos, "model": model,
        "out_synth": out_synth, "out_cluster": out_cluster, "out_train": out_train,
    }


def test_synth_outputs(pipeline):
    pairs = kv(pipeline["out_synth"])
    assert pairs["steps"] == "400" and pairs["entities"] == "3"
    assert pairs["k_true"] == "3" and pairs["p"] == "8"
    ds = load_csv(pipeline["data"])
    assert ds.values.shape == (400, 3)
    templates = load_prototypes(pipeline["data"] + ".templates")
    assert templates.prototypes.shape == (3, 8)


def test_synth_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["synth", "--entities", "2", "--steps", "100", "--k-true", "2",
            "--sigma", "0.05", "--seed", "7"]
    assert run(args + ["--out", a])[0] == 0
    assert run(args + ["--out", b])[0] == 0
    np.testing.assert_array_equal(load_csv(a).values, load_csv(b).values)


def test_cluster_output(pipeline):
    pairs = kv(pipeline["out_cluster"])
    assert pairs["k"] == "4" and pairs["p"] == "8" and pairs["alpha"] == "0.2"
    # 280 train rows over 3 entities at p=8: 35 segments each
    assert pairs["segments"] == "105"
    protos = load_prototypes(pipeline["protos"])
    assert protos.prototypes.shape == (4, 8)


def test_train_output(pipeline):
    pairs = kv(pipeline["out_train"])
    assert pairs["best_epoch"] in {"1", "2"}
    assert float(pairs["test_mse"]) > 0
    assert "epoch=1 " in pipeline["out_train"]


def test_eval_matches_train_report(pipeline):
    code, out, _ = run(
        ["eval", "--data", pipeline["data"], "--model", pipeline["model"],
         "--split", "test"]
    )
    assert code == 0
    assert f"mse={kv(pipeline['out_train'])['test_mse']}" in out
    assert kv(out)["split"] == "test"
    assert int(kv(out)["windows"]) > 0


def test_eval_val_split_runs(pipeline):
    code, out, _ = run(
        ["eval", "--data", pipeline["data"], "--model", pipeline["model"],
         "--split", "val"]
    )
    assert code == 0
    # val partition has exactly 40 rows = one lookback-32/horizon-8 window
    assert kv(out)["windows"] == "1"


def test_eval_rejects_a_partition_too_short_for_one_window(pipeline, tmp_path):
    # 50 steps leave the test partition 10 rows, short of lookback 32 + horizon 8
    short = str(tmp_path / "short.csv")
    assert run(["synth", "--out", short, "--entities", "3", "--steps", "50",
                "--k-true", "2", "--sigma", "0.1", "--p", "8", "--seed", "1"])[0] == 0
    code, out, err = run(["eval", "--data", short, "--model", pipeline["model"],
                          "--split", "test"])
    assert (code, out) == (1, "")
    assert "test partition has 10 rows" in err


def test_forecast_writes_horizon_rows(pipeline):
    out_csv = str(pipeline["root"] / "fc.csv")
    code, out, _ = run(
        ["forecast", "--data", pipeline["data"], "--model", pipeline["model"],
         "--out", out_csv]
    )
    assert code == 0
    fc = load_csv(out_csv)
    assert fc.values.shape == (8, 3)
    assert fc.entity_names == load_csv(pipeline["data"]).entity_names
    assert np.all(np.isfinite(fc.values))


def test_eval_entity_mismatch_is_validation_failure(pipeline, tmp_path):
    two = str(tmp_path / "two.csv")
    assert run(["synth", "--out", two, "--entities", "2", "--steps", "400",
                "--k-true", "2", "--sigma", "0.1", "--seed", "1"])[0] == 0
    code, _, err = run(["eval", "--data", two, "--model", pipeline["model"],
                        "--split", "test"])
    assert code == 1
    assert "entities" in err


def test_forecast_needs_full_lookback(pipeline, tmp_path):
    short = str(tmp_path / "short.csv")
    assert run(["synth", "--out", short, "--entities", "3", "--steps", "24",
                "--k-true", "2", "--sigma", "0.1", "--p", "8", "--seed", "1"])[0] == 0
    code, _, err = run(["forecast", "--data", short, "--model", pipeline["model"],
                        "--out", str(tmp_path / "fc.csv")])
    assert code == 1
    assert "lookback" in err


def test_missing_data_file_is_io_failure(pipeline, tmp_path):
    code, _, err = run(["cluster", "--data", str(tmp_path / "nope.csv"), "--p", "8",
                        "--k", "4", "--alpha", "0.2", "--out", str(tmp_path / "p.bin")])
    assert code == 2
    assert "error:" in err


def test_data_file_that_is_not_utf8_is_io_failure(pipeline, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,b\n1,\xff\n")
    code, _, err = run(["train", "--data", str(bad), "--protos", pipeline["protos"],
                        "--lookback", "32", "--horizon", "8", "--d", "8", "--m", "2",
                        "--out", str(tmp_path / "m.bin")])
    assert code == 2
    assert "not UTF-8" in err


def test_flag_misuse_is_validation_failure():
    assert run(["synth", "--out", "x.csv"])[0] == 1          # missing required flags
    assert run(["cluster", "--bogus", "1"])[0] == 1          # unknown flag
    assert run(["eval", "--data", "d", "--model", "m", "--split", "weird"])[0] == 1
    assert run(["bench", "--mode", "quantum", "--sizes", "8,16,32"])[0] == 1


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flux_capacitor=1\n")
    code, _, err = run(["synth", "--out", str(tmp_path / "x.csv"), "--entities", "2",
                        "--steps", "100", "--k-true", "2", "--sigma", "0.1",
                        "--seed", "0", "--config", str(cfg)])
    assert code == 1
    assert "flux_capacitor" in err


def test_malformed_config_line_names_its_line(pipeline, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k=4\n# a comment\nthis is not a pair\n")
    code, _, err = run(["cluster", "--data", pipeline["data"], "--p", "8", "--k", "4",
                        "--alpha", "0.2", "--out", str(tmp_path / "p.bin"),
                        "--config", str(cfg)])
    assert code == 2
    assert str(cfg) in err and "line 3" in err


def test_missing_config_file(tmp_path):
    code, _, _ = run(["synth", "--out", str(tmp_path / "x.csv"), "--entities", "2",
                      "--steps", "100", "--k-true", "2", "--sigma", "0.1",
                      "--seed", "0", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_bench_csv_and_bad_sizes(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("k=4\nd=8\np=4\nm=2\n")
    code, out, _ = run(["bench", "--mode", "protoattn", "--sizes", "8,16,32",
                        "--config", str(cfg)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "experiment,size,median_ns,flops,peak_bytes,slope"
    assert len(lines) == 4

    assert run(["bench", "--mode", "protoattn", "--sizes", "8;16"])[0] == 1
    assert run(["bench", "--mode", "protoattn", "--sizes", "8,16"])[0] == 1

    # several modes print one CSV with one header, grouped by experiment
    code, out, _ = run(["bench", "--mode", "protoattn,full_attn", "--sizes", "8,16,32",
                        "--config", str(cfg)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "experiment,size,median_ns,flops,peak_bytes,slope"
    assert len(lines) == 7
    assert [line.split(",")[0] for line in lines[1:]] == ["protoattn"] * 3 + ["full_attn"] * 3
    assert lines[3].split(",")[-1] != "" and lines[6].split(",")[-1] != ""

    code, _, err = run(["bench", "--mode", "protoattn,warp", "--sizes", "8,16,32",
                        "--config", str(cfg)])
    assert code == 1
    assert "warp" in err


def test_bench_rejects_repeated_sizes_and_modes():
    code, out, err = run(["bench", "--mode", "protoattn", "--sizes", "8,8,16"])
    assert (code, out) == (1, "")
    assert "ascending" in err
    code, out, err = run(["bench", "--mode", "protoattn,full_attn,protoattn", "--sizes", "8,16,32"])
    assert (code, out) == (1, "")
    assert "'protoattn'" in err


@pytest.mark.parametrize("p", ["0", "-3", "1"])
def test_synth_rejects_template_length_below_two(tmp_path, p):
    out = tmp_path / "s.csv"
    code, _, err = run(["synth", "--out", str(out), "--entities", "2", "--steps", "100",
                        "--k-true", "2", "--sigma", "0.1", "--p", p, "--seed", "0"])
    assert code == 1
    assert "template length" in err
    assert not out.exists()


# Flag fuzzing: any value of a size flag or geometry key ends in exit 0 or a
# validation failure, never an escaping exception. Sizes are sorted so that
# most draws reach the sweep; unsorted ones are rejected before it.
FLAG_FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
GEOMETRY = st.integers(-1, 4)


@FLAG_FUZZ
@given(
    modes=st.lists(st.sampled_from(SWEEP_MODES), min_size=1, max_size=3),
    sizes=st.lists(st.integers(-1, 8), min_size=2, max_size=4).map(sorted),
    k=GEOMETRY, d=GEOMETRY, p=GEOMETRY, m=GEOMETRY,
)
@example(modes=["protoattn"], sizes=[1, 2, 3], k=2, d=0, p=2, m=1)
@example(modes=["full_attn"], sizes=[1, 2, 3], k=2, d=0, p=2, m=1)
def test_bench_flags_exit_0_or_1(tmp_path, modes, sizes, k, d, p, m):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(f"k={k}\nd={d}\np={p}\nm={m}\n")
    code, _, _ = run(["bench", "--mode", ",".join(modes),
                      "--sizes", ",".join(map(str, sizes)), "--config", str(cfg)])
    assert code in (0, 1)


@FLAG_FUZZ
@given(p=st.integers(-2, 4), seed=st.integers(-(2**64), 2**64))
@example(p=0, seed=0)
@example(p=-2, seed=0)
@example(p=4, seed=2**63)  # the first seed an int64 cannot hold
@example(p=4, seed=-(2**63) - 1)
def test_synth_flags_exit_0_or_1(tmp_path, p, seed):
    code, _, _ = run(["synth", "--out", str(tmp_path / "fuzz.csv"), "--entities", "2",
                      "--steps", "40", "--k-true", "2", "--sigma", "0.1", "--p", str(p),
                      "--seed", str(seed)])
    assert code in (0, 1)


@pytest.mark.parametrize("seed", [2**64, 2**63, -(2**63) - 1])
def test_synth_rejects_seed_outside_int64(tmp_path, seed):
    out = tmp_path / "s.csv"
    code, _, err = run(["synth", "--out", str(out), "--entities", "2", "--steps", "100",
                        "--k-true", "2", "--sigma", "0.1", "--seed", str(seed)])
    assert code == 1
    assert "seed" in err
    assert list(tmp_path.iterdir()) == []  # neither the CSV nor its templates sidecar


@pytest.mark.parametrize("via", ["flag", "config"])
def test_cluster_rejects_seed_outside_int64(pipeline, tmp_path, via):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed={2**63}\n" if via == "config" else "")
    out = tmp_path / "p.bin"
    extra = ["--seed", str(2**63)] if via == "flag" else []
    code, _, err = run(["cluster", "--data", pipeline["data"], "--p", "8", "--k", "4",
                        "--out", str(out), "--config", str(cfg), *extra])
    assert code == 1
    assert "seed" in err
    assert not out.exists()


def test_cluster_rejects_negative_max_iters(pipeline, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cluster_max_iters=-5\n")
    out = tmp_path / "p.bin"
    code, _, err = run(["cluster", "--data", pipeline["data"], "--p", "8", "--k", "4",
                        "--out", str(out), "--config", str(cfg)])
    assert code == 1
    assert "max_iters" in err
    assert not out.exists()


def test_cluster_rejects_nan_split_fraction(pipeline, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("ratio=0.7,nan,0.2\n")
    code, _, err = run(["cluster", "--data", pipeline["data"], "--p", "8", "--k", "4",
                        "--alpha", "0.2", "--out", str(tmp_path / "p.bin"),
                        "--config", str(cfg)])
    assert code == 1
    assert "finite" in err


def test_cluster_rejects_nan_tol(pipeline, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("cluster_tol=nan\n")
    code, _, err = run(["cluster", "--data", pipeline["data"], "--p", "8", "--k", "4",
                        "--alpha", "0.2", "--out", str(tmp_path / "p.bin"),
                        "--config", str(cfg)])
    assert code == 1
    assert "tol" in err


def test_eval_rejects_model_with_nan_std(pipeline, tmp_path):
    model = tmp_path / "model.bin"
    tensors = read_container(pipeline["model"])
    tensors["norm/std"][0] = np.nan
    write_container(model, tensors)
    code, _, err = run(["eval", "--data", pipeline["data"], "--model", str(model),
                        "--split", "test"])
    assert code == 2
    assert str(model) in err and "norm/std" in err


@pytest.mark.parametrize(
    "name,value,match",
    [
        ("norm/ratio", np.array([0.5, 0.5, 0.5]), "split fractions must sum to 1"),
        ("protos/prototypes", np.zeros((4, 1)), "p >= 2"),
        ("protos/alpha", np.asarray(-1.0), "alpha must be finite and >= 0"),
    ],
    ids=["ratio-sum", "prototype-p", "alpha-negative"],
)
def test_eval_rejects_a_model_value_out_of_range_as_a_corrupt_file(
    pipeline, tmp_path, name, value, match
):
    # these values load as numbers, but no saved model can hold them
    model = tmp_path / "model.bin"
    tensors = read_container(pipeline["model"])
    tensors[name] = value
    write_container(model, tensors)
    code, _, err = run(["eval", "--data", pipeline["data"], "--model", str(model),
                        "--split", "test"])
    assert code == 2
    assert str(model) in err and match in err


def test_eval_rejects_model_without_split_ratio(pipeline, tmp_path):
    # the test windows are those of the split the model was trained with
    model = tmp_path / "model.bin"
    tensors = read_container(pipeline["model"])
    del tensors["norm/ratio"]
    write_container(model, tensors)
    code, _, err = run(["eval", "--data", pipeline["data"], "--model", str(model),
                        "--split", "test"])
    assert code == 2
    assert str(model) in err and "norm/ratio" in err


@pytest.mark.parametrize("command", ["eval", "forecast"])
@pytest.mark.parametrize("flag", ["--config", "--seed"])
def test_eval_and_forecast_take_no_config_or_seed(pipeline, tmp_path, command, flag):
    # both run from the model file alone
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ratio=0.5,0.25,0.25\n")
    tail = {"eval": ["--split", "test"], "forecast": ["--out", str(tmp_path / "fc.csv")]}
    code, _, err = run([command, "--data", pipeline["data"], "--model", pipeline["model"],
                        *tail[command], flag, str(cfg) if flag == "--config" else "0"])
    assert code == 1
    assert flag in err


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_synth_rejects_non_finite_sigma(tmp_path, sigma):
    out = tmp_path / "s.csv"
    code, _, err = run(["synth", "--out", str(out), "--entities", "2", "--steps", "100",
                        "--k-true", "2", "--sigma", sigma, "--seed", "0"])
    assert code == 1
    assert "noise_sigma" in err
    assert not out.exists()


def test_train_rejects_nan_lr_as_a_config_error(pipeline, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr=nan\nmax_epochs=1\n")
    code, _, err = run(["train", "--data", pipeline["data"], "--protos", pipeline["protos"],
                        "--lookback", "32", "--horizon", "8", "--d", "8", "--m", "2",
                        "--out", str(tmp_path / "m.bin"), "--config", str(cfg)])
    assert code == 1
    assert "lr must be finite" in err


def test_cluster_rejects_infinite_alpha(pipeline, tmp_path):
    out = tmp_path / "p.bin"
    code, _, err = run(["cluster", "--data", pipeline["data"], "--p", "8", "--k", "4",
                        "--alpha", "inf", "--out", str(out)])
    assert code == 1
    assert "alpha must be finite" in err
    assert not out.exists()


def test_cluster_rejects_nan_cluster_lr_before_fitting(pipeline, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cluster_lr=nan\n")
    out = tmp_path / "p.bin"
    code, _, err = run(["cluster", "--data", pipeline["data"], "--p", "8", "--k", "4",
                        "--out", str(out), "--config", str(cfg)])
    assert code == 1
    assert "lr must be finite" in err
    assert not out.exists()


def test_cluster_takes_alpha_from_the_config_file(pipeline, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.35\ncluster_max_iters=5\n")
    code, out, _ = run(["cluster", "--data", pipeline["data"], "--p", "8", "--k", "4",
                        "--out", str(tmp_path / "p.bin"), "--config", str(cfg)])
    assert code == 0
    assert kv(out)["alpha"] == "0.35"


def test_train_takes_geometry_from_the_config_file(pipeline, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lookback=24\nhorizon=6\nd=4\nm=3\nmax_epochs=1\n")
    model = tmp_path / "m.bin"
    code, _, _ = run(["train", "--data", pipeline["data"], "--protos", pipeline["protos"],
                      "--out", str(model), "--config", str(cfg)])
    assert code == 0
    hyper = load_model(model)[0].hyper
    assert (hyper.lookback, hyper.horizon, hyper.d, hyper.m) == (24, 6, 4, 3)


def test_gradcheck_takes_no_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=4\n")
    code, _, err = run(["gradcheck", "--seed", "0", "--config", str(cfg)])
    assert code == 1
    assert "--config" in err


def test_gradcheck_passes(tmp_path):
    code, out, _ = run(["gradcheck", "--seed", "0"])
    assert code == 0
    pairs = kv(out)
    assert pairs["ok"] == "1"
    assert float(pairs["max_rel_err"]) <= 1e-4
    assert "config=2 tensor=w_in" in out
