"""Smoke runs of the experiment scripts at tiny sizes, and the benchmark
pair script's summary on canned perfbench output."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name):
    return _module(name).main


def test_run_planted_prints_its_summary(capsys):
    assert _main("run_planted")(["--steps", "1200", "--epochs", "1"]) == 0
    out = capsys.readouterr().out
    assert "template_corr=" in out
    assert "mse_ratio=" in out


def test_run_ablation_prints_its_summary(capsys):
    assert _main("run_ablation")(["--seeds", "1", "--steps", "600", "--max-iters", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "seed,corr_with_term,corr_without,margin"
    assert captured.out.splitlines()[1].startswith("0,")
    assert "wins=" in captured.err and "/1 median_margin=" in captured.err


def _perfbench_output(op_ms, items, loss, correct=True, failed=0):
    """The lines perfbench prints for one --trace 0 run, cut to what matters."""
    env = {"git_sha": "abc", "python": "3.11.7", "numpy": "2.4.6",
           "openblas": "OpenBLAS 0.3.31 SkylakeX", "blas_threads": 1, "nproc": 2, "seed": 9}
    metrics = {"op_ms_p50": {"value": op_ms, "unit": "ms"},
               "items_per_s": {"value": items, "unit": "1/s"},
               "quality_loss": {"value": loss, "unit": "1"}}
    return "\n".join([
        "env " + json.dumps(env),
        f"metric fit fit_s {op_ms / 1e3:.6g} s",
        f"metric fit op_ms_p50 {op_ms:.6g} ms",
        f"check fit {'pass' if correct else 'FAIL'}: repeated fits are bit-identical",
        json.dumps({"correct": correct, "attempted": 40, "failed": failed, "metrics": metrics}),
    ])


def test_bench_pairs_summarizes_canned_runs():
    bp = _module("bench_pairs")
    spec = {"end_to_end": [
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "quality_loss", "unit": "1", "better": "lower", "bound": 0.15},
    ]}
    parent = [(100.0, 500.0), (110.0, 450.0), (120.0, 400.0), (130.0, 380.0)]
    change = [(90.0, 550.0), (111.0, 450.0), (80.0, 600.0), (70.0, 700.0)]
    pairs = []
    for i, (old, new) in enumerate(zip(parent, change)):
        runs = {"parent": bp.parse_run(_perfbench_output(*old, 1.5)),
                "change": bp.parse_run(_perfbench_output(*new, 1.5, correct=i != 3, failed=i))}
        pairs.append((7 + i, "parent" if i % 2 == 0 else "change", runs))
    got = bp.summarize(pairs, spec)
    assert got["seeds"] == [7, 8, 9, 10] and got["pairs"] == 4
    assert got["first_in_pair"] == {"7": "parent", "8": "change", "9": "parent", "10": "change"}
    assert got["all_checks_passed"] is False
    assert got["failed_calls"] == {"parent": 0, "change": 6}
    assert got["attempted_calls"] == {"parent": 160, "change": 160}
    op = got["metrics"]["op_ms_p50"]
    assert op["parent"] == {"median": 115.0, "q1": 107.5, "q3": 122.5}
    assert op["change"] == {"median": 85.0, "q1": 77.5, "q3": 95.25}
    assert (op["change_better_pairs"], op["tied_pairs"]) == (3, 0)
    assert op["runs"]["change"] == [90.0, 111.0, 80.0, 70.0]
    items = got["metrics"]["items_per_s"]
    assert (items["change_better_pairs"], items["tied_pairs"]) == (3, 1)
    loss = got["metrics"]["quality_loss"]
    assert (loss["change_better_pairs"], loss["tied_pairs"], loss["unit"]) == (0, 4, "1")
    assert got["env"]["parent"]["blas_threads"] == 1
    assert "seed" not in got["env"]["change"]


def test_bench_pairs_rejects_output_without_a_result():
    bp = _module("bench_pairs")
    with pytest.raises(ValueError):
        bp.parse_run("perfbench: no program under src; run from a full checkout\n")
