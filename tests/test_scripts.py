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


def _spec(tmp_path=None):
    spec = {"run_seconds": 30, "end_to_end": [
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "quality_loss", "unit": "1", "better": "lower", "bound": 0.15},
    ]}
    if tmp_path is not None:
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    return spec


def test_bench_pairs_marks_metrics_worse_beyond_their_bound():
    bp = _module("bench_pairs")
    # change medians: op_ms_p50 +30% (bound 25%), items_per_s -20% (bound 25%),
    # quality_loss +20% (bound 15%)
    pairs = [(i, "parent", {"parent": bp.parse_run(_perfbench_output(100.0, 500.0, 1.0)),
                            "change": bp.parse_run(_perfbench_output(130.0, 400.0, 1.2))})
             for i in range(3)]
    got = bp.summarize(pairs, _spec())["metrics"]
    assert got["op_ms_p50"]["beyond_bound"] is True
    assert got["items_per_s"]["beyond_bound"] is False
    assert got["quality_loss"]["beyond_bound"] is True
    assert [got[n]["bound"] for n in ("op_ms_p50", "items_per_s", "quality_loss")] == [
        0.25, 0.25, 0.15]
    # better on every metric is never beyond the bound
    flipped = [(s, first, {"parent": r["change"], "change": r["parent"]}) for s, first, r in pairs]
    assert not any(m["beyond_bound"] for m in bp.summarize(flipped, _spec())["metrics"].values())


def _failed_output():
    """A run whose check failed before any call succeeded: no metrics."""
    env = {"git_sha": "abc", "blas_threads": 2, "seed": 9}
    return "\n".join([
        "env " + json.dumps(env),
        "check infer FAIL: BLAS runs one thread",
        json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}),
    ])


def test_bench_pairs_records_a_run_without_metrics_as_failed(tmp_path, monkeypatch, capsys):
    bp = _module("bench_pairs")
    _spec(tmp_path)
    canned = {("change", 5): _failed_output()}

    def fake_run(checkout, workload, seed, seconds):
        side = "parent" if checkout == "P" else "change"
        ms = 100.0 + seed if side == "parent" else 80.0 + seed
        return bp.parse_run(canned.get((side, seed)) or _perfbench_output(ms, 1e3 / ms, 1.5))

    monkeypatch.setattr(bp, "_run", fake_run)
    (tmp_path / "P").mkdir()
    assert bp.main(["P", str(tmp_path), "--workload", "infer", "--pairs", "3", "--seed", "4"]) == 0
    captured = capsys.readouterr()
    assert "infer seed 5 change: failed, no metrics" in captured.err
    got = json.loads(captured.out)["workloads"]["infer"]
    assert got["all_checks_passed"] is False
    assert got["failed_runs"] == {"parent": [], "change": [5]}
    op = got["metrics"]["op_ms_p50"]
    assert op["runs"] == {"parent": [104.0, 105.0, 106.0], "change": [84.0, None, 86.0]}
    assert op["change"] == {"median": 85.0, "q1": 84.5, "q3": 85.5}
    assert (op["change_better_pairs"], op["tied_pairs"]) == (2, 0)
    assert op["beyond_bound"] is False


def test_bench_pairs_beyond_bound_is_null_when_a_side_has_no_value():
    bp = _module("bench_pairs")
    pairs = [(1, "parent", {"parent": bp.parse_run(_perfbench_output(100.0, 500.0, 1.0)),
                            "change": bp.parse_run(_failed_output())})]
    got = bp.summarize(pairs, _spec())
    op = got["metrics"]["op_ms_p50"]
    assert op["change"] is None and op["beyond_bound"] is None
    assert op["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert (op["change_better_pairs"], op["tied_pairs"]) == (0, 0)


def test_bench_pairs_marks_a_parent_spread_wider_than_the_bound_unresolved():
    bp = _module("bench_pairs")

    def pairs(old, new):
        return [(i, "parent", {"parent": bp.parse_run(_perfbench_output(a, 1e3 / a, 1.0)),
                               "change": bp.parse_run(_perfbench_output(b, 1e3 / b, 1.0))})
                for i, (a, b) in enumerate(zip(old, new))]

    # a bimodal parent: quartiles 50 and 90 about a median of 70, a spread
    # of 57% against op_ms_p50's 25% bound
    bimodal = [40.0, 50.0, 50.0, 90.0, 90.0, 100.0]
    got = bp.summarize(pairs(bimodal, [80.0, 60.0, 85.0, 70.0, 95.0, 45.0]), _spec())["metrics"]
    assert got["op_ms_p50"]["unresolved"] is True and got["items_per_s"]["unresolved"] is True
    assert got["quality_loss"]["unresolved"] is False  # every run reads 1.0
    # every change run better than every parent run resolves it
    got = bp.summarize(pairs(bimodal, [30.0, 35.0, 20.0, 25.0, 38.0, 39.0]), _spec())["metrics"]
    assert got["op_ms_p50"]["unresolved"] is False and got["items_per_s"]["unresolved"] is False
    # a tight parent is resolved, whichever side is better
    tight = [100.0, 101.0, 102.0, 99.0, 100.0, 101.0]
    got = bp.summarize(pairs(tight, [130.0] * 6), _spec())["metrics"]
    assert got["op_ms_p50"]["unresolved"] is False and got["op_ms_p50"]["beyond_bound"] is True
    # null when a side has no value
    failed = [(1, "parent", {"parent": bp.parse_run(_perfbench_output(100.0, 10.0, 1.0)),
                             "change": bp.parse_run(_failed_output())})]
    assert bp.summarize(failed, _spec())["metrics"]["op_ms_p50"]["unresolved"] is None
