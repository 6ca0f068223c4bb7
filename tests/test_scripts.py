"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


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
