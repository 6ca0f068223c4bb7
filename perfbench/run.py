"""Benchmark of focus-forecast: the `train`, `infer` and `fit` workloads.

Run one workload, from the root of a checkout:

    python3 perfbench/run.py --workload infer --seed 1 --seconds 20 --trace 0

or all three, each in its own process, by leaving out --workload. With
--trace 0 a run prints the end-to-end metrics, with --trace 1 the
per-layer ones from a separate traced pass; BENCHMARK.json names both
sets. The last line of output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A failed correctness
check makes the run exit with code 1, a checkout without the program
with code 2.

BLAS is pinned to one thread by the environment variables set below,
before numpy is first imported; the thread count actually in effect is
read back from OpenBLAS, recorded and checked.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import ctypes.util
import glob
import json
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("train", "infer", "fit")
# units of the named metrics each workload prints besides BENCHMARK.json's
NAMED_UNITS = {
    "error_rate": "1", "samples": "count",
    "epoch_ms_p50": "ms", "train_windows_per_s": "1/s", "val_mse": "1", "test_mse": "1",
    "forecast_ms_p50": "ms", "forecast_ms_p99": "ms", "eval_windows_per_s": "1/s",
    "fit_s": "s", "fit_loss": "1", "fit_distortion": "1", "fit_segment_iters_per_s": "1/s",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of one run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def _openblas():
    """The loaded OpenBLAS library, found where numpy's wheels keep it."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    found = ctypes.util.find_library("openblas")
    for path in libs + ([found] if found else []):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return threads(), config().decode()
    return None, None


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    threads, config = _openblas()
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _result(run, metrics: dict) -> int:
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


def run_one(args, spec) -> int:
    import workloads as wl
    from inputs import Inputs

    w = args.workload
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = environment(args.seed)
    print("env " + json.dumps(env))
    run = wl.Run()
    run.check("BLAS runs one thread", env["blas_threads"] == 1)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{w}-", dir=OUT)
    try:
        # inputs are written by a child process, so this one's peak RSS is the workload's
        subprocess.run([sys.executable, __file__, "--generate", tmp, "--workload", w,
                        "--seed", str(args.seed)], check=True, timeout=170)
        inputs = Inputs.under(tmp)
        if args.trace == 0:
            state, setup_s = wl.timed_setup(w, inputs, wl.SETUP_REPS)
            named = wl.measure(w, state, args.seed, seconds, run)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            kind = "end_to_end"
        else:
            # half the time untraced, for the overhead, then the traced pass
            state, setup_s = wl.setup(w, inputs), 0.0
            named = wl.measure(w, state, args.seed, seconds / 2, run)
            peak_rss_mb = 0.0
            state = None
            kind = "per_layer"
        run.check("at least one call succeeded", bool(named))
        if not named:
            return _result(run, {})
        e2e = wl.end_to_end(w, named, setup_s, peak_rss_mb)
        if args.trace == 1:
            tracer, traced = wl.traced_pass(w, inputs, args.seed, run)
            values = wl.layer_metrics(w, tracer, traced, e2e)
            tracer.write(os.path.join(OUT, f"trace-{w}-seed{args.seed}.jsonl"), env)
        else:
            values = e2e
            named["error_rate"] = run.failed / run.attempted
            for name, value in named.items():
                print(f"metric {w} {name} {value:.6g} {NAMED_UNITS[name]}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    run.check(f"the run reports exactly BENCHMARK.json's {kind} metrics", set(values) == set(units))
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units.get(name, "")}
        print(f"metric {w} {name} {value:.6g} {units.get(name, '')}")
    for name, ok in run.checks.items():
        print(f"check {w} {'pass' if ok else 'FAIL'}: {name}")
    return _result(run, metrics)


def run_all(args) -> int:
    """Each workload in its own process; non-zero if any run fails."""
    status = 0
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        print(f"== {w}", flush=True)
        status |= subprocess.run(cmd, timeout=900).returncode != 0
    return 1 if status else 0


def main(argv=None) -> int:
    # a terminated run still removes its inputs, through run_one's finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "focus_forecast", "__init__.py")):
        print(f"perfbench: no program under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    if args.generate:
        from inputs import write_inputs
        from workloads import GEOMETRY

        write_inputs(args.generate, GEOMETRY[args.workload], args.seed)
        return 0
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
