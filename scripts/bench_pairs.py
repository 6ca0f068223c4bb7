#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, summarised as one JSON file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fit --pairs 10 > BENCH.json

PARENT_DIR and CHANGE_DIR are two checkouts. Pair i runs
`perfbench/run.py --workload W --seed S+i --trace 0` once in each, from
that checkout, the parent first in even pairs and the change first in odd
ones, so drift of the host's speed hits both sides alike. `--workload all`
runs the three workloads one after another. The JSON on standard output
has format 1 of the repository's BENCH_*.json files: per workload and
end-to-end metric, each side's median and quartiles, the number of pairs
the change won and tied, whether the change's median is worse than the
parent's by more than BENCHMARK.json's `bound` (`beyond_bound`), whether
the parent's own spread is too wide to tell (`unresolved`), and every
run's value; per side, the calls attempted and failed, the seeds of runs
whose checks failed, and the environment perfbench recorded, BLAS state
included. A run that failed a check before measuring reports no metrics:
its values read null and its pairs count as neither won nor tied.
Progress goes to standard error. `notes` is left empty for the reader of
the numbers to fill in.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("train", "infer", "fit")
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800


def parse_run(text: str) -> dict:
    """perfbench's output of one run: its `env` record and its last line,
    the JSON result with `correct`, `attempted`, `failed` and `metrics`."""
    env = None
    for line in text.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
    lines = text.strip().splitlines()
    if env is None or not lines:
        raise ValueError("no perfbench result in the output")
    result = json.loads(lines[-1])
    env.pop("seed", None)
    return {"env": env, **result}


def _value(run: dict, name: str):
    """One metric of a run, or None if the run reported none."""
    entry = run["metrics"].get(name)
    return None if entry is None else entry["value"]


def _quartiles(values: list) -> dict | None:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _beyond_bound(parent: dict | None, change: dict | None, bound: float, lower: bool):
    """Whether the change's median is worse than the parent's by more than
    bound, relative to the parent's; None if a side has no value."""
    if parent is None or change is None:
        return None
    worse = change["median"] - parent["median"] if lower else parent["median"] - change["median"]
    return worse > bound * abs(parent["median"])


def _unresolved(parent: dict | None, values: dict, bound: float, lower: bool):
    """Whether the parent's quartile spread exceeds bound relative to its
    median, so no difference within the bound can be told from noise,
    unless every change run is better than every parent run; None if a
    side has no value."""
    old, new = ([v for v in values[side] if v is not None] for side in SIDES)
    if not old or not new:
        return None
    if (max(new) < min(old)) if lower else (min(new) > max(old)):
        return False
    return parent["q3"] - parent["q1"] > bound * abs(parent["median"])


def summarize(pairs: list, spec: dict) -> dict:
    """One workload's entry of format 1. pairs holds, in pair order,
    (seed, first side, {side: parse_run output}); spec is BENCHMARK.json."""
    runs = {side: [p[2][side] for p in pairs] for side in SIDES}
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [_value(r, name) for r in runs[side]] for side in SIDES}
        won = tied = 0
        for old, new in zip(values["parent"], values["change"]):
            if old is None or new is None:
                continue
            tied += new == old
            won += new < old if lower else new > old
        parent, change = (_quartiles(values[side]) for side in SIDES)
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "parent": parent, "change": change,
            "change_better_pairs": won, "tied_pairs": tied, "bound": m["bound"],
            "beyond_bound": _beyond_bound(parent, change, m["bound"], lower),
            "unresolved": _unresolved(parent, values, m["bound"], lower),
            "runs": values,
        }
    return {
        "seeds": [p[0] for p in pairs],
        "pairs": len(pairs),
        "first_in_pair": {str(p[0]): p[1] for p in pairs},
        "all_checks_passed": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_runs": {side: [p[0] for p in pairs if not p[2][side]["correct"]] for side in SIDES},
        "failed_calls": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_calls": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
        "env": {side: runs[side][0]["env"] for side in SIDES},
    }


def _run(checkout: str, workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode not in (0, 1):  # 1 is a failed check, which the result records
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return parse_run(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="pair i runs seed SEED + i")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of one run (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        ap.error("--pairs must be >= 1 and --seed >= 0")
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {
        "format": 1,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --trace 0",
        "seconds": args.seconds if args.seconds is not None else spec["run_seconds"],
        "variants": {side: {"git_sha": None, "note": ""} for side in SIDES},
        "host": "",
        "workloads": {},
        "notes": [],
    }
    for w in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side] = _run(dirs[side], w, seed, args.seconds)
                value = _value(results[side], "op_ms_p50")
                shown = "failed, no metrics" if value is None else f"op_ms_p50 {value:.4g}"
                print(f"{w} seed {seed} {side}: {shown}", file=sys.stderr, flush=True)
            pairs.append((seed, order[0], results))
        out["workloads"][w] = summarize(pairs, spec)
        for side in SIDES:
            out["variants"][side]["git_sha"] = out["workloads"][w]["env"][side]["git_sha"]
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
