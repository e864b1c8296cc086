"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--baseline FILE]

It runs every workload of BENCHMARK.json for its run_seconds on seeds
1 to 10, round-robin (seed 1 of every workload, then seed 2, ...) so
slow drift of a shared host spreads over all of them. For every
end-to-end metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json. ``--baseline FILE`` also
makes one traced run per workload (first seed) and writes the medians,
quartiles, fail ratio, run-directory digest of each seed, layer table,
workload specs and environment to FILE.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEEDS = list(range(1, 11))


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return result, lines[:-1]


def digest(lines):
    """The run-directory digest from run.py's summary line."""
    summary = next(line for line in reversed(lines) if " digest " in line)
    return summary.rsplit(" ", 1)[-1]


def environment():
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "git_sha": sha or None,
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    why = {w["name"]: w["why"] for w in config["workloads"]}
    names = [w["name"] for w in config["workloads"]]

    values = {name: {m: [] for m in bounds} for name in names}
    tally = {name: {"attempted": 0, "failed": 0, "digests": {}} for name in names}
    for seed in SEEDS:
        for name in names:
            start = time.perf_counter()
            result, lines = bench(name, seed, seconds, 0)
            tally[name]["attempted"] += result["attempted"]
            tally[name]["failed"] += result["failed"]
            tally[name]["digests"][seed] = digest(lines)
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            print(f"seed {seed} {name} ({time.perf_counter() - start:.1f} s): " + ", ".join(
                f"{m} {e['value']:.4g}" for m, e in result["metrics"].items()),
                flush=True)

    record = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    steady = True
    for name in names:
        rows = {}
        for metric, vals in values[name].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bounds[metric] / 3
            steady &= ok
            print(f"{name:<20} {metric:<12} median {med:.5g} q1 {q1:.5g} "
                  f"q3 {q3:.5g} spread {spread:.3f} bound {bounds[metric]} "
                  f"{'ok' if ok else 'WIDE'}")
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": spread, "n": len(vals)}
        t = tally[name]
        record["workloads"][name] = {
            "end_to_end": rows,
            "fail_ratio": t["failed"] / t["attempted"],
            "runs_attempted": t["attempted"],
            "digest_by_seed": t["digests"],
        }

    if args.baseline:
        for name in names:
            result, lines = bench(name, SEEDS[0], seconds, 1)
            work = workloads.make(name, SEEDS[0])
            record["workloads"][name].update({
                "command": work["command"],
                "spec_seed": SEEDS[0],
                "spec": work["spec"],
                "why": why[name],
                "layers": {m: e["value"] for m, e in result["metrics"].items()},
                "layer_shares": [line.strip() for line in lines
                                 if line.startswith("  ")],
            })
        record["units"] = {m["name"]: m["unit"]
                           for m in config["end_to_end"] + config["per_layer"]}
        record["environment"] = environment()
        Path(args.baseline).write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "some spreads exceed a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
