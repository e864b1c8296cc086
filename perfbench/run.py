"""Benchmark of whole ``lamlab`` CLI runs, with output gates and layer tracing.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|small]

Workloads (see ``workloads.py``): lamination-1d, cantorus-1d,
measure-injectivity and sweep-2d; ``BENCHMARK.json`` lists the first
three. Only the standard library is used; lamlab runs from ``src/`` in
fresh child processes.

``--trace 0`` repeats one untraced CLI run followed by set-up probes (a
fresh interpreter that imports lamlab and builds the workload's model)
worth a fifth of that run's time, for about S seconds, and reports
medians:

    wall_s       spawn to exit of one CLI run
    cpu_s        user + system CPU of that child (os.wait4)
    peak_rss_mb  ru_maxrss of that child
    setup_s      spawn to exit of the set-up probe

``--trace 1`` alternates untraced CLI runs with runs of ``trace_child.py``,
which wraps lamlab's public functions from outside and records spans; it
reports the per-layer metrics of ``LAYER_METRICS`` and the tracing
overhead.

Every run must exit 0. The first run directory must pass the output gate
of ``gate.py``; every later run directory of the invocation, traced or
not, must be byte-identical to it (its SHA-256 digest is printed). A run
that fails either test is counted in ``failed`` and left out of the
timing. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every run passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict, namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
TOL = 1e-12
TIME_LIMIT = 165.0          # stop starting children past this many seconds
MIN_SETUP_PROBES = 11
SETUP_SHARE = 0.2          # share of CLI time spent on set-up probes

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

QNC = "continuation.quasi_newton_continue"
FORCE = "model.InteractionStencil.force"
ERROR_LAYERS = ("cli", "model", "lattice", "hull", "continuation",
                "birkhoff", "measure", "twistmap")
LAYER_METRICS = {
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "birkhoff.scan_s": "s", "birkhoff.calls": "count",
    "continuation.self_s": "s", "continuation.calls": "count",
    "continuation.sweeps": "count", "continuation.ns_per_site_sweep": "ns",
    "model.force_s": "s", "model.force_calls": "count",
    "model.build_s": "s", "model.build_calls": "count",
    "lattice.boxes_built": "count",
    "hull.sample_s": "s", "hull.generic_s": "s", "hull.calls": "count",
    "twistmap.self_s": "s",
    "measure.count_s": "s", "measure.vague_s": "s",
    "measure.vague_calls": "count",
    **{f"{layer}.errors": "count" for layer in ERROR_LAYERS},
    "trace.overhead_s": "s",
}


Sample = namedtuple("Sample", "code wall cpu rss_mb")


def spawn(argv, log, timeout):
    """Run argv to completion; time it from spawn to exit, rusage by wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LAMLAB_THREADS", None)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it never waits for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


def setup_argv(work):
    n_wells, d, omega = work["setup"]
    code = ("from lamlab import build_model, builtin_harmonic_stencil, "
            "builtin_n_well\n"
            f"build_model(builtin_n_well({n_wells}), "
            f"builtin_harmonic_stencil({d}), omega={omega!r})\n")
    return [sys.executable, "-c", code]


def dir_size(run_dir):
    files = [p for p in Path(run_dir).iterdir() if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


class Bench:
    """One invocation: runs, gates and digests, and the samples they give."""

    def __init__(self, name, work, scratch, seconds):
        self.name, self.work, self.scratch = name, work, scratch
        self.seconds = seconds
        self.spec_path = scratch / "spec.json"
        self.spec_path.write_text(json.dumps(work["spec"]))
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.reference = None   # digest of the gated first run directory
        self.size = None        # (bytes, files) of that directory
        self.runs = []          # Samples of passing untraced CLI runs
        self.traced = []        # (Sample, span dump) of passing traced runs
        self.setups = []        # Samples of passing set-up probes

    def elapsed(self):
        return time.perf_counter() - self.start

    def remaining(self):
        return TIME_LIMIT - self.elapsed()

    def fail(self, what, log=None):
        self.failed += 1
        print(f"FAIL {self.name}: {what}", file=sys.stderr)
        if log is not None and log.exists():
            tail = log.read_text(errors="replace").splitlines()[-5:]
            for line in tail:
                print(f"  | {line}", file=sys.stderr)

    def cli_args(self, out):
        return [self.work["command"], "--spec", str(self.spec_path),
                "--out", str(out), "--tol", repr(TOL)]

    def accept_dir(self, out):
        """Gate the first run directory; later ones must match its digest."""
        digest = gate.digest(out)
        if self.reference is None:
            problems = gate.check(self.name, out, self.work, TOL)
            if problems:
                self.fail("output gate: " + "; ".join(problems[:5]))
                return False
            self.reference = digest
            self.size = dir_size(out)
            return True
        if digest != self.reference:
            self.fail(f"run directory differs from the first run: {digest}")
            return False
        return True

    def cli_run(self, traced=False):
        self.attempted += 1
        tag = len(self.runs) + len(self.traced) + self.failed
        out = self.scratch / f"run-{tag}"
        log = self.scratch / f"run-{tag}.log"
        spans = self.scratch / f"spans-{tag}.json"
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans),
                    "--"] + self.cli_args(out)
        else:
            argv = [sys.executable, "-m", "lamlab.cli"] + self.cli_args(out)
        try:
            sample = spawn(argv, log, self.remaining())
            if sample.code != 0:
                self.fail(f"CLI exited with {sample.code}", log)
                return
            if not self.accept_dir(out):
                return
            if traced:
                dump = json.loads(spans.read_text())
                self.traced.append((sample, dump))
            else:
                self.runs.append(sample)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            for path in (log, spans):
                path.unlink(missing_ok=True)

    def repeat(self, cycle):
        """Call cycle() at least once, and again until a failure or until the
        next call would end more than half a call past the measuring time,
        so that on average the calls fill it."""
        durations = []
        while not self.failed and self.remaining() > 0:
            if durations and (self.elapsed() + statistics.median(durations) / 2
                              > self.seconds):
                break
            start = time.perf_counter()
            cycle()
            durations.append(time.perf_counter() - start)

    def setup_probe(self):
        self.attempted += 1
        log = self.scratch / "setup.log"
        sample = spawn(setup_argv(self.work), log, self.remaining())
        if sample.code != 0:
            self.fail(f"set-up probe exited with {sample.code}", log)
        else:
            self.setups.append(sample)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(dump, size):
    """Per-layer figures of one traced run (see LAYER_METRICS)."""
    spans = dump["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = defaultdict(float)
    kernel = 0.0    # quasi_newton_continue self time plus the force it calls
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        inclusive[name] += end - start
        self_time[name] += end - start - covered[i]
        layer_self[name.split(".", 1)[0]] += end - start - covered[i]
        if name == FORCE and parent >= 0 and spans[parent][0] == QNC:
            kernel += end - start
    kernel += self_time[QNC]
    counts = dump["counts"]
    site_sweeps = counts["continuation.site_sweeps"]
    rate = kernel / site_sweeps * 1e9 if site_sweeps else 0.0
    sample_name, generic_name = "hull.sample_config", "hull.generic_parameter"
    return {
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": size[0],
        "cli.files_written": size[1],
        "birkhoff.scan_s": inclusive["birkhoff.check_birkhoff"],
        "birkhoff.calls": calls["birkhoff.check_birkhoff"],
        "continuation.self_s": self_time[QNC],
        "continuation.calls": calls[QNC],
        "continuation.sweeps": counts["continuation.sweeps"],
        "continuation.ns_per_site_sweep": rate,
        "model.force_s": inclusive[FORCE],
        "model.force_calls": calls[FORCE],
        "model.build_s": inclusive["model.estimate_constants"],
        "model.build_calls": calls["model.estimate_constants"],
        "lattice.boxes_built": counts["lattice.boxes_built"],
        "hull.sample_s": inclusive[sample_name],
        "hull.generic_s": inclusive[generic_name],
        "hull.calls": calls[sample_name] + calls[generic_name],
        "twistmap.self_s": self_time["twistmap.extract_cantorus"],
        "measure.count_s": inclusive["measure.measure_from_density"],
        "measure.vague_s": inclusive["measure.vague_distance"],
        "measure.vague_calls": calls["measure.vague_distance"],
        **{f"{layer}.errors": dump["errors"][layer] for layer in ERROR_LAYERS},
    }, dict(layer_self)


def report(name, metric, values, unit):
    q1, med, q3 = quartiles(values)
    print(f"{name:<20} {metric:<31} median {med:.6g} q1 {q1:.6g} "
          f"q3 {q3:.6g} n {len(values)} {unit}")
    return med


def end_to_end(bench):
    def cycle():
        bench.cli_run()
        # set-up probes take SETUP_SHARE of the measured time, spread
        # over the whole run so that both see the same host
        cli_time = sum(s.wall for s in bench.runs)
        while (not bench.failed and bench.remaining() > 0
               and sum(s.wall for s in bench.setups) < SETUP_SHARE * cli_time):
            bench.setup_probe()

    bench.repeat(cycle)
    while (not bench.failed and len(bench.setups) < MIN_SETUP_PROBES
           and bench.remaining() > 0):
        bench.setup_probe()
    if bench.failed:
        return {}
    series = {
        "wall_s": [s.wall for s in bench.runs],
        "cpu_s": [s.cpu for s in bench.runs],
        "peak_rss_mb": [s.rss_mb for s in bench.runs],
        "setup_s": [s.wall for s in bench.setups],
    }
    return {metric: report(bench.name, metric, values, END_TO_END[metric])
            for metric, values in series.items() if values}


def per_layer(bench):
    def cycle():
        bench.cli_run()
        if not bench.failed:
            bench.cli_run(traced=True)

    bench.repeat(cycle)
    if bench.failed or not bench.traced:
        return {}
    tables = [layer_metrics(dump, bench.size) for _, dump in bench.traced]
    calls = tables[0][0]["continuation.calls"]
    if calls != bench.work["calls"]:
        bench.fail(f"trace saw {calls} continuation calls, the spec implies "
                   f"{bench.work['calls']}: a binding was not wrapped")
        return {}
    # each traced run directly follows an untraced one: pair them
    overhead = statistics.median(
        traced.wall - plain.wall
        for (traced, _), plain in zip(bench.traced, bench.runs))
    metrics = {}
    for metric, unit in LAYER_METRICS.items():
        if metric == "trace.overhead_s":
            metrics[metric] = report(bench.name, metric, [overhead], unit)
        else:
            metrics[metric] = report(bench.name, metric,
                                     [t[0][metric] for t in tables], unit)
    total = statistics.median(
        sum(end - start for name, start, end, parent in dump["spans"]
            if parent < 0)
        for _, dump in bench.traced)
    shares = defaultdict(list)
    for _, layer_self in tables:
        for layer, t in layer_self.items():
            shares[layer].append(t)
    print(f"{bench.name} self time by layer, share of cli.main "
          f"({total:.4f} s):")
    for layer in sorted(shares, key=lambda k: -statistics.median(shares[k])):
        t = statistics.median(shares[layer])
        if t > 0:
            print(f"  {layer:<14} {t:9.4f} s  {100 * t / total:5.1f}%")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    args = parser.parse_args(argv)
    if not (SRC / "lamlab" / "__init__.py").is_file():
        print(f"error: no lamlab sources under {SRC}", file=sys.stderr)
        return 2

    work = workloads.make(args.workload, args.seed, args.size)
    scratch = HERE / ".runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        bench = Bench(args.workload, work, scratch, args.seconds)
        # compile bytecode and warm the file cache before anything is timed
        warm = spawn([sys.executable, "-c", "import lamlab.cli"],
                     scratch / "warm.log", bench.remaining())
        if warm.code != 0:
            bench.attempted += 1
            bench.fail("cannot import lamlab.cli", scratch / "warm.log")
            metrics = {}
        elif args.trace:
            metrics = per_layer(bench)
        else:
            metrics = end_to_end(bench)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = LAYER_METRICS if args.trace else END_TO_END
    correct = bench.failed == 0 and set(metrics) == set(units)
    print(f"{args.workload} seed {args.seed} size {args.size}: "
          f"{bench.attempted} attempted, {bench.failed} failed, "
          f"fail_ratio {bench.failed / max(bench.attempted, 1):.4g}, "
          f"digest {bench.reference}")
    result = {
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
