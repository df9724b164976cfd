"""Measuring process of the satcoop benchmark.

run.py starts this script in a pinned environment (one BLAS thread, no
SATCOOP_WORKERS, the checkout's src/ on PYTHONPATH); it pins itself to one
CPU.  It drives every sweep through ``satcoop.cli.main`` with
``--workers 1``, exactly as the ``simulate`` command does, and times the
layers from outside by wrapping the functions callers look up (see
spans.py).

One run:

1. Reference check.  Re-runs the pinned trials of the workload at the
   default and the held-out seed and compares every per-trial
   (scheme, power) mean with reference.json.  This also warms the
   process up and estimates the cost of a trial.
2. Measurement, as a chain of sweeps ("chunks") of equal trial count,
   chunk c of seed s using master seed 1000*s + c, until the next chunk
   would end after the time allowed.
   With --trace 0 the chunks fill --seconds and give the end-to-end
   metrics, every time scaled to a nominal host speed by calibration
   kernel runs (calib.py, TrialLog).  With --trace 1 each chunk runs
   traced, untraced and traced again, each pass filling a third of
   --seconds.  The exact work counts of the two traced runs must agree,
   tracing must not change any output, and the untraced run gives the
   tracing overhead.
3. With --trace 0, set-up: SETUP_PROBES fresh interpreters, one at a
   time (setup_probe.py).

The last stdout line is the JSON result; a summary goes to stderr, and the
run record and spans to satbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import calib
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

POWER_GRID = "-15:15:5"
# The default seed of the simulate command, and one seed never used while
# the benchmark was written or tuned.
REFERENCE_SEEDS = (1, 97)
# Per-trial means must match the pinned values to this relative tolerance,
# the solver's own stopping tolerance; README.md ("Output correctness")
# gives the measurements behind it.
REFERENCE_RTOL = 1e-6
# Chunks per measurement: each is a whole simulate sweep, so the run ends
# within about 1/CHUNKS of its time budget.
CHUNKS = 8
# An untraced run needs this many trials for a tail percentile with ten
# trials beyond it.
MIN_TRIALS = 11
# Fresh interpreters timed for setup_s.
SETUP_PROBES = 7
# Within a trial, a scheme run that ends a stretch longer than this without
# a calibration kernel run is followed by one (see TrialLog).  The host
# changes speed within a 0.5 s paper_sweep trial often enough to matter.
SEGMENT_S = 0.1


@dataclass(frozen=True)
class Workload:
    schemes: tuple
    m: int
    reference_trials: int

    def argv(self, seed: int, trials: int, out: Path) -> list:
        return ["--trials", str(trials), "--seed", str(seed),
                "--schemes", ",".join(self.schemes), "--power-dbw", POWER_GRID,
                "--m", str(self.m), "--out", str(out), "--format", "csv",
                "--workers", "1"]


WORKLOADS = {
    "paper_sweep": Workload(("coloring", "rzf", "csi", "csidata"), 1, 2),
    "reuse4_drops": Workload(("coloring",), 1, 20),
    "csidata_m3": Workload(("csidata",), 3, 3),
}


class TrialLog:
    """Latency, outputs and failures of trials, keyed by (master seed, trial).

    With calibrate=True the calibration kernel (calib.py) runs after every
    trial and, within a trial, after any scheme run that ends a stretch of
    more than SEGMENT_S without one.  The kernel runs split a sweep into
    segments; `scaled` holds each trial's latency with every segment scaled
    to the nominal speed by the kernel runs at its two ends.  Kernel runs
    count in no latency.
    """

    def __init__(self, calibrate=False):
        self.latency: dict = {}
        self.scaled: dict = {}
        self.means: dict = {}
        self.failures: dict = {}
        self.calibrate = calibrate
        self.kernel: list = []
        self.wall_s = 0.0    # sweeps' wall time, kernel runs included
        self.sweep_s = 0.0   # sweeps' wall time without the kernel runs
        self.scaled_s = 0.0  # sweep_s scaled to the nominal speed
        self._kernel_s = None  # the last kernel time
        self._segment_t0 = 0.0  # when the last kernel run ended
        self._trial = None
        self._sweep = None

    def wrap(self, run_trial):
        def timed(*args):
            key = spans.sweep_trial(args)
            self._trial = {"t0": perf_counter(), "kernel_wall": 0.0, "scaled": 0.0}
            try:
                means, checksum, nonconverged = run_trial(*args)
            except Exception as exc:  # a failed trial is counted, not fatal
                self._end_trial(key)
                self.failures[key] = f"raised {exc!r}"
                config = args[2]
                shape = (len(config.schemes), len(config.power_grid_dbw_per_beam))
                return np.full(shape, np.nan), "", np.zeros(shape, dtype=int)
            self._end_trial(key)
            self.means[key] = np.array(means, dtype=float)
            if not (np.all(np.isfinite(means)) and np.all(np.asarray(means) > 0)):
                self.failures[key] = "non-finite or non-positive mean"
            return means, checksum, nonconverged

        return timed

    def checkpoint(self, run_scheme):
        """run_scheme, followed by a kernel run when the segment is long."""
        def checked(*args):
            result = run_scheme(*args)
            t = perf_counter()
            if t - max(self._segment_t0, self._trial["t0"]) > SEGMENT_S:
                self._segment(t)
            return result

        return checked

    def _segment(self, t: float) -> None:
        """End the trial's current segment at t with a kernel run."""
        trial = self._trial
        start = max(self._segment_t0, trial["t0"])
        after = calib.warm_s()
        self._segment_t0 = perf_counter()
        scaled = (t - start) * calib.NOMINAL_S / (0.5 * (self._kernel_s + after))
        self._kernel_s = after
        self.kernel.append(after)
        trial["scaled"] += scaled
        trial["kernel_wall"] += self._segment_t0 - t
        self._sweep["kernel"].append(after)
        self._sweep["kernel_wall"] += self._segment_t0 - t

    def _end_trial(self, key) -> None:
        t = perf_counter()
        trial = self._trial
        self.latency[key] = t - trial["t0"] - trial["kernel_wall"]
        self._sweep["trial_wall"] += self.latency[key]
        if self.calibrate:
            self._segment(t)
            self.scaled[key] = trial["scaled"]
            self._sweep["trial_scaled"] += trial["scaled"]

    def begin_sweep(self) -> None:
        if self.calibrate and self._kernel_s is None:
            self._kernel_s = calib.warm_s()
        self._sweep = {"kernel_wall": 0.0, "kernel": [], "trial_wall": 0.0,
                       "trial_scaled": 0.0}

    def end_sweep(self, elapsed: float) -> None:
        """Add a sweep of `elapsed` wall seconds; the time outside its trials
        (argument parsing, aggregation, export) scales by the sweep's median
        kernel time."""
        sw = self._sweep
        self.wall_s += elapsed
        self.sweep_s += elapsed - sw["kernel_wall"]
        if self.calibrate:
            outside = elapsed - sw["kernel_wall"] - sw["trial_wall"]
            kernel = statistics.median(sw["kernel"] or [self._kernel_s])
            self.scaled_s += sw["trial_scaled"] + outside * calib.NOMINAL_S / kernel


def sweep(workload: Workload, seed: int, trials: int, log: TrialLog,
          tracer=None) -> None:
    """One simulate sweep at master seed `seed`, recorded in log."""
    import satcoop.cli as cli
    import satcoop.harness as harness

    out = OUT_DIR / "results.csv"
    hooks = [(harness, "run_trial", log.wrap(harness.run_trial))]
    if log.calibrate:
        hooks.append((harness, "run_scheme", log.checkpoint(harness.run_scheme)))
    with spans.patched(hooks):
        main, traced = cli.main, []
        if tracer is not None:
            traced, main = spans.install(tracer, cli.main)
        with spans.patched(traced), contextlib.redirect_stdout(io.StringIO()):
            log.begin_sweep()
            t0 = perf_counter()
            code = main(workload.argv(seed, trials, out))
            log.end_sweep(perf_counter() - t0)
    ran = sum(1 for s, _ in log.latency if s == seed)
    if code != 0:
        log.failures[(seed, "sweep")] = f"simulate exited with code {code}"
    elif ran != trials:
        log.failures[(seed, "sweep")] = f"ran {ran} of {trials} trials"
    else:
        check_export(workload, log, seed, trials, out)


def check_export(workload, log, seed, trials, path) -> None:
    """The exported CSV must hold the mean of the sweep's per-trial means."""
    if any(s == seed for s, _ in log.failures):
        return
    expected = np.mean([log.means[seed, t] for t in range(trials)], axis=0)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = len(rows) == expected.size and path.with_suffix(".dat").is_file()
    for i, row in enumerate(rows if ok else ()):
        si, pi = divmod(i, expected.shape[1])
        ok = (ok and row["scheme"] == workload.schemes[si]
              and int(row["trials"]) == trials
              and math.isclose(float(row["mean_throughput_mbps"]),
                               expected[si, pi], rel_tol=1e-9))
    if not ok:
        log.failures[(seed, "export")] = ("exported report does not match "
                                          "the trial outputs")


def chunks_for(workload, seed, seconds, trials_per_chunk, passes,
               min_trials=1) -> int:
    """Sweep chunks, each once per (log, tracer) pass in order, until the
    next chunk would take the first pass past `seconds` of sweeping.
    Returns the number of chunks."""
    first = passes[0][0]
    chunks = 0
    while True:
        before = first.wall_s
        for log, tracer in passes:
            sweep(workload, 1000 * seed + chunks, trials_per_chunk, log, tracer)
        chunks += 1
        if (2 * first.wall_s - before > seconds
                and chunks * trials_per_chunk >= min_trials):
            return chunks


def check_reference(name: str, workload: Workload) -> TrialLog:
    """Re-run the pinned trials; off-reference trials become failures."""
    with open(REFERENCE_PATH) as fh:
        pinned = json.load(fh)[name]
    log = TrialLog()
    for seed in REFERENCE_SEEDS:
        sweep(workload, seed, workload.reference_trials, log)
        for t, expected in enumerate(pinned[str(seed)]):
            got = log.means.get((seed, t))
            if got is not None and not np.allclose(got, expected,
                                                   rtol=REFERENCE_RTOL, atol=0):
                worst = np.max(np.abs(got / np.array(expected) - 1))
                log.failures.setdefault(
                    (seed, t), f"off the pinned means by {worst:.3g}")
    return log


def pin_reference(names) -> None:
    pinned = {}
    if REFERENCE_PATH.is_file():
        with open(REFERENCE_PATH) as fh:
            pinned = json.load(fh)
    for name in names:
        workload, log = WORKLOADS[name], TrialLog()
        for seed in REFERENCE_SEEDS:
            sweep(workload, seed, workload.reference_trials, log)
        if log.failures:
            raise SystemExit(f"{name}: {log.failures}")
        pinned[name] = {str(seed): [log.means[seed, t].tolist()
                                    for t in range(workload.reference_trials)]
                        for seed in REFERENCE_SEEDS}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")


def tail(latencies) -> tuple:
    """Highest order statistic with ten samples beyond it, and its percentile."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(workload, seed, seconds, trials_per_chunk):
    log = TrialLog(calibrate=True)
    chunks_for(workload, seed, seconds, trials_per_chunk, [(log, None)],
               min_trials=MIN_TRIALS)
    lat = list(log.scaled.values())
    tail_s, tail_pct = tail(lat)
    metrics = {
        "trials_per_s": len(lat) / log.scaled_s,
        "trial_s_p50": statistics.median(lat),
        "trial_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = list(log.latency.values())
    notes = {"trials": len(lat), "sweep_s": log.sweep_s,
             "scaled_sweep_s": log.scaled_s, "tail_percentile": tail_pct,
             "wall": {"trials_per_s": len(wall) / log.sweep_s,
                      "trial_s_p50": statistics.median(wall),
                      "trial_s_tail": tail(wall)[0]},
             "kernel_s": {"nominal": calib.NOMINAL_S,
                          "quartiles": statistics.quantiles(log.kernel, n=4),
                          "min": min(log.kernel), "max": max(log.kernel)}}
    return metrics, [log], notes


def setup() -> tuple:
    """Median set-up time of SETUP_PROBES fresh interpreters (setup_probe.py),
    each scaled to the nominal speed by the calibration kernel run just
    before and just after it, on the same CPU."""
    scaled, notes = [], []
    for _ in range(SETUP_PROBES):
        before = calib.warm_s()
        probe = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                               cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=60, check=True)
        after = calib.warm_s()
        wall = float(probe.stdout)
        scaled.append(wall * calib.NOMINAL_S / (0.5 * (before + after)))
        notes.append({"wall_s": wall, "kernel_before_s": before,
                      "kernel_after_s": after})
    return statistics.median(scaled), notes


def layer_metrics(tracer, n_trials: int) -> dict:
    from satcoop.harness import SCHEME_NAMES

    total, calls, own = {}, {}, {}
    kind_own, kind_calls = {}, {}
    alloc = np.zeros(3)
    for rec, self_s in zip(tracer.spans, tracer.self_times()):
        name = rec[spans.NAME]
        total[name] = total.get(name, 0.0) + rec[spans.END] - rec[spans.START]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
        if name == "schemes.run_scheme":
            kind = rec[spans.TAG]
            kind_own[kind] = kind_own.get(kind, 0.0) + self_s
            kind_calls[kind] = kind_calls.get(kind, 0) + 1
        elif name == "power_alloc.allocate_sumrate_batch":
            problems, _, iterations, nonconverged = rec[spans.TAG]
            alloc += (problems, iterations, nonconverged)

    def ms_per_trial(table, key):
        return 1e3 * table.get(key, 0.0) / n_trials

    def per_trial(key):
        return calls.get(key, 0) / n_trials

    metrics = {
        "harness.run_trial.self_ms_per_trial": ms_per_trial(own, "harness.run_trial"),
        "geometry.drop_users.ms_per_trial": ms_per_trial(total, "geometry.drop_users"),
        "channel.synthesize_channels.ms_per_trial":
            ms_per_trial(total, "channel.synthesize_channels"),
        "channel.checksum.calls_per_trial": per_trial("channel.checksum"),
        "channel.checksum.ms_per_trial": ms_per_trial(total, "channel.checksum"),
        "precoding.select_edge_users.calls_per_trial":
            per_trial("precoding.select_edge_users"),
        "precoding.select_edge_users.ms_per_trial":
            ms_per_trial(total, "precoding.select_edge_users"),
        "schemes.run_scheme.self_ms_per_trial": ms_per_trial(own, "schemes.run_scheme"),
        "power_alloc.allocate_sumrate_batch.calls_per_trial":
            per_trial("power_alloc.allocate_sumrate_batch"),
        "power_alloc.allocate_sumrate_batch.ms_per_trial":
            ms_per_trial(total, "power_alloc.allocate_sumrate_batch"),
        "power_alloc.problems_per_trial": alloc[0] / n_trials,
        "power_alloc.iterations_per_trial": alloc[1] / n_trials,
        "power_alloc.nonconverged_per_trial": alloc[2] / n_trials,
        "power_alloc.project_power.calls_per_trial": per_trial("power_alloc.project_power"),
        "power_alloc.project_power.ms_per_trial":
            ms_per_trial(total, "power_alloc.project_power"),
        # per sweep, summed over the chunks
        "harness.run_sweep.self_ms": 1e3 * own.get("harness.run_sweep", 0.0),
        "harness.export_report.ms": 1e3 * total.get("harness.export_report", 0.0),
        "cli.main.self_ms": 1e3 * own.get("cli.main", 0.0),
    }
    for short, kind in SCHEME_NAMES.items():
        n = kind_calls.get(kind, 0)
        metrics[f"schemes.{short}.self_ms_per_call"] = (
            1e3 * kind_own[kind] / n if n else 0.0)
    return metrics


def traced(name, workload, seed, seconds, trials_per_chunk):
    # each chunk runs traced, untraced, traced again: pairing each untraced
    # trial with the mean of its two traced runs, seconds apart, cancels
    # most of the drift in machine speed
    tracer, tracer_b = spans.Tracer(), spans.Tracer()
    log_a, log_u, log_b = TrialLog(), TrialLog(), TrialLog()
    chunks = chunks_for(workload, seed, seconds / 3, trials_per_chunk,
                        [(log_a, tracer), (log_u, None), (log_b, tracer_b)])

    check = TrialLog()
    for key, means in log_u.means.items():
        if not all(key in lg.means and np.array_equal(lg.means[key], means)
                   for lg in (log_a, log_b)):
            check.failures[key] = "tracing changed the outputs"
    counts_a, counts_b = spans.trial_counts(tracer), spans.trial_counts(tracer_b)
    for key in counts_a.keys() | counts_b.keys():
        if counts_a.get(key) != counts_b.get(key):
            check.failures[key] = (
                f"work counts differ between traced runs: {counts_a.get(key)} "
                f"!= {counts_b.get(key)}")

    metrics = layer_metrics(tracer, len(log_a.latency))
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(
        2 * lat / (log_a.latency[key] + log_b.latency[key])
        for key, lat in log_u.latency.items())
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    notes = {"trials": len(log_a.latency), "chunks": chunks,
             "traced_sweep_s": log_a.sweep_s, "untraced_sweep_s": log_u.sweep_s,
             "spans": len(tracer.spans)}
    return metrics, [log_a, log_u, log_b, check], notes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def run_record(args, workload) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SATCOOP_WORKERS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "schemes": list(workload.schemes),
        "power_dbw": POWER_GRID,
        "m": workload.m,
        "workers": 1,
        "reference_seeds": list(REFERENCE_SEEDS),
        "reference_trials_per_seed": workload.reference_trials,
    }


def declared_units(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--pin", nargs="+", choices=WORKLOADS,
                        help="rewrite reference.json for these workloads")
    args = parser.parse_args(argv)
    if not args.pin and None in (args.workload, args.seed, args.seconds,
                                 args.trace):
        parser.error("give --pin, or --workload, --seed, --seconds and --trace")

    import satcoop
    if not Path(satcoop.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"satcoop was imported from {satcoop.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    if args.pin:
        pin_reference(args.pin)
        return 0

    workload = WORKLOADS[args.workload]
    record = run_record(args, workload)
    # One CPU for the process and its set-up probes: the host's CPUs change
    # speed independently, and a time is scaled by kernel runs on its own CPU.
    record["cpu_pinned"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["cpu_pinned"]})
    reference = check_reference(args.workload, workload)
    trial_s = statistics.fmean(reference.latency.values())
    if args.trace:
        trials_per_chunk = max(1, round(args.seconds / 3 / CHUNKS / trial_s))
        metrics, logs, notes = traced(args.workload, workload, args.seed,
                                      args.seconds, trials_per_chunk)
    else:
        trials_per_chunk = max(1, round(args.seconds / CHUNKS / trial_s))
        metrics, logs, notes = end_to_end(workload, args.seed, args.seconds,
                                          trials_per_chunk)
        metrics["setup_s"], notes["setup"] = setup()
    logs.append(reference)
    attempted = sum(len(lg.latency) for lg in logs)
    failures = {f"{key}": reason for lg in logs for key, reason in lg.failures.items()}

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    notes["trials_per_chunk"] = trials_per_chunk
    record.update(notes=notes, attempted=attempted, failures=failures,
                  metrics=metrics)
    record_path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"{args.workload} seed {args.seed}: {notes}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(f"  failed {len(failures)} of {attempted} trials; record in "
          f"{record_path.relative_to(ROOT)}", file=sys.stderr)
    for where, reason in failures.items():
        print(f"  FAILED {where}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
