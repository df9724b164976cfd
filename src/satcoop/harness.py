"""Seeded Monte-Carlo driver: power sweep, aggregation and report export.

Every trial derives its seed from (master_seed, trial_index) alone, so
results are bitwise reproducible regardless of worker count, and extending
the trial count leaves earlier trials unchanged.  All schemes in a trial
consume the identical channel realization (paired design).
"""

from __future__ import annotations

import csv
import ctypes
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channel import LinkBudget, synthesize_channels
from .geometry import (Topology, build_topology, drop_users,
                       footprint_matched_diameter)
from .schemes import SCHEME_NAMES, run_schemes

# patched by satbench/spans.py's span and satbench/worker.py's checkpoint
run_scheme = run_schemes

# physical range of the per-beam transmit power, 1 uW to 1 MW
POWER_RANGE_DBW = (-60.0, 60.0)
# every point costs one (scheme, power) cell per scheme in every trial
MAX_GRID_POINTS = 1000
# run_sweep keeps each trial's (scheme, power) means and its checksum as
# the trial lands: 0.3 kB per trial at the default 4 schemes x 7 powers
# (tracemalloc), so 0.3 GB at this cap; the checksum list grows with trials
# alone, so this cap stays beside MAX_STORE_BYTES
MAX_TRIALS = 1_000_000
# the means go into one (S, P, T) float64 store, 8 bytes a cell, allocated
# at the first trial: 4 schemes x 1000 powers x MAX_TRIALS would be 32 GB
MAX_STORE_BYTES = 2**30

CSV_FIELDS = ("scheme", "per_beam_power_dbw", "mean_throughput_mbps",
              "std_error_mbps", "trials")


@dataclass(frozen=True)
class SimConfig:
    """Sweep configuration.

    The default power grid spans -15..15 dBW per beam (37..67 dBW EIRP with
    the 52 dBi feed gain), bracketing deployed multibeam operating points;
    the default coverage diameter inscribes each hex cell in its beam's
    -3 dB footprint so the layout is consistent with the antenna model.
    """

    trials: int = 200
    master_seed: int = 1
    power_grid_dbw_per_beam: tuple = (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    schemes: tuple = ("coloring", "rzf", "csi", "csidata")
    m_per_neighbour: int = 1
    out_path: str = "results.csv"
    out_format: str = "csv"
    paper_literal_coloring: bool = False
    workers: int | None = None
    # the canonical layout, not settable: build_topology takes only 7 beams
    # per cluster, and the benchmark's set-up probe reads these attributes
    coverage_diameter_km: ClassVar[float] = footprint_matched_diameter()
    clusters: ClassVar[int] = 19
    beams_per_cluster: ClassVar[int] = 7

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials={self.trials} exceeds the cap of "
                             f"{MAX_TRIALS}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative, got "
                             f"{self.master_seed}")
        grid = self.power_grid_dbw_per_beam
        if not grid:
            raise ValueError("power grid must be nonempty")
        if len(grid) > MAX_GRID_POINTS:
            raise ValueError(f"power grid has {len(grid)} points; at most "
                             f"{MAX_GRID_POINTS} are allowed")
        low, high = POWER_RANGE_DBW
        for dbw in grid:
            # written so that nan fails the comparison too
            if not low <= dbw <= high:
                raise ValueError(f"power grid point {dbw} dBW per beam is "
                                 f"outside [{low:g}, {high:g}] dBW")
        repeat = _first_repeat(grid)
        if repeat is not None:
            raise ValueError(f"power grid point {repeat:g} dBW per beam is "
                             "repeated")
        if not self.schemes:
            raise ValueError("at least one scheme must be selected")
        for name in self.schemes:
            if name not in SCHEME_NAMES:
                raise ValueError(f"unknown scheme {name!r}; valid: "
                                 + ",".join(SCHEME_NAMES))
        repeat = _first_repeat(self.schemes)
        if repeat is not None:
            raise ValueError(f"scheme {repeat!r} is repeated")
        store = 8 * len(self.schemes) * len(grid) * self.trials
        if store > MAX_STORE_BYTES:
            raise ValueError(f"the sweep store of {store} bytes (8 per "
                             "scheme, power point and trial) exceeds the "
                             f"cap of {MAX_STORE_BYTES} bytes")
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.out_format!r}")
        if companion_path(self.out_path) == self.out_path:
            raise ValueError(f"output path {self.out_path!r} is its own .dat "
                             "companion; use another extension")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.m_per_neighbour < 0:
            raise ValueError("m_per_neighbour must be nonnegative")
        if self.m_per_neighbour > self.beams_per_cluster:
            raise ValueError(f"m_per_neighbour={self.m_per_neighbour} exceeds "
                             f"the {self.beams_per_cluster} users of a cluster")


def companion_path(path: str) -> str:
    """The gnuplot-style companion export_report writes next to path."""
    return os.path.splitext(path)[0] + ".dat"


def _first_repeat(values):
    """The first value that occurs earlier in values, or None."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


@dataclass
class SweepReport:
    """Aggregated sweep outcome: (scheme, power) cells over paired trials."""

    schemes: tuple
    power_grid_dbw: tuple
    trials: int
    mean_mbps: np.ndarray            # (S, P)
    stderr_mbps: np.ndarray          # (S, P)
    trial_mbps: np.ndarray           # (S, P, T) per-trial mean-per-beam values
    checksums: tuple                 # per-trial realization checksums
    nonconverged: np.ndarray         # (S, P) solver flags tripped


def run_trial(topology: Topology, budget: LinkBudget, config: SimConfig,
              trial: int):
    """One seeded trial: a drop, a realization, all schemes at all powers.

    Returns (means (S, P) in Mbps, checksum, nonconverged counts (S, P)).
    """
    seed = np.random.SeedSequence([config.master_seed, trial])
    drop_seq, chan_seq = seed.spawn(2)
    drop = drop_users(topology, drop_seq)
    realization = synthesize_channels(topology, drop, budget, chan_seq)
    # one call over one read-only realization pairs every (scheme, power) cell
    result = run_schemes(topology, realization, config)
    means = (result.rate * realization.bandwidth_hz).mean(axis=-1) / 1e6
    return means, realization.checksum(), result.nonconverged


def _trial_star(args):
    return run_trial(*args)


def aggregate_mean_stderr(values: np.ndarray):
    """Mean and standard error over the last axis (stderr 0 for one sample)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    mean = values.mean(axis=-1)
    if n < 2:
        return mean, np.zeros_like(mean)
    # cell by cell, so that the deviations never copy all of values
    std = np.array([row.std(ddof=1) for row in values.reshape(-1, n)])
    return mean, std.reshape(mean.shape) / math.sqrt(n)


def paired_gain(report: SweepReport, a: str, b: str):
    """Gain mean_a / mean_b - 1 of scheme a over scheme b, and its error.

    Returns (gain, standard error) arrays over the power grid.  Both
    schemes see the same trials, so with x and y their per-trial values
    and R = mean(x) / mean(y), the delta-method standard error of R is
    that of the mean of x - R*y, divided by mean(y).  One trial gives 0.
    """
    x = report.trial_mbps[report.schemes.index(a)]
    y = report.trial_mbps[report.schemes.index(b)]
    mean_y = y.mean(axis=-1)
    ratio = x.mean(axis=-1) / mean_y
    _, stderr = aggregate_mean_stderr(x - ratio[:, None] * y)
    return ratio - 1.0, stderr / mean_y


def _retain_heap() -> None:
    """Keep freed heap mapped in this process for the trials that follow.

    A trial frees (N, N) temporaries and global_sinr's amplitude arrays,
    and glibc's default mmap and trim thresholds hand that memory back to
    the kernel, so the next trial page-faults it in again.  Fixed
    thresholds (M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 256 MiB) keep it
    mapped.  The setting holds for the whole process; where the C library
    has no mallopt (not glibc) this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


def _aggregate(config: SimConfig, outcomes) -> SweepReport:
    """The report of a sweep's run_trial outcomes, taken in trial order as
    they arrive: each trial's means go into one (S, P, T) array, allocated
    at the first outcome, and its non-converged counts into a running sum,
    so no outcome is held after its trial."""
    values = nonconv = None
    checksums = []
    for t, (means, checksum, counts) in enumerate(outcomes):
        if values is None:
            values = np.empty(means.shape + (config.trials,))
            nonconv = np.zeros_like(counts)
        values[..., t] = means
        checksums.append(checksum)
        nonconv += counts

    mean, stderr = aggregate_mean_stderr(values)
    return SweepReport(
        schemes=tuple(config.schemes),
        power_grid_dbw=tuple(config.power_grid_dbw_per_beam),
        trials=config.trials,
        mean_mbps=mean,
        stderr_mbps=stderr,
        trial_mbps=values,
        checksums=tuple(checksums),
        nonconverged=nonconv,
    )


def run_sweep(config: SimConfig) -> SweepReport:
    """Run the paired Monte-Carlo sweep described by config."""
    config.validate()
    _retain_heap()
    topology = build_topology(config.coverage_diameter_km,
                              config.beams_per_cluster, config.clusters)
    budget = LinkBudget()

    # built one at a time as trials start, never all up front
    jobs = ((topology, budget, config, t) for t in range(config.trials))
    # one per CPU unless set, and never more than trials or CPUs
    cpus = os.cpu_count() or 1
    workers = min(config.workers or cpus, config.trials, cpus)
    if workers > 1:
        # imported only here: a one-worker run never starts a pool
        import multiprocessing
        with multiprocessing.Pool(workers, initializer=_retain_heap) as pool:
            return _aggregate(config, pool.imap(_trial_star, jobs))
    return _aggregate(config, (run_trial(*job) for job in jobs))


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def export_report(report: SweepReport, path: str, fmt: str = "csv") -> None:
    """Write the aggregated report plus a gnuplot-style companion file.

    CSV columns: scheme, per_beam_power_dbw, mean_throughput_mbps,
    std_error_mbps, trials.  JSON mirrors the same fields as a row list.
    The companion <base>.dat holds one x-column of power and one y-column
    of mean throughput per scheme for direct plotting.
    """
    rows = []
    for si, scheme in enumerate(report.schemes):
        for pi, dbw in enumerate(report.power_grid_dbw):
            rows.append({
                "scheme": scheme,
                "per_beam_power_dbw": _fmt(dbw),
                "mean_throughput_mbps": _fmt(report.mean_mbps[si, pi]),
                "std_error_mbps": _fmt(report.stderr_mbps[si, pi]),
                "trials": str(report.trials),
            })

    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
    elif fmt == "json":
        import json
        with open(path, "w") as fh:
            json.dump({"rows": rows}, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")

    with open(companion_path(path), "w") as fh:
        fh.write("# per_beam_power_dbw " + " ".join(report.schemes) + "\n")
        for pi, dbw in enumerate(report.power_grid_dbw):
            cols = [_fmt(dbw)] + [_fmt(report.mean_mbps[si, pi])
                                  for si in range(len(report.schemes))]
            fh.write(" ".join(cols) + "\n")

