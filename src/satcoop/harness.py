"""Seeded Monte-Carlo driver: power sweep, aggregation and report export.

Every trial derives its seed from (master_seed, trial_index) alone, so
results are bitwise reproducible regardless of worker count, and extending
the trial count leaves earlier trials unchanged.  All schemes in a trial
consume the identical channel realization (paired design).
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, synthesize_channels
from .geometry import (Topology, build_topology, drop_users,
                       footprint_matched_diameter)
from .power_alloc import check_solver_settings
from .schemes import SCHEME_NAMES, run_schemes

# the benchmark's calibration hook patches this name; ROADMAP item 1 moves it
run_scheme = run_schemes

WORKERS_ENV_VAR = "SATCOOP_WORKERS"

# physical range of the per-beam transmit power, 1 uW to 1 MW
POWER_RANGE_DBW = (-60.0, 60.0)
# every point costs one (scheme, power) cell per scheme in every trial
MAX_GRID_POINTS = 1000

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
    solver_tol: float = 1e-6
    solver_max_iters: int = 500
    out_path: str = "results.csv"
    out_format: str = "csv"
    paper_literal_coloring: bool = False
    workers: int | None = None
    coverage_diameter_km: float = footprint_matched_diameter()
    clusters: int = 19
    beams_per_cluster: int = 7

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
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
        if self.out_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.out_format!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.m_per_neighbour < 0:
            raise ValueError("m_per_neighbour must be nonnegative")
        if self.m_per_neighbour > self.beams_per_cluster:
            raise ValueError(f"m_per_neighbour={self.m_per_neighbour} exceeds "
                             f"the {self.beams_per_cluster} users of a cluster")
        check_solver_settings(self.solver_tol, self.solver_max_iters)


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
    relative_gain: dict              # (a, b) -> (P,) array, mean_a/mean_b - 1
    checksums: tuple                 # per-trial realization checksums
    nonconverged: np.ndarray         # (S, P) solver flags tripped


def run_trial(topology: Topology, budget: LinkBudget, config: SimConfig,
              trial: int):
    """One seeded trial: a drop, a realization, all schemes at all powers.

    Returns (means (S, P) in Mbps, checksum, nonconverged counts (S, P)).
    """
    seed = np.random.SeedSequence([config.master_seed, trial])
    drop_seq, chan_seq = seed.spawn(2)
    drop = drop_users(topology, np.random.default_rng(drop_seq))
    realization = synthesize_channels(topology, drop, budget,
                                      np.random.default_rng(chan_seq))
    # one call over one read-only realization pairs every (scheme, power) cell
    result = run_schemes(topology, realization, config)
    means = (result.rate * realization.bandwidth_hz).mean(axis=-1) / 1e6
    return means, realization.checksum(), result.nonconverged


def _trial_star(args):
    return run_trial(*args)


def resolve_workers(requested: int | None) -> int:
    if requested is not None:
        return max(1, requested)
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{WORKERS_ENV_VAR}={env!r} is not an integer >= 1")
        return workers
    return os.cpu_count() or 1


def aggregate_mean_stderr(values: np.ndarray):
    """Mean and standard error over the last axis (stderr 0 for one sample)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    mean = values.mean(axis=-1)
    if n < 2:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=-1, ddof=1) / math.sqrt(n)


def run_sweep(config: SimConfig) -> SweepReport:
    """Run the paired Monte-Carlo sweep described by config."""
    config.validate()
    topology = build_topology(config.coverage_diameter_km,
                              config.beams_per_cluster, config.clusters)
    budget = LinkBudget()

    jobs = [(topology, budget, config, t) for t in range(config.trials)]
    # never more processes than trials or CPUs, whatever was requested
    workers = min(resolve_workers(config.workers), config.trials,
                  os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            outcomes = pool.map(_trial_star, jobs)
    else:
        outcomes = [run_trial(*job) for job in jobs]

    trial_values = np.stack([m for m, _, _ in outcomes], axis=-1)  # (S, P, T)
    checksums = tuple(c for _, c, _ in outcomes)
    nonconv = np.sum([n for _, _, n in outcomes], axis=0)

    mean, stderr = aggregate_mean_stderr(trial_values)

    gains = {}
    for ai, a in enumerate(config.schemes):
        for bi, b in enumerate(config.schemes):
            if a != b:
                gains[(a, b)] = mean[ai] / mean[bi] - 1.0

    return SweepReport(
        schemes=tuple(config.schemes),
        power_grid_dbw=tuple(config.power_grid_dbw_per_beam),
        trials=config.trials,
        mean_mbps=mean,
        stderr_mbps=stderr,
        trial_mbps=trial_values,
        relative_gain=gains,
        checksums=checksums,
        nonconverged=nonconv,
    )


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
        with open(path, "w") as fh:
            json.dump({"rows": rows}, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")

    base, _ = os.path.splitext(path)
    with open(base + ".dat", "w") as fh:
        fh.write("# per_beam_power_dbw " + " ".join(report.schemes) + "\n")
        for pi, dbw in enumerate(report.power_grid_dbw):
            cols = [_fmt(dbw)] + [_fmt(report.mean_mbps[si, pi])
                                  for si in range(len(report.schemes))]
            fh.write(" ".join(cols) + "\n")

