#!/usr/bin/env python3
"""Time the power allocator on the batches that real trials hand it.

    python scripts/time_allocator.py --trials 20 --save alloc.npz
    python scripts/time_allocator.py --compare alloc.npz
    python scripts/time_allocator.py --schemes csidata --m 3

Runs the trials of one workload shape (schemes, m, the default power grid,
master seed) and captures every allocate_sumrate_batch call that
run_schemes makes, then times allocate_sumrate_batch on those batches in
process: each round solves every batch once, in trial order, and the
report gives the allocator's milliseconds per batch over the rounds
(run_schemes makes one call per block of up to 8 power points, so one
per trial at the default grid, when a precoded scheme is configured).
It also gives the passes per batch of each _ascend call apart: the first
ascent's, and the restart ascent's (0 where no row restarts) with the
rows restarted per batch.  Each pass makes one project_power call, so the
calls count them.  And it gives the ladder points per batch, the rows
project_power takes (a row tries one point per step of its pass).  --save
writes the captured batches and the outputs (x, converged, iterations)
to an .npz file; --compare loads such a file, solves its batches instead
of capturing new ones, and exits 1 unless every output is bit for bit
the saved one, naming each array that differs (x_3 is batch 3's x) with
its count of differing cells.
With the file written in one checkout and compared in another, this
shows that a change to the allocator leaves its outputs unchanged.
"""

import argparse
import statistics
import sys
from time import perf_counter

import numpy as np

from compare_outputs import differing_cells
from satcoop import power_alloc, schemes
from satcoop.channel import LinkBudget
from satcoop.geometry import build_topology
from satcoop.harness import SimConfig, run_trial
from satcoop.power_alloc import allocate_sumrate_batch

OUTPUTS = ("x", "converged", "iterations")


def capture(config: SimConfig):
    """Every (gains, streams) batch run_schemes allocates, trials in order."""
    batches = []

    def recording(gains, streams):
        batches.append((gains.copy(), streams.copy()))
        return allocate_sumrate_batch(gains, streams)

    topology = build_topology(config.coverage_diameter_km)
    original = schemes.allocate_sumrate_batch
    schemes.allocate_sumrate_batch = recording
    try:
        for trial in range(config.trials):
            run_trial(topology, LinkBudget(), config, trial)
    finally:
        schemes.allocate_sumrate_batch = original
    return batches


def solve(batches):
    """(x, converged, iterations) of every batch; and each batch's
    ascents, a [rows, passes] pair per _ascend call (its rows and its
    project_power calls), and ladder points (the rows those calls
    project)."""
    ascents, points = [], []
    project, ascend = power_alloc.project_power, power_alloc._ascend

    def projecting(v):
        ascents[-1][-1][1] += 1
        points[-1] += v.size // v.shape[-1]
        return project(v)

    def ascending(gains, p0, max_iters):
        ascents[-1].append([len(gains), 0])
        return ascend(gains, p0, max_iters)

    power_alloc.project_power, power_alloc._ascend = projecting, ascending
    try:
        outputs = []
        for gains, streams in batches:
            ascents.append([])
            points.append(0)
            outputs.append(allocate_sumrate_batch(gains, streams)[:3])
    finally:
        power_alloc.project_power, power_alloc._ascend = project, ascend
    return outputs, ascents, points


def time_rounds(batches, rounds: int):
    """Seconds each round takes to solve every batch once."""
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        for gains, streams in batches:
            allocate_sumrate_batch(gains, streams)
        times.append(perf_counter() - t0)
    return times


def save(path, batches, outputs) -> None:
    arrays = {}
    for i, ((gains, streams), out) in enumerate(zip(batches, outputs)):
        arrays[f"gains_{i}"], arrays[f"streams_{i}"] = gains, streams
        for name, value in zip(OUTPUTS, out):
            arrays[f"{name}_{i}"] = value
    np.savez_compressed(path, count=len(batches), **arrays)


def load(path):
    """The saved batches and their saved outputs."""
    with np.load(path) as data:
        n = int(data["count"])
        batches = [(data[f"gains_{i}"], data[f"streams_{i}"]) for i in range(n)]
        outputs = [tuple(data[f"{name}_{i}"] for name in OUTPUTS)
                   for i in range(n)]
    return batches, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schemes", default="coloring,rzf,csi,csidata")
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    files = parser.add_mutually_exclusive_group()
    files.add_argument("--save", metavar="NPZ",
                       help="write the captured batches and their outputs")
    files.add_argument("--compare", metavar="NPZ",
                       help="solve the batches of a saved file and check "
                            "the outputs against it")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return 1

    if args.compare:
        batches, want = load(args.compare)
    else:
        config = SimConfig(trials=args.trials, master_seed=args.seed,
                           schemes=tuple(args.schemes.split(",")),
                           m_per_neighbour=args.m, workers=1)
        try:
            config.validate()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        batches = capture(config)
        if not batches:
            print("error: no allocator call to time: configure a precoded "
                  "scheme", file=sys.stderr)
            return 1
    outputs, ascents, points = solve(batches)
    if args.save:
        save(args.save, batches, outputs)
    if args.compare:
        moved = 0
        for i, (got, saved) in enumerate(zip(outputs, want)):
            for name, a, b in zip(OUTPUTS, got, saved):
                cells = differing_cells(a, b)
                if cells is None:
                    print(f"{name}_{i}: {b.dtype}{list(b.shape)} saved, "
                          f"{a.dtype}{list(a.shape)} now", file=sys.stderr)
                elif cells:
                    print(f"{name}_{i}: {cells} of {a.size} cells differ",
                          file=sys.stderr)
                moved += cells != 0
        if moved:
            print(f"{moved} of {len(OUTPUTS) * len(batches)} arrays differ "
                  f"from {args.compare}", file=sys.stderr)
            return 1
        print(f"all {len(batches)} batches match {args.compare}")

    times = time_rounds(batches, args.rounds)
    scale = 1e3 / len(batches)
    rows = sum(len(s) for _, s in batches)
    iterations = sum(int(out[2].sum()) for out in outputs)
    print(f"{len(batches)} batches, {rows} problems, {iterations} iterations")
    first = [a[0][1] for a in ascents]
    # a batch with no row to restart makes no second _ascend call
    restarted, again = zip(*(a[1] if len(a) > 1 else (0, 0) for a in ascents))
    print(f"passes per batch: first ascent mean {statistics.mean(first):.2f}"
          f", max {max(first)}; restart ascent mean "
          f"{statistics.mean(again):.2f}, max {max(again)}, over "
          f"{statistics.mean(restarted):.2f} rows restarted")
    print(f"ladder points per batch: mean {statistics.mean(points):.1f}")
    print(f"allocator ms per batch: median {statistics.median(times) * scale:.3f}"
          f", rounds " + " ".join(f"{t * scale:.3f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
