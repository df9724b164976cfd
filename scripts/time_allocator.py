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
It also gives the lockstep iterations per batch: the sum, over the
batch's _ascend calls (the first ascent, and the restarts' if any row
restarts), of each call's largest iteration count, which is the
allocator's tail, and the project_power calls per batch with how many of
the projected rows were within budget (the projection only clips those).
--save writes the captured batches and the outputs (x, converged,
iterations) to an .npz file; --compare loads such a file, solves its
batches instead of capturing new ones, and exits 1 unless every output
is bit for bit the saved one.  With the file written in one checkout and
compared in another, this shows that a change to the allocator leaves
its outputs unchanged.
"""

import argparse
import statistics
import sys
from time import perf_counter

import numpy as np

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
    """(x, converged, iterations) of every batch, each batch's lockstep
    iterations (the sum, over its _ascend calls, of each call's largest
    iteration count) and project_power traffic: calls, rows, and rows
    within budget, which the projection only clips."""
    lockstep = []
    traffic = {"calls": 0, "rows": 0, "within": 0}
    ascend, project = power_alloc._ascend, power_alloc.project_power

    def counting(*args):
        result = ascend(*args)
        lockstep[-1] += int(result[3].max())
        return result

    def projecting(v):
        rows = v.reshape(-1, v.shape[-1])
        # project_power's own budget test
        over = np.add.reduce(np.maximum(rows, 0.0), axis=-1) > 1.0
        traffic["calls"] += 1
        traffic["rows"] += len(rows)
        traffic["within"] += len(rows) - np.count_nonzero(over)
        return project(v)

    power_alloc._ascend, power_alloc.project_power = counting, projecting
    try:
        outputs = []
        for gains, streams in batches:
            lockstep.append(0)
            outputs.append(allocate_sumrate_batch(gains, streams)[:3])
    finally:
        power_alloc._ascend, power_alloc.project_power = ascend, project
    return outputs, lockstep, traffic


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
    outputs, lockstep, traffic = solve(batches)
    if args.save:
        save(args.save, batches, outputs)
    if args.compare:
        bad = [i for i, (got, saved) in enumerate(zip(outputs, want))
               if not all(np.array_equal(a, b) for a, b in zip(got, saved))]
        if bad:
            print(f"{len(bad)} of {len(batches)} batches differ from "
                  f"{args.compare}, first {bad[0]}", file=sys.stderr)
            return 1
        print(f"all {len(batches)} batches match {args.compare}")

    times = time_rounds(batches, args.rounds)
    scale = 1e3 / len(batches)
    rows = sum(len(s) for _, s in batches)
    iterations = sum(int(out[2].sum()) for out in outputs)
    print(f"{len(batches)} batches, {rows} problems, {iterations} iterations")
    print(f"lockstep iterations per batch: mean "
          f"{statistics.mean(lockstep):.2f}, max {max(lockstep)}")
    print(f"projection calls per batch: {traffic['calls'] / len(batches):.2f}"
          f"; rows within budget: {traffic['within']} of {traffic['rows']}")
    print(f"allocator ms per batch: median {statistics.median(times) * scale:.3f}"
          f", rounds " + " ".join(f"{t * scale:.3f}" for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
