#!/usr/bin/env python3
"""Check that a change leaves the simulator's outputs bit for bit unchanged.

    python scripts/compare_outputs.py --save before.npz      # one checkout
    python scripts/compare_outputs.py --compare before.npz   # another
    python scripts/compare_outputs.py --report before.npz

Computes one fixed set of named output arrays:
- run_schemes' rate, design_rate, nonconverged and edge_users (each
  gateway's array concatenated, with edge_counts per gateway) on trials
  0..T-1 of master seed 1 (--trials, default 3, at least 1), for m in
  {0, 1, 3, 7}, each scheme alone and all four, on the default 7-point
  grid and a 13-point grid of -15..45 dBW, which run_schemes takes in two
  blocks;
- run_trial's means, checksum and nonconverged counts on the same trials,
  all four schemes on the default grid, at each m;
- build_topology's arrays and to_json bytes for 1, 7 and 19 clusters at
  the footprint-matched diameter.

--save writes them to an .npz file.  --compare recomputes them and exits
1 on any bit, dtype or shape difference, or an array missing on either
side, naming each array that differs with its count of differing cells.
--report prints every array's count of differing cells and largest
relative move |a - b| / max(|a|, |b|) instead, and exits 0: the list a
change that moves outputs on purpose gives.
"""

import argparse
import sys

import numpy as np

from satcoop.channel import LinkBudget, synthesize_channels
from satcoop.geometry import (build_topology, drop_users,
                              footprint_matched_diameter)
from satcoop.harness import SimConfig, run_trial
from satcoop.schemes import SCHEME_NAMES, run_schemes

MASTER_SEED = 1
M_VALUES = (0, 1, 3, 7)
GRIDS = (SimConfig.power_grid_dbw_per_beam,
         tuple(np.arange(-15.0, 46.0, 5.0).tolist()))


def _text(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)


def outputs(trials: int) -> dict:
    """Every named output array, in a fixed order."""
    arrays = {}
    for clusters in (1, 7, 19):
        topology = build_topology(footprint_matched_diameter(clusters), 7,
                                  clusters)
        key = f"topology/c{clusters}"
        arrays[f"{key}/beam_centers"] = topology.beam_centers
        arrays[f"{key}/colour_of_beam"] = topology.colour_of_beam
        arrays[f"{key}/satellite_position"] = topology.satellite_position
        arrays[f"{key}/pitch_km"] = np.array(topology.pitch_km)
        arrays[f"{key}/neighbours"] = np.array(
            [c for nb in topology.neighbours for c in nb], dtype=int)
        arrays[f"{key}/neighbour_counts"] = np.array(
            [len(nb) for nb in topology.neighbours])
        arrays[f"{key}/to_json"] = _text(topology.to_json())

    topology = build_topology(SimConfig.coverage_diameter_km)
    budget = LinkBudget()
    configs = [(name, (name,)) for name in SCHEME_NAMES]
    configs.append(("all", tuple(SCHEME_NAMES)))
    for t in range(trials):
        # the drop and realization run_trial derives for trial t
        drop_seq, chan_seq = np.random.SeedSequence([MASTER_SEED, t]).spawn(2)
        realization = synthesize_channels(
            topology, drop_users(topology, drop_seq), budget, chan_seq)
        for m in M_VALUES:
            for label, names in configs:
                for grid in GRIDS:
                    config = SimConfig(schemes=names, m_per_neighbour=m,
                                       power_grid_dbw_per_beam=grid)
                    result = run_schemes(topology, realization, config)
                    key = f"run_schemes/t{t}/m{m}/{label}/p{len(grid)}"
                    arrays[f"{key}/rate"] = result.rate
                    arrays[f"{key}/design_rate"] = result.design_rate
                    arrays[f"{key}/nonconverged"] = result.nonconverged
                    arrays[f"{key}/edge_users"] = np.concatenate(
                        result.edge_users)
                    arrays[f"{key}/edge_counts"] = np.array(
                        [len(e) for e in result.edge_users])
            config = SimConfig(master_seed=MASTER_SEED, m_per_neighbour=m)
            means, checksum, nonconverged = run_trial(topology, budget,
                                                      config, t)
            key = f"run_trial/t{t}/m{m}"
            arrays[f"{key}/means"] = means
            arrays[f"{key}/checksum"] = _text(checksum)
            arrays[f"{key}/nonconverged"] = nonconverged
    return arrays


def _cells(array: np.ndarray) -> np.ndarray:
    """(cells, bytes) view of an array's bits."""
    flat = np.array(array).reshape(-1)
    return flat.view(np.uint8).reshape(flat.size, flat.dtype.itemsize)


def differing_cells(got: np.ndarray, want: np.ndarray):
    """The count of cells whose bits differ, or None where the dtypes or
    shapes differ."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return None
    return int(np.count_nonzero(np.any(_cells(got) != _cells(want), axis=1)))


def relative_move(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| / max(|got|, |want|) over the cells, 0 where
    both are 0."""
    got, want = got.astype(complex), want.astype(complex)
    diff = np.abs(got - want)
    scale = np.maximum(np.abs(got), np.abs(want))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(rel.max(initial=0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=3)
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--save", metavar="NPZ",
                        help="write the outputs to this file")
    action.add_argument("--compare", metavar="NPZ",
                        help="exit 1 unless the outputs equal the saved ones "
                             "bit for bit")
    action.add_argument("--report", metavar="NPZ",
                        help="print how far each output moved from the saved "
                             "one")
    args = parser.parse_args(argv)
    if args.trials < 1:
        # with no trials only the topology arrays are saved, and a compare
        # of them checks no simulator output
        print("error: --trials must be at least 1", file=sys.stderr)
        return 1

    if args.save:
        arrays = outputs(args.trials)
        np.savez_compressed(args.save, trials=args.trials, **arrays)
        print(f"saved {len(arrays)} arrays to {args.save}")
        return 0

    path = args.compare or args.report
    with np.load(path) as data:
        saved = {name: data[name] for name in data.files if name != "trials"}
        trials = int(data["trials"])
    if trials < 1:
        print(f"error: {path} holds no trial", file=sys.stderr)
        return 1
    arrays = outputs(trials)
    missing = sorted(saved.keys() ^ arrays.keys())
    for name in missing:
        side = "saved file" if name in arrays else "this checkout"
        print(f"{name}: missing from {side}", file=sys.stderr)
    moved = 0
    for name in sorted(saved.keys() & arrays.keys()):
        got, want = arrays[name], saved[name]
        cells = differing_cells(got, want)
        if cells == 0:
            if args.report:
                print(f"{name}: unchanged")
            continue
        moved += 1
        if cells is None:
            print(f"{name}: {want.dtype}{list(want.shape)} saved, "
                  f"{got.dtype}{list(got.shape)} now", file=sys.stderr)
        elif args.report:
            print(f"{name}: {cells} of {got.size} cells differ, largest "
                  f"relative move {relative_move(got, want):.3g}")
        else:
            print(f"{name}: {cells} of {got.size} cells differ",
                  file=sys.stderr)
    total = len(saved.keys() | arrays.keys())
    if args.report:
        print(f"{moved + len(missing)} of {total} arrays differ from {path}")
        return 0
    if moved or missing:
        print(f"{moved + len(missing)} of {total} arrays differ from {path}",
              file=sys.stderr)
        return 1
    print(f"all {total} arrays match {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
