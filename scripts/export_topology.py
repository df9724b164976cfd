#!/usr/bin/env python3
"""Write the beam layout as JSON for plotting.

    python scripts/export_topology.py --out topology.json
    python scripts/export_topology.py --diameter 500 --clusters 1
"""

import argparse
import sys

from satcoop.geometry import build_topology, footprint_matched_diameter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diameter", type=float, default=None,
                        help="coverage diameter in km (default: matched to "
                             "the 0.4 deg beam footprint)")
    parser.add_argument("--clusters", type=int, default=19)
    parser.add_argument("--out", default="topology.json")
    args = parser.parse_args(argv)

    diameter = args.diameter
    if diameter is None:
        diameter = footprint_matched_diameter(clusters=args.clusters)
    try:
        topology = build_topology(diameter, 7, args.clusters)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        fh.write(topology.to_json())
        fh.write("\n")
    print(f"wrote {args.out}: {topology.n_beams} beams, "
          f"{topology.n_clusters} clusters, pitch {topology.pitch_km:.1f} km")
    return 0


if __name__ == "__main__":
    sys.exit(main())
