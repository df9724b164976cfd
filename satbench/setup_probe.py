"""Time, in a fresh interpreter, what every simulate run pays before its
first trial: import satcoop, build the topology, construct the link
budget.  Prints the seconds taken."""

from time import perf_counter

t0 = perf_counter()
import satcoop  # noqa: E402
from satcoop.harness import SimConfig  # noqa: E402

config = SimConfig()
satcoop.build_topology(config.coverage_diameter_km, config.beams_per_cluster,
                       config.clusters)
satcoop.LinkBudget()
print(perf_counter() - t0)
