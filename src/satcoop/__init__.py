"""Monte-Carlo forward-link simulator for multi-gateway multibeam satellites.

Compares four transmission strategies on identical channel realizations:
4-colour frequency reuse, per-cluster regularized zero-forcing, and
hyper-cluster leakage-aware beamforming with CSI sharing only or with CSI
plus data sharing.
"""

from .channel import (ChannelRealization, LinkBudget, beam_gain,
                      path_loss_gain, sample_rain_fade, synthesize_channels)
from .geometry import (Topology, UserDrop, build_topology, drop_users,
                       footprint_matched_diameter, in_hex_cell, user_geometry)
from .harness import SimConfig, SweepReport, export_report, run_sweep
from .schemes import (SchemeConfig, SchemeResult, run_scheme, run_schemes,
                      select_edge_users)

__all__ = [
    "ChannelRealization", "LinkBudget", "SchemeConfig", "SchemeResult",
    "SimConfig", "SweepReport", "Topology", "UserDrop", "beam_gain",
    "build_topology", "drop_users", "export_report",
    "footprint_matched_diameter", "in_hex_cell", "path_loss_gain",
    "run_scheme", "run_schemes", "run_sweep",
    "sample_rain_fade", "select_edge_users", "synthesize_channels",
    "user_geometry",
]

__version__ = "0.1.0"
