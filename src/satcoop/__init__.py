"""Monte-Carlo forward-link simulator for multi-gateway multibeam satellites.

Compares four transmission strategies on identical channel realizations:
4-colour frequency reuse, per-cluster regularized zero-forcing, and
hyper-cluster leakage-aware beamforming with CSI sharing only or with CSI
plus data sharing.
"""

from .channel import (ChannelRealization, LinkBudget, beam_gain,
                      dump_channel_csv, path_loss_gain, sample_rain_fade,
                      synthesize_channels)
from .geometry import (Topology, UserDrop, build_topology, drop_users,
                       footprint_matched_diameter, in_hex_cell, user_geometry)
from .harness import (SimConfig, SweepReport, export_report, load_report,
                      run_sweep)
from .power_alloc import (EffectiveGainTable, PowerVector, allocate_sumrate,
                          sum_rate_objective)
from .precoding import (optimal_beta, rzf_precoder, select_edge_users,
                        slnr_beamformer)
from .schemes import (SchemeConfig, SchemeResult, run_coloring, run_scheme,
                      run_schemes)

__all__ = [
    "ChannelRealization", "EffectiveGainTable", "LinkBudget",
    "PowerVector", "SchemeConfig", "SchemeResult", "SimConfig", "SweepReport",
    "Topology", "UserDrop", "allocate_sumrate", "beam_gain", "build_topology",
    "drop_users", "dump_channel_csv", "export_report",
    "footprint_matched_diameter", "in_hex_cell", "load_report", "optimal_beta",
    "path_loss_gain",
    "run_coloring", "run_scheme", "run_schemes", "run_sweep", "rzf_precoder",
    "sample_rain_fade", "select_edge_users", "slnr_beamformer",
    "sum_rate_objective", "synthesize_channels", "user_geometry",
]

__version__ = "0.1.0"
