"""End-to-end transmission strategies and their achieved-SINR evaluation.

4-colour reuse is evaluated in closed form.  The three precoded strategies
are one leakage-aware family that differs only in two sets per gateway:
the users it transmits to (its own K, plus the selected edge users when
data is shared) and the outside users whose leakage it suppresses (the
selected edge users when CSI is shared).  Regularized zero-forcing is the
member with no sharing at all.  A single global pass evaluates every
user's true SINR with all inter-cluster interference included.  Users
served by several gateways combine coherently: per-gateway amplitudes add
before the magnitude is squared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization
from .geometry import Topology
from .power_alloc import allocate_sumrate_batch, stream_rates
from .precoding import select_edge_users

SCHEME_KINDS = ("Coloring4", "ClusterRZF", "HyperClusterCSI", "HyperClusterCSIData")


@dataclass(frozen=True)
class SchemeConfig:
    kind: str
    p_total_per_gw: float
    m_per_neighbour: int = 1
    paper_literal_coloring: bool = False
    solver_tol: float = 1e-6
    solver_max_iters: int = 500

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.p_total_per_gw <= 0:
            raise ValueError("per-gateway power budget must be positive")
        if self.m_per_neighbour < 0:
            raise ValueError("m_per_neighbour must be nonnegative")


@dataclass
class SchemeResult:
    """Per-user outcome of one strategy on one channel realization."""

    per_user_rate: np.ndarray        # bits/s/Hz, pre-log factors included
    per_beam_throughput: np.ndarray  # bits/s = rate * full bandwidth
    per_user_sinr: np.ndarray
    scheme: SchemeConfig
    diagnostics: dict = field(default_factory=dict)


def run_coloring(topology: Topology, channels: ChannelRealization,
                 config: SchemeConfig) -> SchemeResult:
    """4-colour frequency reuse: single-feed beams, uniform P_T/K power.

    Only co-colour beams interfere (others occupy different sub-bands); the
    rate carries the 1/4 pre-log.  Default noise is the W/4 sub-band value
    N0*W/4; the paper_literal_coloring flag switches to the 4*W*N0 constant.
    """
    k = channels.k_per_cluster
    per_beam_power = config.p_total_per_gw / k
    gain2 = np.abs(channels.gains) ** 2
    colour = topology.colour_of_beam
    same_colour = colour[:, None] == colour[None, :]
    np.fill_diagonal(same_colour, False)

    own = np.diagonal(gain2)
    interference = per_beam_power * np.where(same_colour, gain2, 0.0).sum(axis=0)
    if config.paper_literal_coloring:
        noise = 4.0 * channels.noise_power_w
    else:
        noise = channels.noise_power_w / 4.0

    sinr = per_beam_power * own / (interference + noise)
    rates = 0.25 * np.log2(1.0 + sinr)
    return SchemeResult(
        per_user_rate=rates,
        per_beam_throughput=rates * channels.bandwidth_hz,
        per_user_sinr=sinr,
        scheme=config,
        diagnostics={
            "realization_checksum": channels.checksum(),
            "per_beam_power_w": per_beam_power,
            "serving_counts": np.ones(channels.n_users, dtype=int),
        },
    )


def _slnr_columns(channels, targets_by_cluster, leakage_by_cluster, p_total):
    """Leakage-minimizing beamformers for each gateway's target list.

    The noise term is referred to the per-stream transmit power P_T/K, so
    the regularizer is W*N0*K/P_T: the leakage terms a transmitted stream
    actually causes scale with its power while the victim noise floor does
    not.  With no leakage set and K targets this is regularized
    zero-forcing with the large-system regularizer.  One shared matrix per
    gateway covers every target: dropping the target's own outer product
    only rescales the solve by a positive factor, which normalization
    removes.
    """
    k = channels.k_per_cluster
    out = {}
    for c, targets in targets_by_cluster.items():
        reg = channels.noise_power_w * len(targets) / p_total
        chan = np.stack([channels.h(c, g, l) for (g, l) in targets], axis=1)
        extra = [channels.h(c, g, l) for (g, l) in leakage_by_cluster.get(c, [])
                 if (g, l) not in targets]
        known = np.concatenate([chan] + ([np.stack(extra, axis=1)] if extra else []),
                               axis=1)
        m = known @ known.conj().T + reg * np.eye(k)
        cols = np.linalg.solve(m, chan)
        out[c] = cols / np.linalg.norm(cols, axis=0, keepdims=True)
    return out


# kind -> (edge users' CSI shared, edge users' data shared)
_SHARING = {
    "ClusterRZF": (False, False),
    "HyperClusterCSI": (True, False),
    "HyperClusterCSIData": (True, True),
}


def global_sinr(channels: ChannelRealization, served, columns, powers):
    """True SINR of every user under the full multi-gateway transmission.

    Gateway c transmits, from its own K feeds, stream i of columns[c]
    (K, S_c) at power powers[c][i] to global user served[c][i].  Returns
    (sinr, serving counts), both indexed by global user.
    """
    k = channels.k_per_cluster
    weights = np.zeros((channels.gains.shape[0], channels.n_users), dtype=complex)
    counts = np.zeros(channels.n_users, dtype=int)
    for c, (users, cols, p) in enumerate(zip(served, columns, powers)):
        if len(p) != len(users):
            raise ValueError(f"gateway {c}: power vector does not match served set")
        weights[c * k:(c + 1) * k, users] = cols * np.sqrt(np.maximum(p, 0.0))
        counts[users] += 1
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"user {missing} has no serving gateway")
    amplitudes = weights.conj().T @ channels.gains   # (stream, user)
    power = np.abs(amplitudes) ** 2
    own = np.diagonal(power)
    return own / (power.sum(axis=0) - own + channels.noise_power_w), counts


def run_precoded(topology: Topology, channels: ChannelRealization,
                 config: SchemeConfig) -> SchemeResult:
    """Per-gateway leakage-aware precoding, power allocation, global SINR.

    Each gateway serves its own K users and, when data is shared, the edge
    users it selected in its hyper-cluster neighbours; an edge user's home
    and helper gateways transmit the same synchronized stream.  When CSI is
    shared the precoder also steers leakage away from the selected users.
    Each gateway allocates its budget against its own in-set view
    (design_rate, per stream) and tolerates whatever the others radiate.
    """
    share_csi, share_data = _SHARING[config.kind]
    k = channels.k_per_cluster
    n_clusters = channels.n_clusters
    noise = channels.noise_power_w
    leakage = {c: select_edge_users(channels, c, topology.neighbours_of(c),
                                    config.m_per_neighbour) if share_csi else []
               for c in range(n_clusters)}
    targets = {c: [(c, l) for l in range(k)] + (leakage[c] if share_data else [])
               for c in range(n_clusters)}
    columns = _slnr_columns(channels, targets, leakage, config.p_total_per_gw)
    served = [np.array([g * k + l for (g, l) in targets[c]])
              for c in range(n_clusters)]
    tables = [np.abs(columns[c].conj().T
                     @ channels.gains[c * k:(c + 1) * k, served[c]]) ** 2
              for c in range(n_clusters)]

    # batch the gradient solver over gateways with equal stream counts
    powers = [None] * n_clusters
    design = [None] * n_clusters
    conv = np.zeros(n_clusters, dtype=bool)
    iters = np.zeros(n_clusters, dtype=int)
    groups = {}
    for c, tab in enumerate(tables):
        groups.setdefault(tab.shape[0], []).append(c)
    for members in groups.values():
        stack = np.stack([tables[c] for c in members])
        p, ok, it, _, _ = allocate_sumrate_batch(
            stack, noise, config.p_total_per_gw,
            tol=config.solver_tol, max_iters=config.solver_max_iters)
        rates = stream_rates(stack, noise, p)
        for row, c in enumerate(members):
            powers[c], design[c] = p[row], rates[row]
        conv[members] = ok
        iters[members] = it

    sinr, counts = global_sinr(channels, served,
                               [columns[c] for c in range(n_clusters)], powers)
    rates = np.log2(1.0 + sinr)
    return SchemeResult(
        per_user_rate=rates,
        per_beam_throughput=rates * channels.bandwidth_hz,
        per_user_sinr=sinr,
        scheme=config,
        diagnostics={
            "realization_checksum": channels.checksum(),
            "solver_converged": conv,
            "solver_iterations": iters,
            "serving_counts": counts,
            "edge_users": leakage,
            "design_rate": np.concatenate(design),
        },
    )


def run_scheme(topology: Topology, channels: ChannelRealization,
               config: SchemeConfig) -> SchemeResult:
    if config.kind == "Coloring4":
        return run_coloring(topology, channels, config)
    return run_precoded(topology, channels, config)


def scheme_result_rows(result: SchemeResult, trial: int,
                       per_beam_power_dbw: float) -> list[tuple]:
    """Flatten one result into CSV rows:
    (trial, scheme, per_beam_power_dbw, beam, rate bits/s/Hz, throughput Mbit/s)."""
    return [
        (trial, result.scheme.kind, per_beam_power_dbw, beam,
         float(result.per_user_rate[beam]),
         float(result.per_beam_throughput[beam] / 1e6))
        for beam in range(len(result.per_user_rate))
    ]
