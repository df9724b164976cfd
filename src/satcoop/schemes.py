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
from .power_alloc import (allocate_sumrate_batch, check_solver_settings,
                          stream_rates)

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
        check_solver_settings(self.solver_tol, self.solver_max_iters)


@dataclass
class SchemeResult:
    """Per-user outcome of one strategy on one channel realization."""

    per_user_rate: np.ndarray        # bits/s/Hz, pre-log factors included
    per_beam_throughput: np.ndarray  # bits/s = rate * full bandwidth
    per_user_sinr: np.ndarray
    scheme: SchemeConfig
    diagnostics: dict = field(default_factory=dict)


def select_edge_users(channels: ChannelRealization, gw: int, neighbours,
                      m_per_neighbour: int) -> np.ndarray:
    """Strongest-channel users of each neighbouring cluster, as seen by gw.

    For each neighbour cluster b, picks the m users j with the largest
    ||h_{gw,b,j}||^2 and returns their global indices b*K + j; ties break
    toward the lowest user index.  Neighbours are visited in sorted order
    so the result is deterministic.
    """
    k = channels.k_per_cluster
    if m_per_neighbour < 0:
        raise ValueError("m_per_neighbour must be nonnegative")
    if m_per_neighbour > k:
        raise ValueError(f"m_per_neighbour={m_per_neighbour} exceeds the "
                         f"{k} users of a cluster")
    selected = [np.zeros(0, dtype=int)]
    row = slice(gw * k, (gw + 1) * k)
    for b in sorted(neighbours):
        block = channels.gains[row, b * k:(b + 1) * k]
        norms = np.sum(np.abs(block) ** 2, axis=0)
        order = np.lexsort((np.arange(k), -norms))
        selected.append(b * k + order[:m_per_neighbour])
    return np.concatenate(selected)


def _slnr_columns(channels, gw, targets, basis, p_total):
    """Leakage-minimizing beamformers of gateway gw toward its targets.

    targets and basis hold global user indices; basis is every user whose
    channel the gateway knows (the targets plus the users whose leakage it
    suppresses).  The noise term is referred to the per-stream transmit
    power P_T/S, so the regularizer is W*N0*S/P_T for S targets: the
    leakage terms a transmitted stream actually causes scale with its
    power while the victim noise floor does not.  With basis = targets =
    the own K users this is regularized zero-forcing with the large-system
    regularizer.  One shared matrix covers every target: dropping the
    target's own outer product only rescales the solve by a positive
    factor, which normalization removes.  An array of budgets p_total (P,)
    gives (P, K, S) columns from one Gram matrix and one batched solve;
    only the regularizer depends on the budget.
    """
    k = channels.k_per_cluster
    p_total = np.asarray(p_total, dtype=float)
    feeds = channels.gains[gw * k:(gw + 1) * k]
    chan, known = feeds[:, targets], feeds[:, basis]
    reg = channels.noise_power_w * len(targets) / p_total
    m = known @ known.conj().T + reg[..., None, None] * np.eye(k)
    cols = np.linalg.solve(m, np.broadcast_to(chan, m.shape[:-2] + chan.shape))
    return cols / np.linalg.norm(cols, axis=-2, keepdims=True)


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
    n = channels.n_users
    amplitudes = np.zeros((n, n), dtype=complex)   # (stream, user)
    counts = np.zeros(n, dtype=int)
    for c, (users, cols, p) in enumerate(zip(served, columns, powers)):
        if len(p) != len(users):
            raise ValueError(f"gateway {c}: power vector does not match served set")
        weights = cols * np.sqrt(np.maximum(p, 0.0))
        amplitudes[users] += weights.conj().T @ channels.gains[c * k:(c + 1) * k]
        counts[users] += 1
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"user {missing} has no serving gateway")
    power = np.abs(amplitudes) ** 2
    own = np.diagonal(power)
    return own / (power.sum(axis=0) - own + channels.noise_power_w), counts


def _run_coloring(topology: Topology, channels: ChannelRealization,
                  configs, members) -> dict:
    """4-colour frequency reuse: single-feed beams, uniform P_T/K power.

    Only co-colour beams interfere (others occupy different sub-bands); the
    rate carries the 1/4 pre-log.  Default noise is the W/4 sub-band value
    N0*W/4; the paper_literal_coloring flag switches to the 4*W*N0 constant.
    The own-beam gains and the co-colour gain sums do not depend on power,
    so they are computed once for every config index in members.
    Returns {config index: SchemeResult}.
    """
    k = channels.k_per_cluster
    gain2 = np.abs(channels.gains) ** 2
    colour = topology.colour_of_beam
    same_colour = colour[:, None] == colour[None, :]
    np.fill_diagonal(same_colour, False)
    own = np.diagonal(gain2)
    co_sum = np.where(same_colour, gain2, 0.0).sum(axis=0)

    results = {}
    for i in members:
        config = configs[i]
        per_beam_power = config.p_total_per_gw / k
        noise = channels.noise_power_w * (
            4.0 if config.paper_literal_coloring else 0.25)
        sinr = per_beam_power * own / (per_beam_power * co_sum + noise)
        rates = 0.25 * np.log2(1.0 + sinr)
        results[i] = SchemeResult(
            per_user_rate=rates,
            per_beam_throughput=rates * channels.bandwidth_hz,
            per_user_sinr=sinr,
            scheme=config,
            diagnostics={"serving_counts": np.ones(channels.n_users, dtype=int)},
        )
    return results


def _run_precoded(topology: Topology, channels: ChannelRealization,
                  configs, members_by_kind) -> dict:
    """Per-gateway leakage-aware precoding, power allocation, global SINR.

    Each gateway serves its own K users and, when data is shared, the edge
    users it selected in its hyper-cluster neighbours; an edge user's home
    and helper gateways transmit the same synchronized stream.  When CSI is
    shared the precoder also steers leakage away from the selected users.
    Each gateway allocates its budget against its own in-set view
    (design_rate, per stream) and tolerates whatever the others radiate.

    Users are global indices c*K + j.  Each gateway has two index arrays,
    its own users and own plus edge users; _SHARING says which of them is
    the target set and which the basis of known channels.

    members_by_kind maps a precoded kind to the indices of its configs.
    Edge users are selected once per gateway and each (kind, gateway)
    builds one Gram matrix for all its budgets.  Every (config, gateway)
    allocation problem of one stream count goes into one solver batch:
    G*P_T/N with unit noise and a unit budget is the same problem as G
    with noise N and budget P_T, and p = P_T*x maps the answer back.
    Returns {config index: SchemeResult}.
    """
    k = channels.k_per_cluster
    n_clusters = channels.n_clusters
    noise = channels.noise_power_w
    first = configs[0]
    own = [np.arange(c * k, (c + 1) * k) for c in range(n_clusters)]
    no_edges = [np.zeros(0, dtype=int)] * n_clusters
    edges = no_edges
    if any(_SHARING[kind][0] for kind in members_by_kind):
        edges = [select_edge_users(channels, c, topology.neighbours_of(c),
                                   first.m_per_neighbour)
                 for c in range(n_clusters)]
    with_edges = [np.concatenate([own[c], edges[c]]) for c in range(n_clusters)]

    # per kind: budgets (P,); per (kind, gateway): served global users,
    # (P, K, S) columns and (P, S, S) design-view gain tables
    budgets, served, columns, tables = {}, {}, {}, {}
    groups = {}   # stream count -> [(kind, gateway)]
    for kind, members in members_by_kind.items():
        share_csi, share_data = _SHARING[kind]
        budgets[kind] = np.array([configs[i].p_total_per_gw for i in members])
        for c in range(n_clusters):
            users = with_edges[c] if share_data else own[c]
            basis = with_edges[c] if share_csi else own[c]
            cols = _slnr_columns(channels, c, users, basis, budgets[kind])
            block = channels.gains[c * k:(c + 1) * k, users]
            served[kind, c] = users
            columns[kind, c] = cols
            tables[kind, c] = np.abs(cols.conj().swapaxes(-1, -2) @ block) ** 2
            groups.setdefault(len(users), []).append((kind, c))

    powers, design, conv, iters = {}, {}, {}, {}
    for entries in groups.values():
        stack = np.concatenate([tables[key] for key in entries])
        budget = np.concatenate([budgets[kind] for kind, _ in entries])
        x, ok, it, _, _ = allocate_sumrate_batch(
            stack * (budget / noise)[:, None, None], 1.0, 1.0,
            tol=first.solver_tol, max_iters=first.solver_max_iters)
        p = budget[:, None] * x
        rates = stream_rates(stack, noise, p)
        start = 0
        for key in entries:
            rows = slice(start, start + len(budgets[key[0]]))
            powers[key], design[key] = p[rows], rates[rows]
            conv[key], iters[key] = ok[rows], it[rows]
            start = rows.stop

    results = {}
    for kind, members in members_by_kind.items():
        keys = [(kind, c) for c in range(n_clusters)]
        for row, i in enumerate(members):
            sinr, counts = global_sinr(
                channels, [served[key] for key in keys],
                [columns[key][row] for key in keys],
                [powers[key][row] for key in keys])
            rates = np.log2(1.0 + sinr)
            results[i] = SchemeResult(
                per_user_rate=rates,
                per_beam_throughput=rates * channels.bandwidth_hz,
                per_user_sinr=sinr,
                scheme=configs[i],
                diagnostics={
                    "solver_converged": np.array([conv[key][row] for key in keys]),
                    "solver_iterations": np.array([iters[key][row] for key in keys]),
                    "serving_counts": counts,
                    "edge_users": edges if _SHARING[kind][0] else no_edges,
                    "design_rate": np.concatenate([design[key][row]
                                                   for key in keys]),
                },
            )
    return results


def run_schemes(topology: Topology, channels: ChannelRealization,
                configs) -> list[SchemeResult]:
    """Evaluate every config on one realization, in the order given.

    The configs must agree on m_per_neighbour and the solver settings; they
    share the edge-user selection and the allocator batches.  Every result
    carries the checksum of the realization, which is read-only, so all of
    them consumed the same channel.
    """
    configs = list(configs)
    if len({(c.m_per_neighbour, c.solver_tol, c.solver_max_iters)
            for c in configs}) > 1:
        raise ValueError("configs evaluated together must share "
                         "m_per_neighbour, solver_tol and solver_max_iters")
    members_by_kind = {}
    for i, config in enumerate(configs):
        members_by_kind.setdefault(config.kind, []).append(i)
    results = {}
    coloring = members_by_kind.pop("Coloring4", None)
    if coloring:
        results.update(_run_coloring(topology, channels, configs, coloring))
    if members_by_kind:
        results.update(_run_precoded(topology, channels, configs,
                                     members_by_kind))
    checksum = channels.checksum()
    for result in results.values():
        result.diagnostics["realization_checksum"] = checksum
    return [results[i] for i in range(len(configs))]


def run_scheme(topology: Topology, channels: ChannelRealization,
               config: SchemeConfig) -> SchemeResult:
    return run_schemes(topology, channels, [config])[0]
