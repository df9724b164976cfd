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

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .geometry import Topology
from .power_alloc import allocate_sumrate_batch, stream_rates

# scheme name, as configs and the CLI give it -> display label
SCHEME_NAMES = {
    "coloring": "Coloring4",
    "rzf": "ClusterRZF",
    "csi": "HyperClusterCSI",
    "csidata": "HyperClusterCSIData",
}


@dataclass
class TrialResult:
    """Every (scheme, power) cell of one trial as dense arrays.

    Axes follow config.schemes, config.power_grid_dbw_per_beam and the
    global user index.  Rates are bits/s/Hz referred to the full band
    (coloring's carry its 1/4 pre-log).  design_rate is each user's stream
    from its own gateway as that gateway's in-set view predicts it;
    nonconverged counts the gateways whose allocator stopped at its
    iteration cap while still moving.  edge_users holds each gateway's
    selected edge users, empty unless a configured scheme shares CSI.
    """

    rate: np.ndarray            # (S, P, N)
    sinr: np.ndarray            # (S, P, N)
    design_rate: np.ndarray     # (S, P, N)
    serving_counts: np.ndarray  # (S, N)
    nonconverged: np.ndarray    # (S, P)
    edge_users: list            # per gateway, int array of global users


def gateway_budget_w(beams_per_cluster: int, dbw_per_beam: float) -> float:
    """Per-gateway budget in W for a per-beam power in dBW."""
    return beams_per_cluster * 10.0 ** (dbw_per_beam / 10.0)


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


# precoded scheme -> (edge users' CSI shared, edge users' data shared)
_SHARING = {
    "rzf": (False, False),
    "csi": (True, False),
    "csidata": (True, True),
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
                  budgets: np.ndarray, paper_literal: bool):
    """4-colour frequency reuse: single-feed beams, uniform P_T/K power.

    Only co-colour beams interfere (others occupy different sub-bands); the
    rate carries the 1/4 pre-log.  Default noise is the W/4 sub-band value
    N0*W/4; paper_literal switches to the 4*W*N0 constant.  The own-beam
    gains and the co-colour gain sums do not depend on power, so one
    broadcast over the budgets (P,) gives (P, N) rates and SINRs.
    """
    gain2 = np.abs(channels.gains) ** 2
    colour = topology.colour_of_beam
    same_colour = colour[:, None] == colour[None, :]
    np.fill_diagonal(same_colour, False)
    own = np.diagonal(gain2)
    co_sum = np.where(same_colour, gain2, 0.0).sum(axis=0)

    per_beam_power = (budgets / channels.k_per_cluster)[:, None]
    noise = channels.noise_power_w * (4.0 if paper_literal else 0.25)
    sinr = per_beam_power * own / (per_beam_power * co_sum + noise)
    return 0.25 * np.log2(1.0 + sinr), sinr


def _run_precoded(topology: Topology, channels: ChannelRealization, config,
                  budgets: np.ndarray, rows: dict, result: TrialResult):
    """Per-gateway leakage-aware precoding, power allocation, global SINR.

    Each gateway serves its own K users and, when data is shared, the edge
    users it selected in its hyper-cluster neighbours; an edge user's home
    and helper gateways transmit the same synchronized stream.  When CSI is
    shared the precoder also steers leakage away from the selected users.
    Each gateway allocates its budget against its own in-set view and
    tolerates whatever the others radiate.

    Each gateway has two index arrays of global users, its own users and
    own plus edge users; _SHARING says which of them is the target set and
    which the basis of known channels.  Own users come first in both.

    rows maps each precoded scheme to its row of result, which is filled in
    place.  Each (scheme, gateway) builds one Gram matrix for all budgets.
    Every (scheme, gateway, power) allocation problem of one stream count
    goes into one solver batch: G*P_T/N with unit noise and a unit budget
    is the same problem as G with noise N and budget P_T, and p = P_T*x
    maps the answer back.
    """
    k = channels.k_per_cluster
    n_clusters = channels.n_clusters
    n_powers = len(budgets)
    noise = channels.noise_power_w
    own = [np.arange(c * k, (c + 1) * k) for c in range(n_clusters)]
    with_edges = [np.concatenate([own[c], result.edge_users[c]])
                  for c in range(n_clusters)]

    # per (scheme, gateway): served global users, (P, K, S) columns and
    # (P, S, S) design-view gain tables
    served, columns, tables = {}, {}, {}
    groups = {}   # stream count -> [(scheme, gateway)]
    for name in rows:
        share_csi, share_data = _SHARING[name]
        for c in range(n_clusters):
            users = with_edges[c] if share_data else own[c]
            basis = with_edges[c] if share_csi else own[c]
            cols = _slnr_columns(channels, c, users, basis, budgets)
            block = channels.gains[c * k:(c + 1) * k, users]
            served[name, c] = users
            columns[name, c] = cols
            tables[name, c] = np.abs(cols.conj().swapaxes(-1, -2) @ block) ** 2
            groups.setdefault(len(users), []).append((name, c))

    powers = {}   # (scheme, gateway) -> (P, S) stream powers
    for entries in groups.values():
        stack = np.concatenate([tables[key] for key in entries])
        budget = np.tile(budgets, len(entries))
        x, ok, _, _, _ = allocate_sumrate_batch(
            stack * (budget / noise)[:, None, None], 1.0, 1.0,
            tol=config.solver_tol, max_iters=config.solver_max_iters)
        p = budget[:, None] * x
        rates = stream_rates(stack, noise, p)
        for j, (name, c) in enumerate(entries):
            cells = slice(j * n_powers, (j + 1) * n_powers)
            powers[name, c] = p[cells]
            result.design_rate[rows[name], :, c * k:(c + 1) * k] = rates[cells, :k]
            result.nonconverged[rows[name]] += ~ok[cells]

    for name, s in rows.items():
        keys = [(name, c) for c in range(n_clusters)]
        for pi in range(n_powers):
            sinr, counts = global_sinr(
                channels, [served[key] for key in keys],
                [columns[key][pi] for key in keys],
                [powers[key][pi] for key in keys])
            result.sinr[s, pi] = sinr
            result.rate[s, pi] = np.log2(1.0 + sinr)
        result.serving_counts[s] = counts


def run_schemes(topology: Topology, channels: ChannelRealization,
                config) -> TrialResult:
    """Evaluate every (scheme, power) cell of config on one realization.

    config is a validated SimConfig, read by attribute (the harness
    imports this module): its schemes, power grid, m_per_neighbour,
    paper_literal_coloring and solver settings.  Every scheme shares one
    (P,) array of per-gateway budgets, and edge users are selected once.
    """
    budgets = np.array([gateway_budget_w(topology.beams_per_cluster, dbw)
                        for dbw in config.power_grid_dbw_per_beam])
    n = channels.n_users
    shape = (len(config.schemes), len(budgets))
    rows = {name: s for s, name in enumerate(config.schemes)}
    coloring = rows.pop("coloring", None)
    edges = [np.zeros(0, dtype=int)] * channels.n_clusters
    if any(_SHARING[name][0] for name in rows):
        edges = [select_edge_users(channels, c, topology.neighbours_of(c),
                                   config.m_per_neighbour)
                 for c in range(channels.n_clusters)]
    result = TrialResult(
        rate=np.empty(shape + (n,)), sinr=np.empty(shape + (n,)),
        design_rate=np.empty(shape + (n,)),
        serving_counts=np.ones((shape[0], n), dtype=int),
        nonconverged=np.zeros(shape, dtype=int), edge_users=edges)

    if coloring is not None:
        result.rate[coloring], result.sinr[coloring] = _run_coloring(
            topology, channels, budgets, config.paper_literal_coloring)
        result.design_rate[coloring] = result.rate[coloring]
    if rows:
        _run_precoded(topology, channels, config, budgets, rows, result)
    return result
