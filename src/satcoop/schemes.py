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
        order = np.argsort(-norms, kind="stable")
        selected.append(b * k + order[:m_per_neighbour])
    return np.concatenate(selected)


def _slnr_columns(channels, gws, targets, basis, p_total):
    """Leakage-minimizing beamformers of gateways gws toward their targets.

    gws (G,) is a stack of gateways, each with targets (G, S) and basis
    (G, B) of global user indices; basis is every user whose channel the
    gateway knows (the targets plus the users whose leakage it
    suppresses).  The noise term is referred to the per-stream transmit
    power P_T/S, so the regularizer is W*N0*S/P_T for S targets: the
    leakage terms a transmitted stream actually causes scale with its
    power while the victim noise floor does not.  With basis = targets =
    the own K users this is regularized zero-forcing with the large-system
    regularizer.  One shared matrix covers every target: dropping the
    target's own outer product only rescales the solve by a positive
    factor, which normalization removes.

    The budgets p_total (P,) give (G, P, K, S) columns from one Gram stack
    and one batched solve; only the regularizer depends on the budget.
    """
    k = channels.k_per_cluster
    feeds = (gws[:, None] * k + np.arange(k))[:, :, None]
    chan = channels.gains[feeds, targets[:, None, :]]      # (G, K, S)
    known = channels.gains[feeds, basis[:, None, :]]       # (G, K, B)
    gram = known @ known.conj().swapaxes(-1, -2)           # (G, K, K)
    reg = channels.noise_power_w * targets.shape[-1] / p_total
    m = gram[:, None] + reg[:, None, None] * np.eye(k)     # (G, P, K, K)
    cols = np.linalg.solve(m, np.broadcast_to(chan[:, None],
                                              m.shape[:-2] + chan.shape[-2:]))
    return cols / np.linalg.norm(cols, axis=-2, keepdims=True)


# precoded scheme -> (edge users' CSI shared, edge users' data shared)
_SHARING = {
    "rzf": (False, False),
    "csi": (True, False),
    "csidata": (True, True),
}


# power points per amplitude array in global_sinr: the 7 of the default grid
# fit in one block, and a 1000-point grid does not hold 1000 (N, N) arrays
_POWER_BLOCK = 8


def global_sinr(channels: ChannelRealization, stacks):
    """True SINR of every user under the full multi-gateway transmission.

    stacks are one scheme's gateway stacks, records with gateways "gws"
    (G,), "targets" (G, S) of global users, "columns" (G, P, K, S) and
    "powers" (G, P, S): at each of P power points gateway gws[j] transmits
    from its own K feeds stream i of columns[j] at powers[j][:, i] to
    global user targets[j, i].  Every gateway's targets begin with its own
    K users, in order.  Returns (sinr (P, N), serving counts (N,)), indexed
    by global user.

    The power points go through in blocks of _POWER_BLOCK, each summing one
    (stream, power, user) amplitude array of the gains' dtype: real for a
    synthesized realization, squared in place, and complex for a hand-made
    one (conj costs nothing on real input).  Gateways add into it in stack
    order, their own K streams through a slice and the rest through an
    index, so every amplitude sums its terms in the same order whatever the
    block size.
    """
    k = channels.k_per_cluster
    n = channels.n_users
    n_powers = stacks[0]["powers"].shape[1]
    for stack in stacks:
        gws, users = stack["gws"], stack["targets"]
        g, s = users.shape
        shapes = stack["powers"].shape, stack["columns"].shape
        if shapes != ((g, n_powers, s), (g, n_powers, k, s)):
            raise ValueError(f"gateways {gws.tolist()}: powers and columns of "
                             f"shapes {shapes} are not (G, P, S) and "
                             f"(G, P, K, S) for G={g}, P={n_powers}, K={k}, "
                             f"S={s}")
        if s < k or np.any(users[:, :k] != gws[:, None] * k + np.arange(k)):
            raise ValueError(f"gateways {gws.tolist()}: targets do not begin "
                             f"with each gateway's own {k} users")
    counts = np.bincount(np.concatenate([stack["targets"].ravel()
                                         for stack in stacks]), minlength=n)
    if np.any(counts == 0):
        raise ValueError(f"user {counts.argmin()} has no serving gateway")
    sinr = np.empty((n_powers, n))
    # (stream, power, user), so that a stream's rows are one contiguous run;
    # one amplitude buffer serves every block
    amplitude_buf = np.empty((n, min(_POWER_BLOCK, n_powers), n),
                             dtype=channels.gains.dtype)
    for start in range(0, n_powers, _POWER_BLOCK):
        block = slice(start, start + _POWER_BLOCK)
        size = len(sinr[block])
        amplitudes = amplitude_buf[:, :size]
        amplitudes.fill(0.0)
        for stack in stacks:
            # per gateway: a stack's product would outgrow a block's memory
            for c, users, cols, p in zip(stack["gws"], stack["targets"],
                                         stack["columns"], stack["powers"]):
                weights = (cols[block]
                           * np.sqrt(np.maximum(p[block], 0.0))[:, None])
                rows = (weights.conj().swapaxes(-1, -2)
                        @ channels.gains[c * k:(c + 1) * k]).swapaxes(0, 1)
                amplitudes[c * k:(c + 1) * k] += rows[:k]
                amplitudes[users[k:]] += rows[k:]
        power = (np.abs(amplitudes) if np.iscomplexobj(amplitudes)
                 else amplitudes)
        power **= 2
        own = np.diagonal(power, axis1=0, axis2=2)
        sinr[block] = own / (power.sum(axis=0) - own + channels.noise_power_w)
    return sinr, counts


def _run_coloring(topology: Topology, channels: ChannelRealization,
                  budgets: np.ndarray, paper_literal: bool):
    """4-colour frequency reuse: single-feed beams, uniform P_T/K power.

    Only co-colour beams interfere (others occupy different sub-bands); the
    rate carries the 1/4 pre-log.  Default noise is the W/4 sub-band value
    N0*W/4; paper_literal switches to the 4*W*N0 constant.  The own-beam
    gains and the co-colour gain sums do not depend on power, so one
    broadcast over the budgets (P,) gives (P, N) rates and SINRs.  The
    layout's co-colour mask, built once per Topology, selects the sums' terms.
    """
    g = channels.gains
    # |g|^2 in one multiply: conj and .real are free on real gains
    gain2 = (g * g.conj()).real
    own = np.diagonal(gain2).copy()
    gain2 *= topology.co_colour_mask
    co_sum = gain2.sum(axis=0)

    per_beam_power = (budgets / channels.k_per_cluster)[:, None]
    noise = channels.noise_power_w * (4.0 if paper_literal else 0.25)
    sinr = per_beam_power * own / (per_beam_power * co_sum + noise)
    return 0.25 * np.log2(1.0 + sinr), sinr


def _precode(channels: ChannelRealization, budgets: np.ndarray, names,
             edge_users) -> list:
    """Per-gateway leakage-aware beamformers of each precoded scheme.

    Each gateway serves its own K users and, when data is shared, the edge
    users it selected in its hyper-cluster neighbours; an edge user's home
    and helper gateways transmit the same synchronized stream.  When CSI is
    shared the precoder also steers leakage away from the selected users.

    Returns, for each scheme of names in order, its list of gateway stacks.
    A stack holds gateways that select the same number of edge users (all
    gateways for rzf, which shares nothing), so every scheme's stacks cover
    every gateway exactly once.  It is a record of gateways "gws" (G,),
    "targets" (G, S), each gateway's own users first, and "columns"
    (G, P, K, S) for every budget.
    """
    own = np.arange(channels.n_users).reshape(-1, channels.k_per_cluster)
    sizes = np.array([len(edges) for edges in edge_users])
    by_edges = [np.flatnonzero(sizes == size) for size in dict.fromkeys(sizes)]
    per_scheme = []
    for name in names:
        share_csi, share_data = _SHARING[name]
        stacks = []
        for gws in by_edges if share_csi else [np.arange(len(own))]:
            basis = own[gws]
            if share_csi:
                basis = np.hstack([basis, np.stack([edge_users[c]
                                                    for c in gws])])
            targets = basis if share_data else own[gws]
            stacks.append({"gws": gws, "targets": targets,
                           "columns": _slnr_columns(channels, gws, targets,
                                                    basis, budgets)})
        per_scheme.append(stacks)
    return per_scheme


def _allocate(channels: ChannelRealization, budgets: np.ndarray, per_scheme,
              width: int):
    """Each gateway's power split over its streams, against its own in-set
    view, for every stack of _precode's per_scheme.

    Every gateway's design-view gain tables go into one solver batch of the
    trial: G*P_T/N with unit noise and a unit budget is the same problem as
    G with noise N and budget P_T, and p = P_T*x maps the answer back.
    This is the one place that scales.  The batch is one zero-filled
    (scheme, gateway, power, width, width) array, each table in the leading
    S x S block of its row; the allocator keeps the padded streams at zero
    power.  width, the most streams any gateway can have (K plus m per
    hyper-cluster neighbour), comes from the layout and m alone, not from
    the configured schemes, so a row solves alike in a one-scheme run and
    in the full grid.  Sets each stack's "powers" (G, P, S); returns the
    design rates (schemes, P, N), each user's stream from its own gateway
    read off the scaled tables, and the count of gateways whose allocator
    stopped at its iteration cap while still moving, (schemes, P).
    """
    k = channels.k_per_cluster
    n_powers = len(budgets)
    tables = np.zeros((len(per_scheme), channels.n_clusters, n_powers,
                       width, width))
    streams = np.empty(tables.shape[:3], dtype=int)
    scale = (budgets / channels.noise_power_w)[:, None, None]
    for table, count, stacks in zip(tables, streams, per_scheme):
        for stack in stacks:
            gws, targets = stack["gws"], stack["targets"]
            s = targets.shape[1]
            # a gateway's own users index its feeds
            block = channels.gains[targets[:, :k, None], targets[:, None, :]]
            table[gws, :, :s, :s] = np.abs(
                stack["columns"].conj().swapaxes(-1, -2) @ block[:, None]
            ) ** 2 * scale
            count[gws] = s
    flat = tables.reshape(-1, width, width)
    x, ok, _, _, _ = allocate_sumrate_batch(flat, streams.ravel())
    rates = stream_rates(flat, x)[:, :k]
    x = budgets[:, None] * x.reshape(tables.shape[:-1])
    for p, stacks in zip(x, per_scheme):
        for stack in stacks:
            stack["powers"] = p[stack["gws"], :, :stack["targets"].shape[1]]
    design = rates.reshape(streams.shape + (k,)).swapaxes(1, 2)
    return (design.reshape(len(per_scheme), n_powers, -1),
            np.sum(~ok.reshape(streams.shape), axis=1))


def run_schemes(topology: Topology, channels: ChannelRealization,
                config) -> TrialResult:
    """Evaluate every (scheme, power) cell of config on one realization.

    config is a validated SimConfig, read by attribute (the harness
    imports this module): its schemes, power grid, m_per_neighbour and
    paper_literal_coloring.  Every scheme shares one (P,) array of
    per-gateway budgets, and edge users are selected once.
    """
    budgets = np.array([gateway_budget_w(topology.beams_per_cluster, dbw)
                        for dbw in config.power_grid_dbw_per_beam])
    n = channels.n_users
    shape = (len(config.schemes), len(budgets))
    precoded = [name for name in config.schemes if name != "coloring"]
    rows = [config.schemes.index(name) for name in precoded]
    edges = [np.zeros(0, dtype=int)] * channels.n_clusters
    if any(_SHARING[name][0] for name in precoded):
        edges = [select_edge_users(channels, c, topology.neighbours_of(c),
                                   config.m_per_neighbour)
                 for c in range(channels.n_clusters)]
    result = TrialResult(
        rate=np.empty(shape + (n,)), sinr=np.empty(shape + (n,)),
        design_rate=np.empty(shape + (n,)),
        serving_counts=np.ones((shape[0], n), dtype=int),
        nonconverged=np.zeros(shape, dtype=int), edge_users=edges)

    if "coloring" in config.schemes:
        s = config.schemes.index("coloring")
        result.rate[s], result.sinr[s] = _run_coloring(
            topology, channels, budgets, config.paper_literal_coloring)
        result.design_rate[s] = result.rate[s]
    if precoded:
        # the most streams a gateway can have: its own K and m per neighbour
        width = channels.k_per_cluster + config.m_per_neighbour * (
            max(map(len, topology.hyper_clusters)) - 1)
        per_scheme = _precode(channels, budgets, precoded, edges)
        result.design_rate[rows], result.nonconverged[rows] = _allocate(
            channels, budgets, per_scheme, width)
        for s, stacks in zip(rows, per_scheme):
            result.sinr[s], result.serving_counts[s] = global_sinr(channels,
                                                                   stacks)
            result.rate[s] = np.log2(1.0 + result.sinr[s])
    return result
