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
    global user index.  run_schemes turns each SINR pass's output into
    rate, in bits/s/Hz referred to the full band (coloring's carries its
    1/4 pre-log).  design_rate is each user's stream from its own
    gateway as that gateway's in-set view predicts it; nonconverged
    counts the gateways whose allocator stopped at its iteration cap while
    still moving.  edge_users holds each gateway's selected edge users,
    empty unless a configured scheme shares CSI; under csidata they are
    the users two gateways serve.
    """

    rate: np.ndarray          # (S, P, N)
    design_rate: np.ndarray   # (S, P, N)
    nonconverged: np.ndarray  # (S, P)
    edge_users: list          # per gateway, int array of global users


def gateway_budget_w(beams_per_cluster: int, dbw_per_beam: float) -> float:
    """Per-gateway budget in W for a per-beam power in dBW."""
    return beams_per_cluster * 10.0 ** (dbw_per_beam / 10.0)


def select_edge_users(channels: ChannelRealization, neighbours,
                      m_per_neighbour: int) -> list:
    """Strongest-channel users of each neighbouring cluster, per gateway.

    neighbours[g] holds the clusters next to gateway g, for gateways
    0..len(neighbours)-1; Topology.neighbours is the usual table.  For
    each neighbour cluster b, gateway g picks the m users j with the
    largest ||h_{g,b,j}||^2 and lists their global
    indices b*K + j; ties break toward the lowest user index, and
    neighbours go in sorted order so the result is deterministic.  Returns
    one int array per gateway.  One pass serves every gateway: the squared
    gains summed over each gateway's K feeds, (gateway, cluster, user),
    and one stable argsort of them.
    """
    k = channels.k_per_cluster
    if m_per_neighbour < 0:
        raise ValueError("m_per_neighbour must be nonnegative")
    if m_per_neighbour > k:
        raise ValueError(f"m_per_neighbour={m_per_neighbour} exceeds the "
                         f"{k} users of a cluster")
    gains = channels.gains[:len(neighbours) * k]
    norms = np.sum(np.abs(gains.reshape(len(neighbours), k, -1, k)) ** 2,
                   axis=1)
    picked = np.argsort(-norms, kind="stable")[..., :m_per_neighbour]
    picked += np.arange(0, gains.shape[1], k)[:, None]
    return [picked[g, sorted(nb)].ravel() for g, nb in enumerate(neighbours)]


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


def global_sinr(channels: ChannelRealization, targets, columns, powers,
                streams):
    """True SINR of every user under one scheme's full multi-gateway
    transmission.

    Gateway c, of the C = channels.n_clusters in config order, transmits
    streams[c] streams from the leading slots of its rows: at each of P
    power points it sends from its own K feeds stream i of columns[c]
    (P, K, W) at powers[c][:, i] (P, W) to global user targets[c, i]
    (C, W).  Every gateway's targets begin with its own K users, in order,
    so every user has a serving gateway.  Slots from streams[c] on are
    never read.  Returns the SINR (P, N), indexed by global user;
    run_schemes turns it into rate.

    The weights are stream-major, (gateway, stream, power, feed), in the
    gains' dtype: real for a synthesized realization, and complex for a
    hand-made one (conj costs nothing on real input).  The own streams of
    every gateway come from one batched product, a gemm of K*P rows per
    gateway, whose (C, K*P, N) output is the (stream, power, user)
    amplitude array itself.  Each gateway's edge streams then add their
    product into it through an index, gateway by gateway.  Every amplitude
    sums its terms in gateway order, as no user has more than two helpers
    (Topology.neighbours lists at most two clusters per cluster, and
    select_edge_users picks distinct users per neighbour): a user whose
    two helpers both come before its home gateway adds its own term after
    the edge loop, (e1 + e2) + own, and every other user's order differs
    from gateway order only by commutation.  So every amplitude comes out
    the same whatever P is.  Real amplitudes are squared in place.  The
    array holds P (N, N) planes; run_schemes passes at most _POWER_BLOCK
    points per call.
    """
    k, n, c = channels.k_per_cluster, channels.n_users, channels.n_clusters
    width, n_powers = targets.shape[-1], powers.shape[1]
    shapes = targets.shape, columns.shape, powers.shape, streams.shape
    if shapes != ((c, width), (c, n_powers, k, width), (c, n_powers, width),
                  (c,)):
        raise ValueError(f"targets, columns, powers and streams of shapes "
                         f"{shapes} are not (C, W), (C, P, K, W), (C, P, W) "
                         f"and (C,) for C={c}, P={n_powers}, K={k}, W={width}")
    wrong = (streams < k) | np.any(
        targets[:, :k] != np.arange(n).reshape(c, k), axis=1)
    if wrong.any():
        raise ValueError(f"gateways {np.flatnonzero(wrong).tolist()}: targets "
                         f"do not begin with each gateway's own {k} users")
    s_max = streams.max()
    weights = np.empty((c, s_max, n_powers, k), dtype=columns.dtype)
    np.multiply(columns[..., :s_max].transpose(0, 3, 1, 2), np.sqrt(
        np.maximum(powers[..., :s_max], 0.0)).transpose(0, 2, 1)[..., None],
        out=weights)
    weights = weights.conj()
    gains = channels.gains.reshape(c, k, n)
    # (stream, power, user): a stream's rows are one contiguous run
    amplitudes = (weights[:, :k].reshape(c, k * n_powers, k)
                  @ gains).reshape(n, n_powers, n)
    if s_max > k:
        # every live edge slot, gateways in order, and the user it serves
        gws, slots = np.nonzero(np.arange(k, s_max) < streams[:, None])
        helped = targets[gws, slots + k]
        early = gws < helped // k
        # the users two gateways help before their home gateway: their own
        # terms wait until the loop has added both helpers' terms
        late = np.flatnonzero(np.bincount(helped[early], minlength=n) > 1)
        held = amplitudes[late]
        amplitudes[late] = 0.0
        for g in np.flatnonzero(streams > k):
            s = streams[g]
            rows = weights[g, k:s].reshape(-1, k) @ gains[g]
            # only the live slots: a repeated pad index would keep one write
            amplitudes[targets[g, k:s]] += rows.reshape(s - k, n_powers, n)
        amplitudes[late] += held
    power = np.abs(amplitudes) if np.iscomplexobj(amplitudes) else amplitudes
    power **= 2
    own = np.diagonal(power, axis1=0, axis2=2)
    return own / (power.sum(axis=0) - own + channels.noise_power_w)


def _coloring_sinr(topology: Topology, channels: ChannelRealization,
                   budgets: np.ndarray, paper_literal: bool):
    """SINR under 4-colour frequency reuse: single-feed beams, uniform
    P_T/K power.

    Only co-colour beams interfere (others occupy different sub-bands).
    Default noise is the W/4 sub-band value N0*W/4; paper_literal switches
    to the 4*W*N0 constant.  The own-beam gains and the co-colour gain sums
    do not depend on power, so one broadcast over the budgets (P,) gives
    the (P, N) SINRs; run_schemes applies the 1/4 pre-log.  The layout's
    co-colour mask, built once per Topology, selects the sums' terms.
    """
    g = channels.gains
    # |g|^2 in one multiply: conj and .real are free on real gains
    gain2 = (g * g.conj()).real
    own = np.diagonal(gain2).copy()
    gain2 *= topology.co_colour_mask
    co_sum = gain2.sum(axis=0)

    per_beam_power = (budgets / channels.k_per_cluster)[:, None]
    noise = channels.noise_power_w * (4.0 if paper_literal else 0.25)
    return per_beam_power * own / (per_beam_power * co_sum + noise)


def _precode(channels: ChannelRealization, budgets: np.ndarray, names,
             edge_users, width: int):
    """Per-gateway leakage-aware beamformers of each precoded scheme.

    Each gateway serves its own K users and, when data is shared, the edge
    users it selected in its hyper-cluster neighbours; an edge user's home
    and helper gateways transmit the same synchronized stream.  When CSI is
    shared the precoder also steers leakage away from the selected users.

    Returns, for the schemes of names in order and the gateways in config
    order, targets (schemes, C, W) of global users, each gateway's own
    users first, columns (schemes, C, P, K, W) for every budget, in the
    gains' dtype, and streams (schemes, C): gateway c of scheme i fills the
    leading streams[i, c] of its W slots, and the rest are zero.  The
    gateways that select the same number of edge users (all of them for
    rzf, which shares nothing) get their columns from one _slnr_columns
    call.
    """
    own = np.arange(channels.n_users).reshape(-1, channels.k_per_cluster)
    sizes = np.array([len(edges) for edges in edge_users])
    by_edges = [np.flatnonzero(sizes == size) for size in dict.fromkeys(sizes)]
    streams = np.zeros((len(names), len(own)), dtype=int)
    targets = np.zeros(streams.shape + (width,), dtype=int)
    columns = np.zeros(streams.shape + (len(budgets), own.shape[1], width),
                       dtype=channels.gains.dtype)
    for i, name in enumerate(names):
        share_csi, share_data = _SHARING[name]
        for gws in by_edges if share_csi else [np.arange(len(own))]:
            basis = own[gws]
            if share_csi:
                basis = np.hstack([basis, np.stack([edge_users[c]
                                                    for c in gws])])
            served = basis if share_data else own[gws]
            s = served.shape[1]
            targets[i, gws, :s], streams[i, gws] = served, s
            columns[i, gws, ..., :s] = _slnr_columns(channels, gws, served,
                                                     basis, budgets)
    return targets, columns, streams


def _allocate(channels: ChannelRealization, budgets: np.ndarray, targets,
              columns, streams):
    """Each gateway's power split over its streams, against its own in-set
    view, for every row of _precode's (targets, columns, streams).

    Every gateway's design-view gain tables at the given budgets go into
    one solver batch: G*P_T/N with unit noise and a unit budget is the
    same problem as G with noise N and budget P_T, and p = P_T*x maps the
    answer back.
    This is the one place that scales.  The batch is one (scheme, gateway,
    power, W, W) array from one product, each table in the leading S x S
    block of its row: the padded columns are zero, and the padded targets'
    gains are masked, so the allocator keeps the padded streams at zero
    power.  W, the most streams any gateway can have (K plus m per
    hyper-cluster neighbour), comes from the layout and m alone, not from
    the configured schemes, so a row solves alike in a one-scheme run and
    in the full grid.  Returns the powers (schemes, C, P, W), zero past
    each gateway's streams; the design rates (schemes, P, N), each user's
    stream from its own gateway read off the scaled tables; and the count
    of gateways whose allocator stopped at its iteration cap while still
    moving, (schemes, P).
    """
    k = channels.k_per_cluster
    n_schemes, n_gws, width = targets.shape
    n_powers = len(budgets)
    live = np.arange(width) < streams[..., None]
    # gateway c's feeds are c*K..c*K+K-1; its padded targets gather real
    # gains, which the mask zeroes
    feeds = np.arange(channels.n_users).reshape(n_gws, k, 1)
    block = channels.gains[feeds, targets[:, :, None]] * live[:, :, None]
    tables = np.abs(columns.conj().swapaxes(-1, -2) @ block[:, :, None]) ** 2
    tables *= (budgets / channels.noise_power_w)[:, None, None]
    flat = tables.reshape(-1, width, width)
    x, ok, _, _, _ = allocate_sumrate_batch(
        flat, np.repeat(streams.ravel(), n_powers))
    rates = stream_rates(flat, x)[:, :k]
    design = rates.reshape(tables.shape[:3] + (k,)).swapaxes(1, 2)
    return (budgets[:, None] * x.reshape(tables.shape[:-1]),
            design.reshape(n_schemes, n_powers, -1),
            np.sum(~ok.reshape(tables.shape[:3]), axis=1))


# power points per pass of the precoded path: the 7 of the default grid take
# one pass, and a 1000-point grid never holds its columns, tables and (N, N)
# amplitudes for all 1000 at once
_POWER_BLOCK = 8


def run_schemes(topology: Topology, channels: ChannelRealization,
                config) -> TrialResult:
    """Evaluate every (scheme, power) cell of config on one realization.

    config is a validated SimConfig, read by attribute (the harness
    imports this module): its schemes, power grid, m_per_neighbour and
    paper_literal_coloring.  Every scheme shares one (P,) array of
    per-gateway budgets, and edge users are selected once.  The precoded
    schemes run _precode, _allocate and global_sinr once per block of
    _POWER_BLOCK power points; every (gateway, power) row is solved on its
    own, so the cells do not depend on the blocking.  Both SINR passes
    return SINR alone, and this is the one place that turns it into rate.
    """
    budgets = np.array([gateway_budget_w(topology.beams_per_cluster, dbw)
                        for dbw in config.power_grid_dbw_per_beam])
    n = channels.n_users
    shape = (len(config.schemes), len(budgets))
    precoded = [name for name in config.schemes if name != "coloring"]
    rows = [config.schemes.index(name) for name in precoded]
    edges = [np.zeros(0, dtype=int)] * channels.n_clusters
    if any(_SHARING[name][0] for name in precoded):
        edges = select_edge_users(channels, topology.neighbours,
                                  config.m_per_neighbour)
    result = TrialResult(
        rate=np.empty(shape + (n,)), design_rate=np.empty(shape + (n,)),
        nonconverged=np.zeros(shape, dtype=int), edge_users=edges)

    if "coloring" in config.schemes:
        s = config.schemes.index("coloring")
        # each colour uses a quarter of the band
        result.rate[s] = 0.25 * np.log2(1.0 + _coloring_sinr(
            topology, channels, budgets, config.paper_literal_coloring))
        result.design_rate[s] = result.rate[s]
    if precoded:
        # the most streams a gateway can have: its own K and m per neighbour
        width = channels.k_per_cluster + config.m_per_neighbour * max(
            map(len, topology.neighbours))
        for start in range(0, len(budgets), _POWER_BLOCK):
            block = slice(start, start + _POWER_BLOCK)
            targets, columns, streams = _precode(channels, budgets[block],
                                                 precoded, edges, width)
            (powers, result.design_rate[rows, block],
             result.nonconverged[rows, block]) = _allocate(
                channels, budgets[block], targets, columns, streams)
            for s, *scheme in zip(rows, targets, columns, powers, streams):
                result.rate[s, block] = np.log2(
                    1.0 + global_sinr(channels, *scheme))
    return result
