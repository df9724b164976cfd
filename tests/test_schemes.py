import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satcoop.schemes as schemes
from conftest import gateway_columns, make_channels, make_topology_stub
from oracles import reference_global_sinr, rzf_precoder, slnr_beamformer
from satcoop.channel import LinkBudget, synthesize_channels
from satcoop.geometry import (build_topology, footprint_matched_diameter,
                              user_geometry)
from satcoop.harness import SimConfig
from satcoop.power_alloc import allocate_sumrate_batch, stream_rates
from satcoop.schemes import (_POWER_BLOCK, SCHEME_NAMES, _slnr_columns,
                             global_sinr, run_schemes, select_edge_users)

ALL_SCHEMES = tuple(SCHEME_NAMES)


def config(*schemes, dbw=(0.0,), **settings):
    """SimConfig of the given schemes and per-beam power grid (dBW)."""
    return SimConfig(schemes=schemes, power_grid_dbw_per_beam=dbw, **settings)


def dense(targets, columns, powers):
    """global_sinr's (targets, columns, powers, streams) for gateways
    0..C-1, from each gateway's targets (S,), columns (P, K, S) and powers
    (P, S), zero-padded to the most streams of any gateway."""
    streams = np.array([len(users) for users in targets])
    n_powers, k, _ = np.shape(columns[0])
    padded = (np.zeros((len(streams), streams.max()), dtype=int),
              np.zeros((len(streams), n_powers, k, streams.max()),
                       dtype=np.result_type(*columns)),
              np.zeros((len(streams), n_powers, streams.max())))
    for g, s in enumerate(streams):
        for array, value in zip(padded, (targets[g], columns[g], powers[g])):
            array[g, ..., :s] = value
    return padded + (streams,)


def single_feed_set(served_by_gw, powers_by_gw):
    """global_sinr inputs for scalar-feed worlds (k = 1, w = [1]) at one
    power point.

    Gateways are keyed 0..G-1; user (g, 0) is global user g.
    """
    gws = range(len(served_by_gw))
    return dense([[g for (g, _) in served_by_gw[gw]] for gw in gws],
                 [np.ones((1, 1, len(served_by_gw[gw])), dtype=complex)
                  for gw in gws],
                 [[powers_by_gw[gw]] for gw in gws])


class TestEvaluateSinr:
    def test_zero_power_gives_zero(self):
        ch = make_channels([[1.0, 0.0], [1.0, 0.0]], k_per_cluster=1)
        inputs = single_feed_set({0: [(0, 0)], 1: [(1, 0)]},
                                 {0: [0.0], 1: [0.0]})
        assert global_sinr(ch, *inputs)[0, 0] == 0.0

    def test_single_gateway_no_interference(self):
        ch = make_channels([[2.0, 0.0], [0.0, 1.0]], k_per_cluster=1,
                           noise_power=0.5)
        inputs = single_feed_set({0: [(0, 0)], 1: [(1, 0)]},
                                 {0: [3.0], 1: [0.0]})
        expected = 3.0 * 4.0 / 0.5
        assert global_sinr(ch, *inputs)[0, 0] \
            == pytest.approx(expected, rel=1e-12)

    def test_two_gateways_combine_coherently(self):
        # equal amplitude a from each gateway, aligned phases: numerator 4a^2
        ch = make_channels([[1.0, 0.0], [1.0, 0.0]], k_per_cluster=1,
                           noise_power=1.0)
        inputs = single_feed_set({0: [(0, 0)], 1: [(1, 0), (0, 0)]},
                                 {0: [1.0], 1: [0.0, 1.0]})
        assert global_sinr(ch, *inputs)[0, 0] \
            == pytest.approx(4.0, rel=1e-12)

    def test_interference_partition_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        k, n_clusters = 2, 2
        gains = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ch = make_channels(gains, k_per_cluster=k, noise_power=0.7)
        cols = {}
        powers = {}
        served = {0: [(0, 0), (0, 1), (1, 0)], 1: [(1, 0), (1, 1)]}
        for gw, users in served.items():
            cols[gw] = np.zeros((k, len(users)), dtype=complex)
            for i in range(len(users)):
                w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                cols[gw][:, i] = w / np.linalg.norm(w)
            powers[gw] = rng.uniform(0.1, 2.0, len(users))
        sinr = global_sinr(ch, *dense(
            [[g * k + l for (g, l) in served[gw]] for gw in (0, 1)],
            [cols[gw][None] for gw in (0, 1)],
            [powers[gw][None] for gw in (0, 1)]))
        # independent scalar-loop evaluation of the coherent SINR
        targets = sorted({uid for users in served.values() for uid in users})
        for (c, kk) in targets:
            u = c * k + kk
            amps = {}
            for t in targets:
                amp = 0.0 + 0.0j
                for gw, users in served.items():
                    if t in users:
                        i = users.index(t)
                        w = cols[gw][:, i]
                        h = ch.gains[gw * k:(gw + 1) * k, u]
                        amp += math.sqrt(powers[gw][i]) * np.vdot(w, h)
                amps[t] = abs(amp) ** 2
            num = amps[(c, kk)]
            total = sum(amps.values())
            expected = num / (total - num + 0.7)
            got = sinr[0, u]
            assert got == pytest.approx(expected, rel=1e-9)
            # partition: numerator plus interference recovers total power
            assert num + (total - num) == pytest.approx(total, rel=1e-9)


def csidata_inputs(topology, realization, m, n_powers):
    """global_sinr inputs of csidata at n_powers budgets, random powers.

    Each gateway serves its own users first, then its selected edge users,
    with columns from its own _slnr_columns call and powers drawn from a
    fixed seed.
    """
    k = realization.k_per_cluster
    rng = np.random.default_rng(2024)
    budgets = np.geomspace(0.1, 100.0, n_powers)
    edges_of = select_edge_users(realization, topology.neighbours, m)
    targets = [np.concatenate([np.arange(c * k, (c + 1) * k), edges])
               for c, edges in enumerate(edges_of)]
    columns, powers = [], []
    for c, users in enumerate(targets):
        columns.append(_slnr_columns(realization, np.array([c]), users[None],
                                     users[None], budgets)[0])
        powers.append(budgets[:, None]
                      * rng.dirichlet(np.ones(len(users)), n_powers))
    return dense(targets, columns, powers)


class TestBatchedSinr:
    @pytest.mark.parametrize("m", [1, 3])
    def test_blocks_equal_one_call_per_power(self, canonical_topology,
                                             canonical_realization, m):
        # more points than run_schemes passes at once, and not a multiple
        n_powers = _POWER_BLOCK + 3
        targets, columns, powers, streams = csidata_inputs(
            canonical_topology, canonical_realization, m, n_powers)
        # some users have home and helper streams
        live = targets[np.arange(targets.shape[1]) < streams[:, None]]
        assert np.bincount(live).max() >= 2
        sinr = global_sinr(canonical_realization, targets, columns, powers,
                           streams)
        assert sinr.shape == (n_powers, canonical_realization.n_users)
        for pi in range(n_powers):
            one = global_sinr(canonical_realization, targets,
                              columns[:, pi:pi + 1], powers[:, pi:pi + 1],
                              streams)
            np.testing.assert_array_equal(sinr[pi:pi + 1], one)

    @staticmethod
    def precoded_inputs(channels, neighbours, m, budgets):
        """global_sinr inputs of rzf, csi and csidata: _precode's rows at
        the budgets, with each gateway's budget split over its live streams
        at random.  Allocated powers leave most edge streams at zero, which
        would hide the order an amplitude sums its terms in."""
        edges = select_edge_users(channels, neighbours, m)
        targets, columns, streams = schemes._precode(
            channels, budgets, ALL_SCHEMES[1:], edges,
            channels.k_per_cluster + 2 * m)
        rng = np.random.default_rng(2024)
        powers = np.zeros(columns.shape[:3] + columns.shape[-1:])
        for i, g in np.ndindex(streams.shape):
            powers[i, g, :, :streams[i, g]] = budgets[:, None] * rng.dirichlet(
                np.ones(streams[i, g]), len(budgets))
        return edges, zip(targets, columns, powers, streams)

    @pytest.mark.parametrize("n_powers", [1, 7, 11])
    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_equals_per_gateway_loop(self, canonical_topology,
                                     canonical_realization, m, n_powers):
        real = canonical_realization
        _, inputs = self.precoded_inputs(real, canonical_topology.neighbours,
                                         m, np.geomspace(0.1, 300.0, n_powers))
        for scheme in inputs:
            assert np.array_equal(global_sinr(real, *scheme),
                                  reference_global_sinr(real, *scheme))

    @pytest.mark.parametrize("clusters", [1, 7, 19])
    def test_no_cluster_has_more_than_two_neighbours(self, clusters):
        # global_sinr sums in gateway order only while no user has more
        # than two helpers, and a user is picked at most once by each
        # neighbour of its cluster
        topology = build_topology(footprint_matched_diameter(clusters), 7,
                                  clusters)
        assert max(map(len, topology.neighbours)) <= 2

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_no_user_has_more_than_two_helpers(self, canonical_topology,
                                               canonical_realization, m):
        edges = select_edge_users(canonical_realization,
                                  canonical_topology.neighbours, m)
        assert np.bincount(np.concatenate(edges)).max() <= 2

    def test_equals_per_gateway_loop_on_complex_world(self):
        k = 3
        rng = np.random.default_rng(7)
        ch = make_channels(rng.standard_normal((4 * k, 4 * k))
                           + 1j * rng.standard_normal((4 * k, 4 * k)),
                           k_per_cluster=k, noise_power=0.3)
        edges, inputs = self.precoded_inputs(
            ch, ((1, 2), (0, 2), (0, 1), ()), 2, np.array([0.5, 4.0, 30.0]))
        # gateways 0 and 1 each pick 2 of cluster 2's 3 users, so some user
        # of cluster 2 has both helpers before its home gateway: its helper
        # terms sum before its own term does
        assert set(edges[0]) & set(edges[1]) & set(range(2 * k, 3 * k))
        for scheme in inputs:
            assert np.array_equal(global_sinr(ch, *scheme),
                                  reference_global_sinr(ch, *scheme))

    def test_gateway_stack_equals_per_gateway_columns(self,
                                                      canonical_topology,
                                                      canonical_realization):
        # the 2-neighbour gateways at m=1 share one shape; csi serves the
        # own users and knows the edge users too
        targets, _, _, streams = csidata_inputs(
            canonical_topology, canonical_realization, 1, 1)
        served = [users[:s] for users, s in zip(targets, streams)]
        gws = [c for c, users in enumerate(served) if len(users) == 9]
        basis = np.stack([served[c] for c in gws])
        targets = basis[:, :7]
        p_total = np.array([0.7, 7.0, 70.0])
        stacked = _slnr_columns(canonical_realization, np.array(gws),
                                targets, basis, p_total)
        assert stacked.shape == (len(gws), 3, 7, 7)
        for j, c in enumerate(gws):
            np.testing.assert_array_equal(
                stacked[j:j + 1],
                _slnr_columns(canonical_realization, np.array([c]),
                              targets[j:j + 1], basis[j:j + 1], p_total))

    @pytest.mark.parametrize("edit, message", [
        (lambda t, c, p, s: (t, c, p[..., :-1], s),
         "shapes ((19, 9), (19, 3, 7, 9), (19, 3, 8), (19,)) are not"),
        (lambda t, c, p, s: (t, c[:, :2], p, s),
         "shapes ((19, 9), (19, 2, 7, 9), (19, 3, 9), (19,)) are not"),
        (lambda t, c, p, s: (t, c[:, :, :-1], p, s),
         "shapes ((19, 9), (19, 3, 6, 9), (19, 3, 9), (19,)) are not"),
        (lambda t, c, p, s: (np.vstack([t[:3], t[3, ::-1], t[4:]]), c, p, s),
         "gateways [3]: targets do not begin with each gateway's own 7 "
         "users"),
    ], ids=["served-set", "power-axes", "feeds", "own-first"])
    def test_rejects_gateway_input_not_matching(
            self, canonical_topology, canonical_realization, edit, message):
        inputs = csidata_inputs(canonical_topology, canonical_realization, 1,
                                3)
        with pytest.raises(ValueError, match=re.escape(message)):
            global_sinr(canonical_realization, *edit(*inputs))


def coloring_sinr(topology, realization, dbw):
    """_coloring_sinr at the per-gateway budgets run_schemes derives from
    the per-beam powers dbw."""
    budgets = np.array([schemes.gateway_budget_w(topology.beams_per_cluster,
                                                 p) for p in dbw])
    return schemes._coloring_sinr(topology, realization, budgets, False)


@pytest.fixture
def small_world(fixed_rain):
    topo = build_topology(500.0, 7, 1)
    drop = user_geometry(topo, topo.beam_centers)
    real = synthesize_channels(topo, drop, LinkBudget(), 0)
    return topo, real


class TestColoring:
    def test_isolated_centre_beam_rate(self, small_world):
        topo, real = small_world
        res = run_schemes(topo, real, config("coloring"))
        sinr = coloring_sinr(topo, real, (0.0,))
        centre = int(np.argmin(np.linalg.norm(topo.beam_centers, axis=1)))
        # unique colour: no co-colour interferer anywhere
        assert np.sum(topo.colour_of_beam == topo.colour_of_beam[centre]) == 1
        p = 1.0
        gamma = p * abs(real.gains[centre, centre]) ** 2 / (real.noise_power_w / 4)
        assert res.rate[0, 0, centre] \
            == pytest.approx(0.25 * math.log2(1 + gamma), rel=1e-12)
        assert sinr[0, centre] == pytest.approx(gamma, rel=1e-12)
        # run_schemes applies the 1/4 pre-log to exactly this SINR
        assert np.array_equal(res.rate[0], 0.25 * np.log2(1.0 + sinr))

    def test_paper_literal_noise_variant(self, small_world):
        topo, real = small_world
        res = run_schemes(topo, real,
                          config("coloring", paper_literal_coloring=True))
        centre = int(np.argmin(np.linalg.norm(topo.beam_centers, axis=1)))
        gamma = abs(real.gains[centre, centre]) ** 2 / (4 * real.noise_power_w)
        assert res.rate[0, 0, centre] \
            == pytest.approx(0.25 * math.log2(1 + gamma), rel=1e-12)

    def test_symmetric_cocolour_twins(self, fixed_rain):
        topo = build_topology(500.0, 7, 19)
        drop = user_geometry(topo, topo.beam_centers)
        real = synthesize_channels(topo, drop, LinkBudget(), 0)
        sinr = coloring_sinr(topo, real, (10.0,))
        # beams 1 and 4 of the central cluster sit at +/- one pitch on the
        # same axis: the layout maps onto itself under point reflection
        assert topo.colour_of_beam[1] == topo.colour_of_beam[4]
        assert sinr[0, 1] == pytest.approx(sinr[0, 4], rel=1e-9)
        res = run_schemes(topo, real, config("coloring", dbw=(10.0,)))
        # run_schemes applies the 1/4 pre-log to exactly this SINR
        assert np.array_equal(res.rate[0], 0.25 * np.log2(1.0 + sinr))

    def test_matches_scalar_formula_oracle(self, canonical_topology,
                                           canonical_realization):
        topo, real = canonical_topology, canonical_realization
        res = run_schemes(topo, real, config("coloring"))
        p = 1.0
        g2 = np.abs(real.gains) ** 2
        for u in (0, 17, 66, 132):
            interf = sum(p * g2[b, u] for b in range(133)
                         if b != u and topo.colour_of_beam[b]
                         == topo.colour_of_beam[u])
            gamma = p * g2[u, u] / (interf + real.noise_power_w / 4)
            assert res.rate[0, 0, u] \
                == pytest.approx(0.25 * math.log2(1 + gamma), rel=1e-12)

    def test_cached_mask_sums_match_where_form(self, canonical_topology,
                                               canonical_realization):
        # the co-colour sums over the layout's cached float mask must equal
        # a per-trial boolean mask's np.where form bit for bit
        topo, real = canonical_topology, canonical_realization
        budgets = np.array([0.1, 1.0, 30.0])
        sinr = schemes._coloring_sinr(topo, real, budgets, False)
        gain2 = np.abs(real.gains) ** 2
        same_colour = topo.colour_of_beam[:, None] == topo.colour_of_beam
        np.fill_diagonal(same_colour, False)
        co_sum = np.where(same_colour, gain2, 0.0).sum(axis=0)
        power = (budgets / real.k_per_cluster)[:, None]
        expected = power * np.diagonal(gain2) / (
            power * co_sum + 0.25 * real.noise_power_w)
        assert np.array_equal(sinr, expected)
        # run_schemes applies the 1/4 pre-log to exactly this SINR
        dbw = (-10.0, 0.0, 10.0)
        res = run_schemes(topo, real, config("coloring", dbw=dbw))
        assert np.array_equal(res.rate[0], 0.25 * np.log2(
            1.0 + coloring_sinr(topo, real, dbw)))
        assert topo.co_colour_mask is topo.co_colour_mask
        assert not topo.co_colour_mask.flags.writeable


class TestClusterRzf:
    def test_achieved_never_exceeds_design_view(self, canonical_topology,
                                                canonical_realization):
        res = run_schemes(canonical_topology, canonical_realization,
                          config("rzf"))
        assert np.all(res.rate[0, 0] <= res.design_rate[0, 0] + 1e-12)

    def test_beats_coloring_on_average(self, canonical_topology,
                                       canonical_realization):
        res = run_schemes(canonical_topology, canonical_realization,
                          config("rzf", "coloring"))
        rzf, col = res.rate[:, 0]
        assert rzf.mean() > col.mean()


class TestHyperClusterCsi:
    def test_singleton_cluster_has_no_leakage_targets(self, canonical_topology,
                                                      canonical_realization):
        res = run_schemes(canonical_topology, canonical_realization,
                          config("csi"))
        assert res.edge_users[0].size == 0  # gateway label 1
        assert len(res.edge_users[2]) == 2  # label 3 in {3,9,10}

    def test_runner_columns_match_slnr_operation(self, canonical_realization):
        real = canonical_realization
        p_total = 7.0

        def h(c, u):
            """Gateway c's 7-feed channel vector toward global user u."""
            return real.gains[c * 7:(c + 1) * 7, u]

        # CSI only: gateway 5 serves its 7 users and also knows edge users
        # 8*7+2 and 9*7+4
        own = np.arange(5 * 7, 6 * 7)
        edges = [8 * 7 + 2, 9 * 7 + 4]
        basis = np.concatenate([own, edges])
        cols = gateway_columns(real, 5, own, basis, p_total)
        reg = real.noise_power_w * 7 / p_total
        for k in range(7):
            intra = [h(5, u) for u in own if u != own[k]]
            inter = [h(5, u) for u in edges]
            w = slnr_beamformer(h(5, own[k]), intra, inter, reg)
            np.testing.assert_allclose(cols[:, k], w, atol=1e-10)
        # CSI and data: the edge users become targets, and the basis is the
        # targets
        cols = gateway_columns(real, 5, basis, basis, p_total)
        reg = real.noise_power_w * 9 / p_total
        for k, target in enumerate(basis):
            others = [h(5, u) for u in basis if u != target]
            w = slnr_beamformer(h(5, target), others, [], reg)
            np.testing.assert_allclose(cols[:, k], w, atol=1e-10)
        # R-ZF is the same solve with the own users as targets and basis
        reg = real.noise_power_w * 7 / p_total
        for c in range(real.n_clusters):
            users = np.arange(c * 7, (c + 1) * 7)
            rzf_cols = gateway_columns(real, c, users, users, p_total)
            h_rows = np.stack([h(c, u) for u in users]).conj()
            np.testing.assert_allclose(rzf_cols, rzf_precoder(h_rows, reg),
                                       atol=1e-10)
            for k, target in enumerate(users):
                others = [h(c, u) for u in users if u != target]
                w = slnr_beamformer(h(c, target), others, [], reg)
                np.testing.assert_allclose(rzf_cols[:, k], w, atol=1e-10)


class TestHyperClusterCsiData:
    def test_singleton_plan_equals_zero_sharing(self, canonical_topology,
                                                canonical_realization):
        singleton = dataclasses.replace(
            canonical_topology,
            neighbours=((),) * 19)
        a = run_schemes(singleton, canonical_realization, config("csi"))
        b = run_schemes(canonical_topology, canonical_realization,
                        config("csi", m_per_neighbour=0))
        np.testing.assert_array_equal(a.rate, b.rate)

    def test_shared_edge_user_gains_in_noise_limited_world(self):
        # two clusters of three feeds; user (0,2) is loud toward gateway 1's
        # third feed, whose own user sits in a deep fade, so the helper has
        # spare dimensions and genuinely funds the shared stream
        gains = np.array([
            # users: (0,0) (0,1) (0,2) (1,0) (1,1) (1,2)
            [1.00, 0.05, 0.05, 0.01, 0.01, 0.01],
            [0.05, 1.00, 0.05, 0.01, 0.01, 0.01],
            [0.05, 0.05, 1.00, 0.01, 0.01, 0.01],
            [0.01, 0.01, 0.05, 1.00, 0.05, 0.05],
            [0.01, 0.01, 0.05, 0.05, 1.00, 0.05],
            [0.01, 0.01, 1.00, 0.05, 0.05, 0.30],
        ])
        ch = make_channels(gains, k_per_cluster=3, noise_power=0.3)
        topo = make_topology_stub(3, ((1,), (0,)))
        # a 2 W gateway budget over 3 beams
        res = run_schemes(topo, ch, config(
            "csi", "csidata", dbw=(10 * math.log10(2.0 / 3),),
            m_per_neighbour=1))
        csi, dat = res.rate[:, 0]
        # every user's home gateway serves it, and csidata's helpers their
        # edge users
        served = 1 + np.bincount(np.concatenate(res.edge_users), minlength=6)
        assert served[2] == 2          # user (0,2) served by home and helper
        assert res.edge_users[1].tolist() == [0 * 3 + 2]
        assert dat[2] >= csi[2]
        # the coherent second stream roughly doubles the edge user's SINR
        assert dat[2] > 1.5 * csi[2]

    def test_multi_serving_present_in_canonical_world(self, canonical_topology,
                                                      canonical_realization):
        res = run_schemes(canonical_topology, canonical_realization,
                          config("csidata"))
        # every user's home gateway serves it, and csidata's helpers their
        # edge users
        served = 1 + np.bincount(np.concatenate(res.edge_users),
                                 minlength=canonical_realization.n_users)
        assert served.max() >= 2


class TestRunSchemes:
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_one_call_per_config(self, canonical_topology,
                                         canonical_realization, m):
        # a one-scheme, one-power run reproduces its cell of the full grid
        # bit for bit: the batched allocator keeps rows independent, and
        # the grid spans more than one power block, not a multiple of it
        grid = tuple(np.linspace(-15.0, 30.0, _POWER_BLOCK + 3))
        full = run_schemes(canonical_topology, canonical_realization,
                           config(*ALL_SCHEMES, dbw=grid, m_per_neighbour=m))
        n = canonical_realization.n_users
        assert full.rate.shape == full.design_rate.shape \
            == (len(ALL_SCHEMES), len(grid), n)
        assert full.nonconverged.shape == (len(ALL_SCHEMES), len(grid))
        for s, name in enumerate(ALL_SCHEMES):
            for p, dbw in enumerate(grid):
                one = run_schemes(canonical_topology, canonical_realization,
                                  config(name, dbw=(dbw,), m_per_neighbour=m))
                for field in ("rate", "design_rate", "nonconverged"):
                    np.testing.assert_array_equal(getattr(one, field)[0, 0],
                                                  getattr(full, field)[s, p])
                if name in ("csi", "csidata"):
                    assert len(one.edge_users) == len(full.edge_users)
                    for got, want in zip(one.edge_users, full.edge_users):
                        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("names, m, width, runs", [
        (ALL_SCHEMES, 1, 9, [(273, 7), (126, 9)]),
        (("csidata",), 3, 13, [(7, 7), (126, 13)]),
    ])
    def test_one_allocator_call_per_trial(
            self, canonical_topology, canonical_realization, monkeypatch,
            names, m, width, runs):
        # one call over every scheme and power point, each table padded to
        # the most streams any gateway can have, in (scheme, gateway, power)
        # order: at m=1, rzf's and csi's 133 rows of 7 streams each and
        # csidata's 7 rows of gateway 0 come first, then csidata's 126 rows
        # of 9 for gateways 1-18 (399 problems in all)
        calls = []
        allocate = schemes.allocate_sumrate_batch

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return allocate(*args, **kwargs)

        monkeypatch.setattr(schemes, "allocate_sumrate_batch", recording)
        run_schemes(canonical_topology, canonical_realization,
                    SimConfig(schemes=names, m_per_neighbour=m))
        rows = sum(count for count, _ in runs)
        assert [(len(args), kwargs, args[0].shape) for args, kwargs in calls] \
            == [(2, {}, (rows, width, width))]
        np.testing.assert_array_equal(
            calls[0][0][1], np.repeat([s for _, s in runs],
                                      [count for count, _ in runs]))

    def test_allocate_solves_each_gateway_as_its_own_row(self, monkeypatch):
        # clusters 0 and 2 share a hyper-cluster and 1 is alone, so csi and
        # csidata precode gateways [0, 2] and [1] together: batch order is
        # not gateway order.  Each gateway's powers, design rates and
        # non-converged count must be those of its own padded table solved
        # alone
        k, m = 3, 1
        rng = np.random.default_rng(11)
        ch = make_channels(rng.exponential(1.0, (3 * k, 3 * k)),
                           k_per_cluster=k, noise_power=0.2)
        topo = make_topology_stub(k, ((2,), (), (0,)))
        edges = select_edge_users(ch, topo.neighbours, m)
        budgets = np.array([0.5, 4.0, 30.0])
        names = ("rzf", "csi", "csidata")
        batches = []
        slnr_columns = schemes._slnr_columns

        def recording(channels, gws, *args):
            batches.append(gws.tolist())
            return slnr_columns(channels, gws, *args)

        monkeypatch.setattr(schemes, "_slnr_columns", recording)
        width = k + m
        targets, columns, streams = schemes._precode(ch, budgets, names,
                                                     edges, width)
        assert batches == [[0, 1, 2], [0, 2], [1], [0, 2], [1]]
        powers, design, nonconverged = schemes._allocate(
            ch, budgets, targets, columns, streams)
        assert powers.shape == (3, 3, 3, width)
        assert design.shape == (3, 3, 3 * k)
        assert nonconverged.shape == (3, 3)
        for i in range(len(names)):
            failed = np.zeros(len(budgets), dtype=int)
            for c, s in enumerate(streams[i]):
                block = ch.gains[c * k:(c + 1) * k][:, targets[i, c, :s]]
                cols = columns[i, c, ..., :s]
                gain = np.abs(cols.conj().swapaxes(-1, -2) @ block) ** 2
                for p, budget in enumerate(budgets):
                    table = np.zeros((1, width, width))
                    table[0, :s, :s] = gain[p] * (budget / ch.noise_power_w)
                    x, ok, _, _, _ = allocate_sumrate_batch(table, [s])
                    np.testing.assert_array_equal(powers[i, c, p],
                                                  budget * x[0])
                    np.testing.assert_array_equal(
                        design[i, p, c * k:(c + 1) * k],
                        stream_rates(table, x)[0, :k])
                    failed[p] += not ok[0]
            np.testing.assert_array_equal(nonconverged[i], failed)

    def test_memory_bounded_by_power_block(self, canonical_topology,
                                           canonical_realization,
                                           monkeypatch):
        # a block holds one (N, block, N) amplitude array of the gains'
        # dtype, squared in place, plus the block's columns, tables and
        # allocator work; three such arrays bound all of that next to the
        # result's own two (S, P, N) arrays, while one 64-point block holds
        # 8x the amplitudes
        cfg = config(*ALL_SCHEMES, dbw=tuple(np.linspace(-15.0, 30.0, 64)))
        n = canonical_realization.n_users
        result_bytes = 2 * len(ALL_SCHEMES) * 64 * n * 8
        bound = result_bytes + (3 * _POWER_BLOCK * n * n
                                * canonical_realization.gains.itemsize)

        def peak_bytes():
            tracemalloc.start()
            try:
                run_schemes(canonical_topology, canonical_realization, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes() < bound
        monkeypatch.setattr("satcoop.schemes._POWER_BLOCK", 64)
        assert peak_bytes() > bound

    def test_pads_are_never_read(self):
        # every row is padded to 5 slots, one more than the layout needs, so
        # that csidata's rows with an edge user have a pad too: the pads
        # hold zero columns and zero power, and no stage reads the targets
        # they hold, not even one that repeats a live target
        k, m = 3, 1
        rng = np.random.default_rng(3)
        ch = make_channels(rng.standard_normal((3 * k, 3 * k))
                           + 1j * rng.standard_normal((3 * k, 3 * k)),
                           k_per_cluster=k, noise_power=0.2)
        topo = make_topology_stub(k, ((2,), (), (0,)))
        edges = select_edge_users(ch, topo.neighbours, m)
        budgets = np.array([0.5, 4.0, 30.0])
        targets, columns, streams = schemes._precode(
            ch, budgets, ("rzf", "csi", "csidata"), edges, k + 2 * m)
        powers, design, nonconverged = schemes._allocate(
            ch, budgets, targets, columns, streams)
        pad = np.arange(k + 2 * m) >= streams[..., None]  # (scheme, gateway, W)
        assert pad.sum() == 16
        assert np.all(np.moveaxis(columns, -1, 2)[pad] == 0.0)
        assert np.all(np.moveaxis(powers, -1, 2)[pad] == 0.0)
        sinr = [global_sinr(ch, *scheme)
                for scheme in zip(targets, columns, powers, streams)]
        for user in range(ch.n_users):
            moved = np.where(pad, user, targets)
            again = schemes._allocate(ch, budgets, moved, columns, streams)
            for got, want in zip(again, (powers, design, nonconverged)):
                np.testing.assert_array_equal(got, want)
            for i, scheme in enumerate(zip(moved, columns, powers, streams)):
                np.testing.assert_array_equal(global_sinr(ch, *scheme),
                                              sinr[i])

    @pytest.mark.parametrize("m", [1, 3])
    def test_common_rain_phase_cancels(self, canonical_topology,
                                       canonical_realization, m):
        # a phase per user, shared by every feed, cancels out of every Gram
        # matrix, beamformer gain and |w^H h|^2: the real realization gives
        # the rates of any phased one
        phi = np.random.default_rng(5).uniform(
            0.0, 2.0 * math.pi, canonical_realization.n_users)
        phased = dataclasses.replace(
            canonical_realization,
            gains=canonical_realization.gains * np.exp(-1j * phi)[None, :])
        cfg = config(*ALL_SCHEMES, dbw=(-10.0, 0.0, 10.0), m_per_neighbour=m)
        real = run_schemes(canonical_topology, canonical_realization, cfg)
        other = run_schemes(canonical_topology, phased, cfg)
        for field in ("rate", "design_rate"):
            np.testing.assert_allclose(getattr(other, field),
                                       getattr(real, field), rtol=1e-9)

    def test_coloring_design_rate_is_its_rate(self, canonical_topology,
                                              canonical_realization):
        res = run_schemes(canonical_topology, canonical_realization,
                          config("coloring", "rzf", dbw=(-10.0, 10.0)))
        np.testing.assert_array_equal(res.design_rate[0], res.rate[0])
        assert all(edges.size == 0 for edges in res.edge_users)


class TestRandomWorldProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_cooperative_schemes_on_random_worlds(self, seed):
        # random 2-cluster worlds: finite nonnegative rates and the m=0
        # reduction, regardless of channel draw; global_sinr's own-first
        # check makes every user served
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        gains = (rng.standard_normal((2 * k, 2 * k))
                 + 1j * rng.standard_normal((2 * k, 2 * k)))
        ch = make_channels(gains, k_per_cluster=k,
                           noise_power=float(rng.uniform(0.1, 3.0)))
        topo = make_topology_stub(k, ((1,), (0,)))
        p_total = float(rng.uniform(0.5, 10.0))
        dbw = (10 * math.log10(p_total / k),)
        for m in (0, 1):
            res = run_schemes(topo, ch, config("csidata", dbw=dbw,
                                               m_per_neighbour=m))
            assert np.all(np.isfinite(res.rate))
            assert np.all(res.rate >= 0)
            if m == 0:
                csi = run_schemes(topo, ch, config("csi", dbw=dbw,
                                                   m_per_neighbour=0))
                np.testing.assert_array_equal(res.rate, csi.rate)


class TestCrossSchemeProperties:
    @pytest.mark.parametrize("name", ALL_SCHEMES, ids=SCHEME_NAMES.get)
    def test_rates_finite_and_nonnegative(self, canonical_topology,
                                          canonical_realization, name):
        before = canonical_realization.checksum()
        res = run_schemes(canonical_topology, canonical_realization,
                          config(name))
        assert np.all(np.isfinite(res.rate))
        assert np.all(res.rate >= 0)
        # the run reads the shared realization without changing it
        assert canonical_realization.checksum() == before

    @pytest.mark.parametrize("name", ALL_SCHEMES, ids=SCHEME_NAMES.get)
    def test_mean_rate_monotone_in_power(self, canonical_topology,
                                         canonical_realization, name):
        res = run_schemes(canonical_topology, canonical_realization,
                          config(name, dbw=(-10.0, 0.0, 10.0)))
        means = res.rate[0].mean(axis=-1)
        assert means[0] <= means[1] * (1 + 1e-9)
        assert means[1] <= means[2] * (1 + 1e-9)
