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
from oracles import rzf_precoder, slnr_beamformer
from satcoop.channel import LinkBudget, synthesize_channels
from satcoop.geometry import build_topology, user_geometry
from satcoop.harness import SimConfig
from satcoop.power_alloc import allocate_sumrate_batch, stream_rates
from satcoop.schemes import (_POWER_BLOCK, SCHEME_NAMES, _slnr_columns,
                             global_sinr, run_schemes, select_edge_users)

ALL_SCHEMES = tuple(SCHEME_NAMES)


def config(*schemes, dbw=(0.0,), **settings):
    """SimConfig of the given schemes and per-beam power grid (dBW)."""
    return SimConfig(schemes=schemes, power_grid_dbw_per_beam=dbw, **settings)


def stack_of_one(gw, targets, columns, powers):
    """global_sinr stack of gateway gw alone, from its targets (S,),
    columns (P, K, S) and powers (P, S)."""
    return {"gws": np.array([gw]), "targets": np.array([targets]),
            "columns": columns[None], "powers": np.array([powers], float)}


def single_feed_set(served_by_gw, powers_by_gw):
    """global_sinr stacks for scalar-feed worlds (k = 1, w = [1]) at one
    power point, one stack per gateway.

    Gateways are keyed 0..G-1; user (g, 0) is global user g.
    """
    return [stack_of_one(gw, [g for (g, _) in served_by_gw[gw]],
                         np.ones((1, 1, len(served_by_gw[gw])), dtype=complex),
                         [powers_by_gw[gw]])
            for gw in range(len(served_by_gw))]


class TestEvaluateSinr:
    def test_zero_power_gives_zero(self):
        ch = make_channels([[1.0, 0.0], [1.0, 0.0]], k_per_cluster=1)
        stacks = single_feed_set({0: [(0, 0)], 1: [(1, 0)]},
                                 {0: [0.0], 1: [0.0]})
        assert global_sinr(ch, stacks)[0][0, 0] == 0.0

    def test_single_gateway_no_interference(self):
        ch = make_channels([[2.0, 0.0], [0.0, 1.0]], k_per_cluster=1,
                           noise_power=0.5)
        stacks = single_feed_set({0: [(0, 0)], 1: [(1, 0)]},
                                 {0: [3.0], 1: [0.0]})
        expected = 3.0 * 4.0 / 0.5
        assert global_sinr(ch, stacks)[0][0, 0] \
            == pytest.approx(expected, rel=1e-12)

    def test_two_gateways_combine_coherently(self):
        # equal amplitude a from each gateway, aligned phases: numerator 4a^2
        ch = make_channels([[1.0, 0.0], [1.0, 0.0]], k_per_cluster=1,
                           noise_power=1.0)
        stacks = single_feed_set({0: [(0, 0)], 1: [(1, 0), (0, 0)]},
                                 {0: [1.0], 1: [0.0, 1.0]})
        assert global_sinr(ch, stacks)[0][0, 0] \
            == pytest.approx(4.0, rel=1e-12)

    def test_missing_serving_gateway_rejected(self):
        ch = make_channels([[1.0, 0.0], [1.0, 0.0]], k_per_cluster=1)
        stacks = single_feed_set({0: [(0, 0)]}, {0: [1.0]})
        with pytest.raises(ValueError, match="no serving gateway"):
            global_sinr(ch, stacks)

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
        sinr, _ = global_sinr(ch, [
            stack_of_one(gw, [g * k + l for (g, l) in served[gw]],
                         cols[gw][None], powers[gw][None]) for gw in (0, 1)])
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
    """global_sinr stacks of csidata at n_powers budgets, random powers.

    Each gateway is a stack of one that serves its own users first, then
    its selected edge users, with columns from one _slnr_columns call and
    powers drawn from a fixed seed.
    """
    k = realization.k_per_cluster
    rng = np.random.default_rng(2024)
    budgets = np.geomspace(0.1, 100.0, n_powers)
    stacks = []
    for c in range(realization.n_clusters):
        edges = select_edge_users(realization, c, topology.neighbours_of(c), m)
        users = np.concatenate([np.arange(c * k, (c + 1) * k), edges])
        stacks.append(stack_of_one(
            c, users, _slnr_columns(realization, np.array([c]), users[None],
                                    users[None], budgets)[0],
            budgets[:, None] * rng.dirichlet(np.ones(len(users)), n_powers)))
    return stacks


class TestBatchedSinr:
    @pytest.mark.parametrize("m", [1, 3])
    def test_blocks_equal_one_call_per_power(self, canonical_topology,
                                             canonical_realization, m):
        # more points than one block, and not a multiple of it
        n_powers = _POWER_BLOCK + 3
        stacks = csidata_inputs(canonical_topology, canonical_realization, m,
                                n_powers)
        sinr, counts = global_sinr(canonical_realization, stacks)
        assert sinr.shape == (n_powers, canonical_realization.n_users)
        assert counts.max() >= 2   # some users have home and helper streams
        for pi in range(n_powers):
            one, one_counts = global_sinr(canonical_realization, [
                {**stack, "columns": stack["columns"][:, pi:pi + 1],
                 "powers": stack["powers"][:, pi:pi + 1]} for stack in stacks])
            np.testing.assert_array_equal(sinr[pi:pi + 1], one)
            np.testing.assert_array_equal(counts, one_counts)

    def test_gateway_stack_equals_per_gateway_columns(self,
                                                      canonical_topology,
                                                      canonical_realization):
        # the 2-neighbour gateways at m=1 share one shape; csi serves the
        # own users and knows the edge users too
        served = [stack["targets"][0] for stack in csidata_inputs(
            canonical_topology, canonical_realization, 1, 1)]
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

    @pytest.mark.parametrize("gw, edit, message", [
        (4, lambda s: {**s, "powers": s["powers"][..., :-1]},
         "powers and columns of shapes ((1, 3, 8), (1, 3, 7, 9))"),
        (6, lambda s: {**s, "columns": s["columns"][:, :2],
                       "powers": s["powers"][:, :2]},
         "powers and columns of shapes ((1, 2, 9), (1, 2, 7, 9))"),
        (2, lambda s: {**s, "columns": s["columns"][:, :, :-1]},
         "powers and columns of shapes ((1, 3, 9), (1, 3, 6, 9))"),
        (3, lambda s: {**s, "targets": s["targets"][:, ::-1]},
         "targets do not begin with each gateway's own 7 users"),
    ], ids=["served-set", "power-axes", "feeds", "own-first"])
    def test_rejects_gateway_input_not_matching(
            self, canonical_topology, canonical_realization, gw, edit,
            message):
        stacks = csidata_inputs(canonical_topology, canonical_realization, 1,
                                3)
        stacks[gw] = edit(stacks[gw])
        with pytest.raises(ValueError,
                           match=re.escape(f"gateways [{gw}]: {message}")):
            global_sinr(canonical_realization, stacks)

    def test_memory_bounded_by_power_block(self, canonical_topology,
                                           canonical_realization,
                                           monkeypatch):
        # one block holds one (N, block, N) amplitude array of the gains'
        # dtype, squared in place; 1.5x bounds that and the per-gateway
        # products but not a second buffer, while 64 points unblocked take
        # 8x as much
        stacks = csidata_inputs(canonical_topology, canonical_realization, 1,
                                64)
        n = canonical_realization.n_users
        bound = (1.5 * _POWER_BLOCK * n * n
                 * canonical_realization.gains.itemsize)

        def peak_bytes():
            tracemalloc.start()
            try:
                global_sinr(canonical_realization, stacks)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes() < bound
        monkeypatch.setattr("satcoop.schemes._POWER_BLOCK", 64)
        assert peak_bytes() > bound


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
        centre = int(np.argmin(np.linalg.norm(topo.beam_centers, axis=1)))
        # unique colour: no co-colour interferer anywhere
        assert np.sum(topo.colour_of_beam == topo.colour_of_beam[centre]) == 1
        p = 1.0
        gamma = p * abs(real.gains[centre, centre]) ** 2 / (real.noise_power_w / 4)
        assert res.rate[0, 0, centre] \
            == pytest.approx(0.25 * math.log2(1 + gamma), rel=1e-12)
        assert res.sinr[0, 0, centre] == pytest.approx(gamma, rel=1e-12)

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
        res = run_schemes(topo, real, config("coloring", dbw=(10.0,)))
        # beams 1 and 4 of the central cluster sit at +/- one pitch on the
        # same axis: the layout maps onto itself under point reflection
        assert topo.colour_of_beam[1] == topo.colour_of_beam[4]
        assert res.sinr[0, 0, 1] == pytest.approx(res.sinr[0, 0, 4], rel=1e-9)

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
        rate, sinr = schemes._run_coloring(topo, real, budgets, False)
        gain2 = np.abs(real.gains) ** 2
        same_colour = topo.colour_of_beam[:, None] == topo.colour_of_beam
        np.fill_diagonal(same_colour, False)
        co_sum = np.where(same_colour, gain2, 0.0).sum(axis=0)
        power = (budgets / real.k_per_cluster)[:, None]
        expected = power * np.diagonal(gain2) / (
            power * co_sum + 0.25 * real.noise_power_w)
        assert np.array_equal(sinr, expected)
        assert np.array_equal(rate, 0.25 * np.log2(1.0 + expected))
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
            hyper_clusters=tuple(frozenset({i}) for i in range(1, 20)))
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
        topo = make_topology_stub(2, 3, [{1, 2}])
        # a 2 W gateway budget over 3 beams
        res = run_schemes(topo, ch, config(
            "csi", "csidata", dbw=(10 * math.log10(2.0 / 3),),
            m_per_neighbour=1))
        csi, dat = res.rate[:, 0]
        counts = res.serving_counts[1]
        assert counts[2] == 2          # user (0,2) served by home and helper
        assert res.edge_users[1].tolist() == [0 * 3 + 2]
        assert dat[2] >= csi[2]
        # the coherent second stream roughly doubles the edge user's SINR
        assert dat[2] > 1.5 * csi[2]

    def test_multi_serving_present_in_canonical_world(self, canonical_topology,
                                                      canonical_realization):
        res = run_schemes(canonical_topology, canonical_realization,
                          config("csidata"))
        counts = res.serving_counts[0]
        assert counts.max() >= 2
        assert np.all(counts >= 1)


class TestRunSchemes:
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_one_call_per_config(self, canonical_topology,
                                         canonical_realization, m):
        # a one-scheme, one-power run reproduces its cell of the full grid
        # bit for bit: the batched allocator keeps rows independent
        grid = (-10.0, 0.0, 10.0)
        full = run_schemes(canonical_topology, canonical_realization,
                           config(*ALL_SCHEMES, dbw=grid, m_per_neighbour=m))
        n = canonical_realization.n_users
        assert full.rate.shape == full.sinr.shape == full.design_rate.shape \
            == (len(ALL_SCHEMES), len(grid), n)
        assert full.serving_counts.shape == (len(ALL_SCHEMES), n)
        assert full.nonconverged.shape == (len(ALL_SCHEMES), len(grid))
        for s, name in enumerate(ALL_SCHEMES):
            for p, dbw in enumerate(grid):
                one = run_schemes(canonical_topology, canonical_realization,
                                  config(name, dbw=(dbw,), m_per_neighbour=m))
                for field in ("rate", "sinr", "design_rate", "nonconverged"):
                    np.testing.assert_array_equal(getattr(one, field)[0, 0],
                                                  getattr(full, field)[s, p])
                np.testing.assert_array_equal(one.serving_counts[0],
                                              full.serving_counts[s])
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

    def test_allocate_solves_each_gateway_as_its_own_row(self):
        # clusters 0 and 2 share a hyper-cluster and 1 is alone, so csi's and
        # csidata's stacks are [0, 2] and [1]: stack order is not gateway
        # order.  Each gateway's powers, design rates and non-converged
        # count must be those of its own padded table solved alone
        k, m = 3, 1
        rng = np.random.default_rng(11)
        ch = make_channels(rng.exponential(1.0, (3 * k, 3 * k)),
                           k_per_cluster=k, noise_power=0.2)
        topo = make_topology_stub(3, k, [{1, 3}, {2}])
        edges = [select_edge_users(ch, c, topo.neighbours_of(c), m)
                 for c in range(3)]
        budgets = np.array([0.5, 4.0, 30.0])
        names = ("rzf", "csi", "csidata")
        per_scheme = schemes._precode(ch, budgets, names, edges)
        assert [[stack["gws"].tolist() for stack in stacks]
                for stacks in per_scheme] == [[[0, 1, 2]], [[0, 2], [1]],
                                              [[0, 2], [1]]]
        width = k + m
        design, nonconverged = schemes._allocate(ch, budgets, per_scheme,
                                                 width)
        assert design.shape == (3, 3, 3 * k)
        assert nonconverged.shape == (3, 3)
        for i, stacks in enumerate(per_scheme):
            failed = np.zeros(len(budgets), dtype=int)
            for stack in stacks:
                for c, targets, cols, powers in zip(
                        stack["gws"], stack["targets"], stack["columns"],
                        stack["powers"]):
                    s = len(targets)
                    block = ch.gains[c * k:(c + 1) * k][:, targets]
                    gain = np.abs(cols.conj().swapaxes(-1, -2) @ block) ** 2
                    for p, budget in enumerate(budgets):
                        table = np.zeros((1, width, width))
                        table[0, :s, :s] = gain[p] * (budget
                                                      / ch.noise_power_w)
                        x, ok, _, _, _ = allocate_sumrate_batch(table, [s])
                        np.testing.assert_array_equal(powers[p],
                                                      budget * x[0, :s])
                        np.testing.assert_array_equal(
                            design[i, p, c * k:(c + 1) * k],
                            stream_rates(table, x)[0, :k])
                        failed[p] += not ok[0]
            np.testing.assert_array_equal(nonconverged[i], failed)

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
        for field in ("rate", "sinr", "design_rate"):
            np.testing.assert_allclose(getattr(other, field),
                                       getattr(real, field), rtol=1e-9)

    def test_coloring_design_rate_is_its_rate(self, canonical_topology,
                                              canonical_realization):
        res = run_schemes(canonical_topology, canonical_realization,
                          config("coloring", "rzf", dbw=(-10.0, 10.0)))
        np.testing.assert_array_equal(res.design_rate[0], res.rate[0])
        assert np.all(res.serving_counts == 1)
        assert all(edges.size == 0 for edges in res.edge_users)


class TestRandomWorldProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_cooperative_schemes_on_random_worlds(self, seed):
        # random 2-cluster worlds: finite nonnegative rates, every user
        # served, and the m=0 reduction, regardless of channel draw
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 4))
        gains = (rng.standard_normal((2 * k, 2 * k))
                 + 1j * rng.standard_normal((2 * k, 2 * k)))
        ch = make_channels(gains, k_per_cluster=k,
                           noise_power=float(rng.uniform(0.1, 3.0)))
        topo = make_topology_stub(2, k, [{1, 2}])
        p_total = float(rng.uniform(0.5, 10.0))
        dbw = (10 * math.log10(p_total / k),)
        for m in (0, 1):
            res = run_schemes(topo, ch, config("csidata", dbw=dbw,
                                               m_per_neighbour=m))
            assert np.all(np.isfinite(res.rate))
            assert np.all(res.rate >= 0)
            assert np.all(res.serving_counts >= 1)
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
