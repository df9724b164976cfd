import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_channels, make_topology_stub
from oracles import optimal_beta, rzf_precoder, slnr_beamformer
from satcoop.channel import LinkBudget, synthesize_channels
from satcoop.geometry import build_topology, user_geometry
from satcoop.schemes import (SchemeConfig, _slnr_columns, global_sinr,
                             run_scheme, run_schemes)

ALL_KINDS = ("Coloring4", "ClusterRZF", "HyperClusterCSI", "HyperClusterCSIData")


def single_feed_set(served_by_gw, powers_by_gw):
    """global_sinr inputs for scalar-feed worlds (k = 1, w = [1]).

    Gateways are keyed 0..G-1; user (g, 0) is global user g.
    """
    gws = range(len(served_by_gw))
    served = [np.array([g for (g, _) in served_by_gw[gw]]) for gw in gws]
    cols = [np.ones((1, len(users)), dtype=complex) for users in served]
    powers = [np.asarray(powers_by_gw[gw], dtype=float) for gw in gws]
    return served, cols, powers


class TestEvaluateSinr:
    def test_zero_power_gives_zero(self):
        ch = make_channels([[1.0, 0.0], [1.0, 0.0]], k_per_cluster=1)
        served, cols, powers = single_feed_set({0: [(0, 0)], 1: [(1, 0)]},
                                               {0: [0.0], 1: [0.0]})
        assert global_sinr(ch, served, cols, powers)[0][0] == 0.0

    def test_single_gateway_no_interference(self):
        ch = make_channels([[2.0, 0.0], [0.0, 1.0]], k_per_cluster=1,
                           noise_power=0.5)
        served, cols, powers = single_feed_set({0: [(0, 0)], 1: [(1, 0)]},
                                               {0: [3.0], 1: [0.0]})
        expected = 3.0 * 4.0 / 0.5
        assert global_sinr(ch, served, cols, powers)[0][0] \
            == pytest.approx(expected, rel=1e-12)

    def test_two_gateways_combine_coherently(self):
        # equal amplitude a from each gateway, aligned phases: numerator 4a^2
        ch = make_channels([[1.0, 0.0], [1.0, 0.0]], k_per_cluster=1,
                           noise_power=1.0)
        served, cols, powers = single_feed_set(
            {0: [(0, 0)], 1: [(1, 0), (0, 0)]}, {0: [1.0], 1: [0.0, 1.0]})
        assert global_sinr(ch, served, cols, powers)[0][0] \
            == pytest.approx(4.0, rel=1e-12)

    def test_missing_serving_gateway_rejected(self):
        ch = make_channels([[1.0, 0.0], [1.0, 0.0]], k_per_cluster=1)
        served, cols, powers = single_feed_set({0: [(0, 0)]}, {0: [1.0]})
        with pytest.raises(ValueError, match="no serving gateway"):
            global_sinr(ch, served, cols, powers)

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
        sinr, _ = global_sinr(
            ch, [np.array([g * k + l for (g, l) in served[gw]]) for gw in (0, 1)],
            [cols[0], cols[1]], [powers[0], powers[1]])
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
            got = sinr[u]
            assert got == pytest.approx(expected, rel=1e-9)
            # partition: numerator plus interference recovers total power
            assert num + (total - num) == pytest.approx(total, rel=1e-9)


@pytest.fixture(scope="module")
def small_world():
    topo = build_topology(500.0, 7, 1)
    drop = user_geometry(topo, topo.beam_centers)
    clear = (np.ones(7), np.zeros(7))
    real = synthesize_channels(topo, drop, LinkBudget(), 0, rain=clear)
    return topo, real


class TestColoring:
    def test_isolated_centre_beam_rate(self, small_world):
        topo, real = small_world
        cfg = SchemeConfig(kind="Coloring4", p_total_per_gw=7.0)
        res = run_scheme(topo, real, cfg)
        centre = int(np.argmin(np.linalg.norm(topo.beam_centers, axis=1)))
        # unique colour: no co-colour interferer anywhere
        assert np.sum(topo.colour_of_beam == topo.colour_of_beam[centre]) == 1
        p = 1.0
        gamma = p * abs(real.gains[centre, centre]) ** 2 / (real.noise_power_w / 4)
        assert res.per_user_rate[centre] \
            == pytest.approx(0.25 * math.log2(1 + gamma), rel=1e-12)
        assert res.per_beam_throughput[centre] \
            == pytest.approx(res.per_user_rate[centre] * real.bandwidth_hz)

    def test_paper_literal_noise_variant(self, small_world):
        topo, real = small_world
        res = run_scheme(topo, real, SchemeConfig(
            kind="Coloring4", p_total_per_gw=7.0, paper_literal_coloring=True))
        centre = int(np.argmin(np.linalg.norm(topo.beam_centers, axis=1)))
        gamma = abs(real.gains[centre, centre]) ** 2 / (4 * real.noise_power_w)
        assert res.per_user_rate[centre] \
            == pytest.approx(0.25 * math.log2(1 + gamma), rel=1e-12)

    def test_symmetric_cocolour_twins(self):
        topo = build_topology(500.0, 7, 19)
        drop = user_geometry(topo, topo.beam_centers)
        clear = (np.ones(133), np.zeros(133))
        real = synthesize_channels(topo, drop, LinkBudget(), 0, rain=clear)
        res = run_scheme(topo, real, SchemeConfig(kind="Coloring4",
                                                  p_total_per_gw=70.0))
        # beams 1 and 4 of the central cluster sit at +/- one pitch on the
        # same axis: the layout maps onto itself under point reflection
        assert topo.colour_of_beam[1] == topo.colour_of_beam[4]
        assert res.per_user_sinr[1] == pytest.approx(res.per_user_sinr[4],
                                                     rel=1e-9)

    def test_matches_scalar_formula_oracle(self, canonical_topology,
                                           canonical_realization):
        topo, real = canonical_topology, canonical_realization
        cfg = SchemeConfig(kind="Coloring4", p_total_per_gw=7.0)
        res = run_scheme(topo, real, cfg)
        p = 1.0
        g2 = np.abs(real.gains) ** 2
        for u in (0, 17, 66, 132):
            interf = sum(p * g2[b, u] for b in range(133)
                         if b != u and topo.colour_of_beam[b]
                         == topo.colour_of_beam[u])
            gamma = p * g2[u, u] / (interf + real.noise_power_w / 4)
            assert res.per_user_rate[u] \
                == pytest.approx(0.25 * math.log2(1 + gamma), rel=1e-12)


class TestClusterRzf:
    def test_single_cluster_achieved_equals_design(self, small_world):
        topo, real = small_world
        res = run_scheme(topo, real, SchemeConfig(kind="ClusterRZF",
                                                  p_total_per_gw=7.0))
        np.testing.assert_allclose(res.per_user_rate,
                                   res.diagnostics["design_rate"], rtol=1e-9)

    def test_achieved_never_exceeds_design_view(self, canonical_topology,
                                                canonical_realization):
        res = run_scheme(canonical_topology, canonical_realization,
                         SchemeConfig(kind="ClusterRZF", p_total_per_gw=7.0))
        assert np.all(res.per_user_rate
                      <= res.diagnostics["design_rate"] + 1e-12)

    def test_beats_coloring_on_average(self, canonical_topology,
                                       canonical_realization):
        cfg = dict(p_total_per_gw=7.0)
        rzf = run_scheme(canonical_topology, canonical_realization,
                         SchemeConfig(kind="ClusterRZF", **cfg))
        col = run_scheme(canonical_topology, canonical_realization,
                         SchemeConfig(kind="Coloring4", **cfg))
        assert rzf.per_beam_throughput.mean() > col.per_beam_throughput.mean()


class TestHyperClusterCsi:
    def test_singleton_cluster_has_no_leakage_targets(self, canonical_topology,
                                                      canonical_realization):
        res = run_scheme(canonical_topology, canonical_realization,
                         SchemeConfig(kind="HyperClusterCSI",
                                      p_total_per_gw=7.0))
        assert res.diagnostics["edge_users"][0].size == 0  # gateway label 1
        assert len(res.diagnostics["edge_users"][2]) == 2  # label 3 in {3,9,10}

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
        cols = _slnr_columns(real, 5, own, basis, p_total)
        reg = real.noise_power_w * 7 / p_total
        for k in range(7):
            intra = [h(5, u) for u in own if u != own[k]]
            inter = [h(5, u) for u in edges]
            w = slnr_beamformer(h(5, own[k]), intra, inter, reg)
            np.testing.assert_allclose(cols[:, k], w, atol=1e-10)
        # CSI and data: the edge users become targets, and the basis is the
        # targets
        cols = _slnr_columns(real, 5, basis, basis, p_total)
        reg = real.noise_power_w * 9 / p_total
        for k, target in enumerate(basis):
            others = [h(5, u) for u in basis if u != target]
            w = slnr_beamformer(h(5, target), others, [], reg)
            np.testing.assert_allclose(cols[:, k], w, atol=1e-10)
        # R-ZF is the same solve with the own users as targets and basis
        beta = optimal_beta(real.noise_psd_w_hz, real.bandwidth_hz, 7, p_total)
        for c in range(real.n_clusters):
            users = np.arange(c * 7, (c + 1) * 7)
            rzf_cols = _slnr_columns(real, c, users, users, p_total)
            h_rows = np.stack([h(c, u) for u in users]).conj()
            np.testing.assert_allclose(rzf_cols, rzf_precoder(h_rows, beta),
                                       atol=1e-10)

    def test_rzf_and_slnr_agree_when_beta_matched(self):
        rng = np.random.default_rng(7)
        h_rows = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        beta = 0.42
        cols = rzf_precoder(h_rows.conj(), beta)   # rows h_k^H with h_k real rows
        for k in range(7):
            intra = [h_rows[j] for j in range(7) if j != k]
            w = slnr_beamformer(h_rows[k], intra, [], beta)
            np.testing.assert_allclose(cols[:, k], w, atol=1e-6)


class TestHyperClusterCsiData:
    def test_zero_sharing_reduces_to_csi_only(self, canonical_topology,
                                              canonical_realization):
        kw = dict(p_total_per_gw=7.0, m_per_neighbour=0)
        csi = run_scheme(
            canonical_topology, canonical_realization,
            SchemeConfig(kind="HyperClusterCSI", **kw))
        dat = run_scheme(
            canonical_topology, canonical_realization,
            SchemeConfig(kind="HyperClusterCSIData", **kw))
        np.testing.assert_array_equal(csi.per_user_rate, dat.per_user_rate)
        np.testing.assert_array_equal(csi.per_beam_throughput,
                                      dat.per_beam_throughput)
        np.testing.assert_array_equal(csi.diagnostics["serving_counts"],
                                      dat.diagnostics["serving_counts"])

    def test_singleton_plan_equals_zero_sharing(self, canonical_topology,
                                                canonical_realization):
        singleton = dataclasses.replace(
            canonical_topology,
            hyper_clusters=tuple(frozenset({i}) for i in range(1, 20)))
        a = run_scheme(
            singleton, canonical_realization,
            SchemeConfig(kind="HyperClusterCSI", p_total_per_gw=7.0))
        b = run_scheme(
            canonical_topology, canonical_realization,
            SchemeConfig(kind="HyperClusterCSI", p_total_per_gw=7.0,
                         m_per_neighbour=0))
        np.testing.assert_array_equal(a.per_user_rate, b.per_user_rate)

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
        kw = dict(p_total_per_gw=2.0, m_per_neighbour=1)
        csi = run_scheme(topo, ch, SchemeConfig(
            kind="HyperClusterCSI", **kw))
        dat = run_scheme(topo, ch, SchemeConfig(
            kind="HyperClusterCSIData", **kw))
        counts = dat.diagnostics["serving_counts"]
        assert counts[2] == 2          # user (0,2) served by home and helper
        assert dat.diagnostics["edge_users"][1].tolist() == [0 * 3 + 2]
        assert dat.per_user_rate[2] >= csi.per_user_rate[2]
        # the coherent second stream roughly doubles the edge user's SINR
        assert dat.per_user_rate[2] > 1.5 * csi.per_user_rate[2]

    def test_multi_serving_present_in_canonical_world(self, canonical_topology,
                                                      canonical_realization):
        res = run_scheme(
            canonical_topology, canonical_realization,
            SchemeConfig(kind="HyperClusterCSIData", p_total_per_gw=7.0))
        counts = res.diagnostics["serving_counts"]
        assert counts.max() >= 2
        assert np.all(counts >= 1)


class TestRunSchemes:
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_one_call_per_config(self, canonical_topology,
                                         canonical_realization, m):
        configs = [SchemeConfig(kind=kind, p_total_per_gw=7 * 10 ** (dbw / 10),
                                m_per_neighbour=m)
                   for dbw in (-10.0, 0.0, 10.0) for kind in ALL_KINDS]
        together = run_schemes(canonical_topology, canonical_realization,
                               configs)
        assert len(together) == len(configs)
        for config, res in zip(configs, together):
            alone = run_scheme(canonical_topology, canonical_realization,
                               config)
            assert res.scheme == config
            if config.kind == "Coloring4":
                # the shared co-colour sums give exactly the one-call result
                for name in ("per_user_rate", "per_user_sinr",
                             "per_beam_throughput"):
                    np.testing.assert_array_equal(getattr(res, name),
                                                  getattr(alone, name))
            else:
                np.testing.assert_allclose(res.per_user_rate,
                                           alone.per_user_rate,
                                           rtol=1e-12, atol=0.0)
            assert res.diagnostics.keys() == alone.diagnostics.keys()
            for key, value in alone.diagnostics.items():
                if key == "design_rate":
                    np.testing.assert_allclose(res.diagnostics[key], value,
                                               rtol=1e-12, atol=0.0)
                elif key == "edge_users":
                    assert len(res.diagnostics[key]) == len(value)
                    for got, want in zip(res.diagnostics[key], value):
                        np.testing.assert_array_equal(got, want)
                else:
                    np.testing.assert_array_equal(res.diagnostics[key], value)

    @pytest.mark.parametrize("change", [dict(m_per_neighbour=2),
                                        dict(solver_tol=1e-7),
                                        dict(solver_max_iters=100)])
    def test_mixed_settings_rejected(self, canonical_topology,
                                     canonical_realization, change):
        base = SchemeConfig(kind="HyperClusterCSI", p_total_per_gw=7.0)
        other = dataclasses.replace(base, kind="ClusterRZF", **change)
        with pytest.raises(ValueError, match="must share"):
            run_schemes(canonical_topology, canonical_realization,
                        [base, other])


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
        for m in (0, 1):
            res = run_scheme(topo, ch, SchemeConfig(
                kind="HyperClusterCSIData", p_total_per_gw=p_total,
                m_per_neighbour=m))
            assert np.all(np.isfinite(res.per_user_rate))
            assert np.all(res.per_user_rate >= 0)
            counts = res.diagnostics["serving_counts"]
            assert np.all(counts >= 1)
            if m == 0:
                csi = run_scheme(topo, ch, SchemeConfig(
                    kind="HyperClusterCSI", p_total_per_gw=p_total,
                    m_per_neighbour=0))
                np.testing.assert_array_equal(res.per_user_rate,
                                              csi.per_user_rate)


class TestCrossSchemeProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rates_finite_and_nonnegative(self, canonical_topology,
                                          canonical_realization, kind):
        res = run_scheme(canonical_topology, canonical_realization,
                         SchemeConfig(kind=kind, p_total_per_gw=7.0))
        assert np.all(np.isfinite(res.per_user_rate))
        assert np.all(res.per_user_rate >= 0)
        assert np.all(res.per_beam_throughput >= 0)
        assert res.diagnostics["realization_checksum"] \
            == canonical_realization.checksum()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mean_rate_monotone_in_power(self, canonical_topology,
                                         canonical_realization, kind):
        means = []
        for dbw in (-10.0, 0.0, 10.0):
            res = run_scheme(canonical_topology, canonical_realization,
                             SchemeConfig(kind=kind,
                                          p_total_per_gw=7 * 10 ** (dbw / 10)))
            means.append(res.per_user_rate.mean())
        assert means[0] <= means[1] * (1 + 1e-9)
        assert means[1] <= means[2] * (1 + 1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(kind="Nonsense", p_total_per_gw=1.0)
        with pytest.raises(ValueError):
            SchemeConfig(kind="Coloring4", p_total_per_gw=0.0)
        with pytest.raises(ValueError):
            SchemeConfig(kind="Coloring4", p_total_per_gw=1.0,
                         m_per_neighbour=-1)

    @pytest.mark.parametrize("bad", [dict(solver_tol=0.0),
                                     dict(solver_tol=-1e-6),
                                     dict(solver_tol=math.nan),
                                     dict(solver_tol=math.inf),
                                     dict(solver_max_iters=0),
                                     dict(solver_max_iters=-3)])
    def test_solver_settings_validated(self, bad):
        with pytest.raises(ValueError, match="solver_"):
            SchemeConfig(kind="ClusterRZF", p_total_per_gw=1.0, **bad)
