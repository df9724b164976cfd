"""Acceptance suite: every criterion asserted at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The full four-scheme sweep (200 paired trials, 7 power
points) runs once as a session fixture and is shared by criteria 1-3.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import gateway_columns, make_channels
from oracles import (ascent_path, grid_search_optimum, objective,
                     rzf_precoder, slnr_beamformer)
from satcoop.channel import LinkBudget, beam_gain, path_loss_gain, synthesize_channels
from satcoop.geometry import build_topology, drop_users
from satcoop.harness import SimConfig, export_report, paired_gain, run_sweep
from satcoop.power_alloc import allocate_sumrate_batch
from satcoop.schemes import run_schemes

SWEEP_TIME_BUDGET_S = 300.0
MID = 3  # index of the mid-grid power point


def report_line(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="session")
def full_sweep():
    config = SimConfig(trials=200)
    start = time.perf_counter()
    report = run_sweep(config)
    elapsed = time.perf_counter() - start
    return report, elapsed


def paired_gap(report, a, b, power_index):
    sa = report.schemes.index(a)
    sb = report.schemes.index(b)
    diff = report.trial_mbps[sa, :, :] - report.trial_mbps[sb, :, :]
    d = diff[power_index]
    return d.mean(), d.std(ddof=1) / math.sqrt(len(d))


class TestCriterion1SchemeOrdering:
    def test_ordering_with_paired_significance(self, full_sweep):
        report, _ = full_sweep
        gaps = {}
        ok = True
        for a, b in (("rzf", "coloring"), ("csidata", "csi")):
            mean, se = paired_gap(report, a, b, MID)
            gaps[f"{a}>{b}"] = (mean, se)
            ok &= mean > 2 * se
        mean, se = paired_gap(report, "csi", "rzf", MID)
        gaps["csi>=rzf"] = (mean, se)
        ok &= mean > -2 * se
        detail = ", ".join(f"{k}: {m:+.2f}±{s:.2f} Mbps"
                           for k, (m, s) in gaps.items())
        report_line("1a (scheme ordering)", ok, detail)
        assert ok

    def test_sweep_runtime_budget(self, full_sweep):
        _, elapsed = full_sweep
        ok = elapsed < SWEEP_TIME_BUDGET_S
        report_line("1b (runtime budget)", ok,
                    f"4 schemes x 7 powers x 200 trials in {elapsed:.0f}s "
                    f"(budget {SWEEP_TIME_BUDGET_S:.0f}s)")
        assert ok


class TestCriterion2QuantitativeGains:
    def test_gain_over_coloring_in_band(self, full_sweep):
        report, _ = full_sweep
        gain, stderr = paired_gain(report, "csidata", "coloring")
        ok = 0.25 <= gain[MID] <= 0.60
        report_line("2a (gain over 4-colouring)", ok,
                    f"{100 * gain[MID]:.1f}±{100 * stderr[MID]:.2f}% at mid-grid "
                    "(band 25–60%)")
        assert ok

    def test_gain_over_cluster_rzf_in_band(self, full_sweep):
        # Known-unattainable band: the gain sits near 2%, and edge streams
        # getting little budget does not explain it. With csidata's edge
        # streams at zero power it still gains +1.59% over rzf, and
        # doubling rzf's regularizer alone gains +1.94%; see ROADMAP.md,
        # "State at this re-anchor", for these and further measurements
        report, _ = full_sweep
        gain, stderr = paired_gain(report, "csidata", "rzf")
        ok = 0.05 <= gain[MID] <= 0.30
        report_line("2b (gain over per-cluster R-ZF)", ok,
                    f"{100 * gain[MID]:.1f}±{100 * stderr[MID]:.2f}% at mid-grid "
                    "(band 5–30%)")
        assert ok


class TestCriterion3MarginalCsiGain:
    def test_csi_tracks_rzf_at_every_power(self, full_sweep):
        report, _ = full_sweep
        gains, stderrs = paired_gain(report, "csi", "rzf")
        ok = bool(np.all(gains >= -0.02) and np.all(gains <= 0.10))
        detail = "csi/rzf-1 per power: " + ", ".join(
            f"{100 * g:+.1f}±{100 * e:.2f}%" for g, e in zip(gains, stderrs)
        ) + " (band [-2%, +10%])"
        report_line("3 (marginal CSI-only gain)", ok, detail)
        assert ok


class TestCriterion4SlnrOracle:
    def test_closed_form_matches_generalized_eigenvector(self):
        # gateway 0 of random real 2-cluster realizations toward its 7 own
        # users, knowing 1-6 users of cluster 1 as well: every column of
        # _slnr_columns, and the slnr_beamformer oracle, against the dominant
        # generalized eigenvector of (h h^H, sum_{basis - target} g g^H
        # + N0*S/P_T*I)
        rng = np.random.default_rng(4242)
        own = np.arange(7)
        worst, norm_dev, columns = 1.0, 0.0, 0
        for _ in range(143):
            gains = rng.standard_normal((14, 14))
            channels = make_channels(gains, 7,
                                     noise_power=float(rng.uniform(0.05, 5.0)))
            p_total = 7.0 * 10.0 ** float(rng.uniform(-1.0, 1.0))
            edges = 7 + rng.choice(7, int(rng.integers(1, 7)), replace=False)
            basis = np.concatenate([own, edges])
            cols = gateway_columns(channels, 0, own, basis, p_total)
            reg = channels.noise_power_w * len(own) / p_total
            for s, user in enumerate(own):
                h = gains[:7, user]
                leaks = [gains[:7, v] for v in basis if v != user]
                m = reg * np.eye(7, dtype=complex)
                for g in leaks:
                    m += np.outer(g, g.conj())
                _, vecs = scipy.linalg.eigh(np.outer(h, h.conj()), m)
                top = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
                oracle = slnr_beamformer(h, leaks[:6], leaks[6:], reg)
                for w in (cols[:, s], oracle):
                    worst = min(worst, abs(np.vdot(w, top)))
                    norm_dev = max(norm_dev, abs(np.linalg.norm(w) - 1.0))
                columns += 1
        ok = worst >= 1.0 - 1e-9 and norm_dev <= 1e-12
        report_line("4 (SLNR eigenvector oracle)", ok,
                    f"min |<w, w_eig>| = 1 - {1.0 - worst:.1e}, "
                    f"max |‖w‖ - 1| = {norm_dev:.1e} over {columns} "
                    "_slnr_columns columns and as many oracle vectors")
        assert ok


class TestCriterion5RzfLimits:
    # targets = basis = a gateway's 7 own users makes _slnr_columns R-ZF
    # with regularizer N0*7/P_T; rzf_precoder is the textbook form

    @staticmethod
    def deviations(rng, reg, limit):
        """Largest deviation from limit(H), and from unit column norm, of
        _slnr_columns and rzf_precoder at regularizer reg over 20 random
        7x7 real channels H, row k user k's channel."""
        worst = norm_dev = 0.0
        users = np.arange(7)
        for _ in range(20):
            h = rng.standard_normal((7, 7))
            channels = make_channels(h.T, 7)
            p_total = channels.noise_power_w * 7 / reg
            ref = limit(h)
            for cols in (gateway_columns(channels, 0, users, users, p_total),
                         rzf_precoder(h, reg)):
                worst = max(worst, np.abs(cols - ref).max())
                norm_dev = max(norm_dev, np.abs(
                    np.linalg.norm(cols, axis=0) - 1.0).max())
        return worst, norm_dev

    def test_zero_regularization_limit_is_pseudo_inverse(self):
        def pinv_columns(h):
            ref = np.linalg.pinv(h)
            return ref / np.linalg.norm(ref, axis=0)

        worst, norm_dev = self.deviations(np.random.default_rng(55), 1e-12,
                                          pinv_columns)
        ok = worst < 1e-6 and norm_dev <= 1e-12
        report_line("5a (R-ZF -> pseudo-inverse limit)", ok,
                    f"max column deviation {worst:.2e}, max |‖w‖ - 1| = "
                    f"{norm_dev:.1e} at regularizer 1e-12 (20 instances)")
        assert ok

    def test_infinite_regularization_limit_is_matched_filter(self):
        def matched_filter(h):
            return h.conj().T / np.linalg.norm(h, axis=1)

        worst, norm_dev = self.deviations(np.random.default_rng(56), 1e12,
                                          matched_filter)
        ok = worst < 1e-6 and norm_dev <= 1e-12
        report_line("5b (R-ZF -> matched-filter limit)", ok,
                    f"max column deviation {worst:.2e}, max |‖w‖ - 1| = "
                    f"{norm_dev:.1e} at regularizer 1e12 (20 instances)")
        assert ok


class TestCriterion6PowerSolver:
    def test_solver_against_grid_search(self):
        rng = np.random.default_rng(66)
        instances = []
        for _ in range(100):
            gains = rng.exponential(1.0, size=(3, 3))
            gains[np.diag_indices(3)] += rng.exponential(2.0, size=3)
            instances.append(gains)
        # budget 10 at unit noise is the unit solve on 10 * gains; the
        # objective after each iteration, from runs capped at n iterations
        history, _ = ascent_path(10.0 * np.stack(instances), [3] * 100)
        monotone = bool(np.all(np.diff(history, axis=0) >= -1e-12))
        worst_gap = 0.0
        for gains in instances:
            x, _, _, _, _ = allocate_sumrate_batch(10.0 * gains[None], [3])
            assert np.all(x[0] >= 0) and x[0].sum() <= 1 + 1e-9
            achieved = float(objective(10.0 * gains, x[0]))
            oracle = grid_search_optimum(gains, 1.0, 10.0)
            worst_gap = max(worst_gap, (oracle - achieved) / oracle)
        ok = worst_gap <= 0.02 and monotone
        report_line("6 (power solver vs brute force)", ok,
                    f"worst gap {100 * worst_gap:.2f}% over 100 instances "
                    f"(allowed 2%), ascent monotone: {monotone}")
        assert ok


class TestCriterion7BeamPattern:
    def test_peak_and_half_power_point(self):
        theta3 = math.radians(0.4)
        peak_exact = beam_gain(0.0, theta3, 158489.3192) == 158489.3192
        ratio = beam_gain(theta3, theta3, 1.0)
        half_ok = abs(ratio - 0.5) <= 0.005
        ok = peak_exact and half_ok
        report_line("7 (beam pattern)", ok,
                    f"b(0)=b_max exact: {peak_exact}, "
                    f"b(theta_3dB)/b_max = {ratio:.6f} (0.5 ± 1%)")
        assert ok


class TestCriterion8LinkBudget:
    def test_free_space_loss_cross_check(self):
        budget = LinkBudget()
        loss_db = -10 * math.log10(path_loss_gain(35786.0, budget.wavelength_m))
        ok = abs(loss_db - 210.0) < 1.0 and abs(loss_db - 209.54) <= 0.01
        report_line("8 (free-space loss)", ok,
                    f"{loss_db:.2f} dB at 35786 km / 20 GHz (210 ± 1 dB, "
                    "published 209.54 ± 0.01 dB)")
        assert ok


class TestCriterion9Determinism:
    def test_bitwise_identical_output(self, tmp_path):
        config = dataclasses.replace(
            SimConfig(), trials=3, schemes=("coloring", "csidata"),
            power_grid_dbw_per_beam=(-5.0, 5.0))
        blobs = []
        for run, workers in enumerate((1, 1, 2)):
            path = tmp_path / f"run{run}.csv"
            cfg = dataclasses.replace(config, workers=workers)
            export_report(run_sweep(cfg), str(path), "csv")
            blobs.append(path.read_bytes())
        ok = blobs[0] == blobs[1] == blobs[2]
        report_line("9 (determinism)", ok,
                    "identical CSV bytes across repeated runs and worker "
                    f"counts: {ok}")
        assert ok


class TestCriterion10ReductionIdentities:
    def test_zero_sharing_equals_csi_only(self, canonical_topology,
                                          canonical_realization):
        res = run_schemes(canonical_topology, canonical_realization, SimConfig(
            schemes=("csi", "csidata"), power_grid_dbw_per_beam=(0.0,),
            m_per_neighbour=0))
        same = (np.array_equal(res.rate[0], res.rate[1])
                and np.array_equal(res.design_rate[0], res.design_rate[1])
                and all(edges.size == 0 for edges in res.edge_users))
        report_line("10a (m=0 reduction)", same,
                    f"data-sharing run with m=0 equals CSI-only run: {same}")
        assert same

    def test_single_cluster_rzf_meets_design_view(self):
        topo = build_topology(500.0, 7, 1)
        drop = drop_users(topo, 314)
        real = synthesize_channels(topo, drop, LinkBudget(), 315)
        res = run_schemes(topo, real, SimConfig(
            schemes=("rzf",), power_grid_dbw_per_beam=(0.0,)))
        dev = np.max(np.abs(res.rate - res.design_rate)
                     / np.maximum(res.design_rate, 1e-300))
        ok = dev < 1e-9
        report_line("10b (single-cluster identity)", ok,
                    f"max relative deviation achieved-vs-design {dev:.2e}")
        assert ok
