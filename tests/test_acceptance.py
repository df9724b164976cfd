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

from oracles import (ascent_path, grid_search_optimum, rzf_precoder,
                     slnr_beamformer)
from satcoop.channel import LinkBudget, beam_gain, path_loss_gain, synthesize_channels
from satcoop.geometry import build_topology, drop_users
from satcoop.harness import SimConfig, export_report, run_sweep
from satcoop.power_alloc import _objective, allocate_sumrate_batch
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


def gain_over(report, a, b):
    """mean_a / mean_b - 1 at every power point."""
    mean = report.mean_mbps
    return mean[report.schemes.index(a)] / mean[report.schemes.index(b)] - 1.0


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
        gain = gain_over(report, "csidata", "coloring")[MID]
        ok = 0.25 <= gain <= 0.60
        report_line("2a (gain over 4-colouring)", ok,
                    f"{100 * gain:.1f}% at mid-grid (band 25–60%)")
        assert ok

    def test_gain_over_cluster_rzf_in_band(self, full_sweep):
        # Known-unattainable band: a near-optimal per-gateway sum-rate
        # allocator (criterion 6) assigns the selected edge streams only a
        # few percent of the budget, capping this gain near 2-3%
        report, _ = full_sweep
        gain = gain_over(report, "csidata", "rzf")[MID]
        ok = 0.05 <= gain <= 0.30
        report_line("2b (gain over per-cluster R-ZF)", ok,
                    f"{100 * gain:.1f}% at mid-grid (band 5–30%)")
        assert ok


class TestCriterion3MarginalCsiGain:
    def test_csi_tracks_rzf_at_every_power(self, full_sweep):
        report, _ = full_sweep
        gains = gain_over(report, "csi", "rzf")
        ok = bool(np.all(gains >= -0.02) and np.all(gains <= 0.10))
        detail = "csi/rzf-1 per power: " + ", ".join(
            f"{100 * g:+.1f}%" for g in gains) + " (band [-2%, +10%])"
        report_line("3 (marginal CSI-only gain)", ok, detail)
        assert ok


class TestCriterion4SlnrOracle:
    def test_closed_form_matches_generalized_eigenvector(self):
        rng = np.random.default_rng(4242)
        worst = 1.0
        for _ in range(1000):
            h = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            n_leak = int(rng.integers(1, 7))
            leaks = [rng.standard_normal(7) + 1j * rng.standard_normal(7)
                     for _ in range(n_leak)]
            noise = float(rng.uniform(0.05, 5.0))
            split = n_leak // 2
            w = slnr_beamformer(h, leaks[:split], leaks[split:], noise)
            m = noise * np.eye(7, dtype=complex)
            for v in leaks:
                m += np.outer(v, v.conj())
            _, vecs = scipy.linalg.eigh(np.outer(h, h.conj()), m)
            top = vecs[:, -1] / np.linalg.norm(vecs[:, -1])
            worst = min(worst, abs(np.vdot(w, top)))
        ok = worst >= 1.0 - 1e-9
        report_line("4 (SLNR eigenvector oracle)", ok,
                    f"min |<w, w_oracle>| = {worst:.12f} over 1000 instances")
        assert ok


class TestCriterion5RzfLimits:
    def test_zero_regularization_limit_is_pseudo_inverse(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(20):
            h = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
            cols = rzf_precoder(h, 1e-12)
            ref = np.linalg.pinv(h)
            ref = ref / np.linalg.norm(ref, axis=0)
            worst = max(worst, np.abs(cols - ref).max())
        ok = worst < 1e-6
        report_line("5a (R-ZF -> pseudo-inverse limit)", ok,
                    f"max column deviation {worst:.2e} at beta=1e-12")
        assert ok

    def test_infinite_regularization_limit_is_matched_filter(self):
        rng = np.random.default_rng(56)
        worst = 0.0
        for _ in range(20):
            h = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
            cols = rzf_precoder(h, 1e12)
            ref = h.conj().T / np.linalg.norm(h, axis=1)
            worst = max(worst, np.abs(cols - ref).max())
        ok = worst < 1e-6
        report_line("5b (R-ZF -> matched-filter limit)", ok,
                    f"max column deviation {worst:.2e} at beta=1e12")
        assert ok


class TestCriterion6PowerSolver:
    def test_solver_against_grid_search(self):
        rng = np.random.default_rng(66)
        instances = []
        for _ in range(100):
            gains = rng.exponential(1.0, size=(3, 3))
            gains[np.diag_indices(3)] += rng.exponential(2.0, size=3)
            instances.append(gains)
        # the objective after each iteration, from runs capped at n iterations
        history, _ = ascent_path(np.stack(instances), 1.0, 10.0)
        monotone = bool(np.all(np.diff(history, axis=0) >= -1e-12))
        worst_gap = 0.0
        for gains in instances:
            p, _, _, _, _ = allocate_sumrate_batch(gains[None], 1.0, 10.0)
            assert np.all(p[0] >= 0) and p[0].sum() <= 10.0 * (1 + 1e-9)
            achieved = float(_objective(gains, 1.0, p[0]))
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
        ok = abs(loss_db - 210.0) < 1.0
        report_line("8 (free-space loss)", ok,
                    f"{loss_db:.2f} dB at 35786 km / 20 GHz (210 ± 1 dB)")
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
                and np.array_equal(res.sinr[0], res.sinr[1])
                and np.array_equal(res.serving_counts[0],
                                   res.serving_counts[1]))
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
