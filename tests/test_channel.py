import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j1, jv

from oracles import off_axis_angle
from satcoop import channel
from satcoop.channel import (BOLTZMANN_J_K, ChannelRealization, LinkBudget,
                             beam_gain, path_loss_gain, sample_rain_fade,
                             synthesize_channels)
from satcoop.geometry import build_topology, drop_users, user_geometry

THETA_3DB = math.radians(0.4)
ROOT = Path(__file__).resolve().parents[1]


def bessel_series(order, u, terms=40):
    """Independent first-kind Bessel oracle: plain power-series summation."""
    total = 0.0
    for m in range(terms):
        total += (-1.0) ** m / (math.factorial(m) * math.factorial(m + order)) \
            * (u / 2.0) ** (2 * m + order)
    return total


def taper_oracle(theta, theta_3db):
    u = 2.07123 * math.sin(theta) / math.sin(theta_3db)
    return (bessel_series(1, u) / (2 * u) + 36 * bessel_series(3, u) / u ** 3) ** 2


class TestBeamGain:
    def test_half_power_at_design_angle(self):
        value = beam_gain(THETA_3DB, THETA_3DB, 1.0)
        assert value == pytest.approx(0.5, rel=0.01)
        assert value == pytest.approx(taper_oracle(THETA_3DB, THETA_3DB), rel=1e-9)

    def test_mainlobe_monotone_decay(self):
        thetas = np.linspace(0.0, 2 * THETA_3DB, 4001)
        gains = beam_gain(thetas, THETA_3DB, 1.0)
        assert np.all(np.diff(gains) < 0)
        assert gains[-1] < 0.5

    def test_small_angle_series_joins_bessel_branch(self):
        # near boresight, inside the table's first interval
        theta_tiny = np.array([0.0, 1e-10, 1e-8, 1e-6, 1e-4])
        gains = beam_gain(theta_tiny, THETA_3DB, 1.0)
        oracle = [1.0] + [taper_oracle(t, THETA_3DB) for t in theta_tiny[1:]]
        np.testing.assert_allclose(gains, oracle, rtol=1e-9)

    def test_sidelobes_match_jv_reference(self):
        # dense u grid over the canonical layout's span (u ~ 0.09-46), with
        # points within 1e-12 of the u = 2 series/recurrence switchover
        target = np.concatenate([
            np.linspace(0.0, 50.0, 500001),
            2.0 + np.array([-1e-12, -3e-13, -1e-13, 0.0, 1e-13, 3e-13, 1e-12])])
        theta = np.arcsin(target * math.sin(THETA_3DB) / 2.07123)
        u = 2.07123 * np.sin(theta) / math.sin(THETA_3DB)  # as beam_gain has it
        near = np.abs(u - 2.0) <= 1e-12
        assert np.any(near & (u < 2.0)) and np.any(near & (u > 2.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            reference = np.where(u > 0, j1(u) / (2 * u) + 36 * jv(3, u) / u ** 3,
                                 1.0)
        taper = np.copysign(np.sqrt(beam_gain(theta, THETA_3DB, 1.0)),
                            reference)
        np.testing.assert_allclose(taper, reference, rtol=0.0, atol=1e-13)
        main = u <= 3.0
        np.testing.assert_allclose(taper[main], reference[main], rtol=1e-12,
                                   atol=0.0)

    def test_table_matches_jv_reference_over_its_domain(self):
        # every u the table covers, out to the largest the canonical 3 dB
        # angle reaches (theta just below pi/2)
        theta = np.arcsin(np.linspace(0.0, 1.0 - 1e-12, 200001))
        u = 2.07123 * np.sin(theta) / math.sin(THETA_3DB)
        assert 296.68 < u[-1] < channel._U_TABLE
        with np.errstate(divide="ignore", invalid="ignore"):
            reference = np.where(u > 0, j1(u) / (2 * u) + 36 * jv(3, u) / u ** 3,
                                 1.0)
        taper = np.copysign(np.sqrt(beam_gain(theta, THETA_3DB, 1.0)),
                            reference)
        np.testing.assert_allclose(taper, reference, rtol=0.0, atol=5e-15)

    def test_u_past_the_table_is_rejected(self):
        # 0.2 deg doubles u: theta near pi/2 reaches u = 593
        narrow = math.radians(0.2)
        assert beam_gain(0.5, narrow, 1.0) > 0.0
        with pytest.raises(ValueError, match="past the taper table's bound 297"):
            beam_gain([0.0, 1.5], narrow, 1.0)

    def test_rebuilt_table_reproduces_committed_values(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "build_taper_table", ROOT / "scripts" / "build_taper_table.py")
        build = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(build)
        rebuilt = build.build_table()
        committed = channel._taper_table()
        assert rebuilt.shape == committed.shape == (
            channel._TAPER_DEGREE + 1,
            round(channel._U_TABLE / channel._TAPER_STEP))
        assert committed[0, 0] == rebuilt[0, 0] == 1.0
        theta = np.arcsin(np.linspace(0.0, 1.0 - 1e-12, 100001))
        before = beam_gain(theta, THETA_3DB, 1.0)
        monkeypatch.setattr(channel, "_taper_table", lambda: rebuilt)
        np.testing.assert_allclose(beam_gain(theta, THETA_3DB, 1.0), before,
                                   rtol=0.0, atol=1e-15)

    def test_run_time_imports_no_scipy(self):
        code = (
            "import sys\n"
            "import satcoop\n"
            "topo = satcoop.build_topology("
            "satcoop.footprint_matched_diameter())\n"
            "drop = satcoop.drop_users(topo, 1)\n"
            "satcoop.synthesize_channels(topo, drop, satcoop.LinkBudget(), 2)\n"
            "assert 'scipy' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH="src"))
        assert proc.returncode == 0, proc.stderr

    def test_rejects_bad_inputs(self):
        for theta_3db in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                beam_gain(0.1, theta_3db, 1.0)
        for theta in (-0.1, math.pi / 2, math.nan, math.inf, -math.inf,
                      [0.0, math.nan, 0.1], [[0.1], [math.inf]]):
            with pytest.raises(ValueError):
                beam_gain(theta, THETA_3DB, 1.0)

    def test_shapes_on_both_branches(self):
        # `near` and `far` lie in different intervals of the taper table
        near, far = 0.1 * THETA_3DB, 2.0 * THETA_3DB
        boresight = beam_gain(0.0, THETA_3DB, 3.5)
        assert type(boresight) is float and boresight == 3.5
        for theta in (near, far):
            assert type(beam_gain(theta, THETA_3DB, 1.0)) is float
        row = np.array([0.0, near, far, 3.0 * THETA_3DB])
        gains = beam_gain(row, THETA_3DB, 1.0)
        assert gains.shape == (4,)
        assert np.array_equal(gains, [beam_gain(t, THETA_3DB, 1.0) for t in row])
        grid = beam_gain(row.reshape(2, 2), THETA_3DB, 1.0)
        assert grid.shape == (2, 2)
        assert np.array_equal(grid.ravel(), gains)


class TestRainFade:
    def test_sigma_zero_closed_form(self):
        (xi,) = sample_rain_fade(0, mu=-3.4249, sigma=0.0, n=1)
        a_db = math.exp(-3.4249)
        assert a_db == pytest.approx(0.0325, abs=2e-4)
        assert xi == pytest.approx(10.0 ** (a_db / 10.0), rel=1e-12)
        assert xi == pytest.approx(1.0075, abs=1e-4)

    def test_clear_sky_limit(self):
        (xi,) = sample_rain_fade(3, mu=-1e9, sigma=0.0, n=1)
        assert xi == 1.0

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           mu=st.floats(-20.0, 2.0),
           sigma=st.floats(0.0, 2.5))
    def test_attenuation_never_amplifies(self, seed, mu, sigma):
        assert np.all(sample_rain_fade(seed, mu, sigma, n=16) >= 1.0)

    def test_monte_carlo_log_mean(self):
        xi = sample_rain_fade(2024, mu=-3.4249, sigma=1.5768, n=10**6)
        a_db = 10.0 * np.log10(xi)
        assert abs(np.log(a_db).mean() - (-3.4249)) < 3 * 1.5768 / 1e3

    def test_negative_sigma_rejected(self):
        for mu, sigma in ((0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
                          (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)):
            with pytest.raises(ValueError):
                sample_rain_fade(0, mu, sigma, n=1)


class TestPathLoss:
    def test_inverse_square_law(self):
        g1 = path_loss_gain(1000.0, 0.015)
        g2 = path_loss_gain(2000.0, 0.015)
        assert 10 * math.log10(g1 / g2) == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_unit_gain_distance(self):
        lam = 0.015
        assert path_loss_gain(lam / (4 * math.pi) / 1e3, lam) == pytest.approx(1.0)

    def test_rejects_nonpositive_distance(self):
        for d_km in (0.0, math.nan, math.inf, [1000.0, math.nan]):
            with pytest.raises(ValueError):
                path_loss_gain(d_km, 0.015)


@pytest.fixture(scope="module")
def topo():
    return build_topology(500.0, 7, 19)


@pytest.fixture(scope="module")
def budget():
    return LinkBudget()


def centred_drop(topo):
    return user_geometry(topo, topo.beam_centers)


class TestSynthesis:
    def test_reference_magnitude_at_beam_centre(self, topo, budget, fixed_rain):
        drop = centred_drop(topo)
        real = synthesize_channels(topo, drop, budget, 0)
        u = 0
        expected = budget.rx_gain_linear * budget.tx_gain_linear \
            * path_loss_gain(drop.slant_range[u], budget.wavelength_m)
        assert abs(real.gains[u, u]) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_gains_real_and_nonnegative(self, topo, budget):
        # a rain phase shared by every feed cancels out of every rate, so
        # the synthesized amplitudes are real
        real = synthesize_channels(topo, drop_users(topo, 5), budget, 6)
        assert real.gains.dtype == np.float64
        assert np.all(real.gains >= 0.0)

    def test_boundary_user_sees_symmetric_feeds(self, topo, budget, fixed_rain):
        # midpoint of two beam centres of the central cluster
        b1, b2 = 0, 1
        positions = topo.beam_centers.copy()
        positions[0] = 0.5 * (topo.beam_centers[b1] + topo.beam_centers[b2])
        drop = user_geometry(topo, positions)
        real = synthesize_channels(topo, drop, budget, 0)
        m1, m2 = abs(real.gains[b1, 0]), abs(real.gains[b2, 0])
        assert abs(m1 - m2) / m1 < 1e-6

    def test_serving_feed_dominates_at_beam_centre(self, topo, budget, fixed_rain):
        drop = centred_drop(topo)
        real = synthesize_channels(topo, drop, budget, 0)
        mags = np.abs(real.gains)
        assert np.all(np.argmax(mags, axis=0) == np.arange(topo.n_beams))

    def test_fixed_seed_reproducibility(self, topo, budget):
        drop = drop_users(topo, 11)
        a = synthesize_channels(topo, drop, budget, 12)
        b = synthesize_channels(topo, drop, budget, 12)
        assert np.array_equal(a.gains, b.gains)
        assert a.checksum() == b.checksum()
        c = synthesize_channels(topo, drop, budget, 13)
        assert a.checksum() != c.checksum()

    def test_clear_sky_snr_closed_form(self, topo, budget, fixed_rain):
        drop = centred_drop(topo)
        real = synthesize_channels(topo, drop, budget, 0)
        p = 10.0
        u = 3
        snr_sim = p * abs(real.gains[u, u]) ** 2 / real.noise_power_w
        fsl = (budget.wavelength_m / (4 * math.pi * drop.slant_range[u] * 1e3)) ** 2
        snr_hand = (p * 10 ** 5.2 * 10 ** 4.17 * fsl
                    / (BOLTZMANN_J_K * 207.0 * 500e6))
        assert snr_sim == pytest.approx(snr_hand, rel=1e-9)

    def test_rain_division_enters_as_power(self, topo, budget, fixed_rain):
        drop = centred_drop(topo)
        dry = synthesize_channels(topo, drop, budget, 0)
        fixed_rain(4.0)
        wet = synthesize_channels(topo, drop, budget, 0)
        ratio = np.abs(dry.gains[0, 0]) ** 2 / np.abs(wet.gains[0, 0]) ** 2
        assert ratio == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_amplitude_is_the_root_of_beam_gain(self, canonical_topology,
                                                budget, seed):
        # gains over their column scale are the taper |T|, which must agree
        # with sqrt(beam_gain / b_max) at the drop's angles; the bound is
        # absolute because the taper crosses zero at the sidelobe nulls
        drop = drop_users(canonical_topology, seed)
        real = synthesize_channels(canonical_topology, drop, budget, seed + 100)
        b_max = budget.tx_gain_linear
        pl = path_loss_gain(drop.slant_range, budget.wavelength_m)
        scale = np.sqrt(b_max * budget.rx_gain_linear * pl
                        / real.rain_fade_linear)
        expected = np.sqrt(beam_gain(off_axis_angle(drop),
                                     budget.theta_3db_rad, b_max) / b_max)
        np.testing.assert_allclose(real.gains / scale, expected, rtol=0.0,
                                   atol=1e-15)

    def test_chord_outside_the_half_sphere_is_rejected(self, topo, budget):
        # a chord of sqrt(2) is an off-axis angle of pi/2, which beam_gain
        # rejects too
        drop = centred_drop(topo)

        def with_chord(value):
            chord = drop.chord.copy()
            chord[3, 5] = value
            return dataclasses.replace(drop, chord=chord)

        last = np.nextafter(math.sqrt(2.0), 0.0)
        synthesize_channels(topo, with_chord(last), budget, 0)
        for bad in (math.sqrt(2.0), 2.0, math.nan, -1e-3):
            with pytest.raises(ValueError, match="chord must lie in"):
                synthesize_channels(topo, with_chord(bad), budget, 0)


class TestChecksum:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_digest_pinned(self, order):
        # pinned from the tobytes() implementation; the digest depends on
        # the values only, not on the memory order of gains or a strided
        # rain vector
        k = np.arange(12.0)
        gains = np.asarray(((k + 1) + 1j * (11 - k)).reshape(3, 4) / 7,
                           order=order)
        real = ChannelRealization(gains=gains,
                                  rain_fade_linear=np.linspace(1.0, 2.0, 8)[::2],
                                  k_per_cluster=1, noise_psd_w_hz=1.0,
                                  bandwidth_hz=1.0)
        assert real.checksum() == "afb15c48c9b7cbc2"


class TestReadOnlyRealization:
    def test_synthesized_realization_is_read_only(self, topo, budget):
        real = synthesize_channels(topo, drop_users(topo, 11), budget, 12)
        with pytest.raises(ValueError):
            real.gains[0, 0] = 0.0
        with pytest.raises(ValueError):
            real.rain_fade_linear[0] = 1.0

    def test_direct_construction_is_read_only(self):
        gains = np.ones((2, 2), dtype=complex)
        real = ChannelRealization(gains=gains, rain_fade_linear=np.ones(2),
                                  k_per_cluster=1, noise_psd_w_hz=1.0,
                                  bandwidth_hz=1.0)
        with pytest.raises(ValueError):
            real.gains[0, 0] = 0.0
        # the realization holds a read-only view; the caller's array is
        # left as it was
        assert gains.flags.writeable
        assert np.shares_memory(real.gains, gains)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        LinkBudget(theta_3db_rad=-0.1)
    with pytest.raises(ValueError):
        LinkBudget(rain_sigma=-0.5)
    for field in dataclasses.fields(LinkBudget):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=field.name):
                LinkBudget(**{field.name: value})
    b = LinkBudget()
    assert b.noise_power_w == pytest.approx(1.42897e-12, rel=1e-4)
