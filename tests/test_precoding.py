import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import optimal_beta, rzf_precoder, slnr_beamformer, slnr_value
from satcoop.channel import BOLTZMANN_J_K
from satcoop.schemes import select_edge_users


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRzf:
    def test_identity_channel(self):
        cols = rzf_precoder(np.eye(2, dtype=complex), 0.0)
        np.testing.assert_allclose(cols, np.eye(2), atol=1e-14)

    def test_unitary_channel_any_regularization(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(random_complex(rng, 5, 5))
        for beta in (0.0, 0.3, 7.0):
            cols = rzf_precoder(q, beta)
            # regularization is isotropic: columns stay those of H^H, normalized
            expected = q.conj().T / np.linalg.norm(q.conj().T, axis=0)
            np.testing.assert_allclose(cols, expected, atol=1e-12)

    def test_small_beta_matches_pseudo_inverse(self):
        rng = np.random.default_rng(1)
        h = random_complex(rng, 3, 3)
        cols = rzf_precoder(h, 1e-12)
        pinv_cols = np.linalg.pinv(h)
        pinv_cols = pinv_cols / np.linalg.norm(pinv_cols, axis=0)
        np.testing.assert_allclose(cols, pinv_cols, atol=1e-6)

    def test_unit_norm_columns(self):
        rng = np.random.default_rng(2)
        cols = rzf_precoder(random_complex(rng, 7, 7), 0.05)
        np.testing.assert_allclose(np.linalg.norm(cols, axis=0), 1.0, atol=1e-12)

    def test_rank_deficient_without_regularization_raises(self):
        h = np.ones((3, 3), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            rzf_precoder(h, 0.0)
        rzf_precoder(h, 1e-3)  # regularized solve is fine

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            rzf_precoder(np.eye(2, dtype=complex), -1.0)

    def test_continuity_in_beta(self):
        rng = np.random.default_rng(3)
        h = random_complex(rng, 7, 7)
        beta = 0.7
        a = rzf_precoder(h, beta)
        b = rzf_precoder(h, beta * (1 + 1e-6))
        assert np.abs(a - b).max() < 1e-4


class TestOptimalBeta:
    def test_published_constants(self):
        n0 = BOLTZMANN_J_K * 207.0
        assert optimal_beta(n0, 500e6, 7, 7.0) == pytest.approx(1.429e-12, rel=1e-3)

    def test_inverse_in_power(self):
        assert optimal_beta(1e-20, 5e8, 7, 20.0) \
            == pytest.approx(optimal_beta(1e-20, 5e8, 7, 10.0) / 2.0)

    def test_unit_case(self):
        assert optimal_beta(1.0, 1.0, 1, 1.0) == 1.0

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            optimal_beta(1e-20, 5e8, 7, 0.0)


class TestSlnr:
    def test_no_leakage_returns_matched_filter(self):
        rng = np.random.default_rng(4)
        h = random_complex(rng, 7)
        w = slnr_beamformer(h, [], [], noise_power=0.37)
        np.testing.assert_allclose(w, h / np.linalg.norm(h), atol=1e-12)

    def test_orthogonal_leakage_is_ignored(self):
        h = np.zeros(4, dtype=complex)
        h[0] = 2.0
        leak = np.zeros(4, dtype=complex)
        leak[1] = 5.0
        w = slnr_beamformer(h, [leak], [], noise_power=1.0)
        np.testing.assert_allclose(w, h / np.linalg.norm(h), atol=1e-12)

    def test_matches_generalized_eigenvector_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = random_complex(rng, 7)
            leaks = [random_complex(rng, 7) for _ in range(4)]
            noise = float(rng.uniform(0.1, 2.0))
            w = slnr_beamformer(h, leaks[:2], leaks[2:], noise)
            m = noise * np.eye(7, dtype=complex)
            for v in leaks:
                m += np.outer(v, v.conj())
            vals, vecs = scipy.linalg.eigh(np.outer(h, h.conj()), m)
            top = vecs[:, -1]
            top = top / np.linalg.norm(top)
            assert abs(np.vdot(w, top)) >= 1.0 - 1e-9

    def test_maximality_against_random_probes(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            dim = 5
            h = random_complex(rng, dim)
            leaks = [random_complex(rng, dim) for _ in range(3)]
            noise = 0.8
            w = slnr_beamformer(h, leaks, [], noise)
            best = slnr_value(w, h, leaks, noise)
            probes = random_complex(rng, 100, dim)
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            for p in probes:
                assert best >= slnr_value(p, h, leaks, noise) - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_scale_covariance(self, seed):
        rng = np.random.default_rng(seed)
        h = random_complex(rng, 6)
        leaks = [random_complex(rng, 6) for _ in range(3)]
        noise = float(rng.uniform(0.5, 2.0))
        scale = complex(rng.standard_normal(), rng.standard_normal())
        w1 = slnr_beamformer(h, leaks[:1], leaks[1:], noise)
        w2 = slnr_beamformer(scale * h, [scale * v for v in leaks[:1]],
                             [scale * v for v in leaks[1:]],
                             noise * abs(scale) ** 2)
        # equal up to a global phase
        assert abs(np.vdot(w1, w2)) == pytest.approx(1.0, abs=1e-9)

    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        w = slnr_beamformer(random_complex(rng, 7),
                            [random_complex(rng, 7)],
                            [random_complex(rng, 7)], 0.25)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            slnr_beamformer(np.ones(3, dtype=complex), [], [], 0.0)


class FakeChannels:
    """Minimal stand-in with the gains layout select_edge_users consumes."""

    def __init__(self, gains, k):
        self.gains = gains
        self.k_per_cluster = k


class TestEdgeUserSelection:
    def build(self, norms_by_cluster, k=7, gw=0):
        n_clusters = len(norms_by_cluster)
        gains = np.zeros((n_clusters * k, n_clusters * k), dtype=complex)
        for b, norms in enumerate(norms_by_cluster):
            for j, norm2 in enumerate(norms):
                gains[gw * k, b * k + j] = math.sqrt(norm2)
        return FakeChannels(gains, k)

    def select(self, ch, neighbours, m):
        """Selected global indices b*k + j, checked to be an int array."""
        picked = select_edge_users(ch, 0, neighbours, m)
        assert isinstance(picked, np.ndarray)
        assert picked.dtype.kind == "i"
        return picked.tolist()

    def test_zero_selection(self):
        ch = self.build([[0] * 7, [3, 9, 1, 0, 0, 0, 0]])
        assert self.select(ch, [1], 0) == []

    def test_argmax_selection(self):
        ch = self.build([[0] * 7, [3, 9, 1, 0, 0, 0, 0]])
        assert self.select(ch, [1], 1) == [1 * 7 + 1]

    def test_top_m_matches_sort_oracle(self):
        rng = np.random.default_rng(8)
        norms = rng.uniform(0, 5, size=7)
        ch = self.build([[0] * 7, norms.tolist()])
        picked = self.select(ch, [1], 2)
        oracle = np.argsort(-norms, kind="stable")[:2]
        assert picked == [1 * 7 + int(j) for j in oracle]

    def test_ties_break_to_lowest_index(self):
        ch = self.build([[0] * 7, [2, 5, 5, 5, 1, 0, 0]])
        assert self.select(ch, [1], 2) == [1 * 7 + 1, 1 * 7 + 2]

    def test_multiple_neighbours_sorted(self):
        ch = self.build([[0] * 7, [1, 2, 0, 0, 0, 0, 0], [9, 0, 0, 0, 0, 0, 0]])
        assert self.select(ch, [2, 1], 1) == [1 * 7 + 1, 2 * 7 + 0]

    def test_rejects_oversized_selection(self):
        ch = self.build([[0] * 7, [0] * 7])
        with pytest.raises(ValueError):
            select_edge_users(ch, 0, [1], 8)
        with pytest.raises(ValueError):
            select_edge_users(ch, 0, [1], -1)
