import math

import numpy as np
import pytest

from oracles import rzf_precoder, slnr_beamformer
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
        picked = select_edge_users(ch, [neighbours], m)[0]
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
            select_edge_users(ch, [[1]], 8)
        with pytest.raises(ValueError):
            select_edge_users(ch, [[1]], -1)
