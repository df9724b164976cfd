"""Independent beamformer and power-allocation oracles for the tests.

The simulator builds every precoder with one batched leakage-aware solve
(schemes._slnr_columns).  These are the textbook per-cluster regularized
zero-forcing and the per-user closed-form leakage-minimizing beamformer,
kept apart from it so the tests can check the production columns against
them.  Both produce columns normalized to unit 2-norm; transmit power is
applied separately.  grid_search_optimum brute-forces the sum-rate
allocation problem that power_alloc solves by projected gradient ascent.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def rzf_precoder(H: np.ndarray, beta: float) -> np.ndarray:
    """Regularized zero-forcing columns for the row-channel matrix H.

    H is (K, N) with row k the conjugate transpose of user k's channel;
    returns the K unit-norm columns of (H^H H + beta I)^-1 H^H.  beta = 0
    requires full-rank H and raises LinAlgError otherwise.
    """
    H = np.asarray(H, dtype=complex)
    if not np.all(np.isfinite(H)):
        raise ValueError("channel matrix must be finite")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    k, n = H.shape
    if beta == 0 and np.linalg.matrix_rank(H) < k:
        raise np.linalg.LinAlgError("rank-deficient channel with beta = 0")
    gram = H.conj().T @ H + beta * np.eye(n)
    cols = np.linalg.solve(gram, H.conj().T)
    norms = np.linalg.norm(cols, axis=0)
    if np.any(norms == 0):
        raise np.linalg.LinAlgError("degenerate precoder column")
    return cols / norms


def optimal_beta(n0: float, bandwidth: float, k_users: int, p_total: float) -> float:
    """Large-system regularizer N0*W*K / P_T."""
    if min(n0, bandwidth, k_users) <= 0:
        raise ValueError("n0, bandwidth and k_users must be positive")
    if p_total <= 0:
        raise ValueError("total power must be positive")
    return n0 * bandwidth * k_users / p_total


def slnr_beamformer(h_target: np.ndarray, intra_leakage, inter_leakage,
                    noise_power: float) -> np.ndarray:
    """Closed-form maximizer of signal over leakage-plus-noise.

    Returns M^-1 h / ||M^-1 h|| with
    M = sum_intra h h^H + sum_inter h h^H + noise_power * I, which is the
    dominant generalized eigenvector of (h h^H, M); M is positive definite
    for any noise_power > 0 so no rank condition is needed.
    """
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    h = np.asarray(h_target, dtype=complex)
    m = noise_power * np.eye(h.shape[0], dtype=complex)
    for vec in list(intra_leakage) + list(inter_leakage):
        v = np.asarray(vec, dtype=complex)
        m += np.outer(v, v.conj())
    w = scipy.linalg.solve(m, h, assume_a="pos")
    return w / np.linalg.norm(w)


def slnr_value(w: np.ndarray, h_target: np.ndarray, leakage, noise_power: float) -> float:
    """Signal-to-leakage-and-noise ratio of a candidate unit vector."""
    w = np.asarray(w, dtype=complex)
    num = abs(np.vdot(w, h_target)) ** 2
    den = noise_power * float(np.vdot(w, w).real)
    for vec in leakage:
        den += abs(np.vdot(w, vec)) ** 2
    return num / den


def grid_search_optimum(gains: np.ndarray, noise_w: float, p_total: float,
                        steps: int = 200) -> float:
    """Best sum rate over a grid of the 3-stream power simplex.

    Tries every p >= 0 with sum(p) <= p_total whose coordinates are
    multiples of p_total / steps; gains[j, l] is the power user l receives
    per unit of stream j.
    """
    unit = p_total / steps
    blocks = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            k = np.arange(steps + 1 - i - j)
            block = np.empty((len(k), 3))
            block[:, 0] = i * unit
            block[:, 1] = j * unit
            block[:, 2] = k * unit
            blocks.append(block)
    pts = np.concatenate(blocks)
    received = pts @ gains
    signal = pts * np.diagonal(gains)
    rates = np.log2(1.0 + signal / (received - signal + noise_w))
    return rates.sum(axis=1).max()
