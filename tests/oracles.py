"""Independent beamformer and power-allocation oracles for the tests.

The simulator builds every precoder with one batched leakage-aware solve
(schemes._slnr_columns).  These are the textbook per-cluster regularized
zero-forcing and the per-user closed-form leakage-minimizing beamformer,
kept apart from it so the tests can check the production columns against
them.  Both produce columns normalized to unit 2-norm; transmit power is
applied separately.  grid_search_optimum brute-forces the sum-rate
allocation problem that power_alloc solves by projected gradient ascent,
and reference_allocate is that ascent in its plain one-halving-at-a-time
form.  ascent_path traces the allocator's iterates from capped runs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from satcoop.power_alloc import (_ARMIJO, _MAX_HALVINGS, _ascend, _gradient,
                                 _objective)


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


# The allocator loop as it stood before row compaction, backtracking ladders
# and sub-table restart scores: one projection and one objective pass per
# halving over every undecided row, the gradient over the whole batch, and
# one _objective call per restart candidate.  power_alloc must reproduce it
# bit for bit.

def reference_project_power(v: np.ndarray, p_total: float) -> np.ndarray:
    """Euclidean projection of stacked vectors onto {p >= 0, sum(p) <= P_T}."""
    v = np.asarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    over = clipped.sum(axis=-1) > p_total
    if not np.any(over):
        return clipped
    # Over-budget rows coincide with the projection onto the equality simplex.
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - p_total
    ranks = np.arange(1, v.shape[-1] + 1, dtype=float)
    rho = np.count_nonzero(u * ranks > css, axis=-1)
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1)[..., 0] / rho
    simplex = np.maximum(v - theta[..., None], 0.0)
    return np.where(over[..., None], simplex, clipped)


def _reference_ascend(gains, noise_w, p_total, p0, tol, max_iters):
    n_batch, k, _ = gains.shape
    p = p0.copy()
    f = _objective(gains, noise_w, p)

    step = np.full(n_batch, np.nan)
    active = np.ones(n_batch, dtype=bool)
    converged = np.zeros(n_batch, dtype=bool)
    iterations = np.zeros(n_batch, dtype=int)
    last_rel = np.zeros(n_batch)

    for it in range(1, max_iters + 1):
        if not active.any():
            break
        grad = _gradient(gains, noise_w, p)
        if np.isnan(step).any():
            scale = np.maximum(np.abs(grad).max(axis=-1), 1e-300)
            step = np.where(np.isnan(step), p_total / scale, step)

        t = step.copy()
        cand_p = p.copy()
        cand_f = f.copy()
        improved = np.zeros(n_batch, dtype=bool)
        undecided = active.copy()
        for _ in range(_MAX_HALVINGS):
            if not undecided.any():
                break
            idx = np.flatnonzero(undecided)
            q = reference_project_power(p[idx] + t[idx, None] * grad[idx],
                                        p_total)
            fq = _objective(gains[idx], noise_w, q)
            ascent = np.einsum("ij,ij->i", grad[idx], q - p[idx])
            ok = (ascent > 0) & (fq >= f[idx] + _ARMIJO * ascent)
            stationary = ascent <= 0
            acc = idx[ok]
            cand_p[acc] = q[ok]
            cand_f[acc] = fq[ok]
            improved[acc] = True
            undecided[idx[ok | stationary]] = False
            shrink = idx[~(ok | stationary)]
            t[shrink] *= 0.5
        # anything still undecided after all halvings is numerically stationary

        iterations[active] = it
        rel = np.zeros(n_batch)
        rel[improved] = (cand_f[improved] - f[improved]) / np.maximum(
            np.abs(f[improved]), 1e-300)
        last_rel[improved] = rel[improved]

        stalled = active & ~improved
        done = stalled | (improved & (rel < tol))
        converged |= done
        active &= ~done

        p = cand_p
        f = cand_f
        step[improved] = 2.0 * t[improved]

    # elements that ran out of iterations: flag only a clearly unsettled run
    converged |= last_rel <= 100.0 * tol
    return p, f, converged, iterations


def reference_restart_scores(gains, noise_w, p_total):
    """(B, C) sum rates of the restart candidates, one _objective call each,
    with the (C, K) candidate table."""
    n_batch, k, _ = gains.shape
    candidates = [np.eye(k)[j] for j in range(k)]
    candidates += [0.5 * (np.eye(k)[i] + np.eye(k)[j])
                   for i in range(k) for j in range(i + 1, k)]
    candidates = p_total * np.array(candidates)             # (C, K)
    cand_f = np.stack(
        [_objective(gains, noise_w, np.broadcast_to(c, (n_batch, k)))
         for c in candidates], axis=1)                      # (B, C)
    return cand_f, candidates


def reference_allocate(gains, noise_w, p_total, tol=1e-6, max_iters=500):
    """power_alloc.allocate_sumrate_batch as the loop above solves it:
    (p, converged, iterations)."""
    gains = np.asarray(gains, dtype=float)
    n_batch, k, _ = gains.shape
    uniform = np.full((n_batch, k), p_total / k)
    p, f, converged, iterations = _reference_ascend(
        gains, noise_w, p_total, uniform, tol, max_iters)

    cand_f, candidates = reference_restart_scores(gains, noise_w, p_total)

    margin = 1e-12 * np.maximum(1.0, np.abs(f))
    idx = np.flatnonzero(cand_f.max(axis=1) > f + margin)
    if idx.size:
        starts = candidates[cand_f[idx].argmax(axis=1)]
        p2, f2, conv2, it2 = _reference_ascend(
            gains[idx], noise_w, p_total, starts, tol, max_iters)
        better = f2 > f[idx]
        win = idx[better]
        sub = np.flatnonzero(better)
        p[win] = p2[sub]
        converged[win] = conv2[sub]
        iterations[win] = it2[sub]
    return p, converged, iterations


def ascent_path(gains, noise_w, p_total, tol=1e-6):
    """Objectives (M, B) and iterates (M, B, K) of the allocator's ascents.

    _ascend capped at max_iters = n returns exactly iterate n of a longer
    run, so running it once per n = 0..N on the whole stack (N the stack's
    largest iteration count) traces every row from the uniform split.  For
    the rows allocate_sumrate_batch restarts, the ascent from the restart
    corner (picked as reference_allocate picks it) follows; the other rows
    repeat their last point there.  A restart starts above where the first
    ascent ended, so each column must be nondecreasing, and its last
    iterate is the allocator's answer.
    """
    gains = np.asarray(gains, dtype=float)
    n_batch, k, _ = gains.shape
    uniform = np.full((n_batch, k), p_total / k)

    def path(g, start):
        # 500 is allocate_sumrate_batch's default max_iters
        n_max = int(_ascend(g, noise_w, p_total, start, tol, 500)[3].max())
        runs = [_ascend(g, noise_w, p_total, start, tol, n)
                for n in range(n_max + 1)]
        return (np.array([run[1] for run in runs]),
                np.array([run[0] for run in runs]))

    f, p = path(gains, uniform)
    margin = 1e-12 * np.maximum(1.0, np.abs(f[-1]))
    cand_f, candidates = reference_restart_scores(gains, noise_w, p_total)
    idx = np.flatnonzero(cand_f.max(axis=1) > f[-1] + margin)
    if idx.size:
        f2, p2 = path(gains[idx], candidates[cand_f[idx].argmax(axis=1)])
        tail_f = np.repeat(f[-1:], len(f2), axis=0)
        tail_p = np.repeat(p[-1:], len(p2), axis=0)
        tail_f[:, idx], tail_p[:, idx] = f2, p2
        f, p = np.concatenate([f, tail_f]), np.concatenate([p, tail_p])
    return f, p
