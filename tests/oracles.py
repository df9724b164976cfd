"""Independent beamformer and power-allocation oracles for the tests.

The simulator builds every precoder with one batched leakage-aware solve
(schemes._slnr_columns).  rzf_precoder, textbook per-cluster regularized
zero-forcing, and slnr_beamformer, the per-user closed-form
leakage-minimizing beamformer, are kept apart from it so that the tests,
acceptance criteria 4 and 5 among them, can check the production columns
against them.  Both return unit 2-norm beamformers; transmit power is
applied separately.

grid_search_optimum brute-forces the 3-stream sum-rate allocation that
power_alloc solves by projected gradient ascent.  reference_allocate is
that ascent in its plain one-halving-at-a-time form, at the same unit
noise and unit budget, with its projection (reference_project_power) and
restart scores (reference_restart_scores); restart_corners gives the rows
that restart and their corners, and ascent_path traces the allocator's
iterates from capped runs.  Both read power_alloc's _TOL and _MAX_ITERS
at call time, as the allocator does.
bootstrap_gain_stderr resamples paired trials to check the delta-method
error of harness.paired_gain.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

import satcoop.power_alloc as power_alloc
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


@functools.cache
def _simplex_lattice(steps: int) -> np.ndarray:
    """Every integer (i, j, k) >= 0 with i + j + k <= steps, (M, 3), in
    lexicographic order; read-only, as one array serves every call."""
    i, j = np.indices((steps + 1, steps + 1)).reshape(2, -1)
    keep = i + j <= steps
    i, j = i[keep], j[keep]
    counts = steps + 1 - i - j                  # the k = 0..steps-i-j per pair
    starts = np.cumsum(counts) - counts
    k = np.arange(counts.sum()) - np.repeat(starts, counts)
    lattice = np.stack([np.repeat(i, counts), np.repeat(j, counts), k], axis=1)
    lattice.flags.writeable = False
    return lattice


def grid_search_optimum(gains: np.ndarray, noise_w: float, p_total: float,
                        steps: int = 200) -> float:
    """Best sum rate over a grid of the 3-stream power simplex.

    Tries every p >= 0 with sum(p) <= p_total whose coordinates are
    multiples of p_total / steps; gains[j, l] is the power user l receives
    per unit of stream j.
    """
    pts = _simplex_lattice(steps) * (p_total / steps)
    received = pts @ gains
    signal = pts * np.diagonal(gains)
    rates = np.log2(1.0 + signal / (received - signal + noise_w))
    return rates.sum(axis=1).max()


# The allocator loop as it stood before row compaction, backtracking ladders
# and sub-table restart scores: one projection and one objective pass per
# halving over every undecided row, the gradient over the whole batch, and
# one _objective call per restart candidate.  power_alloc must reproduce it
# bit for bit.

def reference_project_power(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of stacked vectors onto {p >= 0, sum(p) <= 1}."""
    v = np.asarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    over = clipped.sum(axis=-1) > 1.0
    if not np.any(over):
        return clipped
    # Over-budget rows coincide with the projection onto the equality simplex.
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    ranks = np.arange(1, v.shape[-1] + 1, dtype=float)
    rho = np.count_nonzero(u * ranks > css, axis=-1)
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1)[..., 0] / rho
    simplex = np.maximum(v - theta[..., None], 0.0)
    return np.where(over[..., None], simplex, clipped)


def _reference_ascend(gains, p0, tol, max_iters):
    n_batch, k, _ = gains.shape
    p = p0.copy()
    f = _objective(gains, p)

    step = np.full(n_batch, np.nan)
    active = np.ones(n_batch, dtype=bool)
    converged = np.zeros(n_batch, dtype=bool)
    iterations = np.zeros(n_batch, dtype=int)
    last_rel = np.zeros(n_batch)

    for it in range(1, max_iters + 1):
        if not active.any():
            break
        grad = _gradient(gains, p)
        if np.isnan(step).any():
            scale = np.maximum(np.abs(grad).max(axis=-1), 1e-300)
            step = np.where(np.isnan(step), 1.0 / scale, step)

        t = step.copy()
        cand_p = p.copy()
        cand_f = f.copy()
        improved = np.zeros(n_batch, dtype=bool)
        undecided = active.copy()
        for _ in range(_MAX_HALVINGS):
            if not undecided.any():
                break
            idx = np.flatnonzero(undecided)
            q = reference_project_power(p[idx] + t[idx, None] * grad[idx])
            fq = _objective(gains[idx], q)
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


def reference_restart_scores(gains):
    """(B, C) sum rates of the restart candidates, one _objective call each,
    with the (C, K) candidate table."""
    n_batch, k, _ = gains.shape
    candidates = [np.eye(k)[j] for j in range(k)]
    candidates += [0.5 * (np.eye(k)[i] + np.eye(k)[j])
                   for i in range(k) for j in range(i + 1, k)]
    candidates = np.array(candidates)                       # (C, K)
    cand_f = np.stack(
        [_objective(gains, np.broadcast_to(c, (n_batch, k)))
         for c in candidates], axis=1)                      # (B, C)
    return cand_f, candidates


def restart_corners(gains, f):
    """The rows allocate_sumrate_batch restarts once their first ascents
    end at objectives f, and the corner each restarts from."""
    cand_f, candidates = reference_restart_scores(gains)
    margin = 1e-12 * np.maximum(1.0, np.abs(f))
    idx = np.flatnonzero(cand_f.max(axis=1) > f + margin)
    return idx, candidates[cand_f[idx].argmax(axis=1)]


def reference_allocate(gains):
    """power_alloc.allocate_sumrate_batch as the loop above solves it:
    (x, converged, iterations)."""
    gains = np.asarray(gains, dtype=float)
    n_batch, k, _ = gains.shape
    tol, max_iters = power_alloc._TOL, power_alloc._MAX_ITERS
    uniform = np.full((n_batch, k), 1.0 / k)
    p, f, converged, iterations = _reference_ascend(gains, uniform, tol,
                                                    max_iters)

    idx, starts = restart_corners(gains, f)
    if idx.size:
        p2, f2, conv2, it2 = _reference_ascend(gains[idx], starts, tol,
                                               max_iters)
        better = f2 > f[idx]
        win = idx[better]
        sub = np.flatnonzero(better)
        p[win] = p2[sub]
        converged[win] = conv2[sub]
        iterations[win] = it2[sub]
    return p, converged, iterations


def ascent_path(gains):
    """Objectives (M, B) and iterates (M, B, K) of the allocator's ascents.

    _ascend capped at max_iters = n returns exactly iterate n of a longer
    run, so iterate 0 at the start point and one run per n = 1..N on the
    whole stack (N the stack's largest iteration count) trace every row
    from the uniform split.  For the rows allocate_sumrate_batch restarts,
    the ascent from the restart corner (picked as reference_allocate picks
    it) follows; the other rows repeat their last point there.  A restart starts above where the first
    ascent ended, so each column must be nondecreasing, and its last
    iterate is the allocator's answer.
    """
    gains = np.asarray(gains, dtype=float)
    n_batch, k, _ = gains.shape
    uniform = np.full((n_batch, k), 1.0 / k)
    tol = power_alloc._TOL

    def path(g, start):
        n_max = int(_ascend(g, start, tol, power_alloc._MAX_ITERS)[3].max())
        runs = [_ascend(g, start, tol, n) for n in range(1, n_max + 1)]
        return (np.array([_objective(g, start)] + [run[1] for run in runs]),
                np.array([start] + [run[0] for run in runs]))

    f, p = path(gains, uniform)
    idx, starts = restart_corners(gains, f[-1])
    if idx.size:
        f2, p2 = path(gains[idx], starts)
        tail_f = np.repeat(f[-1:], len(f2), axis=0)
        tail_p = np.repeat(p[-1:], len(p2), axis=0)
        tail_f[:, idx], tail_p[:, idx] = f2, p2
        f, p = np.concatenate([f, tail_f]), np.concatenate([p, tail_p])
    return f, p


def bootstrap_gain_stderr(x, y, resamples, rng):
    """Bootstrap standard error of mean(x) / mean(y) - 1 over paired trials.

    x and y are (P, T) per-trial values of two schemes.  Each resample
    draws T trial indices with replacement and applies them to both
    schemes and every power, which keeps the pairing.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    picks = rng.integers(0, x.shape[-1], (resamples, x.shape[-1]))
    gains = np.stack([x[:, t].mean(axis=-1) / y[:, t].mean(axis=-1) - 1.0
                      for t in picks])
    return gains.std(axis=0, ddof=1)
