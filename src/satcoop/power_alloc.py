"""Sum-rate power allocation under a per-gateway sum-power budget.

Projected gradient ascent on {p >= 0, sum(p) <= P_T} with Armijo
backtracking, so the objective is nondecreasing at every accepted step.
allocate_sumrate_batch solves a stack of problems in lockstep; a trial
stacks all its per-gateway problems of one stream count into one call.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


def stream_rates(gains, noise, p):
    """log2(1 + in-set SINR) per stream; gains (..., K, K), p (..., K)."""
    received = np.einsum("...jl,...j->...l", gains, p)
    diag = np.diagonal(gains, axis1=-2, axis2=-1)
    signal = p * diag
    interference = received - signal
    return np.log2(1.0 + signal / (interference + noise))


def _objective(gains, noise, p):
    """Sum rate of stacked tables: stream_rates summed over streams."""
    return stream_rates(gains, noise, p).sum(axis=-1)


def _gradient(gains, noise, p):
    diag = np.diagonal(gains, axis1=-2, axis2=-1)
    received = np.einsum("...jl,...j->...l", gains, p)
    interf = received - p * diag + noise
    total = interf + p * diag
    delta = 1.0 / total - 1.0 / interf
    grad = diag / total + np.einsum("...jl,...l->...j", gains, delta) - diag * delta
    return grad / _LN2


def project_power(v: np.ndarray, p_total: float) -> np.ndarray:
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


def _ascend(gains: np.ndarray, noise_w: float, p_total: float, p0: np.ndarray,
            tol: float, max_iters: int, record_history: bool):
    """Projected gradient ascent from the given starting points.

    gains is (B, K, K), p0 (B, K).  Returns (p, f, converged, iterations,
    objective history (iters+1, B), iterate snapshots); both histories are
    None unless record_history.  Each
    accepted step satisfies an Armijo condition, so every element's
    objective history is nondecreasing.
    """
    n_batch, k, _ = gains.shape
    p = p0.copy()
    f = _objective(gains, noise_w, p)
    obj_history = [f.copy()] if record_history else None
    iter_history = [p.copy()] if record_history else None

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
            q = project_power(p[idx] + t[idx, None] * grad[idx], p_total)
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
        if record_history:
            obj_history.append(f.copy())
            iter_history.append(p.copy())

    # elements that ran out of iterations: flag only a clearly unsettled run
    converged |= last_rel <= 100.0 * tol
    if record_history:
        obj_history = np.array(obj_history)
    return p, f, converged, iterations, obj_history, iter_history


def allocate_sumrate_batch(gains: np.ndarray, noise_w: float, p_total: float,
                           tol: float = 1e-6, max_iters: int = 500,
                           record_history: bool = False):
    """Solve a stack of allocation problems sharing noise and budget.

    gains is (B, K, K).  Starts from the uniform split; where the best
    restart candidate (full power on one stream, or split over a pair) then
    scores above the stationary point found, the ascent restarts once from
    it (the landscape is multimodal when cross-gains are strong) and the
    better result per element is kept.  Rows never interact: each comes out
    exactly as when solved alone.
    Returns (p, converged, iterations, history, snapshots).  With
    record_history, history is the winning run's per-iteration objective
    array (iters+1, B) and snapshots its iterates; otherwise both are None.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    gains = np.asarray(gains, dtype=float)
    n_batch, k, _ = gains.shape
    uniform = np.full((n_batch, k), p_total / k)
    p, f, converged, iterations, obj_history, iter_history = _ascend(
        gains, noise_w, p_total, uniform, tol, max_iters, record_history)
    if record_history:
        iter_history = np.array(iter_history)   # (rows, B, K)

    # restart candidates: full power on one stream, or split over a pair
    candidates = [np.eye(k)[j] for j in range(k)]
    candidates += [0.5 * (np.eye(k)[i] + np.eye(k)[j])
                   for i in range(k) for j in range(i + 1, k)]
    candidates = p_total * np.array(candidates)             # (C, K)
    cand_f = np.stack(
        [_objective(gains, noise_w, np.broadcast_to(c, (n_batch, k)))
         for c in candidates], axis=1)                      # (B, C)

    # One restart round suffices: the candidate table is fixed, so a second
    # restart would start from the same corner and replay the same ascent.
    margin = 1e-12 * np.maximum(1.0, np.abs(f))
    idx = np.flatnonzero(cand_f.max(axis=1) > f + margin)
    if idx.size:
        starts = candidates[cand_f[idx].argmax(axis=1)]
        p2, f2, conv2, it2, hist2, snaps2 = _ascend(
            gains[idx], noise_w, p_total, starts, tol, max_iters,
            record_history)
        better = f2 > f[idx]
        win = idx[better]
        sub = np.flatnonzero(better)
        p[win] = p2[sub]
        converged[win] = conv2[sub]
        iterations[win] = it2[sub]
        # the reported record becomes the winning run's own (monotone) history,
        # padded at the tail with its final value
        if record_history and win.size:
            obj_history = _splice(obj_history, hist2, win, sub)
            iter_history = _splice(iter_history, np.array(snaps2), win, sub)
    if record_history:
        iter_history = list(iter_history)
    return p, converged, iterations, obj_history, iter_history


def _splice(base: np.ndarray, update: np.ndarray, cols, sub) -> np.ndarray:
    rows = max(base.shape[0], update.shape[0])
    merged = np.concatenate(
        [base] + [base[-1:]] * (rows - base.shape[0]), axis=0)
    for j, b in zip(sub, cols):
        merged[:update.shape[0], b] = update[:, j]
        merged[update.shape[0]:, b] = update[-1, j]
    return merged
