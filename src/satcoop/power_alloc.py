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
_MAX_HALVINGS = 60  # trial steps per iteration at most, a multiple of _LADDER
_LADDER = 4        # backtracking steps tried together per round


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
    rows = v.reshape(-1, v.shape[-1])
    clipped = np.maximum(rows, 0.0)
    over = np.flatnonzero(clipped.sum(axis=-1) > p_total)
    if over.size:
        # over-budget rows coincide with the projection onto the equality
        # simplex; only they are sorted
        w = rows[over]
        u = np.sort(w, axis=-1)[:, ::-1]
        css = np.cumsum(u, axis=-1) - p_total
        ranks = np.arange(1, v.shape[-1] + 1, dtype=float)
        rho = np.count_nonzero(u * ranks > css, axis=-1)
        theta = css[np.arange(over.size), rho - 1] / rho
        clipped[over] = np.maximum(w - theta[:, None], 0.0)
    return clipped.reshape(v.shape)


def _ascend(gains: np.ndarray, noise_w: float, p_total: float, p0: np.ndarray,
            tol: float, max_iters: int, record_history: bool):
    """Projected gradient ascent from the given starting points.

    gains is (B, K, K), p0 (B, K).  Returns (p, f, converged, iterations,
    objective history (iters+1, B), iterate snapshots); both histories are
    None unless record_history.  Each
    accepted step satisfies an Armijo condition, so every element's
    objective history is nondecreasing.

    Only the rows still moving are worked on: the working set (suffix _w)
    is cut, and finished rows written back, in the iterations where some
    row finishes.  Backtracking goes in rounds of _LADDER trial steps
    t, t/2, ...: one projection and one objective pass try them all for
    every row in the round, a row takes its first step that decides
    (accepted, or no ascent left), and only the rows that none decides go
    on to the next round, from half the last step.  Halving is exact, so
    the iterates are those of halving one step at a time.
    """
    n_batch, k, _ = gains.shape
    p = p0.copy()
    f = _objective(gains, noise_w, p)
    obj_history = [f.copy()] if record_history else None
    iter_history = [p.copy()] if record_history else None
    converged = np.zeros(n_batch, dtype=bool)
    iterations = np.zeros(n_batch, dtype=int)

    work = np.arange(n_batch)
    gains_w, p_w, f_w = gains, p, f
    gains_l = np.repeat(gains, _LADDER, axis=0)          # (B * _LADDER, K, K)
    last_rel_w = np.zeros(n_batch)
    halvings = np.empty((n_batch, _LADDER))
    halvings[:, 1:] = 0.5
    it = 0
    while work.size and it < max_iters:
        it += 1
        n_work = work.size
        grad = _gradient(gains_w, noise_w, p_w)
        if it == 1:
            step_w = p_total / np.maximum(np.abs(grad).max(axis=-1), 1e-300)

        cand_p, cand_f = p_w.copy(), f_w.copy()
        improved = np.zeros(n_work, dtype=bool)
        t = np.empty(n_work)
        # the rows of a round (suffix _r), and their working-set indices
        idx = np.arange(n_work)
        p_r, grad_r, f_r, gains_r, t_r = p_w, grad, f_w, gains_l, step_w
        for _ in range(_MAX_HALVINGS // _LADDER):
            # row r's trial step at level j sits in row r*_LADDER + j
            n = idx.size
            halvings[:n, 0] = t_r
            ladder = np.multiply.accumulate(halvings[:n], axis=1)
            p_l = np.repeat(p_r, _LADDER, axis=0)
            grad_l = np.repeat(grad_r, _LADDER, axis=0)
            q = project_power(p_l + ladder.reshape(-1, 1) * grad_l, p_total)
            fq = _objective(gains_r, noise_w, q)
            ascent = np.einsum("ij,ij->i", grad_l, q - p_l)
            ok = (ascent > 0) & (fq >= np.repeat(f_r, _LADDER) + _ARMIJO * ascent)
            decided = (ok | (ascent <= 0)).reshape(n, _LADDER)
            rows = np.arange(n)
            level = decided.argmax(axis=1)
            undecided = ~decided[rows, level]
            level[undecided] = _LADDER - 1
            pick = rows * _LADDER + level
            acc = ok[pick]
            won, take = idx[acc], pick[acc]
            cand_p[won] = q[take]
            cand_f[won] = fq[take]
            improved[won] = True
            t_r = ladder[rows, level]
            t_r[undecided] *= 0.5
            t[idx] = t_r
            if not undecided.any():
                break
            idx, t_r = idx[undecided], t_r[undecided]
            p_r, grad_r, f_r = p_r[undecided], grad_r[undecided], f_r[undecided]
            gains_r = gains_r.reshape(n, _LADDER, k, k)[undecided].reshape(
                -1, k, k)
        # anything still undecided after all halvings is numerically stationary

        rel = (cand_f - f_w) / np.maximum(np.abs(f_w), 1e-300)
        last_rel_w = np.where(improved, rel, last_rel_w)
        done = ~improved | (rel < tol)
        p_w, f_w, step_w = cand_p, cand_f, 2.0 * t
        if done.any():
            fin = work[done]
            p[fin] = p_w[done]
            f[fin] = f_w[done]
            converged[fin] = True
            iterations[fin] = it
            keep = ~done
            work = work[keep]
            p_w, f_w, step_w = p_w[keep], f_w[keep], step_w[keep]
            last_rel_w = last_rel_w[keep]
            gains_w = gains_w[keep]
            gains_l = gains_l.reshape(n_work, _LADDER, k, k)[keep].reshape(
                -1, k, k)
        if record_history:
            p[work] = p_w
            f[work] = f_w
            obj_history.append(f.copy())
            iter_history.append(p.copy())

    # rows that ran out of iterations: flag only a clearly unsettled run
    p[work] = p_w
    f[work] = f_w
    iterations[work] = it
    converged[work] = last_rel_w <= 100.0 * tol
    if record_history:
        obj_history = np.array(obj_history)
    return p, f, converged, iterations, obj_history, iter_history


def _restart_scores(gains: np.ndarray, noise_w: float, p_total: float):
    """Sum rate of every restart candidate, (B, C), in candidate order.

    Candidate j < K puts all of p_total on stream j, the rest split it
    evenly over the pairs i < j in row-major order.  Each is scored by
    _objective on the sub-table of its powered streams: the streams left
    out add exact zeros, so this equals _objective at the candidate.
    """
    k = gains.shape[-1]
    i, j = np.triu_indices(k, 1)
    scores = []
    for streams in (np.arange(k)[:, None], np.stack([i, j], axis=1)):
        sub = gains[:, streams[:, :, None], streams[:, None, :]]   # (B, C, n, n)
        p = np.full(sub.shape[:-1], p_total / streams.shape[1])
        scores.append(_objective(sub, noise_w, p))
    return np.concatenate(scores, axis=1)


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

    # One restart round suffices: the candidate table is fixed, so a second
    # restart would start from the same corner and replay the same ascent.
    cand_f = _restart_scores(gains, noise_w, p_total)       # (B, C)
    margin = 1e-12 * np.maximum(1.0, np.abs(f))
    idx = np.flatnonzero(cand_f.max(axis=1) > f + margin)
    if idx.size:
        # candidate rows in the order of _restart_scores
        eye = np.eye(k)
        i, j = np.triu_indices(k, 1)
        candidates = np.concatenate([eye, 0.5 * (eye[i] + eye[j])])
        starts = p_total * candidates[cand_f[idx].argmax(axis=1)]
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
