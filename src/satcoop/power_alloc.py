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
            tol: float, max_iters: int):
    """Projected gradient ascent from the given starting points.

    gains is (B, K, K), p0 (B, K).  Returns (p, f, converged, iterations).
    Each accepted step satisfies an Armijo condition, so every element's
    objective is nondecreasing from iteration to iteration.

    Only the rows still moving are worked on: the working set (suffix _w)
    is cut, and finished rows written back, in the iterations where some
    row finishes.  Backtracking goes in rounds of _LADDER trial steps
    t, t/2, ...: one projection and one objective pass, which broadcasts
    each row's gains table over its steps, try them all for every row in
    the round, a row takes its first step that decides (accepted, or no
    ascent left), and only the rows that none decides go on to the next
    round, from half the last step.  Halving is exact, so the iterates
    are those of halving one step at a time.
    """
    n_batch = gains.shape[0]
    p = p0.copy()
    f = _objective(gains, noise_w, p)
    converged = np.zeros(n_batch, dtype=bool)
    iterations = np.zeros(n_batch, dtype=int)

    work = np.arange(n_batch)
    gains_w, p_w, f_w = gains, p, f
    last_rel_w = np.zeros(n_batch)
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
        p_r, grad_r, f_r, gains_r, t_r = p_w, grad, f_w, gains_w, step_w
        for _ in range(_MAX_HALVINGS // _LADDER):
            # arrays are (row, step[, stream]): row r tries its steps together
            rows = np.arange(idx.size)
            ladder = t_r[:, None] * 0.5 ** np.arange(_LADDER)
            moved = p_r[:, None] + ladder[..., None] * grad_r[:, None]
            q = project_power(moved, p_total)
            fq = _objective(gains_r[:, None], noise_w, q)
            ascent = np.einsum("rj,rsj->rs", grad_r, q - p_r[:, None])
            ok = (ascent > 0) & (fq >= f_r[:, None] + _ARMIJO * ascent)
            decided = ok | (ascent <= 0)
            level = decided.argmax(axis=1)
            undecided = ~decided[rows, level]
            level[undecided] = _LADDER - 1
            acc = ok[rows, level]
            won = idx[acc]
            cand_p[won] = q[rows, level][acc]
            cand_f[won] = fq[rows, level][acc]
            improved[won] = True
            t_r = ladder[rows, level]
            t_r[undecided] *= 0.5
            t[idx] = t_r
            if not undecided.any():
                break
            idx, t_r = idx[undecided], t_r[undecided]
            p_r, grad_r, f_r = p_r[undecided], grad_r[undecided], f_r[undecided]
            gains_r = gains_r[undecided]
        # rows no step decided in _MAX_HALVINGS tries are numerically stationary

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

    # rows that ran out of iterations: flag only a clearly unsettled run
    p[work] = p_w
    f[work] = f_w
    iterations[work] = it
    converged[work] = last_rel_w <= 100.0 * tol
    return p, f, converged, iterations


def _restart_scores(gains: np.ndarray, noise_w: float, p_total: float):
    """Sum rate of every restart candidate, (B, C), and the (C, K) table of
    candidate powers, in candidate order.

    Candidate j < K puts all of p_total on stream j, the rest split it
    evenly over the pairs i < j in row-major order.  Each is scored by
    _objective on the sub-table of its powered streams: the streams left
    out add exact zeros, so this equals _objective at the candidate.
    """
    k = gains.shape[-1]
    i, j = np.triu_indices(k, 1)
    scores, candidates = [], []
    for streams in (np.arange(k)[:, None], np.stack([i, j], axis=1)):
        tables = gains[:, streams[:, :, None], streams[:, None, :]]  # (B, C, n, n)
        share = p_total / streams.shape[1]
        scores.append(_objective(tables, noise_w,
                                 np.full(tables.shape[:-1], share)))
        candidates.append(np.eye(k)[streams].sum(axis=1) * share)
    return np.concatenate(scores, axis=1), np.concatenate(candidates)


def allocate_sumrate_batch(gains: np.ndarray, noise_w: float, p_total: float,
                           tol: float = 1e-6, max_iters: int = 500):
    """Solve a stack of allocation problems sharing noise and budget.

    gains is (B, K, K).  Starts from the uniform split; where the best
    restart candidate (full power on one stream, or split over a pair) then
    scores above the stationary point found, the ascent restarts once from
    it (the landscape is multimodal when cross-gains are strong) and its
    result replaces the first: the restart starts above where the first
    ascent ended and never descends, so it always ends higher.  Rows never
    interact: each comes out exactly as when solved alone.
    Returns (p, converged, iterations, None, None): the benchmark's span
    tag (satbench/spans.py) unpacks five values, so the two trailing Nones
    stay until that unpacking changes.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    gains = np.asarray(gains, dtype=float)
    n_batch, k, _ = gains.shape
    uniform = np.full((n_batch, k), p_total / k)
    p, f, converged, iterations = _ascend(
        gains, noise_w, p_total, uniform, tol, max_iters)

    # One restart round suffices: the candidate table is fixed, so a second
    # restart would start from the same corner and replay the same ascent.
    cand_f, candidates = _restart_scores(gains, noise_w, p_total)
    margin = 1e-12 * np.maximum(1.0, np.abs(f))
    idx = np.flatnonzero(cand_f.max(axis=1) > f + margin)
    if idx.size:
        starts = candidates[cand_f[idx].argmax(axis=1)]
        p[idx], _, converged[idx], iterations[idx] = _ascend(
            gains[idx], noise_w, p_total, starts, tol, max_iters)
    # satbench/spans.py:_allocator_tag unpacks five values
    return p, converged, iterations, None, None
