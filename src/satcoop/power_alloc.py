"""Sum-rate power allocation at unit noise and a unit sum-power budget.

Projected gradient ascent on {p >= 0, sum(p) <= 1} with Armijo
backtracking, so the objective is nondecreasing at every accepted step.
schemes._run_precoded is the one place that scales a gateway's tables to
unit noise and budget, and maps the answer back.  allocate_sumrate_batch
solves a stack of problems in one lockstep loop, restarts included; a
trial stacks all its per-gateway problems of one stream count into one
call.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)
_ARMIJO = 1e-4
_MAX_HALVINGS = 60  # trial steps per iteration at most, a multiple of _LADDER
_LADDER = 4        # backtracking steps tried together per round
_HALVES = 0.5 ** np.arange(_LADDER)   # a round's steps over its first
_TOL = 1e-6        # relative objective gain under which an ascent stops
_MAX_ITERS = 500   # iterations per ascent at most


def stream_rates(gains, p, diag=None):
    """log2(1 + in-set SINR) per stream at unit noise; gains (..., K, K),
    p (..., K).

    diag, when given, is the diagonal of gains (the direct gains)."""
    received = np.einsum("...jl,...j->...l", gains, p)
    if diag is None:
        diag = np.diagonal(gains, axis1=-2, axis2=-1)
    signal = p * diag
    interference = received - signal
    return np.log2(1.0 + signal / (interference + 1.0))


def _objective(gains, p, diag=None):
    """Sum rate of stacked tables: stream_rates summed over streams."""
    return stream_rates(gains, p, diag).sum(axis=-1)


def _gradient(gains, p, diag=None):
    if diag is None:
        diag = np.diagonal(gains, axis1=-2, axis2=-1)
    received = np.einsum("...jl,...j->...l", gains, p)
    signal = p * diag
    interf = received - signal + 1.0
    total = interf + signal
    delta = 1.0 / total - 1.0 / interf
    grad = diag / total + np.einsum("...jl,...l->...j", gains, delta) - diag * delta
    return grad / _LN2


def project_power(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of stacked vectors onto {p >= 0, sum(p) <= 1}."""
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1])
    clipped = np.maximum(rows, 0.0)
    over = clipped.sum(axis=-1) > 1.0
    # over-budget rows coincide with the projection onto the equality
    # simplex; only they are sorted, and gathered only when some row is
    # under budget
    every = over.all()
    if not every and not over.any():
        return clipped.reshape(v.shape)
    w = rows if every else rows[over]
    u = np.sort(w, axis=-1)[:, ::-1]
    css = u.cumsum(axis=-1) - 1.0
    ranks = np.arange(1, v.shape[-1] + 1, dtype=float)
    rho = (u * ranks > css).sum(axis=-1)
    theta = css[np.arange(len(w)), rho - 1] / rho
    simplex = np.maximum(w - theta[:, None], 0.0)
    if every:
        return simplex.reshape(v.shape)
    clipped[over] = simplex
    return clipped.reshape(v.shape)


def _try_steps(gains, diag, p, grad, f, step, base):
    """One backtracking round: every row tries its _LADDER steps step,
    step/2, ... together, in one projection and one objective pass.

    Returns the row's deciding step (the first accepted, or the first with
    no ascent left; half the last step where none decides), whether it was
    accepted, which rows none decided (None if every row is decided), and
    the point and objective at the deciding step (of no use where none
    decides, as none was accepted).  base is
    np.arange(0, _LADDER * rows, _LADDER), each row's first flat index
    into the (row, step) arrays.
    """
    # arrays are (row, step[, stream]): row r tries its steps together
    ladder = step[:, None] * _HALVES
    q = project_power(p[:, None] + ladder[..., None] * grad[:, None])
    fq = _objective(gains[:, None], q, diag[:, None])
    ascent = np.einsum("rj,rsj->rs", grad, q - p[:, None])
    ok = (ascent > 0) & (fq >= f[:, None] + _ARMIJO * ascent)
    decided = ok | (ascent <= 0)
    pick = base + decided.argmax(axis=1)
    undecided = ~decided.take(pick)
    t = ladder.take(pick)
    if undecided.any():
        t[undecided] = ladder[undecided, -1] * 0.5
    else:
        undecided = None
    return (t, ok.take(pick), undecided,
            q.reshape(-1, q.shape[-1]).take(pick, axis=0), fq.take(pick))


def _ascend(gains: np.ndarray, p0: np.ndarray, tol: float, max_iters: int,
            restarts=None):
    """Projected gradient ascent from the given starting points.

    gains is (B, K, K), p0 (B, K), max_iters >= 1.  Returns (p, f,
    converged, iterations).
    Each accepted step satisfies an Armijo condition, so every element's
    objective is nondecreasing from iteration to iteration.

    restarts, when given, is _restart_scores' (scores, candidates).  A row
    whose ascent ends, converged or at max_iters, with its best candidate
    scoring above its objective (by a margin of 1e-12 relative) rejoins
    the working set once, at that candidate: it counts its iterations and
    sizes its first step afresh, has its own max_iters, and what it
    returns is the second ascent's.  Without restarts this is the plain
    capped ascent: capped at n iterations it returns exactly iterate n of
    a longer run.

    Only the rows still moving are worked on: the working set (suffix _w)
    is cut, and finished rows written back, in the iterations where some
    row finishes.  Backtracking goes in rounds of _try_steps: the first
    round takes every working row, and only the rows that no step decides
    go on to the next round, from half the last step.  Halving is exact,
    so the iterates are those of halving one step at a time.
    """
    n_batch = gains.shape[0]
    diag = np.diagonal(gains, axis1=-2, axis2=-1)
    p = p0.copy()
    f = _objective(gains, p, diag)
    converged = np.zeros(n_batch, dtype=bool)
    iterations = np.zeros(n_batch, dtype=int)
    if restarts is not None:
        scores, candidates = restarts
        best, corner = scores.max(axis=1), scores.argmax(axis=1)
    # the lockstep iteration before each row's current ascent began
    begun = np.zeros(n_batch, dtype=int)

    work = np.arange(n_batch)
    base = _LADDER * work
    gains_w, diag_w, p_w, f_w = gains, diag, p, f
    fresh = True   # some working row is about to take its first step
    it = 0
    while work.size:
        it += 1
        grad = _gradient(gains_w, p_w, diag_w)
        if fresh:
            # a row starting an ascent (NaN step) sizes it from its gradient
            first = 1.0 / np.maximum(np.abs(grad).max(axis=-1), 1e-300)
            step_w = first if it == 1 else np.where(np.isnan(step_w), first,
                                                    step_w)
            fresh = False

        t, improved, undecided, q, fq = _try_steps(
            gains_w, diag_w, p_w, grad, f_w, step_w, base)
        cand_p = np.where(improved[:, None], q, p_w)
        cand_f = np.where(improved, fq, f_w)
        # the rows a round leaves undecided go on to the next, from half
        # its last step; idx holds their working-set indices
        idx = None if undecided is None else np.flatnonzero(undecided)
        for _ in range(_MAX_HALVINGS // _LADDER - 1):
            if idx is None:
                break
            t_r, acc, undecided, q, fq = _try_steps(
                gains_w[idx], diag_w[idx], p_w[idx], grad[idx], f_w[idx],
                t[idx], np.arange(0, _LADDER * idx.size, _LADDER))
            won = idx[acc]
            cand_p[won], cand_f[won] = q[acc], fq[acc]
            improved[won] = True
            t[idx] = t_r
            idx = None if undecided is None else idx[undecided]
        # rows no step decided in _MAX_HALVINGS tries are numerically stationary

        rel = (cand_f - f_w) / np.maximum(np.abs(f_w), 1e-300)
        done = ~improved | (rel < tol)
        p_w, f_w, step_w = cand_p, cand_f, 2.0 * t
        settled = None
        if it >= max_iters:
            # rows at their cap improved in their last iteration by rel:
            # flag only a clearly unsettled run
            settled = done | (rel <= 100.0 * tol)
            done |= it - begun[work] >= max_iters
        if not done.any():
            continue
        fin, f_fin = work[done], f_w[done]
        if restarts is not None:
            again = best[fin] > f_fin + 1e-12 * np.maximum(1.0, np.abs(f_fin))
            if again.any():
                back = np.flatnonzero(done)[again]
                fin, f_fin = fin[~again], f_fin[~again]
                rejoin = work[back]
                # a candidate's score is _objective at it, bit for bit
                p_w[back] = candidates[corner[rejoin]]
                f_w[back] = best[rejoin]
                step_w[back] = np.nan
                begun[rejoin] = it
                best[rejoin] = -np.inf    # one restart per row
                done[back] = False
                fresh = True
        p[fin], f[fin] = p_w[done], f_fin
        converged[fin] = True if settled is None else settled[done]
        iterations[fin] = it - begun[fin]
        keep = ~done
        work = work[keep]
        base = np.arange(0, _LADDER * work.size, _LADDER)
        gains_w, diag_w = gains_w[keep], diag_w[keep]
        p_w, f_w, step_w = p_w[keep], f_w[keep], step_w[keep]
    return p, f, converged, iterations


def _restart_scores(gains: np.ndarray):
    """Sum rate of every restart candidate, (B, C), and the (C, K) table of
    candidate powers, in candidate order.

    Candidate j < K puts the whole budget on stream j, the rest split it
    evenly over the pairs i < j in row-major order.  Each is scored by
    _objective on the sub-table of its powered streams: the streams left
    out add exact zeros, so this equals _objective at the candidate.
    """
    k = gains.shape[-1]
    i, j = np.triu_indices(k, 1)
    scores, candidates = [], []
    for streams in (np.arange(k)[:, None], np.stack([i, j], axis=1)):
        tables = gains[:, streams[:, :, None], streams[:, None, :]]  # (B, C, n, n)
        share = 1.0 / streams.shape[1]
        scores.append(_objective(tables, np.full(tables.shape[:-1], share)))
        candidates.append(np.eye(k)[streams].sum(axis=1) * share)
    return np.concatenate(scores, axis=1), np.concatenate(candidates)


def allocate_sumrate_batch(gains: np.ndarray):
    """Solve a stack of allocation problems at unit noise and unit budget.

    gains is a (B, K, K) stack of finite, nonnegative tables, each already
    scaled to G*P_T/N (ValueError otherwise).  Every row starts from the
    uniform split.  A row whose ascent ends below its best restart
    candidate (full power on one stream, or split over a pair) restarts
    once from it, since the landscape is multimodal when cross-gains are
    strong: it rejoins the same lockstep loop while the other rows go on
    (see _ascend), and its second ascent's result is the row's.  The
    restart starts above where the first ascent ended and never descends,
    so it always ends higher.  Rows never interact: each comes out exactly
    as when solved alone.  Each ascent stops at a relative gain below _TOL
    or after _MAX_ITERS iterations, both read at call time.
    Returns (x, converged, iterations, None, None), x the powers as
    fractions of the budget: the benchmark's span tag (satbench/spans.py)
    unpacks five values, so the two trailing Nones stay until that
    unpacking changes.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 3 or gains.shape[1] != gains.shape[2] or not gains.shape[1]:
        raise ValueError(f"gains must be a (B, K, K) stack with K >= 1, "
                         f"got shape {gains.shape}")
    if not ((gains >= 0.0) & (gains < math.inf)).all():
        raise ValueError("gains must be finite and nonnegative")
    n_batch, k, _ = gains.shape
    uniform = np.full((n_batch, k), 1.0 / k)
    x, _, converged, iterations = _ascend(gains, uniform, _TOL, _MAX_ITERS,
                                          _restart_scores(gains))
    # satbench/spans.py:_allocator_tag unpacks five values
    return x, converged, iterations, None, None
