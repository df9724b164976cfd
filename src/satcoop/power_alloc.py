"""Sum-rate power allocation at unit noise and a unit sum-power budget.

Projected gradient ascent on {p >= 0, sum(p) <= 1} with Armijo
backtracking, so the objective is nondecreasing at every accepted step.
schemes._allocate is the one place that scales a gateway's tables to unit
noise and budget, and maps the answer back.  allocate_sumrate_batch
solves a stack of problems in one loop of backtracking passes over the
rows still moving, and the rows that restart in a second; a trial pads
all its per-gateway problems with zero streams to one width and solves
them in one call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_LN2 = math.log(2.0)
_ARMIJO = 1e-4
_MAX_HALVINGS = 60  # trial steps per iteration at most, a multiple of 2
# a pass's two steps over its first, as a column: a pass's arrays are
# (step, row[, stream])
_HALVES = (0.5 ** np.arange(2))[:, None]
_TOL = 1e-6        # relative objective gain under which an ascent stops
_MAX_ITERS = 500   # iterations per ascent at most


def _terms(gains, p, diag):
    """Signal and interference plus unit noise per stream at powers p."""
    interf = (p[..., None, :] @ gains)[..., 0, :]
    signal = p * diag
    interf -= signal
    interf += 1.0
    return signal, interf


def _rates(signal, interf):
    rates = signal / interf
    rates += 1.0
    return np.log2(rates, out=rates)


def stream_rates(gains, p):
    """log2(1 + in-set SINR) per stream at unit noise; gains (..., K, K),
    p (..., K)."""
    return _rates(*_terms(gains, p, np.diagonal(gains, axis1=-2, axis2=-1)))


def _gradient_at(gains, diag, signal, interf):
    """The gradient of the sum rate at a point, from its _terms in place of
    the point: (diag/total + gains @ delta - diag*delta) / ln 2, total the
    received power plus noise and delta = 1/total - 1/interf."""
    total = interf + signal
    delta = 1.0 / total
    delta -= 1.0 / interf
    grad = diag / total
    grad += np.einsum("...jl,...l->...j", gains, delta)
    delta *= diag
    grad -= delta
    grad /= _LN2
    return grad


@functools.cache
def _ranks(k: int):
    """1..k and k ones as floats, read-only: one pair serves every
    projection of k-vectors."""
    ranks, ones = np.arange(1.0, k + 1.0), np.ones(k)
    ranks.flags.writeable = ones.flags.writeable = False
    return ranks, ones


def project_power(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of stacked vectors onto {p >= 0, sum(p) <= 1}.

    Every row takes the sort-based rule of Duchi, Shalev-Shwartz, Singer
    and Chandra (ICML 2008) for the equality simplex: with u the row in
    descending order and c_j = u_1 + ... + u_j - 1, rho counts the j with
    j*u_j > c_j and theta = c_rho / rho, which a row within budget (its
    clipped sum at most 1) replaces by 0, so it is only clipped.  Sorting
    -v ascending gives -u on contiguous rows, and the rule runs on -u and
    -c as they come: negation is exact, so every value is the negative of
    the descending form's, bit for bit.  rho is a dot product with ones,
    exact in floats at any k.
    """
    v = np.asarray(v, dtype=float)
    k = v.shape[-1]
    rows = v.reshape(-1, k)
    over = np.add.reduce(np.maximum(rows, 0.0), axis=-1) > 1.0
    ranks, ones = _ranks(k)
    neg_u = -rows
    neg_u.sort()
    neg_c = np.add.accumulate(neg_u, axis=-1)
    neg_c += 1.0
    rho = (neg_u * ranks < neg_c).dot(ones)
    last = np.arange(-1, rows.size - 1, k) + rho.astype(np.intp)
    neg_theta = neg_c.take(last)
    neg_theta /= rho
    # a row within budget takes theta = 0: it is only clipped
    neg_theta *= over
    out = neg_theta.repeat(k).reshape(rows.shape)
    out += rows
    np.maximum(out, 0.0, out=out)
    return out.reshape(v.shape)


def _try_steps(gains, diag, p, grad, f, step, rows):
    """One backtracking pass: every row tries its steps step * _HALVES
    (step and step/2) together, in one projection and one objective pass.
    Returns the next step (twice the deciding step, the first accepted or
    the first with no ascent left; half the last step where none decides),
    whether it was accepted, which rows none decided (None if every row is
    decided), and the point, objective and gradient at the deciding step
    (of no use where none was accepted).  rows is np.arange(len(p)).
    """
    # arrays are (step, row[, stream]): the rows take their s-th steps
    # together, and a row's vectors broadcast along the leading axis
    ladder = _HALVES * step
    point = ladder[..., None] * grad
    point += p
    q = project_power(point)
    signal, interf = _terms(gains, q, diag)
    fq = np.add.reduce(_rates(signal, interf), axis=-1)
    ascent = np.einsum("rj,srj->sr", grad, q - p)
    ok = _ARMIJO * ascent
    ok += f
    ok = fq >= ok
    ok &= ascent > 0
    decided = ascent <= 0
    decided |= ok
    # flat (step, row) index of each row's first deciding step
    pick = decided.argmax(axis=0)
    pick *= len(rows)
    pick += rows
    t = ladder.take(pick)
    t *= 2.0
    undecided = decided.take(pick)
    if np.count_nonzero(undecided) < len(rows):
        undecided = ~undecided
        t[undecided] = ladder[-1, undecided] * 0.5
    else:
        undecided = None
    q, signal, interf = (a.reshape(-1, q.shape[-1]).take(pick, axis=0)
                         for a in (q, signal, interf))
    return (t, ok.take(pick), undecided, fq.take(pick), q,
            _gradient_at(gains, diag, signal, interf))


def _ascend(gains: np.ndarray, p0: np.ndarray, max_iters: int):
    """Projected gradient ascent from the given starting points.

    gains is (B, K, K), p0 (B, K), max_iters >= 1; a row stops at a
    relative gain below _TOL or after max_iters iterations.  Returns (p, f,
    converged, iterations).  Each accepted step satisfies an Armijo
    condition, so every element's objective is nondecreasing from
    iteration to iteration, and a run capped at n iterations returns
    exactly iterate n of a longer run.

    Each pass of the loop is one _try_steps over the working set (suffix
    _w), the rows still moving, cut in the passes where some row finishes.
    A row that no step decides is carried: it keeps its point, objective
    and gradient, and tries its next steps from half its last one in the
    next pass, beside the other rows' next iterations.  Halving is exact,
    so the iterates are those of halving one step at a time.
    """
    n_batch = gains.shape[0]
    # contiguous, as every pass reads it
    diag = np.diagonal(gains, axis1=-2, axis2=-1).copy()
    p = p0.copy()
    signal, interf = _terms(gains, p, diag)
    f = _rates(signal, interf).sum(axis=-1)
    grad_w = _gradient_at(gains, diag, signal, interf)
    step_w = 1.0 / np.maximum(np.abs(grad_w).max(axis=-1), 1e-300)
    converged, iterations = np.zeros(n_batch, bool), np.zeros(n_batch, int)
    # the ordinals _try_steps takes for n rows are ordinals[:n]
    ordinals = np.arange(n_batch)

    work, gains_w, diag_w, p_w, f_w = ordinals, gains, diag, p, f
    # a working row's steps tried in its current iteration, and the passes
    # that carried it: its iterations are passes - held_w
    tried_w, held_w = np.zeros((2, n_batch), dtype=int)
    passes = 0
    while work.size:
        passes += 1
        t, improved, undecided, fq, q, grad = _try_steps(
            gains_w, diag_w, p_w, grad_w, f_w, step_w, ordinals[:work.size])
        # a row no step improved keeps its point, objective and gradient: a
        # carried row goes on from them, any other finishes at them
        if np.count_nonzero(improved) < work.size:
            np.copyto(fq, f_w, where=~improved)
            # a full mask, as a broadcast one copies several times slower
            kept = (~improved).repeat(q.shape[-1]).reshape(q.shape)
            np.copyto(q, p_w, where=kept)
            np.copyto(grad, grad_w, where=kept)
        # such a row has rel exactly 0, under _TOL; objectives are sums of
        # log2(1 + x), x >= 0, so never negative
        rel = fq - f_w
        rel /= np.maximum(f_w, 1e-300)
        done = rel < _TOL
        if undecided is None:
            tried_w[:] = 0
        else:
            tried_w += len(_HALVES)
            tried_w *= undecided
            # a row no step decided in _MAX_HALVINGS tries is numerically
            # stationary, and finishes as one no step improved
            undecided &= tried_w < _MAX_HALVINGS
            done[undecided] = False
            held_w += undecided
        p_w, f_w, grad_w, step_w = q, fq, grad, t
        if passes >= max_iters:
            done |= passes - held_w >= max_iters
        if not np.count_nonzero(done):
            continue
        gone = done.nonzero()[0]
        fin = work.take(gone)
        p[fin], f[fin] = p_w.take(gone, axis=0), f_w.take(gone)
        # a row that stops early has rel < _TOL; one at its cap improved in
        # its last iteration by rel: flag only a clearly unsettled run
        converged[fin] = rel.take(gone) <= 100.0 * _TOL
        iterations[fin] = passes - held_w.take(gone)
        keep = (~done).nonzero()[0]
        work, gains_w, diag_w, p_w, f_w, grad_w, step_w, tried_w, held_w = (
            a.take(keep, axis=0) for a in (work, gains_w, diag_w, p_w, f_w,
                                           grad_w, step_w, tried_w, held_w))
    return p, f, converged, iterations


def _restart_scores(gains: np.ndarray):
    """Sum rate of every restart candidate, (B, C), and the (C, K) table of
    candidate powers, in candidate order.

    Candidate j < K puts the whole budget on stream j, the rest split it
    evenly over the pairs i < j in row-major order.  The streams a
    candidate leaves out add exact zeros to the sum rate at it, so each
    score is computed in closed form from the powered streams alone, bit
    for bit equal to the sum rate: log2(1 + g_jj) for stream j, and for a
    pair the rates of its 2x2 sub-table at powers 1/2, term by term as
    _terms and _rates compute them.
    """
    k = gains.shape[-1]
    i, j = np.triu_indices(k, 1)
    diag = np.diagonal(gains, axis1=-2, axis2=-1)
    own_i, own_j = diag[:, i], diag[:, j]
    signal_i, signal_j = 0.5 * own_i, 0.5 * own_j
    pairs = (_rates(signal_i, 0.5 * own_i + 0.5 * gains[:, j, i]
                    - signal_i + 1.0)
             + _rates(signal_j, 0.5 * gains[:, i, j] + 0.5 * own_j
                      - signal_j + 1.0))
    eye = np.eye(k)
    return (np.concatenate([np.log2(1.0 + diag), pairs], axis=1),
            np.concatenate([eye, 0.5 * (eye[i] + eye[j])]))


def _restarts(gains: np.ndarray, f: np.ndarray):
    """The rows whose ascents ended at objectives f below their best restart
    candidate by more than 1e-12 relative, and the candidate each restarts
    from, the first best in candidate order.

    Only rows that could restart are scored.  A pair candidate's rate on
    each of its streams is at most that stream's interference-free rate
    at power 1/2, as its interference is at least the unit noise, so no
    candidate beats the larger of the best single-stream score and the
    sum of the two largest log2(1 + g_jj/2).  Every step of that bound is
    a rounded monotone operation on the score's own terms, and a 1e-9
    relative margin covers a log2 off by a few ulps: a row whose f clears
    the bound cannot restart, and the rows scored are decided exactly as
    when every row is.
    """
    diag = np.diagonal(gains, axis1=-2, axis2=-1)
    half = np.log2(1.0 + 0.5 * diag)
    half.sort(axis=1)
    bound = np.maximum(np.log2(1.0 + diag).max(axis=1),
                       half[:, -2:].sum(axis=1))
    level = f + 1e-12 * np.maximum(1.0, f)
    rows = np.flatnonzero(bound * (1.0 + 1e-9) > level)
    scores, candidates = _restart_scores(gains[rows])
    again = np.flatnonzero(scores.max(axis=1) > level[rows])
    return rows[again], candidates[scores[again].argmax(axis=1)]


def allocate_sumrate_batch(gains: np.ndarray, streams: np.ndarray):
    """Solve a stack of allocation problems at unit noise and unit budget.

    gains is a (B, K, K) stack of finite, nonnegative tables, each already
    scaled to G*P_T/N, and streams (B,) the count s of each row's leading
    live streams, 1 <= s <= K: a row's table is zero outside its leading
    s x s block (ValueError otherwise), so rows of different stream counts
    share one stack.  Every row starts from the uniform split over its live
    streams, and all rows ascend in one _ascend call, whose passes mix
    rows at different iterations.  A row whose ascent ends below its best
    restart candidate (full power on one stream, or split over a pair of
    them) by a margin of 1e-12 relative restarts once from it, since the
    landscape is multimodal when cross-gains are strong: the restarted
    rows make a second _ascend call, and its result is theirs.  The
    restart starts above where the first ascent ended and never descends,
    so it always ends higher.  A padded stream has no gain and no
    gradient, so it stays at exactly zero power, and a candidate that
    powers one is never the best: it scores 0, or log2(1 + g_ii/2) when
    paired with live stream i, below live stream i's own log2(1 + g_ii),
    which comes earlier in candidate order.  Only rows that could restart
    are scored (_restarts), and the rows that restart and their candidates
    are exactly those of scoring every row.  Rows never interact: each
    comes out exactly as when solved alone.  Each ascent stops at a
    relative gain below _TOL or after _MAX_ITERS iterations, both read at
    call time.  Returns (x, converged, iterations, None, None), x the
    powers as fractions of the budget: the benchmark's span tag
    (satbench/spans.py) unpacks five values.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 3 or gains.shape[1] != gains.shape[2] or not gains.shape[1]:
        raise ValueError(f"gains must be a (B, K, K) stack with K >= 1, "
                         f"got shape {gains.shape}")
    if not ((gains >= 0.0) & (gains < math.inf)).all():
        raise ValueError("gains must be finite and nonnegative")
    n_batch, k, _ = gains.shape
    streams = np.asarray(streams)
    if streams.shape != (n_batch,) or streams.dtype.kind not in "iu":
        raise ValueError(f"streams must be a ({n_batch},) integer array, got "
                         f"{streams.dtype} of shape {streams.shape}")
    if np.any((streams < 1) | (streams > k)):
        raise ValueError(f"stream counts must lie in 1..{k}")
    live = np.arange(k) < streams[:, None]
    if np.any(gains[~(live[:, :, None] & live[:, None, :])]):
        raise ValueError("gains must be zero outside each row's leading "
                         "streams x streams block")
    x, f, converged, iterations = _ascend(gains, live / streams[:, None],
                                          _MAX_ITERS)
    again, starts = _restarts(gains, f)
    if again.size:
        x[again], _, converged[again], iterations[again] = _ascend(
            gains[again], starts, _MAX_ITERS)
    return x, converged, iterations, None, None
