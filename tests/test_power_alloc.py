import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satcoop.power_alloc as power_alloc
import satcoop.schemes as schemes_module
from oracles import (ascent_path, gradient, objective, reference_allocate,
                     reference_passes, reference_project_power,
                     reference_restart_scores, restart_corners, uniform_start)
from satcoop.channel import LinkBudget
from satcoop.harness import SimConfig, run_trial
from satcoop.power_alloc import (_restart_scores, allocate_sumrate_batch,
                                 project_power)


def random_table(rng, k=3):
    gains = rng.exponential(1.0, size=(k, k))
    gains[np.diag_indices(k)] += rng.exponential(2.0, size=k)
    return gains


def full(stack):
    """The stream counts of a stack with no padded streams."""
    return np.full(len(stack), stack.shape[-1])


def padded(stack, streams):
    """stack with every entry outside row r's leading streams[r] x
    streams[r] block set to zero."""
    live = np.arange(stack.shape[-1]) < streams[:, None]
    return stack * (live[:, :, None] & live[:, None, :])


def solve(gains):
    """One problem as a batch of one: (x, converged, iterations) of its
    only row."""
    x, conv, iters, _, _ = allocate_sumrate_batch(gains[None], [len(gains)])
    return x[0], bool(conv[0]), int(iters[0])


def cutoff_stack():
    """64 six-stream rows whose entries span nine decades, so first steps
    overshoot by many halvings."""
    rng = np.random.default_rng(0)
    return 10.0 ** rng.uniform(-3.0, 6.0, size=(64, 6, 6))


def trial_batch(topology, schemes, m, trial):
    """The one (gains, streams) batch run_schemes hands the allocator in a
    real trial of master seed 1."""
    batches = []

    def capture(gains, streams):
        batches.append((gains.copy(), streams.copy()))
        return allocate_sumrate_batch(gains, streams)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes_module, "allocate_sumrate_batch", capture)
        config = SimConfig(master_seed=1, schemes=schemes, m_per_neighbour=m)
        run_trial(topology, LinkBudget(), config, trial)
    [batch] = batches
    return batch


def assert_feasible(x):
    assert np.all(x >= 0)
    assert x.sum() <= 1 + 1e-9


class TestObjective:
    def test_zero_power_gives_zero(self):
        assert objective(np.eye(3), np.zeros(3)) == 0.0

    def test_unit_sinr_gives_one_bit(self):
        assert objective(np.array([[2.0]]), np.array([0.5])) \
            == pytest.approx(1.0)

    def test_duplicate_formula_oracle(self):
        rng = np.random.default_rng(0)
        gains = random_table(rng, k=5)
        p = rng.uniform(0, 2, size=5)
        # independent re-implementation, scalar loops
        total = 0.0
        for k in range(5):
            interf = sum(p[j] * gains[j, k] for j in range(5) if j != k)
            total += math.log2(1 + p[k] * gains[k, k] / (interf + 1.0))
        assert objective(gains, p) == pytest.approx(total, rel=1e-12)


class TestProjection:
    def test_interior_point_only_clipped(self):
        out = project_power(np.array([0.2, -0.5, 0.1]))
        np.testing.assert_allclose(out, [0.2, 0.0, 0.1])

    def test_over_budget_lands_on_simplex(self):
        out = project_power(np.array([2.0, 2.0, 2.0]))
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3])
        assert out.sum() == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_projection_is_euclidean_optimum(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1.2, 1.2, size=4)
        proj = project_power(v)
        assert np.all(proj >= 0) and proj.sum() <= 1 + 1e-12
        # no random feasible point lies closer to v
        cand = rng.uniform(0, 1, size=(200, 4))
        cand *= (rng.uniform(0, 1, size=(200, 1))
                 / np.maximum(cand.sum(axis=1, keepdims=True), 1e-12))
        d_proj = np.linalg.norm(v - proj)
        d_cand = np.linalg.norm(v - cand, axis=1)
        assert np.all(d_proj <= d_cand + 1e-9)

    @pytest.mark.parametrize("shape", [(5,), (6, 5), (3, 4, 5)])
    def test_some_rows_over_budget_match_oracle(self, shape):
        # rows within budget are masked to theta = 0 among rows over it;
        # every shape must come out exactly as the whole-array projection
        # gives it
        rng = np.random.default_rng(len(shape))
        for low, high in ((0.1, 0.1), (3.0, 3.0), (0.1, 3.0)):
            v = rng.uniform(-1.0, 1.5, size=shape)
            rows = v.reshape(-1, shape[-1])
            rows[::2] *= low        # at most 5 * 0.15 < 1: under budget
            rows[1::2] *= high
            rows[1::2, 0] = high    # over budget when high > 1
            out = project_power(v)
            assert out.shape == v.shape
            np.testing.assert_array_equal(out, reference_project_power(v))
            over = np.maximum(rows, 0.0).sum(axis=-1) > 1.0
            scale = np.where(np.arange(len(rows)) % 2, high, low)
            np.testing.assert_array_equal(over, scale > 1.0)


    @staticmethod
    def rows_summing_to(rng, k, target):
        """A nonnegative k-vector whose np.sum is exactly target."""
        row = rng.uniform(0.0, 1.0, size=k)
        row *= target / row.sum()
        while row.sum() != target:
            row[-1] = np.nextafter(row[-1], 2.0 if row.sum() < target else 0.0)
        return row

    @pytest.mark.parametrize("k", [1, 2, 13, 300])
    def test_exact_against_reference_at_the_edges(self, k):
        # bit for bit with the descending-sort oracle: ties, among them a
        # rank j where j*u_j equals c_j exactly (1, 0.2, 0.1: both sides are
        # 0.30000000000000004, and counting j gives another theta),
        # exact-zero pad streams (of either sign), rows whose clipped sum is
        # 1 or one ulp either side of it, and at k = 300 rows whose count
        # rho passes 255, which a uint8 count would wrap
        rng = np.random.default_rng(1000 + k)
        one = 1.0
        rows = [self.rows_summing_to(rng, k, t)
                for t in (np.nextafter(one, 0.0), one, np.nextafter(one, 2.0))]
        rows += [np.full(k, 0.75), np.full(k, 3.0 / k),
                 np.repeat(rng.uniform(0.2, 0.9, size=(k + 1) // 2), 2)[:k]]
        if k >= 3:
            rows.append(np.pad([1.0, 0.2, 0.1], (0, k - 3)))
        pad = rng.uniform(0.3, 1.2, size=k)
        pad[k // 2:] = 0.0
        pad[k // 2 + 1::2] = -0.0
        rows += [pad, -pad, np.zeros(k), np.full(k, -0.0)]
        rows += list(rng.uniform(-0.5, 1.5, size=(6, k)))
        rows += list(rng.uniform(0.5, 0.51, size=(3, k)) / k * 2.0)
        v = np.array(rows)
        sums = np.maximum(v, 0.0).sum(axis=-1)
        assert (sums > 1.0).any() and (sums <= 1.0).any()
        if k == 300:
            over = v[sums > 1.0]
            u = np.sort(over, axis=-1)[:, ::-1]
            ranks = np.arange(1, k + 1)
            assert ((u * ranks > u.cumsum(axis=-1) - 1.0).sum(axis=-1)
                    > 255).any()
        for stack in (v, v[None], v.reshape(1, len(v), k)[:, ::-1]):
            np.testing.assert_array_equal(project_power(stack),
                                          reference_project_power(stack))
        # every row over budget, and every row under it
        for part in (v[sums > 1.0], v[sums <= 1.0]):
            np.testing.assert_array_equal(project_power(part),
                                          reference_project_power(part))

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 9, 13, 21, 300])
    def test_exact_against_reference_at_the_budget(self, k):
        # thousands of rows whose clipped sum lies within 4 ulps of 1, with
        # negative entries and pads of either sign: the budget test alone
        # decides which rows are only clipped, since the rule's theta can
        # round to either sign there (clamping theta at 0 in place of the
        # test gives other rows)
        rng = np.random.default_rng(2000 + k)
        n = 3000 if k < 300 else 300
        live = rng.random((n, k)) < 0.7
        live[np.arange(n), rng.integers(0, k, n)] = True
        v = rng.uniform(0.05, 1.0, size=(n, k)) * live
        v /= v.sum(axis=-1, keepdims=True)
        # a few ulps up or down on every live entry
        v.view(np.int64)[...] += rng.integers(-3, 4, size=(n, k)) * live
        pads = rng.integers(0, 3, size=(n, k))
        v[~live & (pads == 0)] = -0.0
        negative = ~live & (pads == 2)
        v[negative] = -rng.uniform(0.0, 2.0, size=np.count_nonzero(negative))
        sums = np.maximum(v, 0.0).sum(axis=-1)
        near = (sums >= 1.0 - 4 * 2.0**-53) & (sums <= 1.0 + 4 * 2.0**-52)
        v = v[near]
        assert len(v) > 0.9 * n
        assert (sums[near] > 1.0).any() and (sums[near] <= 1.0).any()
        np.testing.assert_array_equal(project_power(v),
                                      reference_project_power(v))


class TestAllocator:
    def test_single_stream_takes_full_budget(self):
        x, converged, _ = solve(np.array([[4.0]]))
        assert converged
        assert x[0] == pytest.approx(1.0, rel=1e-9)

    def test_orthogonal_equal_streams_split_evenly(self):
        x, _, _ = solve(np.eye(4) * 24.0)
        np.testing.assert_allclose(x, 0.25, rtol=1e-6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        gains = 10.0 * random_table(rng, k=4)
        perm = np.array([2, 0, 3, 1])
        x1 = solve(gains)[0]
        x2 = solve(gains[np.ix_(perm, perm)])[0]
        np.testing.assert_allclose(x2, x1[perm], rtol=1e-6, atol=1e-10)

    def test_common_scale_leaves_allocation_unchanged(self):
        # the tables schemes._allocate builds at budget 10 for noise 1 and for
        # noise 1e12 with gains 1e12 times larger differ by rounding alone
        rng = np.random.default_rng(4)
        gains = random_table(rng)
        np.testing.assert_allclose(solve(gains * 10.0)[0],
                                   solve(gains * 1e12 * (10.0 / 1e12))[0],
                                   rtol=1e-9, atol=1e-13)

    def test_nonconvergence_is_flagged_not_fatal(self, monkeypatch):
        monkeypatch.setattr(power_alloc, "_TOL", 1e-300)
        monkeypatch.setattr(power_alloc, "_MAX_ITERS", 2)
        rng = np.random.default_rng(5)
        x, converged, _ = solve(10.0 * random_table(rng, k=6))
        assert not converged
        assert_feasible(x)

    def test_budget_not_forced_to_equality(self):
        # heavy mutual interference: optimum keeps some power unspent
        gains = np.array([[1.0, 50.0], [50.0, 1.0]]) * 1e4
        x, _, _ = solve(gains)
        assert_feasible(x)
        assert objective(gains, x) >= objective(gains, np.array([0.5, 0.5]))


class TestBatchedSolve:
    def test_rows_solve_independently(self):
        # strong cross-gains make some, not all, rows take the restart;
        # each row of the stack must come out exactly as when solved alone
        rng = np.random.default_rng(8)
        stack = np.stack([random_table(rng, k=5) for _ in range(12)])
        stack[::3] += 20.0 * rng.exponential(1.0, size=(4, 5, 5))
        stack *= 100.0
        first_f = power_alloc._ascend(stack, np.full((12, 5), 0.2), 500)[1]
        restarted, _ = restart_corners(stack, first_f, full(stack))
        assert 0 < restarted.size < 12
        x, conv, iters, _, _ = allocate_sumrate_batch(stack, full(stack))
        for i in range(len(stack)):
            x1, conv1, iters1, _, _ = allocate_sumrate_batch(stack[i:i + 1],
                                                             [5])
            np.testing.assert_array_equal(x1[0], x[i])
            assert conv1[0] == conv[i]
            assert iters1[0] == iters[i]

    def test_padded_rows_solve_as_their_blocks(self):
        # rows of 1..9 live streams padded to 9, strong cross-gains on every
        # third so that some restart: the pads get exactly zero power and
        # each row matches the solve of its unpadded block
        rng = np.random.default_rng(21)
        streams = np.tile(np.arange(1, 10), 4)
        stack = np.stack([random_table(rng, k=9) for _ in streams])
        stack[::3] += 20.0 * rng.exponential(1.0, size=(12, 9, 9))
        stack = padded(100.0 * stack, streams)
        first_f = power_alloc._ascend(stack, uniform_start(streams, 9),
                                      500)[1]
        restarted, _ = restart_corners(stack, first_f, streams)
        assert 0 < restarted.size < 36
        x, _, _, _, _ = allocate_sumrate_batch(stack, streams)
        for s in range(1, 10):
            rows = np.flatnonzero(streams == s)
            block = np.ascontiguousarray(stack[rows, :s, :s])
            want, _, _, _, _ = allocate_sumrate_batch(block, full(block))
            assert np.all(x[rows, s:] == 0.0)
            np.testing.assert_allclose(x[rows, :s], want, rtol=1e-12)

    @pytest.mark.parametrize("max_iters", [3, 500])
    def test_restarts_run_as_one_second_ascent(self, monkeypatch, max_iters):
        # some rows end their first ascent and restart from a corner while
        # others are still climbing from the uniform split; the restarted
        # rows, and only they, make one second _ascend call from the
        # corners the reference picks, and every row comes out exactly as
        # the reference's separate restart pass gives it
        rng = np.random.default_rng(12)
        stack = np.stack([random_table(rng, k=5) for _ in range(16)])
        stack[::2] += 20.0 * rng.exponential(1.0, size=(8, 5, 5))
        stack *= 100.0
        _, first_f, _, first_iters = power_alloc._ascend(
            stack, np.full((16, 5), 0.2), max_iters)
        restarted, corners = restart_corners(stack, first_f, full(stack))
        assert 0 < restarted.size < 16
        assert first_iters[restarted].min() < first_iters.max()
        calls = []
        ascend = power_alloc._ascend

        def recording(*args):
            calls.append((args[0].copy(), args[1].copy()))
            return ascend(*args)

        monkeypatch.setattr(power_alloc, "_ascend", recording)
        monkeypatch.setattr(power_alloc, "_MAX_ITERS", max_iters)
        got = allocate_sumrate_batch(stack, full(stack))
        assert [len(g) for g, _ in calls] == [16, restarted.size]
        np.testing.assert_array_equal(calls[1][0], stack[restarted])
        np.testing.assert_array_equal(calls[1][1], corners)
        want = reference_allocate(stack, full(stack))
        for a, b in zip(got[:3], want):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 13),
           rows=st.integers(1, 6))
    def test_normalised_stack_properties(self, seed, k, rows):
        # the form run_schemes solves: gains G*P/N spanning weak to strong
        # links and interference
        rng = np.random.default_rng(seed)
        stack = rng.exponential(1.0, size=(rows, k, k))
        stack *= 10.0 ** rng.uniform(-2, 4, size=(rows, 1, 1))
        x, _, _, _, _ = allocate_sumrate_batch(stack, full(stack))
        assert np.all(x >= 0)
        assert np.all(x.sum(axis=-1) <= 1 + 1e-9)
        uniform = np.full((rows, k), 1.0 / k)
        assert np.all(objective(stack, x) >= objective(stack, uniform))
        history, iterates = ascent_path(stack, full(stack))
        np.testing.assert_array_equal(iterates[-1], x)
        assert np.all(np.diff(history, axis=0) >= 0)
        # every iterate, not only the answer, is feasible
        assert np.all(iterates >= 0)
        assert np.all(iterates.sum(axis=-1) <= 1 + 1e-9)


class TestRestartFilter:
    def test_rows_restart_as_when_every_row_is_scored(self, monkeypatch):
        # rows of 1 to 4 live streams, whose strong, weakly coupled streams
        # often make a pair the best candidate, each tried at objectives f
        # from far below its best candidate to within 1e-12 of the bound
        # that lets the allocator skip scoring it; the rows that restart
        # and their corners must be those of scoring every row
        rng = np.random.default_rng(36)
        k = 4
        streams = np.repeat(np.arange(1, k + 1), 24)
        stack = rng.exponential(1.0, size=(len(streams), k, k))
        stack[:, np.arange(k), np.arange(k)] *= 10.0 ** rng.uniform(
            0.0, 3.0, size=(len(streams), k))
        stack *= 10.0 ** rng.uniform(-2.0, 1.0, size=(len(streams), 1, 1))
        stack = padded(stack, streams)
        diag = np.diagonal(stack, axis1=1, axis2=2)
        half = np.sort(np.log2(1.0 + 0.5 * diag), axis=1)
        bound = np.maximum(np.log2(1.0 + diag).max(axis=1),
                           half[:, -2:].sum(axis=1))
        best = reference_restart_scores(stack)[0].max(axis=1)
        levels = [0.5 * best, best * (1.0 - 2e-12), best * (1.0 - 1e-12),
                  best, bound * (1.0 - 1e-12), np.nextafter(bound, 0.0),
                  bound, np.nextafter(bound, np.inf), bound * (1.0 + 1e-12),
                  bound * (1.0 + 2e-9)]
        f = np.concatenate(levels)
        gains = np.tile(stack, (len(levels), 1, 1))
        streams = np.tile(streams, len(levels))
        bound = np.tile(bound, len(levels))
        scored = []

        def recording(g):
            scored.append(len(g))
            return _restart_scores(g)

        monkeypatch.setattr(power_alloc, "_restart_scores", recording)
        rows, starts = power_alloc._restarts(gains, f)
        want_rows, want_starts = restart_corners(gains, f, streams)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(starts, want_starts)
        # rows past the bound went unscored; some rows restart, among them
        # rows of 1 and of 2 live streams and rows whose best is a pair
        level = f + 1e-12 * np.maximum(1.0, f)
        assert scored == [np.count_nonzero(bound * (1.0 + 1e-9) > level)]
        assert 0 < scored[0] < len(f)
        assert {1, 2} <= set(streams[rows])
        assert np.any(np.count_nonzero(starts, axis=1) == 2)


class TestAgainstReferenceLoop:
    """The compacted, laddered solver against the plain halving loop."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 13),
           rows=st.integers(1, 40), log_scale=st.floats(-2.0, 4.0),
           max_iters=st.sampled_from([1, 2, 3, 4, 5, 500]),
           n_stationary=st.integers(0, 3), pad_share=st.sampled_from([0, 0.5]))
    def test_bit_identical_outputs(self, seed, k, rows, log_scale, max_iters,
                                   n_stationary, pad_share):
        rng = np.random.default_rng(seed)
        stack = rng.exponential(1.0, size=(rows, k, k))
        stack *= 10.0 ** (log_scale + rng.uniform(-1.0, 1.0, size=(rows, 1, 1)))
        # a row with no cross-gains and equal direct gains starts stationary
        # at the uniform split; an all-zero row has no gradient at all
        for r in range(min(n_stationary, rows)):
            stack[r] = np.eye(k) * 10.0 ** log_scale if r % 2 == 0 else 0.0
        # about pad_share of the rows keep only their leading streams
        streams = np.where(rng.uniform(size=rows) < pad_share,
                           rng.integers(1, k + 1, size=rows), k)
        stack = padded(stack, streams)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(power_alloc, "_MAX_ITERS", max_iters)
            got = allocate_sumrate_batch(stack, streams)
            want = reference_allocate(stack, streams)
        for a, b in zip(got[:3], want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("schemes, m, trial, rows, slowest", [
        (("coloring", "rzf", "csi", "csidata"), 1, 7, 399, 284),
        (("csidata",), 3, 0, 133, None),
    ])
    def test_real_trial_batches_match_reference(
            self, canonical_topology, schemes, m, trial, rows, slowest):
        # the paper's four schemes at m = 1 (trial 7 has a row that runs
        # 284 iterations), and csidata at m = 3, whose 13-stream rows carry
        # 91 restart candidates
        gains, streams = trial_batch(canonical_topology, schemes, m, trial)
        assert len(streams) == rows
        got = allocate_sumrate_batch(gains, streams)
        want = reference_allocate(gains, streams)
        for a, b in zip(got[:3], want):
            np.testing.assert_array_equal(a, b)
        if slowest is not None:
            assert got[2].max() == slowest

    def test_long_backtracking_runs_further_ladder_rounds(self, monkeypatch):
        # a first step that overshoots by more than one ladder covers leaves
        # rows undecided, and the next pass carries them on from half their
        # last step: a pass makes one projection, and the slowest row takes
        # one pass per iteration and one per carry, so projections beyond
        # the largest iteration count are carries
        projections, lockstep = [], []
        project, ascend = power_alloc.project_power, power_alloc._ascend

        def counting_project(v):
            projections.append(len(v))
            return project(v)

        def counting_ascend(*args):
            result = ascend(*args)
            lockstep.append(int(result[3].max()))
            return result

        monkeypatch.setattr(power_alloc, "project_power", counting_project)
        monkeypatch.setattr(power_alloc, "_ascend", counting_ascend)
        rng = np.random.default_rng(4)
        stack = rng.exponential(1.0, size=(5, 9, 9)) * 100.0
        got = allocate_sumrate_batch(stack, full(stack))
        assert len(projections) > sum(lockstep)
        want = reference_allocate(stack, full(stack))
        for a, b in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(a, b)

    def test_short_cutoff_stops_rows_as_the_reference_loop(self, monkeypatch):
        # entries over nine decades make first steps overshoot by many
        # halvings; at a cutoff of 6 steps (it must stay a multiple of the
        # 2 steps of a pass) rows that no step decides are carried twice
        # and then stop, as the plain loop stops them after 6 halvings
        stack = cutoff_stack()
        default = allocate_sumrate_batch(stack, full(stack))
        monkeypatch.setattr(power_alloc, "_MAX_HALVINGS", 6)
        got = allocate_sumrate_batch(stack, full(stack))
        want = reference_allocate(stack, full(stack))
        for a, b in zip(got[:3], want):
            np.testing.assert_array_equal(a, b)
        # the cutoff stopped some rows short of where 60 steps take them
        assert not np.array_equal(got[0], default[0])

    @pytest.mark.parametrize("batch, halvings", [
        ("cutoff", 6), ("cutoff", 60), ("paper_sweep", 60)])
    def test_each_ascent_makes_one_pass_per_two_steps(
            self, canonical_topology, monkeypatch, batch, halvings):
        # a pass makes one project_power call and tries the next two steps
        # of every working row, so an ascent makes as many passes as its
        # slowest row needs, with a row's steps per iteration counted by
        # the plain halving loop; checked on the first ascent and on the
        # restarted rows' second one
        if batch == "cutoff":
            gains = cutoff_stack()
            streams = full(gains)
        else:
            gains, streams = trial_batch(
                canonical_topology, ("coloring", "rzf", "csi", "csidata"), 1,
                0)
        calls, passes = [], []
        project, ascend = power_alloc.project_power, power_alloc._ascend

        def counting_project(v):
            passes[-1] += 1
            return project(v)

        def recording_ascend(gains, p0, max_iters):
            calls.append((gains.copy(), p0.copy()))
            passes.append(0)
            return ascend(gains, p0, max_iters)

        monkeypatch.setattr(power_alloc, "project_power", counting_project)
        monkeypatch.setattr(power_alloc, "_ascend", recording_ascend)
        monkeypatch.setattr(power_alloc, "_MAX_HALVINGS", halvings)
        allocate_sumrate_batch(gains, streams)
        assert len(calls) == 2
        assert passes == [reference_passes(*call) for call in calls]

    @pytest.mark.parametrize("k", range(1, 14))
    def test_closed_form_restart_scores(self, k):
        # full power on one stream or half on each of a pair: the score on the
        # candidate's sub-table must equal objective on the whole table at
        # the candidate, bit for bit (k = 1 has no pairs), and the candidate
        # table must list the candidates in the reference order
        rng = np.random.default_rng(100 + k)
        stack = rng.exponential(1.0, size=(9, k, k))
        stack *= 10.0 ** rng.uniform(-2, 4, size=(9, 1, 1))
        scores, candidates = _restart_scores(stack)
        want_scores, want_candidates = reference_restart_scores(stack)
        assert scores.shape == (9, k + k * (k - 1) // 2)
        np.testing.assert_array_equal(scores, want_scores)
        np.testing.assert_array_equal(candidates, want_candidates)


class TestGradient:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        # unit noise: gains over a noise drawn from [0.1, 2)
        gains = rng.exponential(1.0, size=(k, k)) / rng.uniform(0.1, 2.0)
        p = rng.uniform(0.2, 2.0, size=k)
        grad = gradient(gains, p)
        eps = 1e-6
        for i in range(k):
            dp = np.zeros(k)
            dp[i] = eps
            fd = (objective(gains, p + dp)
                  - objective(gains, p - dp)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestValidation:
    @pytest.mark.parametrize("gains", [
        np.full((1, 2, 2), math.nan), np.full((1, 2, 2), math.inf),
        np.array([[[1.0, -0.1], [0.0, 1.0]]])])
    def test_batch_rejects_nonfinite_or_negative_gains(self, gains):
        # NaN gains used to return the uniform split flagged converged
        with pytest.raises(ValueError, match="finite and nonnegative"):
            allocate_sumrate_batch(gains, [2])

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (1, 0, 0),
                                       (1, 1, 2, 2)])
    def test_batch_rejects_non_stack_gains(self, shape):
        with pytest.raises(ValueError, match="stack"):
            allocate_sumrate_batch(np.ones(shape), [1])

    @pytest.mark.parametrize("streams", [[2, 2], [[2]], [], [2.0]])
    def test_batch_rejects_streams_not_one_count_per_row(self, streams):
        with pytest.raises(ValueError, match="integer array"):
            allocate_sumrate_batch(np.ones((1, 2, 2)), streams)

    @pytest.mark.parametrize("streams", [[0], [3], [-1]])
    def test_batch_rejects_stream_counts_outside_one_to_k(self, streams):
        with pytest.raises(ValueError, match="1..2"):
            allocate_sumrate_batch(np.ones((1, 2, 2)), streams)

    @pytest.mark.parametrize("entry", [(0, 2), (2, 0), (2, 2)])
    def test_batch_rejects_gains_outside_leading_block(self, entry):
        # one stray entry in a padded stream's row or column
        gains = padded(np.ones((2, 3, 3)), np.array([3, 2]))
        gains[(1,) + entry] = 1e-300
        with pytest.raises(ValueError, match="leading"):
            allocate_sumrate_batch(gains, [3, 2])


class TestTimeAllocatorScript:
    @staticmethod
    def run_script(tmp_path, *args):
        root = Path(__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "time_allocator.py"),
             "--rounds", "1", *args],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(root / "src")))

    def test_compare_passes_on_saved_outputs_and_fails_on_an_edit(
            self, tmp_path):
        saved = tmp_path / "alloc.npz"
        first = self.run_script(tmp_path, "--trials", "1", "--save",
                                str(saved))
        assert first.returncode == 0, first.stderr
        again = self.run_script(tmp_path, "--compare", str(saved))
        assert again.returncode == 0, again.stderr
        assert f"all 1 batches match {saved}" in again.stdout
        # one saved x entry moved by one ulp no longer matches
        with np.load(saved) as data:
            arrays = dict(data)
        arrays["x_0"].flat[0] = np.nextafter(arrays["x_0"].flat[0], 2.0)
        edited = tmp_path / "edited.npz"
        np.savez_compressed(edited, **arrays)
        broken = self.run_script(tmp_path, "--compare", str(edited))
        assert broken.returncode == 1
        assert f"x_0: 1 of {arrays['x_0'].size} cells differ" in broken.stderr
        assert f"1 of 3 arrays differ from {edited}" in broken.stderr

    def test_reports_each_ascent_apart(self, tmp_path, canonical_topology):
        # trial 0's one batch: the first ascent's passes, and the restart
        # ascent's over the rows that restart, as the plain halving loop
        # counts them
        gains, streams = trial_batch(
            canonical_topology, ("coloring", "rzf", "csi", "csidata"), 1, 0)
        start = uniform_start(streams, gains.shape[-1])
        f = power_alloc._ascend(gains, start, power_alloc._MAX_ITERS)[1]
        rows, corners = restart_corners(gains, f, streams)
        first = reference_passes(gains, start)
        again = reference_passes(gains[rows], corners)
        result = self.run_script(tmp_path, "--trials", "1")
        assert result.returncode == 0, result.stderr
        assert (f"passes per batch: first ascent mean {first:.2f}, max "
                f"{first}; restart ascent mean {again:.2f}, max {again}, "
                f"over {rows.size:.2f} rows restarted") in result.stdout

    @pytest.mark.parametrize("args, message", [
        # no timed round gives no median to report
        (("--rounds", "0"), "--rounds must be at least 1"),
        # coloring alone makes no allocator call, so nothing is timed
        (("--schemes", "coloring", "--trials", "1"), "no allocator call"),
    ])
    def test_rejects_runs_with_nothing_to_time(self, tmp_path, args, message):
        result = self.run_script(tmp_path, *args)
        assert result.returncode == 1
        assert message in result.stderr
