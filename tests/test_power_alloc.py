import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satcoop.power_alloc as power_alloc
from oracles import (ascent_path, reference_allocate, reference_project_power,
                     reference_restart_scores, restart_corners)
from satcoop.power_alloc import (_gradient, _objective, _restart_scores,
                                 allocate_sumrate_batch, project_power)


def random_table(rng, k=3):
    gains = rng.exponential(1.0, size=(k, k))
    gains[np.diag_indices(k)] += rng.exponential(2.0, size=k)
    return gains


def solve(gains):
    """One problem as a batch of one: (x, converged, iterations) of its
    only row."""
    x, conv, iters, _, _ = allocate_sumrate_batch(gains[None])
    return x[0], bool(conv[0]), int(iters[0])


def assert_feasible(x):
    assert np.all(x >= 0)
    assert x.sum() <= 1 + 1e-9


class TestObjective:
    def test_zero_power_gives_zero(self):
        assert _objective(np.eye(3), np.zeros(3)) == 0.0

    def test_unit_sinr_gives_one_bit(self):
        assert _objective(np.array([[2.0]]), np.array([0.5])) \
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
        assert _objective(gains, p) == pytest.approx(total, rel=1e-12)


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
        # only the over-budget rows are sorted; every shape must come out
        # exactly as the whole-array projection gives it
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
        # the tables _run_precoded builds at budget 10 for noise 1 and for
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
        assert _objective(gains, x) >= _objective(gains, np.array([0.5, 0.5]))


class TestBatchedSolve:
    def test_rows_solve_independently(self):
        # strong cross-gains make some, not all, rows take the restart;
        # each row of the stack must come out exactly as when solved alone
        rng = np.random.default_rng(8)
        stack = np.stack([random_table(rng, k=5) for _ in range(12)])
        stack[::3] += 20.0 * rng.exponential(1.0, size=(4, 5, 5))
        stack *= 100.0
        first_f = power_alloc._ascend(stack, np.full((12, 5), 0.2),
                                      1e-6, 500)[1]
        restarted, _ = restart_corners(stack, first_f)
        assert 0 < restarted.size < 12
        x, conv, iters, _, _ = allocate_sumrate_batch(stack)
        for i in range(len(stack)):
            x1, conv1, iters1, _, _ = allocate_sumrate_batch(stack[i:i + 1])
            np.testing.assert_array_equal(x1[0], x[i])
            assert conv1[0] == conv[i]
            assert iters1[0] == iters[i]

    @pytest.mark.parametrize("max_iters", [3, 500])
    def test_restarts_rejoin_while_rows_still_climb(self, monkeypatch,
                                                    max_iters):
        # some rows end their first ascent and restart from a corner while
        # others are still climbing from the uniform split; the one lockstep
        # loop must give every row exactly what the reference's separate
        # restart pass gives, in one _ascend call
        rng = np.random.default_rng(12)
        stack = np.stack([random_table(rng, k=5) for _ in range(16)])
        stack[::2] += 20.0 * rng.exponential(1.0, size=(8, 5, 5))
        stack *= 100.0
        _, first_f, _, first_iters = power_alloc._ascend(
            stack, np.full((16, 5), 0.2), 1e-6, max_iters)
        restarted, _ = restart_corners(stack, first_f)
        assert 0 < restarted.size < 16
        assert first_iters[restarted].min() < first_iters.max()
        calls = []
        ascend = power_alloc._ascend

        def recording(*args):
            calls.append(args[0].shape[0])
            return ascend(*args)

        monkeypatch.setattr(power_alloc, "_ascend", recording)
        monkeypatch.setattr(power_alloc, "_MAX_ITERS", max_iters)
        got = allocate_sumrate_batch(stack)
        assert calls == [16]
        want = reference_allocate(stack)
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
        x, _, _, _, _ = allocate_sumrate_batch(stack)
        assert np.all(x >= 0)
        assert np.all(x.sum(axis=-1) <= 1 + 1e-9)
        uniform = np.full((rows, k), 1.0 / k)
        assert np.all(_objective(stack, x) >= _objective(stack, uniform))
        history, iterates = ascent_path(stack)
        np.testing.assert_array_equal(iterates[-1], x)
        assert np.all(np.diff(history, axis=0) >= 0)
        # every iterate, not only the answer, is feasible
        assert np.all(iterates >= 0)
        assert np.all(iterates.sum(axis=-1) <= 1 + 1e-9)


class TestAgainstReferenceLoop:
    """The compacted, laddered solver against the plain halving loop."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 13),
           rows=st.integers(1, 40), log_scale=st.floats(-2.0, 4.0),
           max_iters=st.sampled_from([1, 2, 3, 4, 5, 500]),
           n_stationary=st.integers(0, 3))
    def test_bit_identical_outputs(self, seed, k, rows, log_scale, max_iters,
                                   n_stationary):
        rng = np.random.default_rng(seed)
        stack = rng.exponential(1.0, size=(rows, k, k))
        stack *= 10.0 ** (log_scale + rng.uniform(-1.0, 1.0, size=(rows, 1, 1)))
        # a row with no cross-gains and equal direct gains starts stationary
        # at the uniform split; an all-zero row has no gradient at all
        for r in range(min(n_stationary, rows)):
            stack[r] = np.eye(k) * 10.0 ** log_scale if r % 2 == 0 else 0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(power_alloc, "_MAX_ITERS", max_iters)
            got = allocate_sumrate_batch(stack)
            want = reference_allocate(stack)
        for a, b in zip(got[:3], want):
            np.testing.assert_array_equal(a, b)

    def test_long_backtracking_runs_further_ladder_rounds(self, monkeypatch):
        # a first step that overshoots by more than one ladder covers sends
        # rows on to further rounds: each lockstep iteration makes one
        # first-round projection, so any further projection is a later round
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
        got = allocate_sumrate_batch(stack)
        assert len(projections) > sum(lockstep)
        want = reference_allocate(stack)
        for a, b in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", range(1, 14))
    def test_closed_form_restart_scores(self, k):
        # full power on one stream or half on each of a pair: the score on the
        # candidate's sub-table must equal _objective on the whole table at
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
        grad = _gradient(gains, p)
        eps = 1e-6
        for i in range(k):
            dp = np.zeros(k)
            dp[i] = eps
            fd = (_objective(gains, p + dp)
                  - _objective(gains, p - dp)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestValidation:
    @pytest.mark.parametrize("gains", [
        np.full((1, 2, 2), math.nan), np.full((1, 2, 2), math.inf),
        np.array([[[1.0, -0.1], [0.0, 1.0]]])])
    def test_batch_rejects_nonfinite_or_negative_gains(self, gains):
        # NaN gains used to return the uniform split flagged converged
        with pytest.raises(ValueError, match="finite and nonnegative"):
            allocate_sumrate_batch(gains)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (1, 0, 0),
                                       (1, 1, 2, 2)])
    def test_batch_rejects_non_stack_gains(self, shape):
        with pytest.raises(ValueError, match="stack"):
            allocate_sumrate_batch(np.ones(shape))
