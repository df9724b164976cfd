import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satcoop.power_alloc as power_alloc
from satcoop.power_alloc import (EffectiveGainTable, _objective,
                                 allocate_sumrate, allocate_sumrate_batch,
                                 project_power, sum_rate_objective)


def simplex_grid(n_streams, p_total, steps):
    """All nonnegative grid points with coordinates k*p_total/steps summing <= p_total."""
    pts = []
    unit = p_total / steps
    if n_streams != 3:
        raise NotImplementedError
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            k = np.arange(steps + 1 - i - j)
            block = np.empty((len(k), 3))
            block[:, 0] = i * unit
            block[:, 1] = j * unit
            block[:, 2] = k * unit
            pts.append(block)
    return np.concatenate(pts)


def grid_search_optimum(table: EffectiveGainTable, steps=200):
    """Independent brute-force oracle for the 3-stream allocation problem."""
    pts = simplex_grid(3, table.p_total, steps)
    g = table.gains
    received = pts @ g          # (N, 3): total power seen by each user
    signal = pts * np.diagonal(g)
    rates = np.log2(1.0 + signal / (received - signal + table.noise_w))
    return rates.sum(axis=1).max()


def random_table(rng, k=3, p_total=10.0, noise=1.0):
    gains = rng.exponential(1.0, size=(k, k))
    gains[np.diag_indices(k)] += rng.exponential(2.0, size=k)
    return EffectiveGainTable(gains=gains, noise_w=noise, p_total=p_total)


class TestObjective:
    def test_zero_power_gives_zero(self):
        t = EffectiveGainTable(gains=np.eye(3), noise_w=1.0, p_total=5.0)
        assert sum_rate_objective(t, np.zeros(3)) == 0.0

    def test_unit_sinr_gives_one_bit(self):
        t = EffectiveGainTable(gains=np.array([[2.0]]), noise_w=1.0, p_total=1.0)
        assert sum_rate_objective(t, np.array([0.5])) == pytest.approx(1.0)

    def test_duplicate_formula_oracle(self):
        rng = np.random.default_rng(0)
        t = random_table(rng, k=5)
        p = rng.uniform(0, 2, size=5)
        # independent re-implementation, scalar loops
        total = 0.0
        for k in range(5):
            interf = sum(p[j] * t.gains[j, k] for j in range(5) if j != k)
            total += math.log2(1 + p[k] * t.gains[k, k] / (interf + t.noise_w))
        assert sum_rate_objective(t, p) == pytest.approx(total, rel=1e-12)

    def test_rejects_infeasible_power(self):
        t = EffectiveGainTable(gains=np.eye(2), noise_w=1.0, p_total=1.0)
        with pytest.raises(ValueError):
            sum_rate_objective(t, np.array([2.0, 0.0]))
        with pytest.raises(ValueError):
            sum_rate_objective(t, np.array([-0.1, 0.5]))


class TestProjection:
    def test_interior_point_only_clipped(self):
        out = project_power(np.array([0.2, -0.5, 0.1]), 10.0)
        np.testing.assert_allclose(out, [0.2, 0.0, 0.1])

    def test_over_budget_lands_on_simplex(self):
        out = project_power(np.array([4.0, 4.0, 4.0]), 6.0)
        np.testing.assert_allclose(out, [2.0, 2.0, 2.0])
        assert out.sum() == pytest.approx(6.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_projection_is_euclidean_optimum(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-3, 3, size=4)
        p_total = 2.5
        proj = project_power(v, p_total)
        assert np.all(proj >= 0) and proj.sum() <= p_total * (1 + 1e-12)
        # no random feasible point lies closer to v
        cand = rng.uniform(0, 1, size=(200, 4))
        cand *= (p_total * rng.uniform(0, 1, size=(200, 1))
                 / np.maximum(cand.sum(axis=1, keepdims=True), 1e-12))
        d_proj = np.linalg.norm(v - proj)
        d_cand = np.linalg.norm(v - cand, axis=1)
        assert np.all(d_proj <= d_cand + 1e-9)


class TestAllocator:
    def test_single_stream_takes_full_budget(self):
        t = EffectiveGainTable(gains=np.array([[1.0]]), noise_w=1.0, p_total=4.0)
        out = allocate_sumrate(t)
        assert out.converged
        assert out.p[0] == pytest.approx(4.0, rel=1e-9)

    def test_orthogonal_equal_streams_split_evenly(self):
        t = EffectiveGainTable(gains=np.eye(4) * 3.0, noise_w=1.0, p_total=8.0)
        out = allocate_sumrate(t)
        np.testing.assert_allclose(out.p, 2.0, rtol=1e-6)

    def test_beats_grid_search_within_tolerance(self):
        rng = np.random.default_rng(1)
        t = random_table(rng)
        out = allocate_sumrate(t)
        achieved = sum_rate_objective(t, out)
        assert achieved >= grid_search_optimum(t) * (1 - 0.02)

    def test_monotone_ascent_and_feasible_iterates(self):
        rng = np.random.default_rng(2)
        t = random_table(rng, k=6)
        out = allocate_sumrate(t, record_history=True)
        assert np.all(np.diff(out.objective_history) >= 0)
        for p in out.iterate_history:
            assert np.all(p >= 0)
            assert p.sum() <= t.p_total * (1 + 1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        t = random_table(rng, k=4)
        perm = np.array([2, 0, 3, 1])
        permuted = EffectiveGainTable(gains=t.gains[np.ix_(perm, perm)],
                                      noise_w=t.noise_w, p_total=t.p_total)
        p1 = allocate_sumrate(t).p
        p2 = allocate_sumrate(permuted).p
        np.testing.assert_allclose(p2, p1[perm], rtol=1e-6, atol=1e-9)

    def test_common_scale_leaves_allocation_unchanged(self):
        rng = np.random.default_rng(4)
        t = random_table(rng)
        scaled = EffectiveGainTable(gains=t.gains * 1e12,
                                    noise_w=t.noise_w * 1e12,
                                    p_total=t.p_total)
        np.testing.assert_allclose(allocate_sumrate(t).p,
                                   allocate_sumrate(scaled).p,
                                   rtol=1e-9, atol=1e-12)

    def test_nonconvergence_is_flagged_not_fatal(self):
        rng = np.random.default_rng(5)
        t = random_table(rng, k=6)
        out = allocate_sumrate(t, tol=1e-300, max_iters=2)
        assert not out.converged
        assert np.all(out.p >= 0)
        assert out.p.sum() <= t.p_total * (1 + 1e-9)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(6)
        tables = [random_table(rng) for _ in range(5)]
        stack = np.stack([t.gains for t in tables])
        p_batch, conv, _, _, _ = allocate_sumrate_batch(stack, 1.0, 10.0)
        assert conv.all()
        for i, t in enumerate(tables):
            np.testing.assert_allclose(allocate_sumrate(t).p, p_batch[i],
                                       rtol=1e-9, atol=1e-12)

    def test_budget_not_forced_to_equality(self):
        # heavy mutual interference: optimum keeps some power unspent
        gains = np.array([[1.0, 50.0], [50.0, 1.0]])
        t = EffectiveGainTable(gains=gains, noise_w=0.01, p_total=100.0)
        out = allocate_sumrate(t)
        achieved = sum_rate_objective(t, out)
        full = sum_rate_objective(t, np.array([50.0, 50.0]))
        assert achieved >= full


class TestBatchedSolve:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_unit_noise_unit_budget_scaling(self, seed):
        # G with noise N and budget P is the problem G*P/N with unit noise
        # and unit budget; p = P*x maps the answer back
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 10))
        gains = rng.exponential(1.0, size=(3, k, k)) * 10.0 ** rng.uniform(-3, 3)
        noise = 10.0 ** rng.uniform(-2, 2)
        p_total = 10.0 ** rng.uniform(-2, 3)
        p, _, _, _, _ = allocate_sumrate_batch(gains, noise, p_total)
        x, _, _, _, _ = allocate_sumrate_batch(gains * (p_total / noise),
                                               1.0, 1.0)
        np.testing.assert_allclose(_objective(gains, noise, p_total * x),
                                   _objective(gains, noise, p), rtol=1e-6)

    def test_rows_solve_independently(self, monkeypatch):
        # strong cross-gains make some, not all, rows take the restart;
        # each row of the stack must come out exactly as when solved alone
        rng = np.random.default_rng(8)
        stack = np.stack([random_table(rng, k=5).gains for _ in range(12)])
        stack[::3] += 20.0 * rng.exponential(1.0, size=(4, 5, 5))
        ascents = []
        ascend = power_alloc._ascend

        def recording(gains, *args):
            ascents.append(gains.shape[0])
            return ascend(gains, *args)

        monkeypatch.setattr(power_alloc, "_ascend", recording)
        p, conv, iters, _, _ = allocate_sumrate_batch(stack, 0.1, 10.0)
        assert ascents[0] == 12 and 0 < ascents[1] < 12 and len(ascents) == 2
        for i in range(len(stack)):
            p1, conv1, iters1, _, _ = allocate_sumrate_batch(stack[i:i + 1],
                                                             0.1, 10.0)
            np.testing.assert_array_equal(p1[0], p[i])
            assert conv1[0] == conv[i]
            assert iters1[0] == iters[i]


class TestGradient:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_gradient_matches_finite_differences(self, seed):
        from satcoop.power_alloc import _gradient, _objective
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        gains = rng.exponential(1.0, size=(k, k))
        noise = float(rng.uniform(0.1, 2.0))
        p = rng.uniform(0.2, 2.0, size=k)
        grad = _gradient(gains, noise, p)
        eps = 1e-6
        for i in range(k):
            dp = np.zeros(k)
            dp[i] = eps
            fd = (_objective(gains, noise, p + dp)
                  - _objective(gains, noise, p - dp)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestValidation:
    def test_table_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            EffectiveGainTable(gains=np.ones((2, 3)), noise_w=1.0, p_total=1.0)
        with pytest.raises(ValueError):
            EffectiveGainTable(gains=-np.eye(2), noise_w=1.0, p_total=1.0)
        with pytest.raises(ValueError):
            EffectiveGainTable(gains=np.eye(2), noise_w=0.0, p_total=1.0)
        with pytest.raises(ValueError):
            EffectiveGainTable(gains=np.eye(2), noise_w=1.0, p_total=-1.0)

    def test_allocator_rejects_bad_options(self):
        t = EffectiveGainTable(gains=np.eye(2), noise_w=1.0, p_total=1.0)
        with pytest.raises(ValueError):
            allocate_sumrate(t, tol=0.0)
        with pytest.raises(ValueError):
            allocate_sumrate(t, max_iters=0)
        with pytest.raises(ValueError):
            allocate_sumrate(t, p_total=-2.0)

    @pytest.mark.parametrize("bad", [dict(tol=0.0), dict(tol=float("nan")),
                                     dict(max_iters=0)])
    def test_batch_rejects_bad_options(self, bad):
        # max_iters=0 used to come back flagged as converged
        with pytest.raises(ValueError):
            allocate_sumrate_batch(np.eye(2)[None], 1.0, 1.0, **bad)
