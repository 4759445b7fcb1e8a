import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import semfuse.tsne
from oracles import joint_q, kl_divergence, low_dim_q

from semfuse.errors import (
    CalibrationError,
    ConfigError,
    ConflictError,
    DivergenceError,
    DomainError,
    FormatError,
    SchemaError,
)
from semfuse.tsne import (
    COST_MODES,
    KERNELS,
    TsneConfig,
    calibrate_sigmas,
    conditional_p,
    load_colors,
    pairwise_sq_distances,
    run_tsne,
    symmetrize,
    tsne_cost_and_grad,
    write_coords_csv,
    write_scatter_svg,
)

EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
SRC = Path(__file__).resolve().parent.parent / "src"


def assert_close_to_whole_matrix(got, P, Y, kernel, cost, exaggeration):
    """The row-blocked sums round apart from the whole-matrix ones only in the last bits."""
    want_cost, want_grad = oracles.whole_matrix_cost_and_grad(P, Y, kernel, cost, exaggeration)
    assert abs(got[0] - want_cost) <= 1e-12 * abs(want_cost)
    assert np.max(np.abs(got[1] - want_grad)) <= 1e-11 * np.max(np.abs(want_grad))


def random_affinities(n, cost, seed):
    """A P with about a fifth of its off-diagonal cells zero, and a map where the floor holds."""
    rng = np.random.default_rng(seed)
    P = rng.random((n, n)) * (rng.random((n, n)) > 0.2)
    P[0, 1] = 1.0  # every row of a conditional P needs one positive cell
    P[1:, 0] = 1.0
    np.fill_diagonal(P, 0.0)
    if cost == "joint":
        P = (P + P.T) / (P + P.T).sum()
    else:
        P /= P.sum(axis=1, keepdims=True)
    return P, rng.normal(size=(n, 2)) * 3.0


def row_perplexities(P: np.ndarray) -> np.ndarray:
    """Independent entropy oracle: 2^H per row, natural definition in bits."""
    out = np.empty(len(P))
    for i, row in enumerate(P):
        live = row[row > 0]
        h = -np.sum(live * np.log2(live))
        out[i] = 2.0**h
    return out


class TestPairwiseSqDistances:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        d2 = pairwise_sq_distances(X)
        for i in range(7):
            for j in range(7):
                expect = float(np.sum((X[i] - X[j]) ** 2))
                assert d2[i, j] == pytest.approx(expect, abs=1e-9)
        assert np.all(np.diag(d2) == 0.0)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits X @ X.T across threads from about 300 x 11 on
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from semfuse.tsne import TsneConfig, run_tsne\n"
            "out = {}\n"
            "for n in (300, 1000):\n"
            "    X = np.random.default_rng(n).normal(size=(n, 11))\n"
            "    coords, kl_trace, _, sigmas = run_tsne(X, TsneConfig(iterations=60, seed=1))\n"
            "    out[f'coords{n}'], out[f'kl_trace{n}'], out[f'sigmas{n}'] = coords, kl_trace, sigmas\n"
            "np.savez(sys.argv[1], **out)\n"
        )
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            path = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True, timeout=300)
            with np.load(path) as arrays:
                runs.append(dict(arrays))
        assert sorted(runs[0]) == sorted(runs[1]) and len(runs[0]) == 6
        for key in runs[0]:
            assert np.array_equal(runs[0][key], runs[1][key]), key

    def test_other_configurations_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the Student-t kernel and the conditional cost take their own branches of both sweeps
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from semfuse.tsne import TsneConfig, run_tsne\n"
            "out = {}\n"
            "X = np.random.default_rng(300).normal(size=(300, 11))\n"
            "for kernel, cost in (('student_t', 'joint'), ('gaussian', 'conditional'), ('student_t', 'conditional')):\n"
            "    coords, kl_trace, _, sigmas = run_tsne(X, TsneConfig(iterations=40, kernel=kernel, cost=cost, seed=1))\n"
            "    for name, value in (('coords', coords), ('kl_trace', kl_trace), ('sigmas', sigmas)):\n"
            "        out[f'{name}-{kernel}-{cost}'] = value\n"
            "np.savez(sys.argv[1], **out)\n"
        )
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            path = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True, timeout=300)
            with np.load(path) as arrays:
                runs.append(dict(arrays))
        assert sorted(runs[0]) == sorted(runs[1]) and len(runs[0]) == 9
        for key in runs[0]:
            assert np.array_equal(runs[0][key], runs[1][key]), key

    @pytest.mark.parametrize("n", [2, 17, 300, 1000])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 40.0, 1e4])
    def test_planar_distances_exactly_symmetric(self, n, scale):
        # the joint cost relies on this: with a symmetric d2, Q + Q.T == 2 * Q bit for bit
        Y = np.random.default_rng(n).normal(size=(n, 2)) * scale
        for coords in (Y, np.asfortranarray(Y), Y[::-1]):
            d2 = pairwise_sq_distances(coords)
            assert np.array_equal(d2, d2.T)


class TestCalibrateSigmas:
    @pytest.mark.parametrize("n, perplexities", [(50, [2.0, 5.0, 15.0, 30.0]), (300, [5.0, 30.0]), (1000, [30.0])])
    def test_bit_identical_to_the_row_loop(self, n, perplexities):
        X = np.random.default_rng(n).normal(size=(n, 11))
        d2 = pairwise_sq_distances(X)
        for perplexity in perplexities:
            sigmas = calibrate_sigmas(d2, perplexity)
            assert np.array_equal(sigmas, oracles.row_calibrate_sigmas(d2, perplexity))
            assert np.array_equal(conditional_p(d2, sigmas), oracles.row_conditional_p(d2, sigmas))

    def test_rows_with_underflowed_cells_bit_identical(self):
        # far clusters underflow exp() to exactly 0 in some rows and not others,
        # so the rows' entropy sums run over different counts of terms
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(size=(40, 3)) * s + 12.0 * k for k, s in enumerate((0.3, 1.0, 3.0))])
        d2 = pairwise_sq_distances(X)
        sigmas = calibrate_sigmas(d2, 5.0)
        assert np.array_equal(sigmas, oracles.row_calibrate_sigmas(d2, 5.0))
        P = conditional_p(d2, sigmas)
        assert np.array_equal(P, oracles.row_conditional_p(d2, sigmas))
        assert len(np.unique((P > 0).sum(axis=1))) > 10

    def test_block_perplexities_bit_identical_to_each_row_alone(self):
        # the sigmas hide a last-bit change of a perplexity unless it flips a
        # comparison, so the perplexities themselves are checked: rows with
        # every cell positive, and rows where far clusters underflow to 0
        rng = np.random.default_rng(12)
        X = np.vstack([rng.normal(size=(40, 3)) * s + 12.0 * k for k, s in enumerate((0.3, 1.0, 3.0))])
        d2 = pairwise_sq_distances(X)
        for beta in (1e-3, 0.05, 0.4, 3.0):
            rows = np.arange(0, 120, 3)
            betas = beta * rng.uniform(0.5, 2.0, size=len(rows))
            got = semfuse.tsne._row_perplexities(d2[rows], betas, rows)
            want = [oracles.row_perplexity(d2[i].copy(), b, i)[0] for i, b in zip(rows, betas)]
            assert np.array_equal(got, want)

    def test_names_the_first_unreachable_row(self, monkeypatch):
        # rows 7-10 coincide: a perplexity of 2 is out of their reach
        X = np.random.default_rng(4).normal(size=(20, 3))
        X[8:11] = X[7]
        d2 = pairwise_sq_distances(X)
        for cells in (20, 2**16):  # one row per block, and one block
            monkeypatch.setattr(semfuse.tsne, "_BLOCK_CELLS", cells)
            with pytest.raises(CalibrationError) as got:
                calibrate_sigmas(d2, 2.0)
            with pytest.raises(CalibrationError) as want:
                oracles.row_calibrate_sigmas(d2, 2.0)
            assert got.value.row == want.value.row == 7
            assert str(got.value) == str(want.value)

    def test_equilateral_uniform(self):
        d2 = pairwise_sq_distances(EQUILATERAL)
        sigmas = calibrate_sigmas(d2, 2.0)
        P = conditional_p(d2, sigmas)
        off = P[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-9)

    def test_random_points_hit_target(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4))
        d2 = pairwise_sq_distances(X)
        for target in (5.0, 15.0, 30.0):
            sigmas = calibrate_sigmas(d2, target)
            achieved = row_perplexities(conditional_p(d2, sigmas))
            assert np.max(np.abs(achieved - target)) <= 1e-3

    def test_perplexity_at_least_n_rejected(self):
        d2 = pairwise_sq_distances(EQUILATERAL)
        with pytest.raises(CalibrationError):
            calibrate_sigmas(d2, 3.0)

    def test_collapsed_points_unreachable(self):
        X = np.zeros((4, 2))
        d2 = pairwise_sq_distances(X)
        with pytest.raises(CalibrationError):
            calibrate_sigmas(d2, 2.0)


class TestConditionalP:
    def test_two_points(self):
        d2 = pairwise_sq_distances(np.array([[0.0], [2.0]]))
        P = conditional_p(d2, np.array([1.0, 1.0]))
        assert P[0, 1] == 1.0
        assert P[1, 0] == 1.0

    def test_equilateral_halves(self):
        d2 = pairwise_sq_distances(EQUILATERAL)
        P = conditional_p(d2, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(P[~np.eye(3, dtype=bool)], 0.5, atol=1e-12)

    def test_hand_gaussian_ratios(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        d2 = pairwise_sq_distances(X)
        P = conditional_p(d2, np.ones(4))
        # row 0 by hand with sigma 1: weights exp(-d^2/2) for d^2 = 1, 4, 9
        w = [math.exp(-0.5), math.exp(-2.0), math.exp(-4.5)]
        z = sum(w)
        assert P[0, 1] == pytest.approx(w[0] / z, abs=1e-12)
        assert P[0, 2] == pytest.approx(w[1] / z, abs=1e-12)
        assert P[0, 3] == pytest.approx(w[2] / z, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        d2 = pairwise_sq_distances(rng.normal(size=(8, 3)))
        P = conditional_p(d2, np.full(8, 0.7))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.diag(P) == 0.0)


class TestSymmetrize:
    def test_two_point_forced_arithmetic(self):
        pcond = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = symmetrize(pcond)
        # (P + P.T) / 2n keeps the invariant total of exactly 1
        assert np.allclose(P, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
        assert P.sum() == pytest.approx(1.0, abs=1e-9)

    def test_three_point_hand_case(self):
        pcond = np.array([
            [0.0, 0.7, 0.3],
            [0.2, 0.0, 0.8],
            [0.5, 0.5, 0.0],
        ])
        P = symmetrize(pcond)
        assert P[0, 1] == pytest.approx((0.7 + 0.2) / 6.0, abs=1e-12)
        assert P[0, 2] == pytest.approx((0.3 + 0.5) / 6.0, abs=1e-12)
        assert P[1, 2] == pytest.approx((0.8 + 0.5) / 6.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=50)
    def test_symmetric_and_normalized(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        raw = rng.random((n, n))
        np.fill_diagonal(raw, 0.0)
        pcond = raw / raw.sum(axis=1, keepdims=True)
        P = symmetrize(pcond)
        assert np.max(np.abs(P - P.T)) <= 1e-12
        assert P.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diag(P) == 0.0)


class TestLowDimQ:
    def test_two_points(self):
        Q = low_dim_q(np.array([[0.0, 0.0], [3.0, 0.0]]))
        assert Q[0, 1] == 1.0

    def test_equilateral_halves(self):
        Q = low_dim_q(EQUILATERAL)
        assert np.allclose(Q[~np.eye(3, dtype=bool)], 0.5, atol=1e-12)

    def test_hand_three_point(self):
        Y = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        Q = low_dim_q(Y)
        w01, w02 = math.exp(-1.0), math.exp(-9.0)
        assert Q[0, 1] == pytest.approx(w01 / (w01 + w02), abs=1e-12)

    def test_joint_q_sums_to_one_globally(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(6, 2))
        Q = joint_q(Y)
        assert Q.sum() == pytest.approx(1.0, abs=1e-9)


class TestKlDivergence:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.25, 0.5])
        assert kl_divergence(p, p) <= 1e-12

    def test_hand_value(self):
        got = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert got == pytest.approx(0.14384103622589042, abs=1e-12)

    def test_zero_q_where_p_positive(self):
        with pytest.raises(DomainError):
            kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            kl_divergence(np.ones(3) / 3, np.ones(4) / 4)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=100)
    def test_gibbs_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(5) + 1e-9
        q = rng.random(5) + 1e-9
        p, q = p / p.sum(), q / q.sum()
        assert kl_divergence(p, q) >= -1e-12


class TestAffinityModel:
    def test_invariants_enforced(self):
        # joint affinities are symmetric with a zero diagonal, whatever the conditional diagonal holds
        bad = np.full((3, 3), 0.2)
        P = symmetrize(bad)
        assert np.all(np.diag(P) == 0.0)
        assert np.array_equal(P, P.T)
        assert np.allclose(P[~np.eye(3, dtype=bool)], 0.4 / 6.0, atol=1e-15)


class TestTsneConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TsneConfig(perplexity=1.0)
        with pytest.raises(ConfigError):
            TsneConfig(iterations=0)
        TsneConfig(iterations=semfuse.tsne.MAX_ITERATIONS)
        # run_tsne would allocate a trace of iterations + 1 floats
        for iterations in (semfuse.tsne.MAX_ITERATIONS + 1, 10**12, 10**23):
            with pytest.raises(ConfigError, match=f"iterations must be <= 1000000, got {iterations}$"):
                TsneConfig(iterations=iterations)
        with pytest.raises(ConfigError):
            TsneConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TsneConfig(kernel="cubic")
        with pytest.raises(ConfigError):
            TsneConfig(cost="forward")

    def test_fields_are_the_settings_a_caller_sets(self):
        # the descent schedule is the module's constants, not a setting
        names = [field.name for field in dataclasses.fields(TsneConfig)]
        assert names == ["perplexity", "iterations", "learning_rate", "kernel", "cost", "seed"]
        assert (semfuse.tsne.MOMENTUM_START, semfuse.tsne.MOMENTUM_FINAL, semfuse.tsne.MOMENTUM_SWITCH,
                semfuse.tsne.EARLY_EXAGGERATION, semfuse.tsne.EXAGGERATION_ITERS) == (0.5, 0.8, 250, 4.0, 100)


def two_cluster_space(seed=3, per=8, sep=6.0, scale=0.2, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(per, dim)) * scale
    b = rng.normal(size=(per, dim)) * scale + sep
    return np.vstack([a, b])


class TestRunTsne:
    def test_same_seed_identical(self):
        X = two_cluster_space()
        cfg = TsneConfig(perplexity=4.0, iterations=120, seed=9)
        a_coords, a_trace, _, _ = run_tsne(X, cfg)
        b_coords, b_trace, _, _ = run_tsne(X, cfg)
        assert np.array_equal(a_coords, b_coords)
        assert np.array_equal(a_trace, b_trace)

    def test_descends_on_two_clusters(self):
        X = two_cluster_space()
        coords, kl_trace, _, _ = run_tsne(X, TsneConfig(perplexity=4.0, iterations=300, seed=1))
        assert np.all(np.isfinite(coords))
        assert kl_trace[-1] < kl_trace[0]

    def test_trace_length_and_effective_perplexity(self):
        X = two_cluster_space(per=5)
        _, kl_trace, perplexity, _ = run_tsne(X, TsneConfig(perplexity=30.0, iterations=50, seed=0))
        assert len(kl_trace) == 51
        assert perplexity == pytest.approx((10 - 1) / 3.0)

    def test_too_few_rows(self):
        with pytest.raises(DomainError):
            run_tsne(np.zeros((2, 3)), TsneConfig(perplexity=1.5))

    def test_permutation_equivariance(self):
        X = two_cluster_space(per=5)
        n = len(X)
        rng = np.random.default_rng(12)
        init = rng.normal(size=(n, 2)) * 0.01
        perm = rng.permutation(n)
        cfg = TsneConfig(perplexity=3.0, iterations=40, seed=0)
        base = run_tsne(X, cfg, init=init)[0]
        permuted = run_tsne(X[perm], cfg, init=init[perm])[0]
        assert np.allclose(permuted, base[perm], atol=1e-6)

    @pytest.mark.parametrize("learning_rate, init", [(1e308, None), (1e200, None), (100.0, np.nan)])
    def test_divergence_names_the_iteration_and_warns_nothing(self, learning_rate, init):
        # a step whose length overflows is a divergence, not a capped zero step
        X = np.random.default_rng(0).normal(size=(10, 4))
        cfg = TsneConfig(perplexity=5.0, iterations=150, learning_rate=learning_rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"^coordinates diverged at iteration 0$") as info:
                run_tsne(X, cfg, init=None if init is None else np.full((10, 2), init))
        assert info.value.iteration == 0

    def test_init_shape_checked(self):
        X = two_cluster_space(per=3)
        with pytest.raises(DomainError):
            run_tsne(X, TsneConfig(perplexity=2.0, iterations=10), init=np.zeros((2, 2)))


class TestCostAndGrad:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        Y = rng.normal(size=(5, 2)) * 0.7
        P = rng.random((5, 5))
        np.fill_diagonal(P, 0.0)
        P = P + P.T
        P /= P.sum()
        for kernel in ("gaussian", "student_t"):
            c0, grad = tsne_cost_and_grad(P, Y, kernel, "joint")
            h = 1e-6
            for i in range(5):
                for j in range(2):
                    Yp, Ym = Y.copy(), Y.copy()
                    Yp[i, j] += h
                    Ym[i, j] -= h
                    num = (
                        tsne_cost_and_grad(P, Yp, kernel, "joint")[0]
                        - tsne_cost_and_grad(P, Ym, kernel, "joint")[0]
                    ) / (2 * h)
                    assert grad[i, j] == pytest.approx(num, rel=1e-4, abs=1e-9)


class TestBlockedCost:
    """Row blocks and threads change no bit; the whole-matrix code agrees to the last bits."""

    @pytest.mark.parametrize("n", [3, 10, 65, 300])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("cost", COST_MODES)
    @pytest.mark.parametrize("exaggeration", [1.0, 3.0, 4.0])
    def test_every_block_size_and_pool_gives_the_same_bytes(self, monkeypatch, n, kernel, cost, exaggeration):
        P, Y = random_affinities(n, cost, seed=n)
        results = []
        # blocks of 1 row, of 7 rows with a remainder (n = 10, 65, 300), and the default
        for cells in (n, 7 * n, semfuse.tsne._BLOCK_CELLS):
            monkeypatch.setattr(semfuse.tsne, "_BLOCK_CELLS", cells)
            for workers in (1, 2):
                monkeypatch.setattr(semfuse.tsne, "_cpu_count", lambda: workers)
                with semfuse.tsne._Workspace(n) as workspace:
                    assert len(workspace.buffers) == min(workers, -(-n // max(1, cells // n)))
                    results.append(tsne_cost_and_grad(P, Y, kernel, cost, exaggeration, workspace=workspace))
        assert_close_to_whole_matrix(results[0], P, Y, kernel, cost, exaggeration)
        for cost_value, grad in results[1:]:
            assert cost_value == results[0][0]
            assert np.array_equal(grad, results[0][1])

    def test_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        P, Y = random_affinities(65, "conditional", seed=3)
        monkeypatch.setattr(semfuse.tsne, "_BLOCK_CELLS", 65)
        monkeypatch.setattr(semfuse.tsne, "_cpu_count", lambda: 1)
        want = tsne_cost_and_grad(P, Y, "student_t", "conditional", 4.0)
        monkeypatch.setattr(semfuse.tsne, "_cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with semfuse.tsne._Workspace(65) as workspace:
                assert len(workspace.buffers) == 8
                for _ in range(5):
                    got = tsne_cost_and_grad(P, Y, "student_t", "conditional", 4.0, workspace=workspace)
                    assert got[0] == want[0]
                    assert np.array_equal(got[1], want[1])
        finally:
            sys.setswitchinterval(interval)

    def test_without_a_workspace_the_call_builds_its_own(self):
        P, Y = random_affinities(65, "joint", seed=1)
        with semfuse.tsne._Workspace(65) as workspace:
            given = tsne_cost_and_grad(P, Y, workspace=workspace)
        built = tsne_cost_and_grad(P, Y)
        assert built[0] == given[0]
        assert np.array_equal(built[1], given[1])

    @pytest.mark.parametrize("cost", COST_MODES)
    def test_run_tsne_same_bytes_with_pools_of_one_and_two(self, monkeypatch, cost):
        rng = np.random.default_rng(21)
        X = np.vstack([rng.normal(size=(100, 6)) + 4.0 * k for k in range(3)])
        monkeypatch.setattr(semfuse.tsne, "EXAGGERATION_ITERS", 15)
        cfg = TsneConfig(iterations=25, cost=cost, seed=2)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(semfuse.tsne, "_cpu_count", lambda: workers)
            runs.append(run_tsne(X, cfg))
        assert np.array_equal(runs[0][0], runs[1][0])  # coords
        assert np.array_equal(runs[0][1], runs[1][1])  # kl_trace


class TestSecondSweep:
    """The second sweep takes row sums of S, not coordinate differences; the offset sweeps agree."""

    @pytest.mark.parametrize("n", [3, 10, 65, 300])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("cost", COST_MODES)
    @pytest.mark.parametrize("exaggeration", [1.0, 3.0, 4.0])
    def test_agrees_with_the_offset_sweeps(self, n, kernel, cost, exaggeration):
        P, Y = random_affinities(n, cost, seed=n)
        got = tsne_cost_and_grad(P, Y, kernel, cost, exaggeration)
        want_cost, want_grad = oracles.offset_cost_and_grad(P, Y, kernel, cost, exaggeration)
        assert abs(got[0] - want_cost) <= 1e-12 * abs(want_cost)
        assert np.max(np.abs(got[1] - want_grad)) <= 1e-11 * np.max(np.abs(want_grad))

    @pytest.mark.parametrize("n", [3, 10, 65, 300])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("cost", COST_MODES)
    @pytest.mark.parametrize("exaggeration", [1.0, 3.0, 4.0])
    def test_symmetric_shortcut_equals_the_s_p_path(self, monkeypatch, n, kernel, cost, exaggeration):
        P, Y = random_affinities(n, "joint", seed=n)
        plogp, half, halved = semfuse.tsne._p_terms(P, exaggeration)
        assert halved and (half is P) == (exaggeration == 1.0)
        scaled = exaggeration * P
        S_P = scaled + scaled.T
        for cells in (semfuse.tsne._BLOCK_CELLS, n):  # the default blocks, then blocks of one row
            monkeypatch.setattr(semfuse.tsne, "_BLOCK_CELLS", cells)
            got = tsne_cost_and_grad(P, Y, kernel, cost, exaggeration)
            want = tsne_cost_and_grad(P, Y, kernel, cost, exaggeration, p_terms=(plogp, S_P, False))
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])

    def test_an_asymmetric_p_keeps_s_p(self):
        P, _ = random_affinities(10, "conditional", seed=2)
        plogp, S_P, halved = semfuse.tsne._p_terms(P, 3.0)
        assert not halved
        assert np.array_equal(S_P, 3.0 * P + (3.0 * P).T)
        positive = P[P > 0]
        assert plogp == pytest.approx(float(np.sum(positive * np.log(positive))), rel=1e-15)

    @pytest.mark.parametrize("cost, halved", [("joint", True), ("conditional", False)])
    def test_run_tsne_takes_the_shortcut_under_the_joint_cost(self, monkeypatch, cost, halved):
        seen = []
        original = semfuse.tsne._p_terms

        def recording(P, exaggeration):
            terms = original(P, exaggeration)
            seen.append(terms[2])
            return terms

        monkeypatch.setattr(semfuse.tsne, "_p_terms", recording)
        monkeypatch.setattr(semfuse.tsne, "EXAGGERATION_ITERS", 6)
        run_tsne(two_cluster_space(per=6), TsneConfig(perplexity=4.0, iterations=12, cost=cost, seed=1))
        assert seen == [halved, halved]


class TestFusedPass:
    """One cost-and-gradient evaluation per iteration, checked against the two-call loop."""

    @pytest.mark.parametrize("kernel", ["gaussian", "student_t"])
    @pytest.mark.parametrize("cost", ["joint", "conditional"])
    @pytest.mark.parametrize("exaggeration", [4.0, 3.0])
    def test_cost_of_p_gradient_of_exaggerated_p(self, kernel, cost, exaggeration):
        rng = np.random.default_rng(8)
        Y = rng.normal(size=(9, 2))
        P = rng.random((9, 9))
        np.fill_diagonal(P, 0.0)
        if cost == "joint":
            P = (P + P.T) / (P + P.T).sum()
        else:
            P /= P.sum(axis=1, keepdims=True)
        cost_value, grad = tsne_cost_and_grad(P, Y, kernel, cost, exaggeration=exaggeration)
        assert cost_value == tsne_cost_and_grad(P, Y, kernel, cost)[0]
        assert np.array_equal(grad, tsne_cost_and_grad(exaggeration * P, Y, kernel, cost)[1])
        # and both halves agree with the whole-matrix evaluations of the two-call descent
        assert_close_to_whole_matrix((cost_value, grad), P, Y, kernel, cost, exaggeration)

    @pytest.mark.parametrize("kernel", ["gaussian", "student_t"])
    @pytest.mark.parametrize("cost", ["joint", "conditional"])
    def test_descent_matches_two_call_loop(self, kernel, cost):
        # default exaggeration (4.0) through the switch at iteration 100
        cfg = TsneConfig(perplexity=4.0, iterations=110, kernel=kernel, cost=cost, seed=5)
        X = two_cluster_space(per=6)
        (got_coords, got_trace, _, _), (coords, kl_trace, _, _) = (
            run_tsne(X, cfg), oracles.tsne_descent(X, cfg, tsne_cost_and_grad))
        assert np.array_equal(got_coords, coords)
        assert np.array_equal(got_trace, kl_trace)

    @pytest.mark.parametrize("kernel", ["gaussian", "student_t"])
    def test_non_power_of_two_exaggeration_matches_exactly(self, monkeypatch, kernel):
        # the fused pass scales P before the transpose-add, as the old loop
        # did, so the tolerance is zero for any factor, not only 2^k
        monkeypatch.setattr(semfuse.tsne, "EARLY_EXAGGERATION", 3.0)
        monkeypatch.setattr(semfuse.tsne, "EXAGGERATION_ITERS", 8)
        cfg = TsneConfig(perplexity=3.0, iterations=12, kernel=kernel, seed=2)
        X = two_cluster_space(per=5)
        (got_coords, got_trace, _, _), (coords, kl_trace, _, _) = (
            run_tsne(X, cfg), oracles.tsne_descent(X, cfg, tsne_cost_and_grad))
        assert np.array_equal(got_coords, coords)
        assert np.array_equal(got_trace, kl_trace)

    def test_one_call_per_iteration(self, monkeypatch):
        calls = []
        original = semfuse.tsne.tsne_cost_and_grad

        def counting(P, coords, kernel="gaussian", cost="joint", exaggeration=1.0, **kw):
            calls.append(exaggeration)
            return original(P, coords, kernel, cost, exaggeration, **kw)

        monkeypatch.setattr(semfuse.tsne, "tsne_cost_and_grad", counting)
        monkeypatch.setattr(semfuse.tsne, "EXAGGERATION_ITERS", 6)
        cfg = TsneConfig(perplexity=3.0, iterations=15, seed=1)
        run_tsne(two_cluster_space(per=4), cfg)
        assert len(calls) == cfg.iterations + 1
        # exaggerated while early exaggeration lasts, plain after, plain for the final cost
        assert calls == [4.0] * 6 + [1.0] * 10


class TestPhaseTerms:
    """The P-only terms are built once per exaggeration phase and change no bit."""

    @pytest.mark.parametrize("kernel", ["gaussian", "student_t"])
    @pytest.mark.parametrize("cost", ["joint", "conditional"])
    def test_descent_matches_two_call_loop_at_300_points(self, monkeypatch, kernel, cost):
        rng = np.random.default_rng(17)
        X = np.vstack([rng.normal(size=(100, 6)) + 4.0 * k for k in range(3)])
        monkeypatch.setattr(semfuse.tsne, "EXAGGERATION_ITERS", 20)
        cfg = TsneConfig(iterations=30, kernel=kernel, cost=cost, seed=4)
        (got_coords, got_trace, _, got_sigmas), (coords, kl_trace, _, sigmas) = (
            run_tsne(X, cfg), oracles.tsne_descent(X, cfg, tsne_cost_and_grad))
        assert np.array_equal(got_coords, coords)
        assert np.array_equal(got_trace, kl_trace)
        assert np.array_equal(got_sigmas, sigmas)

    @pytest.mark.parametrize("kernel", ["gaussian", "student_t"])
    @pytest.mark.parametrize("cost", ["joint", "conditional"])
    @pytest.mark.parametrize("exaggeration", [1.0, 3.0])
    def test_given_terms_equal_built_terms(self, kernel, cost, exaggeration):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(12, 2))
        P = rng.random((12, 12))
        np.fill_diagonal(P, 0.0)
        P = (P + P.T) / (P + P.T).sum() if cost == "joint" else P / P.sum(axis=1, keepdims=True)
        terms = semfuse.tsne._p_terms(P, exaggeration)
        built = tsne_cost_and_grad(P, Y, kernel, cost, exaggeration)
        given = tsne_cost_and_grad(P, Y, kernel, cost, exaggeration, p_terms=terms)
        assert built[0] == given[0]
        assert np.array_equal(built[1], given[1])

    @pytest.mark.parametrize(
        "iterations, exaggeration_iters, expected",
        [(15, 6, [4.0, 1.0]), (5, 8, [4.0, 1.0]), (7, 0, [1.0])],
    )
    def test_terms_built_once_per_phase(self, monkeypatch, iterations, exaggeration_iters, expected):
        builds = []
        original = semfuse.tsne._p_terms

        def counting(P, exaggeration):
            builds.append(exaggeration)
            return original(P, exaggeration)

        monkeypatch.setattr(semfuse.tsne, "_p_terms", counting)
        monkeypatch.setattr(semfuse.tsne, "EXAGGERATION_ITERS", exaggeration_iters)
        cfg = TsneConfig(perplexity=3.0, iterations=iterations, seed=1)
        run_tsne(two_cluster_space(per=4), cfg)
        assert builds == expected

    def test_result_carries_calibrated_sigmas(self):
        X = two_cluster_space(per=5)
        _, _, perplexity, sigmas = run_tsne(X, TsneConfig(perplexity=3.0, iterations=5, seed=0))
        assert np.array_equal(sigmas, calibrate_sigmas(pairwise_sq_distances(X), perplexity))


class TestOutputs:
    def test_coords_csv(self, tmp_path):
        p = tmp_path / "coords.csv"
        write_coords_csv(["a", "b"], np.array([[1.5, -2.0], [0.0, 3.25]]), p)
        lines = p.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "id,x,y"
        assert lines[1] == "a,1.5,-2.0"

    def test_load_colors_and_duplicates(self, tmp_path):
        p = tmp_path / "colors.csv"
        p.write_text("id,color\na,#ff0000\nb,#00ff00\n", encoding="utf-8")
        assert load_colors(p) == {"a": "#ff0000", "b": "#00ff00"}
        p.write_text("id,color\na,#ff0000\na,#00ff00\n", encoding="utf-8")
        with pytest.raises(ConflictError):
            load_colors(p)

    def test_load_colors_duplicate_names_file_and_line(self, tmp_path):
        p = tmp_path / "colors.csv"
        p.write_text("id,color\na,#ff0000\n\na,#00ff00\n", encoding="utf-8")
        with pytest.raises(ConflictError, match=re.escape(f"{p}: line 4: duplicate color entry for id 'a'")):
            load_colors(p)

    @pytest.mark.parametrize("body, line", [("id,color\na\n", 2), ("id,color\na,#fff\n\nb\n", 4)])
    def test_load_colors_short_row_names_file_and_line(self, tmp_path, body, line):
        p = tmp_path / "colors.csv"
        p.write_text(body, encoding="utf-8")
        with pytest.raises(FormatError, match=rf"colors\.csv: line {line}: expected id,color"):
            load_colors(p)

    def test_load_colors_header_checked(self, tmp_path):
        p = tmp_path / "colors.csv"
        p.write_text("name,shade\na,#fff\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_colors(p)

    def test_scatter_svg_deterministic_and_colored(self, tmp_path):
        coords = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]])
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        colors = {"x": "#ff0000"}
        write_scatter_svg(["x", "y", "z"], coords, p1, colors)
        write_scatter_svg(["x", "y", "z"], coords, p2, colors)
        body = p1.read_text(encoding="utf-8")
        assert body == p2.read_text(encoding="utf-8")
        assert body.count("<circle") == 3
        assert '#ff0000' in body

    def test_scatter_svg_escapes_ids_and_fills(self, tmp_path):
        p = tmp_path / "map.svg"
        ids = ["a&b", "c<d>", "plain"]
        write_scatter_svg(ids, np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]]), p,
                          {"a&b": 'red" onload="x', "plain": "#00ff00"})
        circles = list(ElementTree.parse(p).getroot().iter("{http://www.w3.org/2000/svg}circle"))
        assert [c.find("{http://www.w3.org/2000/svg}title").text for c in circles] == ids
        assert [c.get("fill") for c in circles] == ['red" onload="x', "#555555", "#00ff00"]
        assert all(c.get("onload") is None for c in circles)
        # a plain id and color keep their bytes
        plain = '<circle cx="32.00" cy="464.00" r="4" fill="#00ff00"><title>plain</title></circle>\n'
        assert plain in p.read_text(encoding="utf-8")
