import itertools
import math
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings, strategies as st

import semfuse.rankopt as rankopt
from semfuse.corpus import Record
from semfuse.errors import ConfigError, ConflictError, DomainError, FormatError, RowError
from semfuse.geotime import EARTH_RADIUS_MILES, GeoPoint
from semfuse.rankopt import (
    DEFAULT_DIST_KINDS,
    DIST_KINDS,
    SIM_KINDS,
    GridConfig,
    RankMatrix,
    SimilarityParams,
    batch_features,
    dist_exp,
    dist_floor_geo,
    dist_inv,
    load_rank_labels,
    optimize_alphas,
    pairwise_scores,
    rank_loss,
    rank_matrix,
    save_score_matrix,
    save_trace_csv,
    sim_pi,
    sim_sigma,
)


def equator_point_at(miles: float) -> GeoPoint:
    """Point on the equator exactly `miles` east of (0, 0)."""
    return GeoPoint(0.0, math.degrees(miles / EARTH_RADIUS_MILES))

ORIGIN = GeoPoint(0.0, 0.0)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestDistanceKernels:
    def test_exp_zero_gap(self):
        assert dist_exp(4.0, 4.0) == 1.0

    def test_exp_log_two(self):
        assert dist_exp(0.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_exp_gap_three(self):
        assert dist_exp(0.0, 3.0) == pytest.approx(0.049787068367863944, abs=1e-12)

    def test_inv_values(self):
        assert dist_inv(2.0, 2.0) == 1.0
        assert dist_inv(0.0, 1.0) == 0.5
        assert dist_inv(0.0, 3.0) == 0.25

    def test_floor_geo_same_point(self):
        assert dist_floor_geo(ORIGIN, ORIGIN) == 1.0

    def test_floor_geo_4999_miles(self):
        assert dist_floor_geo(ORIGIN, equator_point_at(4999.0)) == pytest.approx(0.1)

    def test_floor_geo_6000_miles_clamped(self):
        assert dist_floor_geo(ORIGIN, equator_point_at(6000.0)) == 0.0

    @given(finite, finite)
    def test_scalar_kernels_bounded_and_symmetric(self, a, b):
        for fn in (dist_exp, dist_inv):
            assert 0.0 <= fn(a, b) <= 1.0
            assert fn(a, b) == fn(b, a)

    @given(finite, st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6))
    def test_scalar_kernels_nonincreasing(self, a, gap1, gap2):
        lo, hi = sorted([gap1, gap2])
        for fn in (dist_exp, dist_inv):
            assert fn(a, a + hi) <= fn(a, a + lo) + 1e-12

    @given(st.floats(min_value=0, max_value=12000), st.floats(min_value=0, max_value=12000))
    @settings(max_examples=100)
    def test_floor_geo_bounded_and_nonincreasing(self, m1, m2):
        lo, hi = sorted([m1, m2])
        near = dist_floor_geo(ORIGIN, equator_point_at(lo))
        far = dist_floor_geo(ORIGIN, equator_point_at(hi))
        assert 0.0 <= far <= near <= 1.0


class TestSimilarityFunctions:
    def test_sigma_zero_alpha_reduces_to_dot(self):
        p = SimilarityParams("sigma", (0.0, 0.0), DEFAULT_DIST_KINDS)
        e1, e2 = np.array([0.6, 0.8]), np.array([0.8, 0.6])
        feats1 = (0.0, ORIGIN)
        feats2 = (5.0, equator_point_at(1000.0))
        assert sim_sigma(e1, e2, feats1, feats2, p) == pytest.approx(0.96, abs=1e-12)

    def test_sigma_forced_arithmetic(self):
        p = SimilarityParams("sigma", (1.0, 1.0), DEFAULT_DIST_KINDS)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.5, math.sqrt(0.75)])
        same = (3.0, ORIGIN)
        assert sim_sigma(e1, e2, same, same, p) == pytest.approx(2.5, abs=1e-12)

    def test_sigma_hand_value(self):
        # dot 0.3, d1 = 1/(3+1) = 0.25, d2 = 0.1 at 4999 miles
        p = SimilarityParams("sigma", (0.5, 2.0), DEFAULT_DIST_KINDS)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.3, math.sqrt(0.91)])
        feats1 = (0.0, ORIGIN)
        feats2 = (3.0, equator_point_at(4999.0))
        got = sim_sigma(e1, e2, feats1, feats2, p)
        assert got == pytest.approx(0.3 + 0.125 + 0.2, abs=1e-9)

    def test_pi_unit_factors_reduce_to_dot(self):
        p = SimilarityParams("pi", (0.0, 0.0), DEFAULT_DIST_KINDS)
        e1, e2 = np.array([0.6, 0.8]), np.array([0.8, 0.6])
        same = (2.0, ORIGIN)  # both kernels give 1 at zero gap
        assert sim_pi(e1, e2, same, same, p) == pytest.approx(0.96, abs=1e-12)

    def test_pi_reference_weights_same_day_same_place(self):
        p = SimilarityParams("pi", (0.02, 9.55), DEFAULT_DIST_KINDS)
        e = np.array([1.0, 0.0])
        same = (7.0, ORIGIN)
        assert sim_pi(e, e, same, same, p) == pytest.approx(10.761, abs=1e-9)

    def test_pi_hand_value(self):
        # dot 0.4, d1 = 0.5 one day apart, d2 = 0.1 at 4999 miles
        p = SimilarityParams("pi", (0.02, 9.55), DEFAULT_DIST_KINDS)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.4, math.sqrt(0.84)])
        feats1 = (0.0, ORIGIN)
        feats2 = (1.0, equator_point_at(4999.0))
        got = sim_pi(e1, e2, feats1, feats2, p)
        assert got == pytest.approx(0.4 * 0.52 * 9.65, abs=1e-9)
        assert got == pytest.approx(2.0072, abs=1e-9)

    def test_feature_count_mismatch(self):
        p = SimilarityParams("sigma", (1.0, 1.0), DEFAULT_DIST_KINDS)
        e = np.array([1.0, 0.0])
        with pytest.raises(DomainError):
            sim_sigma(e, e, (1.0,), (1.0,), p)


class TestBatchFeatures:
    def test_days_and_coords(self):
        records = [
            Record("a", "x", 86400 * 3, coords=GeoPoint(10.0, 20.0)),
            Record("b", "y", 43200, coords=GeoPoint(-5.0, 30.0)),
        ]
        feats = batch_features(records)
        assert feats[0] == (3.0, GeoPoint(10.0, 20.0))
        assert feats[1] == (0.5, GeoPoint(-5.0, 30.0))

    def test_missing_coords_names_id(self):
        with pytest.raises(DomainError, match="nowhere"):
            batch_features([Record("nowhere", "x", 5)])


class TestRankMatrix:
    def test_two_candidate_order(self):
        scores = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.5], [0.1, 0.5, 0.0]])
        rm = rank_matrix(scores)
        assert rm.entries[0, 1] == 0
        assert rm.entries[0, 2] == 1

    def test_all_ties_break_by_index(self):
        scores = np.ones((4, 4))
        rm = rank_matrix(scores)
        assert rm.entries[1].tolist() == [0, 0, 1, 2]
        for i in range(4):
            assert rm.entries[i, i] == 0

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=150)
    def test_rows_match_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((6, 6))
        scores = (scores + scores.T) / 2
        rm = rank_matrix(scores)
        assert np.array_equal(rm.entries, oracles.rank_entries(scores))
        for i in range(6):
            off = [rm.entries[i, j] for j in range(6) if j != i]
            assert sorted(off) == list(range(5))

    @given(st.integers(min_value=2, max_value=30).flatmap(
        lambda m: st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=m * m, max_size=m * m)
    ))
    @settings(max_examples=150, deadline=None)
    def test_tied_rows_match_sort_oracle(self, cells):
        m = math.isqrt(len(cells))
        scores = np.array(cells).reshape(m, m)
        assert np.array_equal(rank_matrix(scores).entries, oracles.rank_entries(scores))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.random.default_rng(1).random((4, 4))
        scores[2, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            rank_matrix(scores)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(77)
        scores = rng.random((5, 5))
        base = rank_matrix(scores)
        assert np.array_equal(rank_matrix(2.0 * scores + 1.0).entries, base.entries)
        assert np.array_equal(rank_matrix(np.exp(scores)).entries, base.entries)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            rank_matrix(np.zeros((3, 4)))


class TestRankLoss:
    def test_identical_zero(self):
        rm = rank_matrix(np.random.default_rng(0).random((5, 5)))
        assert rank_loss(rm, rm) == 0.0

    def test_single_cell_difference(self):
        a = rank_matrix(np.ones((3, 3)))
        entries = a.entries.copy()
        entries[0, 1] += 2
        b = RankMatrix(3, entries)
        assert rank_loss(a, b) == 2.0

    def test_hand_summed_4x4(self):
        a = RankMatrix(4, np.array([
            [0, 0, 1, 2],
            [0, 0, 1, 2],
            [0, 1, 0, 2],
            [0, 1, 2, 0],
        ]))
        b = RankMatrix(4, np.array([
            [0, 2, 1, 0],
            [0, 0, 2, 1],
            [1, 0, 0, 2],
            [0, 1, 2, 0],
        ]))
        # off-diagonal squared differences: (0-2)^2+(1-1)^2+(2-0)^2
        #   + (0-0)^2+(1-2)^2+(2-1)^2 + (0-1)^2+(1-0)^2+(0-0)... by hand: 4+0+4+0+1+1+1+1+0+0+0+0 = 12
        assert rank_loss(a, b) == pytest.approx(math.sqrt(12.0), abs=1e-12)

    @given(st.integers(min_value=0, max_value=500))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rank_matrix(rng.random((5, 5)))
        b = rank_matrix(rng.random((5, 5)))
        assert rank_loss(a, b) == rank_loss(b, a)

    def test_size_mismatch(self):
        a = rank_matrix(np.ones((3, 3)))
        b = rank_matrix(np.ones((4, 4)))
        with pytest.raises(DomainError):
            rank_loss(a, b)


def synthetic_batch(m: int, seed: int):
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(m, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    feats = [
        (float(rng.integers(0, 10)), GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-150, 150))))
        for _ in range(m)
    ]
    return emb, feats


class TestOptimizeAlphas:
    def test_recovers_generating_parameters(self):
        emb, feats = synthetic_batch(12, 21)
        true = SimilarityParams("pi", (0.5, 6.5), DEFAULT_DIST_KINDS)
        labels = rank_matrix(pairwise_scores(emb, feats, true))
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 10.0)))
        params, loss, trace = optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)
        assert loss == 0.0
        derived = rank_matrix(pairwise_scores(emb, feats, params))
        assert np.array_equal(derived.entries, labels.entries)

    def test_single_point_grid(self):
        emb, feats = synthetic_batch(10, 3)
        labels = rank_matrix(pairwise_scores(
            emb, feats, SimilarityParams("pi", (0.1, 2.0), DEFAULT_DIST_KINDS)
        ))
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 10.0)), step=50.0, rounds=1)
        params, loss, trace = optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)
        assert params.alphas == (0.5, 5.0)
        probed = rank_matrix(pairwise_scores(emb, feats, params))
        assert loss == pytest.approx(rank_loss(probed, labels), abs=1e-12)

    def test_never_worse_than_probes(self):
        emb, feats = synthetic_batch(10, 8)
        labels = rank_matrix(pairwise_scores(
            emb, feats, SimilarityParams("pi", (0.9, 1.1), DEFAULT_DIST_KINDS)
        ))
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 4.0)), rounds=2)
        _, loss, trace = optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)
        assert trace
        assert all(loss <= t[3] + 1e-12 for t in trace)

    def test_warns_outside_recommended_batch(self):
        emb, feats = synthetic_batch(5, 4)
        labels = rank_matrix(pairwise_scores(
            emb, feats, SimilarityParams("sigma", (0.5, 0.5), DEFAULT_DIST_KINDS)
        ))
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 1.0)), rounds=1)
        with pytest.warns(UserWarning, match="batch size 5"):
            optimize_alphas(emb, feats, labels, "sigma", DEFAULT_DIST_KINDS, cfg)

    def test_wrong_arity_rejected(self):
        emb, feats = synthetic_batch(10, 5)
        labels = rank_matrix(np.random.default_rng(0).random((10, 10)))
        cfg = GridConfig(bounds=((0.0, 1.0),))
        with pytest.raises(ConfigError):
            optimize_alphas(emb, feats, labels, "pi", ("inv_abs",), cfg)

    def test_trace_csv(self, tmp_path):
        trace = [(1, 0.5, 5.0, 3.0), (2, 0.25, 2.5, 1.0)]
        p = tmp_path / "trace.csv"
        save_trace_csv(trace, p)
        lines = p.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "round,alpha1,alpha2,loss"
        assert len(lines) == 3

    def test_trace_csv_header_follows_alpha_count(self, tmp_path):
        p = tmp_path / "trace.csv"
        save_trace_csv([(1, 0.5, 3.0)], p)
        assert p.read_text(encoding="utf-8").splitlines() == ["round,alpha1,loss", "1,0.5,3.0"]

    def test_default_grid_probe_order(self):
        # 6 rounds of a 21 x 21 grid, alpha1-major: the same probes, in the
        # same order, as the two-axis nested loop replayed on these losses
        emb, feats = synthetic_batch(12, 31)
        labels = rank_matrix(pairwise_scores(
            emb, feats, SimilarityParams("pi", (0.3, 4.0), DEFAULT_DIST_KINDS)
        ))
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 12.0)))
        _, _, trace = optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)
        assert len(trace) == 2646
        losses = {(a1, a2): loss for _, a1, a2, loss in trace}
        assert trace == oracles.two_axis_grid_trace(cfg, lambda alphas: losses[alphas])
        first_row = trace[:21]
        assert {t[1] for t in first_row} == {0.0}
        assert [t[2] for t in first_row] == [float(v) for v in np.linspace(0.0, 12.0, 21)]

    def test_even_grid_probe_order(self):
        emb, feats = synthetic_batch(10, 32)
        labels = rank_matrix(pairwise_scores(
            emb, feats, SimilarityParams("sigma", (0.2, 0.7), DEFAULT_DIST_KINDS)
        ))
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 1.0)), step=0.25, rounds=3)
        _, _, trace = optimize_alphas(emb, feats, labels, "sigma", DEFAULT_DIST_KINDS, cfg)
        losses = {(a1, a2): loss for _, a1, a2, loss in trace}
        assert trace == oracles.two_axis_grid_trace(cfg, lambda alphas: losses[alphas])

    def test_single_kernel(self):
        emb, feats = synthetic_batch(10, 33)
        days = [(f[0],) for f in feats]
        labels = rank_matrix(pairwise_scores(emb, days, SimilarityParams("pi", (0.4,), ("inv_abs",))))
        cfg = GridConfig(bounds=((0.0, 1.0),), rounds=2)
        params, loss, trace = optimize_alphas(emb, days, labels, "pi", ("inv_abs",), cfg)
        assert len(trace) == 42
        assert all(len(t) == 3 for t in trace)
        assert params.dist_kinds == ("inv_abs",)
        assert loss == min(t[2] for t in trace)

    def test_three_kernels(self):
        emb, feats = synthetic_batch(10, 34)
        feats3 = [(d, p, d / 7.0) for d, p in feats]
        kinds = ("inv_abs", "floor_geo", "exp_abs")
        labels = rank_matrix(pairwise_scores(emb, feats3, SimilarityParams("sigma", (0.5, 0.5, 1.0), kinds)))
        cfg = GridConfig(bounds=((0.0, 1.0),) * 3, step=0.5, rounds=2)
        params, loss, trace = optimize_alphas(emb, feats3, labels, "sigma", kinds, cfg)
        assert len(trace) == 2 * 27
        assert [t[1:4] for t in trace[:27]] == list(itertools.product([0.0, 0.5, 1.0], repeat=3))
        assert len(params.alphas) == 3
        assert loss == min(t[4] for t in trace)

    def test_feature_count_must_match_kinds(self):
        emb, feats = synthetic_batch(10, 35)
        labels = rank_matrix(np.random.default_rng(0).random((10, 10)))
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 1.0)))
        short = [(f[0],) for f in feats]
        with pytest.raises(ConfigError):
            optimize_alphas(emb, short, labels, "pi", DEFAULT_DIST_KINDS, cfg)


def fitted_batch(m: int, seed: int, kinds: tuple[str, ...], kind: str):
    """A batch with per-record features for `kinds` and labels planted at fixed weights."""
    emb, feats = synthetic_batch(m, seed)
    column = {"inv_abs": lambda f: f[0], "exp_abs": lambda f: f[0] / 7.0, "floor_geo": lambda f: f[1]}
    feats = [tuple(column[k](f) for k in kinds) for f in feats]
    planted = SimilarityParams(kind, tuple(0.3 + 0.4 * i for i in range(len(kinds))), kinds)
    return emb, feats, rank_matrix(pairwise_scores(emb, feats, planted))


class TestStackedSearch:
    """optimize_alphas scores each round as stacks of probes; the per-probe loop is its oracle."""

    CASES = {
        # name: (m, dist kinds, bounds, step, rounds)
        "one kernel": (12, ("inv_abs",), ((0.0, 1.0),), None, 6),
        "two kernels": (12, DEFAULT_DIST_KINDS, ((0.0, 1.0), (0.0, 12.0)), None, 6),
        "three kernels": (10, ("inv_abs", "floor_geo", "exp_abs"), ((0.0, 1.0),) * 3, 0.125, 3),
        "even grid": (10, DEFAULT_DIST_KINDS, ((0.0, 1.0), (0.0, 1.0)), 0.25, 4),
        "several chunks": (20, DEFAULT_DIST_KINDS, ((0.0, 1.0), (0.0, 12.0)), None, 3),
        "m = 3": (3, DEFAULT_DIST_KINDS, ((0.0, 1.0), (0.0, 12.0)), None, 3),
        "m = 40": (40, DEFAULT_DIST_KINDS, ((0.0, 1.0), (0.0, 12.0)), None, 2),
    }

    @pytest.mark.parametrize("kind", SIM_KINDS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trace_equals_per_probe_oracle(self, case, kind):
        m, kinds, bounds, step, rounds = self.CASES[case]
        emb, feats, labels = fitted_batch(m, 40 + m, kinds, kind)
        cfg = GridConfig(bounds=bounds, step=step, rounds=rounds)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = optimize_alphas(emb, feats, labels, kind, kinds, cfg)
        assert bool(caught) == (m not in range(10, 21))
        want = oracles.optimize_trace(emb, feats, labels, kind, kinds, cfg)
        assert got == want

    def test_chunks_that_do_not_divide_the_grid(self, monkeypatch):
        # 7 probes per chunk: a 21 x 21 round is 63 chunks, the last one short
        emb, feats, labels = fitted_batch(12, 50, DEFAULT_DIST_KINDS, "pi")
        monkeypatch.setattr(rankopt, "_CHUNK_CELLS", 7 * 12 * 12)
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 12.0)), rounds=2)
        got = optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)
        assert got == oracles.optimize_trace(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)

    def test_first_of_equal_losses_wins(self):
        # weights this small cannot reorder the dot products, so every probe ties
        emb, feats = synthetic_batch(10, 51)
        labels = rank_matrix(np.tile(np.arange(10.0), (10, 1)))
        cfg = GridConfig(bounds=((0.0, 1e-12), (0.0, 1e-12)), rounds=2)
        params, loss, trace = optimize_alphas(emb, feats, labels, "sigma", DEFAULT_DIST_KINDS, cfg)
        assert {row[-1] for row in trace} == {loss} and loss > 0
        assert params.alphas == trace[0][1:-1] == (0.0, 0.0)
        assert (params, loss, trace) == oracles.optimize_trace(
            emb, feats, labels, "sigma", DEFAULT_DIST_KINDS, cfg)

    def test_one_rank_call_per_chunk(self, monkeypatch):
        emb, feats, labels = fitted_batch(20, 52, DEFAULT_DIST_KINDS, "pi")
        calls = []
        core = rankopt._rank_entries

        def counted(scores):
            calls.append(scores.shape)
            return core(scores)

        def per_probe(scores):
            raise AssertionError("rank_matrix called per probe")

        monkeypatch.setattr(rankopt, "_rank_entries", counted)
        monkeypatch.setattr(rankopt, "rank_matrix", per_probe)
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 12.0)))
        _, _, trace = optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)
        chunk = rankopt._CHUNK_CELLS // (20 * 20)
        assert chunk < 441
        assert len(calls) == cfg.rounds * math.ceil(441 / chunk)
        assert sum(shape[0] for shape in calls) == len(trace) == 2646
        assert {shape[1:] for shape in calls} == {(20, 20)}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_probe_scores_rejected(self):
        emb, feats, labels = fitted_batch(10, 53, DEFAULT_DIST_KINDS, "sigma")
        cfg = GridConfig(bounds=((0.0, 1.7e308), (0.0, 1.7e308)), rounds=1)
        with pytest.raises(DomainError, match="non-finite"):
            optimize_alphas(emb, feats, labels, "sigma", DEFAULT_DIST_KINDS, cfg)

    def test_unknown_kind_rejected(self):
        emb, feats, labels = fitted_batch(10, 54, DEFAULT_DIST_KINDS, "sigma")
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 1.0)), rounds=1)
        with pytest.raises(DomainError, match="unknown similarity kind 'tau'"):
            optimize_alphas(emb, feats, labels, "tau", DEFAULT_DIST_KINDS, cfg)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stacked_rank_core_equals_rank_matrix_on_tied_rows(self, m, probes, seed):
        rng = np.random.default_rng(seed)
        stack = rng.choice([0.0, 0.5, 1.0], size=(probes, m, m))
        labels = rank_matrix(rng.choice([0.0, 1.0], size=(m, m)))
        entries = rankopt._rank_entries(stack)
        losses = rankopt._rank_losses(entries, labels.entries)
        assert entries.shape == stack.shape and losses.shape == (probes,)
        for p in range(probes):
            single = rank_matrix(stack[p])
            assert np.array_equal(entries[p], single.entries)
            assert np.array_equal(entries[p], oracles.rank_entries(stack[p]))
            assert losses[p] == rank_loss(single, labels)


days_st = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
geo_st = st.builds(GeoPoint, st.floats(min_value=-90.0, max_value=90.0), st.floats(min_value=-180.0, max_value=180.0))


@st.composite
def scored_batch(draw, kinds):
    m = draw(st.integers(min_value=2, max_value=6))
    emb = np.array([draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)) for _ in range(m)])
    feats = [tuple(draw(geo_st if k == "floor_geo" else days_st) for k in kinds) for _ in range(m)]
    alphas = tuple(draw(st.floats(min_value=0.0, max_value=12.0)) for _ in kinds)
    return emb, feats, alphas


def near_band_edge(feats, kinds) -> bool:
    """True if some pair's distance sits within rounding of a 500-mile band edge."""
    for fi, kind in enumerate(kinds):
        if kind == "floor_geo":
            for a, b in itertools.combinations([f[fi] for f in feats], 2):
                bands = oracles.haversine_miles(a, b) / 500.0
                if bands != 0.0 and abs(bands - round(bands)) < 1e-9:
                    return True
    return False


class TestPairwiseScores:
    @pytest.mark.parametrize("sim_kind", SIM_KINDS)
    @pytest.mark.parametrize("kinds", list(itertools.product(DIST_KINDS, repeat=2)))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_oracle(self, sim_kind, kinds, data):
        # error is measured against the magnitude of the summed terms, the
        # scale at which the two evaluation orders may round differently
        emb, feats, alphas = data.draw(scored_batch(kinds))
        assume(not near_band_edge(feats, kinds))
        params = SimilarityParams(sim_kind, alphas, kinds)
        got = pairwise_scores(emb, feats, params)
        want = oracles.pairwise_scores(emb, feats, params)
        scale = oracles.pairwise_scores(np.abs(emb), feats, params)
        off = ~np.eye(len(feats), dtype=bool)
        assert np.all(np.abs(got - want)[off] <= 1e-12 * np.abs(scale)[off])

    @pytest.mark.parametrize("kinds, message", [
        (("floor_geo", "inv_abs"), "'floor_geo' needs coordinates, but feature 1 holds float"),
        (("exp_abs", "exp_abs"), "'exp_abs' needs day numbers, but feature 2 holds GeoPoint"),
    ])
    def test_kind_given_the_wrong_feature_type(self, kinds, message):
        emb, feats = synthetic_batch(4, 12)
        with pytest.raises(DomainError, match=message):
            pairwise_scores(emb, feats, SimilarityParams("pi", (0.3, 4.0), kinds))

    def test_sim_functions_read_the_matrix(self):
        emb, feats = synthetic_batch(4, 12)
        for kind, fn in (("sigma", sim_sigma), ("pi", sim_pi)):
            p = SimilarityParams(kind, (0.3, 4.0), DEFAULT_DIST_KINDS)
            scores = pairwise_scores(emb, feats, p)
            got = fn(emb[1], emb[3], feats[1], feats[3], p)
            assert got == pytest.approx(scores[1, 3], rel=1e-14, abs=1e-14)

    def test_symmetric_and_diagonal_free_usage(self):
        emb, feats = synthetic_batch(6, 11)
        p = SimilarityParams("pi", (0.3, 4.0), DEFAULT_DIST_KINDS)
        scores = pairwise_scores(emb, feats, p)
        assert np.array_equal(scores, scores.T)
        for i in range(6):
            for j in range(6):
                if i != j:
                    expect = sim_pi(emb[i], emb[j], feats[i], feats[j], p)
                    assert scores[i, j] == pytest.approx(expect, abs=1e-12)


# shortest-repr edge cases: exponent form starts below 1e-4 and at 1e16;
# subnormals; the 24-character negative smallest normal
REPR_EDGES = [0.0, -1.5, 1e-05, 9.999e-05, -9.999e-05, 1e16, -1e16, 5e-324, 1.5e-310,
              -2.2250738585072014e-308, 0.1, 1 / 3, -7.0, 123456789.125]


def symmetric_matrix(m: int, seed: int, values=REPR_EDGES) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scores = rng.choice(np.concatenate([values, rng.normal(size=len(values))]), size=(m, m))
    i, j = np.triu_indices(m, 1)
    scores[j, i] = scores[i, j]
    return scores


class TestSaveScoreMatrix:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 31, 64])
    def test_bytes_equal_the_per_cell_writer(self, tmp_path, m):
        scores = symmetric_matrix(m, seed=m)
        path = tmp_path / "scores.csv"
        save_score_matrix(scores, path)
        assert path.read_bytes() == oracles.score_matrix_text(scores).encode("ascii")

    def test_every_edge_value_written_as_its_repr(self, tmp_path):
        m = len(REPR_EDGES) + 1
        scores = np.ones((m, m))
        scores[0, 1:] = scores[1:, 0] = REPR_EDGES
        path = tmp_path / "scores.csv"
        save_score_matrix(scores, path)
        assert path.read_bytes() == oracles.score_matrix_text(scores).encode("ascii")
        cells = path.read_text(encoding="utf-8").splitlines()[0].split(",")
        assert cells[1:] == [repr(v) for v in REPR_EDGES]

    @pytest.mark.parametrize("scores, message", [
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "not symmetric"),
        # equal, but the two zeros print differently
        (np.array([[1.0, -0.0], [0.0, 1.0]]), "not symmetric"),
        (np.array([[np.nan, 0.5], [0.5, 1.0]]), "not symmetric"),
        (np.zeros((2, 3)), "must be square"),
        (np.zeros(4), "must be square"),
    ], ids=["asymmetric", "signed-zero", "nan", "non-square", "one-axis"])
    def test_rejected_before_the_file_is_opened(self, tmp_path, scores, message):
        path = tmp_path / "scores.csv"
        with pytest.raises(DomainError, match=message):
            save_score_matrix(scores, path)
        assert not path.exists()

    def test_reads_back_through_the_matrix_label_layout(self, tmp_path):
        scores = symmetric_matrix(12, seed=3, values=[0.25, -4.0, 1e-05])
        path = tmp_path / "scores.csv"
        save_score_matrix(scores, path)
        assert np.array_equal(np.loadtxt(path, delimiter=","), scores)
        assert np.array_equal(load_rank_labels(path).entries, rank_matrix(scores).entries)

    def test_peak_memory_stays_below_the_whole_triangle(self, tmp_path):
        # the column lists peak near m^2/4 texts, about 17 B per cell;
        # keeping every upper-triangle text until the end takes about 31 B
        m = 400
        scores = symmetric_matrix(m, seed=5, values=np.random.default_rng(5).normal(size=50) * 0.03)
        tracemalloc.start()
        try:
            save_score_matrix(scores, tmp_path / "scores.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (m * m) < 24


class TestLoadRankLabels:
    def test_triplet_format(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text(
            "i,j,score\n0,1,0.9\n0,2,0.1\n1,2,0.5\n",
            encoding="utf-8",
        )
        rm = load_rank_labels(p)
        expect = rank_matrix(np.array([[0, 0.9, 0.1], [0.9, 0, 0.5], [0.1, 0.5, 0]]))
        assert np.array_equal(rm.entries, expect.entries)

    def test_matrix_format(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("0.0,0.9,0.1\n0.9,0.0,0.5\n0.1,0.5,0.0\n", encoding="utf-8")
        rm = load_rank_labels(p)
        expect = rank_matrix(np.array([[0, 0.9, 0.1], [0.9, 0, 0.5], [0.1, 0.5, 0]]))
        assert np.array_equal(rm.entries, expect.entries)

    def test_score_out_of_range(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("i,j,score\n0,1,1.5\n", encoding="utf-8")
        with pytest.raises(RowError):
            load_rank_labels(p)

    def test_self_pair_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("i,j,score\n1,1,0.5\n", encoding="utf-8")
        with pytest.raises(RowError):
            load_rank_labels(p)

    def test_duplicate_pair_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("i,j,score\n0,1,0.5\n1,0,0.6\n0,2,0.1\n1,2,0.2\n", encoding="utf-8")
        with pytest.raises(ConflictError):
            load_rank_labels(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_matrix_non_finite_rejected(self, tmp_path, bad):
        p = tmp_path / "labels.csv"
        p.write_text(f"0.0,0.9,0.1\n0.9,0.0,{bad}\n0.1,{bad},0.0\n", encoding="utf-8")
        with pytest.raises(RowError, match="non-finite"):
            load_rank_labels(p)

    def test_matrix_asymmetric_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("0.0,0.9,0.1\n0.8,0.0,0.5\n0.1,0.5,0.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="symmetric"):
            load_rank_labels(p)

    def test_matrix_scores_outside_unit_interval_accepted(self, tmp_path):
        # multiplicative score matrices from the score stage load unchanged
        p = tmp_path / "labels.csv"
        p.write_text("0.0,7.0,-3.0\n7.0,0.0,2.5\n-3.0,2.5,0.0\n", encoding="utf-8")
        expect = rank_matrix(np.array([[0, 7.0, -3.0], [7.0, 0, 2.5], [-3.0, 2.5, 0]]))
        assert np.array_equal(load_rank_labels(p).entries, expect.entries)

    def test_missing_pair_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("i,j,score\n0,1,0.5\n0,2,0.1\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_rank_labels(p)


class TestGridConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GridConfig(bounds=((1.0, 0.0),))
        with pytest.raises(ConfigError):
            GridConfig(bounds=((0.0, 1.0),), shrink=1.0)
        with pytest.raises(ConfigError):
            GridConfig(bounds=((0.0, 1.0),), rounds=0)
