import ast
import itertools
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings, strategies as st

import semfuse._score_rows as score_rows
import semfuse.rankopt as rankopt
from semfuse.corpus import Record
from semfuse.errors import ConfigError, ConflictError, DomainError, FormatError, RowError, SemfuseError
from semfuse.geotime import EARTH_RADIUS_MILES, GeoPoint
from semfuse.rankopt import (
    DEFAULT_DIST_KINDS,
    DIST_KINDS,
    SIM_KINDS,
    GridConfig,
    RankMatrix,
    SimilarityParams,
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


def columns(records) -> tuple[np.ndarray, np.ndarray]:
    """The (days, coords) columns of (day, GeoPoint) records, as `geotime.batch_features` returns them."""
    days = np.array([day for day, _ in records], dtype=float)
    return days, np.array([(point.lat, point.lon) for _, point in records]).reshape(-1, 2)


def pair_score(e1, e2, rec1, rec2, p: SimilarityParams) -> float:
    """The score of one pair of (day, GeoPoint) records: the off-diagonal cell of a two-record batch,
    checked against the oracle on the features each kind reads."""
    features = columns([rec1, rec2])
    got = float(pairwise_scores(np.array([e1, e2]), features, p)[0, 1])
    feats1, feats2 = oracles.record_features(features, p.dist_kinds)
    assert got == pytest.approx(oracles.pair_score(e1, e2, feats1, feats2, p), rel=1e-14, abs=1e-14)
    return got


class TestSimilarityFunctions:
    def test_sigma_zero_alpha_reduces_to_dot(self):
        p = SimilarityParams("sigma", (0.0, 0.0), DEFAULT_DIST_KINDS)
        e1, e2 = np.array([0.6, 0.8]), np.array([0.8, 0.6])
        feats1 = (0.0, ORIGIN)
        feats2 = (5.0, equator_point_at(1000.0))
        assert pair_score(e1, e2, feats1, feats2, p) == pytest.approx(0.96, abs=1e-12)

    def test_sigma_forced_arithmetic(self):
        p = SimilarityParams("sigma", (1.0, 1.0), DEFAULT_DIST_KINDS)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.5, math.sqrt(0.75)])
        same = (3.0, ORIGIN)
        assert pair_score(e1, e2, same, same, p) == pytest.approx(2.5, abs=1e-12)

    def test_sigma_hand_value(self):
        # dot 0.3, d1 = 1/(3+1) = 0.25, d2 = 0.1 at 4999 miles
        p = SimilarityParams("sigma", (0.5, 2.0), DEFAULT_DIST_KINDS)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.3, math.sqrt(0.91)])
        feats1 = (0.0, ORIGIN)
        feats2 = (3.0, equator_point_at(4999.0))
        got = pair_score(e1, e2, feats1, feats2, p)
        assert got == pytest.approx(0.3 + 0.125 + 0.2, abs=1e-9)

    def test_pi_unit_factors_reduce_to_dot(self):
        p = SimilarityParams("pi", (0.0, 0.0), DEFAULT_DIST_KINDS)
        e1, e2 = np.array([0.6, 0.8]), np.array([0.8, 0.6])
        same = (2.0, ORIGIN)  # both kernels give 1 at zero gap
        assert pair_score(e1, e2, same, same, p) == pytest.approx(0.96, abs=1e-12)

    def test_pi_reference_weights_same_day_same_place(self):
        p = SimilarityParams("pi", (0.02, 9.55), DEFAULT_DIST_KINDS)
        e = np.array([1.0, 0.0])
        same = (7.0, ORIGIN)
        assert pair_score(e, e, same, same, p) == pytest.approx(10.761, abs=1e-9)

    def test_pi_hand_value(self):
        # dot 0.4, d1 = 0.5 one day apart, d2 = 0.1 at 4999 miles
        p = SimilarityParams("pi", (0.02, 9.55), DEFAULT_DIST_KINDS)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.4, math.sqrt(0.84)])
        feats1 = (0.0, ORIGIN)
        feats2 = (1.0, equator_point_at(4999.0))
        got = pair_score(e1, e2, feats1, feats2, p)
        assert got == pytest.approx(0.4 * 0.52 * 9.65, abs=1e-9)
        assert got == pytest.approx(2.0072, abs=1e-9)

    @pytest.mark.parametrize("days, coords", [
        (np.zeros(3), np.zeros((2, 2))),
        (np.zeros(2), np.zeros((3, 2))),
        (np.zeros((2, 1)), np.zeros((2, 2))),
        (np.zeros(2), np.zeros(4)),
    ], ids=["days of another batch", "coordinates of another batch", "days as a column", "flat coordinates"])
    def test_feature_count_mismatch(self, days, coords):
        p = SimilarityParams("sigma", (1.0, 1.0), DEFAULT_DIST_KINDS)
        with pytest.raises(DomainError, match=r"^2 embeddings for days of shape .* and coordinates of shape"):
            pairwise_scores(np.eye(2), (days, coords), p)


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
    records = [
        (float(rng.integers(0, 10)), GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-150, 150))))
        for _ in range(m)
    ]
    return emb, columns(records)


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
        with pytest.raises(ConfigError, match="^each of 2 distance kinds needs one bound, got 1$"):
            optimize_alphas(emb, feats, labels, "pi", DEFAULT_DIST_KINDS, cfg)

    def test_each_distance_kind_needs_one_bound(self):
        # the CLI checks the bounds alone, before GridConfig counts the probes of a round
        with pytest.raises(ConfigError, match="^each of 2 distance kinds needs one bound, got 4$"):
            rankopt.check_axis_counts(DEFAULT_DIST_KINDS, ((0.0, 1.0),) * 4)
        with pytest.raises(ConfigError, match="^each of 1 distance kinds needs one bound, got 2$"):
            rankopt.check_axis_counts(("floor_geo",), ((0.0, 1.0),) * 2)
        rankopt.check_axis_counts(DEFAULT_DIST_KINDS, ((0.0, 1.0),) * 2)

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
        labels = rank_matrix(pairwise_scores(emb, feats, SimilarityParams("pi", (0.4,), ("inv_abs",))))
        cfg = GridConfig(bounds=((0.0, 1.0),), rounds=2)
        params, loss, trace = optimize_alphas(emb, feats, labels, "pi", ("inv_abs",), cfg)
        assert len(trace) == 42
        assert all(len(t) == 3 for t in trace)
        assert params.dist_kinds == ("inv_abs",)
        assert loss == min(t[2] for t in trace)

    def test_three_kernels(self):
        emb, feats = synthetic_batch(10, 34)
        kinds = ("inv_abs", "floor_geo", "exp_abs")
        labels = rank_matrix(pairwise_scores(emb, feats, SimilarityParams("sigma", (0.5, 0.5, 1.0), kinds)))
        cfg = GridConfig(bounds=((0.0, 1.0),) * 3, step=0.5, rounds=2)
        params, loss, trace = optimize_alphas(emb, feats, labels, "sigma", kinds, cfg)
        assert len(trace) == 2 * 27
        assert [t[1:4] for t in trace[:27]] == list(itertools.product([0.0, 0.5, 1.0], repeat=3))
        assert len(params.alphas) == 3
        assert loss == min(t[4] for t in trace)

    def test_feature_count_must_match_the_batch(self):
        emb, (days, coords) = synthetic_batch(10, 35)
        labels = rank_matrix(np.random.default_rng(0).random((10, 10)))
        cfg = GridConfig(bounds=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(DomainError, match=r"^10 embeddings for days of shape \(9,\)"):
            optimize_alphas(emb, (days[:9], coords), labels, "pi", DEFAULT_DIST_KINDS, cfg)


def fitted_batch(m: int, seed: int, kinds: tuple[str, ...], kind: str):
    """A batch with labels planted at fixed weights of `kinds`."""
    emb, feats = synthetic_batch(m, seed)
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

    def test_a_later_round_that_ties_keeps_the_earlier_probe(self):
        # every probe ties; an even grid probes the interval midpoint first,
        # and round 2's grid around it does not hold it, so replacing the
        # best on a tie would move round 3's grid
        emb, feats = synthetic_batch(10, 51)
        labels = rank_matrix(np.tile(np.arange(10.0), (10, 1)))
        cfg = GridConfig(bounds=((0.0, 1e-12), (0.0, 1e-12)), step=1e-12 / 3, rounds=3)
        assert cfg.points_per_axis() == (4, 4)
        params, loss, trace = optimize_alphas(emb, feats, labels, "sigma", DEFAULT_DIST_KINDS, cfg)
        assert {row[-1] for row in trace} == {loss}
        assert params.alphas == trace[0][1:-1] == (5e-13, 5e-13)
        assert trace[0][1:-1] not in [row[1:-1] for row in trace if row[0] == 2]
        assert (params, loss, trace) == oracles.optimize_trace(
            emb, feats, labels, "sigma", DEFAULT_DIST_KINDS, cfg)

    def test_one_rank_call_per_chunk(self, monkeypatch):
        emb, feats, labels = fitted_batch(20, 52, DEFAULT_DIST_KINDS, "pi")
        calls = []
        core = rankopt._stack_losses

        def counted(scores, labeled):
            calls.append(scores.shape)
            return core(scores, labeled)

        def per_probe(scores):
            raise AssertionError("rank_matrix called per probe")

        monkeypatch.setattr(rankopt, "_stack_losses", counted)
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

    @pytest.mark.parametrize("kind, top", [("sigma", 1.7e308), ("pi", 1e300)])
    def test_the_first_non_finite_probe_is_named(self, kind, top):
        # the first probe of the grid, alpha1 slowest, whose own score matrix pairwise_scores refuses
        emb, feats, labels = fitted_batch(10, 53, DEFAULT_DIST_KINDS, kind)
        axis = np.linspace(0.0, top, 21).tolist()

        def refused(alphas):
            try:
                pairwise_scores(emb, feats, SimilarityParams(kind, alphas, DEFAULT_DIST_KINDS))
            except DomainError:
                return True
            return False

        first = next(alphas for alphas in itertools.product(axis, axis) if refused(alphas))
        cfg = GridConfig(bounds=((0.0, top), (0.0, top)), rounds=1)
        with pytest.raises(DomainError, match=f"^{re.escape(f'kind {kind!r} with alphas {first}')} gives non-finite"):
            optimize_alphas(emb, feats, labels, kind, DEFAULT_DIST_KINDS, cfg)

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
        assert np.array_equal(rankopt._stack_losses(stack.copy(), labels.entries), losses)
        for p in range(probes):
            single = rank_matrix(stack[p])
            assert np.array_equal(entries[p], single.entries)
            assert np.array_equal(entries[p], oracles.rank_entries(stack[p]))
            assert losses[p] == rank_loss(single, labels)


class TestStackLosses:
    """_stack_losses reads each probe's loss from the sort order; the rank matrices are its oracle."""

    @staticmethod
    def assert_equals_rank_matrix_losses(stack, labels):
        want = rankopt._rank_losses(rankopt._rank_entries(stack), labels.entries)
        got = rankopt._stack_losses(stack.copy(), labels.entries)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 3, 20])
    @pytest.mark.parametrize("stack", ["random", "one decimal", "equal rows", "equal probes"])
    def test_equals_the_losses_of_the_rank_matrices(self, m, stack):
        rng = np.random.default_rng(m)
        scores = {
            "random": lambda: rng.normal(size=(7, m, m)),
            "one decimal": lambda: np.round(rng.random((7, m, m)), 1),  # many ties
            "equal rows": lambda: np.repeat(rng.random((7, 1, m)), m, axis=1),
            "equal probes": lambda: np.repeat(rng.random((1, m, m)), 7, axis=0),
        }[stack]()
        for labels in (rank_matrix(rng.random((m, m))), rank_matrix(np.ones((m, m)))):
            self.assert_equals_rank_matrix_losses(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_raise_as_rank_matrix_does(self, bad):
        stack = np.zeros((2, 3, 3))
        stack[1, 0, 2] = bad
        labels = rank_matrix(np.zeros((3, 3))).entries
        with pytest.raises(DomainError, match="^score matrix has non-finite entries$"):
            rankopt._rank_entries(stack.copy())
        with pytest.raises(DomainError, match="^score matrix has non-finite entries$"):
            rankopt._stack_losses(stack, labels)

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_items_raise_as_rank_matrix_does(self, m):
        stack = np.zeros((2, m, m))
        with pytest.raises(DomainError, match=f"^need at least 2 items, got {m}$"):
            rankopt._rank_entries(stack.copy())
        with pytest.raises(DomainError, match=f"^need at least 2 items, got {m}$"):
            rankopt._stack_losses(stack, np.zeros((m, m), dtype=int))


class TestSaveTraceCsv:
    EDGES = [0.0, -0.0, 1e-05, 1e16, 5e-324, 2.2250738585072014e-308, 0.1, -1.5, 1e-300]

    def test_writes_the_bytes_of_the_per_cell_writer(self, tmp_path):
        # repeated values, both zeros, a subnormal and repr's exponent forms
        edges = self.EDGES
        trace = [(1 + r // 4, edges[r % 9], edges[(r * 5) % 9], edges[(r * 7 + 3) % 9]) for r in range(40)]
        trace.append((np.int64(7), np.float32(0.1), np.float64(-0.0), 3))  # numpy scalars and an int
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_trace_csv(trace, new)
        oracles.save_trace_csv(trace, old)
        assert new.read_bytes() == old.read_bytes()
        assert b",-0.0," in new.read_bytes() and b",0.0," in new.read_bytes()

    def test_an_empty_trace_writes_the_header_alone(self, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_trace_csv([], new)
        oracles.save_trace_csv([], old)
        assert new.read_bytes() == old.read_bytes() == b"round,loss\r\n"

    def test_a_search_trace_writes_the_bytes_of_the_per_cell_writer(self, tmp_path):
        emb, feats, labels = fitted_batch(20, 56, DEFAULT_DIST_KINDS, "sigma")
        _, _, trace = optimize_alphas(emb, feats, labels, "sigma", DEFAULT_DIST_KINDS,
                                      GridConfig(bounds=((-1.0, 1.0), (-1.0, 12.0)), rounds=3))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_trace_csv(trace, new)
        oracles.save_trace_csv(trace, old)
        assert new.read_bytes() == old.read_bytes()


days_st = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
geo_st = st.builds(GeoPoint, st.floats(min_value=-90.0, max_value=90.0), st.floats(min_value=-180.0, max_value=180.0))


@st.composite
def scored_batch(draw, kinds):
    m = draw(st.integers(min_value=2, max_value=6))
    emb = np.array([draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)) for _ in range(m)])
    records = [(draw(days_st), draw(geo_st)) for _ in range(m)]
    alphas = tuple(draw(st.floats(min_value=0.0, max_value=12.0)) for _ in kinds)
    return emb, records, alphas


def near_band_edge(records) -> bool:
    """True if some pair's distance sits within rounding of a 500-mile band edge."""
    for (_, a), (_, b) in itertools.combinations(records, 2):
        bands = oracles.haversine_miles(a, b) / 500.0
        if bands != 0.0 and abs(bands - round(bands)) < 1e-9:
            return True
    return False


def scored_records(m: int, seed: int):
    """Embeddings with zero cells, repeated day numbers and scattered coordinates."""
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(m, 5))
    emb[rng.random(size=(m, 5)) < 0.3] = 0.0
    days = rng.integers(0, 4, size=m) + rng.choice([0.0, 0.25, 0.5], size=m)
    lats, lons = rng.uniform(-60.0, 60.0, size=m), rng.uniform(-120.0, 120.0, size=m)
    return emb, columns([(day, GeoPoint(lat, lon)) for day, lat, lon in zip(days.tolist(), lats.tolist(),
                                                                         lons.tolist())])


class TestPairwiseScores:
    @pytest.mark.parametrize("kind, alphas", [("pi", (1e300, 1e300)), ("sigma", (1.7e308, 1.7e308))])
    def test_scores_that_overflow_are_refused_without_a_warning(self, kind, alphas):
        # pytest turns a numpy overflow warning into an error
        emb, feats = scored_records(5, seed=5)
        with pytest.raises(DomainError, match=re.escape(f"kind {kind!r} with alphas {alphas} gives non-finite")):
            pairwise_scores(emb, feats, SimilarityParams(kind, alphas, DEFAULT_DIST_KINDS))

    # (m, rows per block); None keeps _CHUNK_CELLS, which gives m = 2,000
    # blocks of 65 rows and a last block of 50
    @pytest.mark.parametrize("m, rows", [(1, 1), (2, 1), (3, 2), (7, 3), (65, 65), (131, 10), (2000, None)])
    @pytest.mark.parametrize("day_kind", ["exp_abs", "inv_abs"])
    # an alpha of -1.0 cancels a same-place floor_geo kernel to 0.0, so
    # zeros of both signs reach the mirror and the final += 0.0
    @pytest.mark.parametrize("sim_kind, alphas", [("pi", (0.02, -1.0)), ("sigma", (0.5, -1.0))])
    def test_row_blocks_equal_the_whole_matrix_scorer(self, monkeypatch, m, rows, day_kind, sim_kind, alphas):
        if rows is not None:
            monkeypatch.setattr(rankopt, "_CHUNK_CELLS", m * rows)
        emb, feats = scored_records(m, seed=m)
        params = SimilarityParams(sim_kind, alphas, (day_kind, "floor_geo"))
        got = pairwise_scores(emb, feats, params)
        want = oracles.whole_matrix_scores(emb, oracles.record_features(feats, params.dist_kinds), params)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_peak_memory_below_two_score_matrices(self):
        # the dot products are the one m x m buffer; kernels and their
        # composition live a row block at a time, about 5 MB in all. The
        # whole-matrix scorer peaked at five m x m matrices.
        m = 1000
        emb, feats = scored_records(m, seed=4)
        params = SimilarityParams("pi", (0.02, 9.55), DEFAULT_DIST_KINDS)
        tracemalloc.start()
        try:
            pairwise_scores(emb, feats, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * m * m

    @pytest.mark.parametrize("sim_kind", SIM_KINDS)
    @pytest.mark.parametrize("kinds", [(), *((kind,) for kind in DIST_KINDS),
                                       *itertools.product(DIST_KINDS, repeat=2), DIST_KINDS, DIST_KINDS[::-1]])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_oracle(self, sim_kind, kinds, data):
        # error is measured against the magnitude of the summed terms, the
        # scale at which the two evaluation orders may round differently
        emb, records, alphas = data.draw(scored_batch(kinds))
        assume("floor_geo" not in kinds or not near_band_edge(records))
        params = SimilarityParams(sim_kind, alphas, kinds)
        features = columns(records)
        got = pairwise_scores(emb, features, params)
        feats = oracles.record_features(features, kinds)
        want = oracles.pairwise_scores(emb, feats, params)
        scale = oracles.pairwise_scores(np.abs(emb), feats, params)
        off = ~np.eye(len(feats), dtype=bool)
        assert np.all(np.abs(got - want)[off] <= 1e-12 * np.abs(scale)[off])

    def test_sim_functions_read_the_matrix(self):
        # one pair's score, from a two-record batch, is its cell of the full matrix
        emb, feats = synthetic_batch(4, 12)
        for kind in ("sigma", "pi"):
            p = SimilarityParams(kind, (0.3, 4.0), DEFAULT_DIST_KINDS)
            scores = pairwise_scores(emb, feats, p)
            days, coords = feats
            got = pair_score(emb[1], emb[3], (days[1], GeoPoint(*coords[1])), (days[3], GeoPoint(*coords[3])), p)
            assert got == pytest.approx(scores[1, 3], rel=1e-14, abs=1e-14)

    def test_symmetric_and_diagonal_free_usage(self):
        emb, feats = synthetic_batch(6, 11)
        p = SimilarityParams("pi", (0.3, 4.0), DEFAULT_DIST_KINDS)
        scores = pairwise_scores(emb, feats, p)
        assert np.array_equal(scores, scores.T)
        per_record = oracles.record_features(feats, p.dist_kinds)
        for i in range(6):
            for j in range(6):
                if i != j:
                    expect = oracles.pair_score(emb[i], emb[j], per_record[i], per_record[j], p)
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


def recorded_helpers(monkeypatch) -> list:
    """Record every process save_score_matrix starts."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(rankopt.subprocess, "Popen", Recorded)
    return started


def assert_reaped(started) -> None:
    assert len(started) == 1
    assert started[0].returncode is not None
    with pytest.raises(ChildProcessError):
        os.waitpid(started[0].pid, os.WNOHANG)


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

    @pytest.mark.parametrize("m", [199, 200, 201, 2000])
    def test_bytes_equal_the_per_cell_writer_on_both_sides_of_the_helper_cut(self, tmp_path, monkeypatch, m):
        blocks = []
        helper_rows = rankopt._helper_rows
        monkeypatch.setattr(rankopt, "_helper_rows",
                            lambda block, path: blocks.append(len(block)) or helper_rows(block, path))
        scores = symmetric_matrix(m, seed=m)
        split = rankopt._helper_start(m)
        # every edge value on the last row this process formats and the
        # helper's first row, left and right of the diagonal
        for row in (split - 1, min(split, m - 1)):
            for t, value in enumerate(REPR_EDGES):
                for col in (row - 1 - t, row + 1 + t):
                    if 0 <= col < m:
                        scores[row, col] = scores[col, row] = value
        path = tmp_path / "scores.csv"
        save_score_matrix(scores, path)
        assert path.read_bytes() == oracles.score_matrix_text(scores).encode("ascii")
        assert blocks == ([] if m < 200 else [m - split])

    @pytest.mark.parametrize("m", [1, 15, 16, 17, 33])
    def test_bytes_equal_the_per_cell_writer_at_the_block_edges(self, tmp_path, monkeypatch, m):
        # blocks of 16 rows: part of one, exactly one, one and a row, two and a row
        monkeypatch.setattr(score_rows, "_BLOCK_CELLS", 16 * m)
        assert m * m < rankopt._HELPER_MIN_CELLS
        scores = symmetric_matrix(m, seed=m)
        path = tmp_path / "scores.csv"
        save_score_matrix(scores, path)
        assert path.read_bytes() == oracles.score_matrix_text(scores).encode("ascii")

    @pytest.mark.parametrize("m, rows", [(250, 10), (2000, None)])
    def test_bytes_equal_the_per_cell_writer_with_the_helper_cut_inside_a_block(self, tmp_path, monkeypatch,
                                                                                m, rows):
        if rows is not None:  # the helper process keeps its own block size
            monkeypatch.setattr(score_rows, "_BLOCK_CELLS", rows * m)
        split = rankopt._helper_start(m)
        assert split % (score_rows._BLOCK_CELLS // m) != 0
        scores = symmetric_matrix(m, seed=m + 1)
        path = tmp_path / "scores.csv"
        save_score_matrix(scores, path)
        assert path.read_bytes() == oracles.score_matrix_text(scores).encode("ascii")

    def test_no_helper_without_an_interpreter_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "executable", "")
        monkeypatch.setattr(rankopt, "_helper_rows", None)
        scores = symmetric_matrix(300, seed=6)
        save_score_matrix(scores, tmp_path / "scores.csv")
        assert (tmp_path / "scores.csv").read_bytes() == oracles.score_matrix_text(scores).encode("ascii")

    @pytest.mark.parametrize("script, message", [
        ("import sys\nsys.exit(1)\n", "the score row helper exited with status 1"),
        ("import sys\nn = int(sys.argv[1])\nsys.stdin.buffer.read()\n"
         "sys.stdout.write(('0.0,' * (n - 1) + '0.0\\n') * (n - 1))\n",
         "the score row helper wrote 176 of 177 rows"),
        ("import sys\nn = int(sys.argv[1])\nsys.stdin.buffer.read()\n"
         "sys.stdout.write(('0.0,' * (n - 1) + '0.0\\n') * (n - 1) + '0.0\\n')\n",
         "the score row helper wrote a malformed row 177"),
    ], ids=["exits-1", "one-row-short", "short-last-line"])
    def test_failing_helper_names_the_file_and_leaves_nothing(self, tmp_path, monkeypatch, script, message):
        # nothing is left but the partial file: no process, no temporary file.
        # That a failed `score` stage keeps an earlier scores.csv is tested in test_cli.
        helper = tmp_path / "helper.py"
        helper.write_text(script, encoding="utf-8")
        monkeypatch.setattr(rankopt, "_SCORE_ROWS", helper)
        started = recorded_helpers(monkeypatch)
        assert rankopt._helper_start(250) == 250 - 177
        out = tmp_path / "out"
        out.mkdir()
        path = out / "scores.csv"
        with pytest.raises(SemfuseError, match=re.escape(f"{path}: {message}")):
            save_score_matrix(symmetric_matrix(250, seed=2), path)
        assert [p.name for p in out.iterdir()] == ["scores.csv"]
        assert_reaped(started)

    def test_helper_is_stopped_when_this_process_fails(self, tmp_path, monkeypatch):
        helper = tmp_path / "helper.py"
        helper.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
        monkeypatch.setattr(rankopt, "_SCORE_ROWS", helper)
        started = recorded_helpers(monkeypatch)

        def write_rows(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(rankopt, "write_rows", write_rows)
        out = tmp_path / "out"
        out.mkdir()
        began = time.monotonic()
        with pytest.raises(OSError, match="no space"):
            save_score_matrix(symmetric_matrix(250, seed=2), out / "scores.csv")
        assert time.monotonic() - began < 30
        assert started[0].returncode == -signal.SIGKILL
        assert [p.name for p in out.iterdir()] == ["scores.csv"]
        assert_reaped(started)

    def test_helper_module_run_directly_writes_the_block_lines(self):
        block = np.array([[0.5, 1e-05, -2.0], [1e-05, 5e-324, 1e16], [-2.0, 1e16, 0.0]])
        done = subprocess.run([sys.executable, "-I", "-S", str(rankopt._SCORE_ROWS), "3"],
                              input=block.tobytes(), capture_output=True, check=True, timeout=60)
        assert done.stdout == b"0.5,1e-05,-2.0\n1e-05,5e-324,1e+16\n-2.0,1e+16,0.0\n"
        assert done.stdout == oracles.score_matrix_text(block).encode("ascii")

    def test_helper_imports_only_modules_built_into_the_interpreter(self):
        # anything else is looked up and loaded from disk at each start
        imported = set()
        for node in ast.walk(ast.parse(rankopt._SCORE_ROWS.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Name) and node.id == "__import__":
                imported.add("__import__")
        assert imported and imported <= set(sys.builtin_module_names)

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
        with pytest.raises(RowError, match=re.escape(f"{p}: line 2: score 1.5 outside [0, 1]")):
            load_rank_labels(p)

    def test_negative_index_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("i,j,score\n0,1,0.5\n-1,2,0.5\n", encoding="utf-8")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 3: indices must be nonnegative")):
            load_rank_labels(p)

    def test_triplet_indices_are_integer_valued_numbers(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("i,j,score\n0,1.0,0.9\n0e0,2,0.1\n1,2,0.5\n", encoding="utf-8")
        expect = rank_matrix(np.array([[0, 0.9, 0.1], [0.9, 0, 0.5], [0.1, 0.5, 0]]))
        assert np.array_equal(load_rank_labels(p).entries, expect.entries)
        p.write_text("i,j,score\n0,1,0.9\n0,1.5,0.1\n", encoding="utf-8")
        with pytest.raises(RowError, match=f"^{re.escape(str(p))}: line 3: indices must be integers$"):
            load_rank_labels(p)

    def test_self_pair_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("i,j,score\n1,1,0.5\n", encoding="utf-8")
        with pytest.raises(RowError, match=re.escape(f"{p}: line 2: self-pair (1,1) is not allowed")):
            load_rank_labels(p)

    def test_duplicate_pair_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        # the blank line counts: lines are the file's, the header is line 1
        p.write_text("i,j,score\n0,1,0.5\n\n1,0,0.6\n0,2,0.1\n1,2,0.2\n", encoding="utf-8")
        with pytest.raises(ConflictError, match=re.escape(f"{p}: line 4: duplicate pair (0, 1)")):
            load_rank_labels(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_matrix_non_finite_rejected(self, tmp_path, bad):
        p = tmp_path / "labels.csv"
        p.write_text(f"0.0,0.9,0.1\n0.9,0.0,{bad}\n0.1,{bad},0.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{p}: line 2: non-finite value")):
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
    # a round of more than 10**5 probes is refused before any grid is built; a subnormal
    # step makes the quotient of an axis infinite
    @pytest.mark.parametrize("bounds, step", [
        (((0.0, 1.0), (0.0, 12.0)), 1e-6),
        (((0.0, 1.0), (0.0, 12.0)), 1e-300),
        (((0.0, 1.0), (0.0, 12.0)), 5e-324),
        (((0.0, 100000.0),), 1.0),  # 100,001 points
        (((0.0, 1.0),) * 4, None),  # 21**4 points
    ])
    def test_a_round_of_too_many_probes_is_refused(self, bounds, step):
        with pytest.raises(ConfigError, match=r"gives more than 100000 probes per round$"):
            GridConfig(bounds=bounds, step=step)

    @pytest.mark.parametrize("bounds, step, probes", [
        (((0.0, 1.0), (0.0, 12.0)), None, 441),  # the CLI's default grid
        (((0.0, 99999.0),), 1.0, rankopt.MAX_ROUND_PROBES),
        (((0.0, 1.0),) * 3, None, 21**3),
    ])
    def test_a_round_at_or_below_the_bound_is_accepted(self, bounds, step, probes):
        assert math.prod(GridConfig(bounds=bounds, step=step).points_per_axis()) == probes

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridConfig(bounds=((1.0, 0.0),))
        with pytest.raises(ConfigError):
            GridConfig(bounds=((0.0, 1.0),), shrink=1.0)
        with pytest.raises(ConfigError):
            GridConfig(bounds=((0.0, 1.0),), rounds=0)
