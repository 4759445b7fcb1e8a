"""The benchmark's own tests: smoke runs of every workload, and one test per
check showing that it rejects a corrupted output.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import reference as ref
import tracer
import worker
import workloads as wl

SMOKE = wl.SIZES["smoke"]
SEED = 5
BENCH = Path(__file__).resolve().parent.parent


# --- smoke runs ------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("seed,trace", [(SEED, False), (SEED + 1, False), (SEED, True)])
def test_smoke_run_passes_every_check(workload, seed, trace, tmp_path):
    result = worker.run_workload(workload, seed, 0, trace, SMOKE, tmp_path / "work", tmp_path / "spans.csv")
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = worker.PER_LAYER if trace else worker.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        assert (tmp_path / "spans.csv").read_text().count("\n") > 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_match_the_workload(tmp_path):
    metrics = worker.run_workload("fit", SEED, 0, True, SMOKE, tmp_path / "work")["metrics"]
    assert metrics["rankopt.probes"]["value"] == wl.OPTIMIZE_PROBES
    assert metrics["tsne.cost_grad_calls"]["value"] == 0
    metrics = worker.run_workload("layout", SEED, 0, True, SMOKE, tmp_path / "work")["metrics"]
    assert metrics["tsne.cost_grad_calls"]["value"] == 2 * SMOKE.tsne_iterations + 1


def test_irreproducible_output_is_reported(tmp_path, monkeypatch):
    import semfuse.cli as cli

    original = cli.write_sidecar
    counter = itertools.count()

    def sidecar_with_nonce(out_path, stage, inputs, params, seed):
        original(out_path, stage, inputs, dict(params, nonce=next(counter)), seed)

    monkeypatch.setattr(cli, "write_sidecar", sidecar_with_nonce)
    result = worker.run_workload("pipeline", SEED, 0, False, SMOKE, tmp_path / "work")
    assert not result["correct"]
    assert any("not reproducible" in e for e in result["errors"]), result["errors"]


def test_tracer_restores_every_original():
    import semfuse.cli as cli
    import semfuse.evalkit as evalkit

    before = (cli.load_corpus, cli.COMMANDS["score"], evalkit.fit_pca, cli.main)
    t = tracer.Tracer()
    t.install()
    assert cli.load_corpus is not before[0] and cli.COMMANDS["score"] is not before[1]
    assert evalkit.fit_pca is not before[2]
    t.restore()
    assert (cli.load_corpus, cli.COMMANDS["score"], evalkit.fit_pca, cli.main) == before


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["pipeline", "fit", "layout"]


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


# --- generator and reference sanity ---------------------------------------


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("a", "b"):
        wl.setup_pipeline(SEED, tmp_path / name, SMOKE, None)
    digests = [worker._tree_digest(tmp_path / name) for name in ("a", "b")]
    assert digests[0] == digests[1]
    wl.setup_pipeline(SEED + 1, tmp_path / "c", SMOKE, None)
    assert worker._tree_digest(tmp_path / "c") != digests[0]


def test_vocabulary_has_no_program_stopwords():
    from semfuse.stopwords import DEFAULT_STOPWORDS

    assert not set(gen.vocabulary(SEED, 4000)) & DEFAULT_STOPWORDS
    assert set(gen.FILLER_STOPWORDS) <= DEFAULT_STOPWORDS


def test_city_distances_are_clear_of_kernel_band_edges():
    # the banded kernel floors miles / 500; a distance within rounding of a
    # band edge could land in different bands in the program and the reference
    coords = np.array([c[1:] for c in gen.CITIES])
    miles = ref.haversine_miles(coords[:, None, 0], coords[:, None, 1], coords[None, :, 0], coords[None, :, 1])
    off_diagonal = miles[~np.eye(len(coords), dtype=bool)]
    assert np.min(np.abs(off_diagonal / 500.0 - np.round(off_diagonal / 500.0))) > 1e-6


def test_reference_kernels_agree_with_the_program_on_city_pairs():
    from semfuse.geotime import GeoPoint, haversine_miles
    from semfuse.rankopt import dist_exp, dist_floor_geo, dist_inv

    points = [GeoPoint(lat, lon) for _, lat, lon in gen.CITIES]
    for (_, lat1, lon1), a in zip(gen.CITIES, points):
        for (_, lat2, lon2), b in zip(gen.CITIES, points):
            miles = float(ref.haversine_miles(lat1, lon1, lat2, lon2))
            assert miles == pytest.approx(haversine_miles(a, b), rel=1e-12, abs=1e-9)
            assert float(ref.kernel_floor_geo(miles)) == dist_floor_geo(a, b)
    for x, y in [(0.0, 0.0), (1.5, 4.25), (16000.125, 16003.5)]:
        assert float(ref.kernel_exp_abs(x, y)) == pytest.approx(dist_exp(x, y), rel=1e-15)
        assert float(ref.kernel_inv_abs(x, y)) == pytest.approx(dist_inv(x, y), rel=1e-15)


def test_reference_ranking_breaks_ties_by_index():
    scores = np.array([[0.0, 0.5, 0.5, 0.9], [0.5, 0.0, 0.1, 0.1], [0.5, 0.1, 0.0, 0.2], [0.9, 0.1, 0.2, 0.0]])
    entries = ref.rank_entries(scores)
    assert entries[0].tolist() == [0, 1, 2, 0]
    assert entries[1].tolist() == [0, 0, 1, 2]


# --- each check rejects a corrupted output --------------------------------


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """Per workload: the prepared inputs and a copy of the output after every op."""
    root = tmp_path_factory.mktemp("snapshots")
    taken = {}
    for name, (setup, make_ops) in wl.WORKLOADS.items():
        runner = worker.Runner(SEED)
        prepared = setup(SEED, root / name / "setup", SMOKE, runner.run_setup_op)
        out = root / name / "out"
        copies = []
        for n, op in enumerate(make_ops(prepared, out)):
            assert runner.run_op(op) is not None
            copy = root / name / f"after{n}"
            shutil.copytree(op.out if name == "layout" else out, copy)
            copies.append(copy)
        assert runner.errors == []
        taken[name] = (prepared, copies)
    return taken


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set(row: int, col: int, value):
    def edit(rows):
        rows[row][col] = value(rows[row][col]) if callable(value) else value
    return edit


def _set_meta(path: Path, key: str, value) -> None:
    meta = checks.read_meta(path)
    meta[key] = value(meta[key]) if callable(value) else value
    path.write_text("".join(f"{k} = {v}\n" for k, v in meta.items()))


def _swap_rows(path: Path, first: int, second: int) -> None:
    """Swap the values of two data rows of an id,e1,... file, keeping the ids."""
    def edit(rows):
        a, b = rows[first + 1], rows[second + 1]
        a[1:], b[1:] = b[1:], a[1:]
    _rewrite(path, edit)


def _swap_sampled_embeddings(out: Path) -> None:
    _swap_rows(out / "embeddings.csv", *wl._sample(SEED, SMOKE.pipeline.records, SMOKE.embed_sample)[:2])


def _change_sampled_score_symmetrically(out: Path) -> None:
    i, j = wl._pair_sample(SEED, SMOKE.pipeline.records, SMOKE.score_sample)[0]

    def edit(rows):
        value = repr(float(rows[i][j]) * (1 + 1e-9) + 1e-12)
        rows[i][j] = rows[j][i] = value
    _rewrite(out / "scores.csv", edit)


def _shift(delta: float):
    return lambda v: repr(float(v) + delta)


CORRUPTIONS = {
    # (workload, op index): [(what, corrupt(out))]
    ("pipeline", 0): [("timestamp", lambda o: _rewrite(o / "records.csv", _set(1, 2, lambda v: str(int(v) + 1))))],
    ("pipeline", 1): [("feature cell", lambda o: _rewrite(o / "features.csv", _set(1, 0, _shift(1e-9))))],
    ("pipeline", 2): [("permuted embedding rows", _swap_sampled_embeddings)],
    ("pipeline", 3): [("variance in sidecar", lambda o: _set_meta(
        o / "reduced.csv.meta", "param_explained_variance", lambda v: "0.5," + v.split(",", 1)[1]))],
    ("pipeline", 4): [("standardized cell", lambda o: _rewrite(o / "augmented.csv", _set(3, -1, _shift(1e-6))))],
    ("pipeline", 5): [
        ("one changed score", lambda o: _rewrite(o / "scores.csv", _set(2, 5, _shift(1e-9)))),
        ("symmetric changed score", _change_sampled_score_symmetrically),
    ],
    ("pipeline", 6): [("quality value", lambda o: _rewrite(o / "eval.csv", _set(1, 1, "0.123")))],
    ("pipeline", 7): [("missing sweep cell", lambda o: _rewrite(o / "sweep.csv", lambda rows: rows.pop()))],
    ("pipeline", 8): [("non-finite delta", lambda o: _rewrite(o / "delta.csv", _set(2, 1, "nan")))],
    ("fit", 0): [("coordinate", lambda o: _rewrite(o / "b0" / "records.csv", _set(2, 4, _shift(0.5))))],
    ("fit", 1): [("permuted embedding rows", lambda o: _swap_rows(o / "b0" / "embeddings.csv", 0, 1))],
    ("fit", 2): [
        ("wrong best_loss", lambda o: _set_meta(o / "b0" / "optimize_trace.csv.meta", "param_best_loss", "1.0")),
        ("missing probe", lambda o: _rewrite(o / "b0" / "optimize_trace.csv", lambda rows: rows.pop())),
    ],
    ("fit", 3): [("wrong best_loss", lambda o: _set_meta(o / "b0" / "optimize_trace.csv.meta", "param_best_loss",
                                                         lambda v: repr(float(v) + 1.0)))],
    ("fit", 4): [("changed score", lambda o: _rewrite(o / "b0" / "scores.csv", _set(0, 1, _shift(1e-9))))],
    ("fit", 5): [
        ("rank loss", lambda o: _rewrite(o / "b0" / "eval.csv", _set(1, 1, "2.0"))),
        ("heatmap rank", lambda o: _rewrite(o / "b0" / "rank_heatmap.csv", _set(2, 2, lambda v: str(int(v) + 1)))),
    ],
    ("layout", 0): [
        ("shifted map coordinate", lambda o: _rewrite(o / "tsne.csv", _set(1, 1, _shift(0.05)))),
        ("wrong final KL", lambda o: _set_meta(o / "tsne.csv.meta", "param_final_kl", lambda v: repr(float(v) * 1.001))),
    ],
}


def _ops_on(workload: str, prepared, out: Path) -> list[wl.Op]:
    _, make_ops = wl.WORKLOADS[workload]
    if workload == "layout":
        prepared = dataclasses.replace(prepared, truth={"out": out})
    return make_ops(prepared, out)


@pytest.mark.parametrize(
    "workload,index,corrupt",
    [(w, i, c) for (w, i), cases in CORRUPTIONS.items() for _, c in cases],
    ids=[f"{w}-{i}-{what}" for (w, i), cases in CORRUPTIONS.items() for what, _ in cases],
)
def test_check_rejects_corrupted_output(snapshots, workload, index, corrupt, tmp_path):
    prepared, copies = snapshots[workload]
    out = tmp_path / "out"
    shutil.copytree(copies[index], out)
    ops = _ops_on(workload, prepared, out)
    if workload == "fit" and index == 4:
        # the score check compares at the weights the multiplicative fit kept, whose
        # sidecar the additive fit has since overwritten
        meta = out / "b0" / "optimize_trace.csv.meta"
        fitted_meta = meta.read_bytes()
        shutil.copy(copies[2] / "b0" / "optimize_trace.csv.meta", meta)
        ops[2].keep()
        meta.write_bytes(fitted_meta)
    ops[index].check()
    corrupt(out)
    with pytest.raises(checks.CheckError):
        ops[index].check()


def test_every_pass_op_has_a_corruption_test(snapshots):
    for workload, (prepared, copies) in snapshots.items():
        covered = {i for (w, i) in CORRUPTIONS if w == workload}
        assert covered == set(range(len(copies))), workload
