import ast
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import byte_manifest
import numpy as np
import oracles
import pytest

import semfuse.cache as cache
import semfuse.cli as cli
import semfuse.embed as embed
import semfuse.rankopt as rankopt
from semfuse.cache import load_entry
from semfuse.cli import main, write_sidecar
from semfuse.corpus import load_corpus
from semfuse.embed import EmbeddingSpace, WordVectorTable, import_embeddings, load_word_vectors
from semfuse.errors import ConfigError
from semfuse.geotime import batch_features
from semfuse.rankopt import (
    DEFAULT_DIST_KINDS,
    SimilarityParams,
    pairwise_scores,
    rank_matrix,
)
from semfuse.tsne import TsneConfig, run_tsne


def pipeline_stages(fx):
    return [
        ["ingest", "--corpus", str(fx["corpus"]), "--gazetteer", str(fx["gazetteer"])],
        ["encode", "--variant", "all_features"],
        ["embed", "--word-vectors", str(fx["vectors"])],
        ["reduce", "--k", "4"],
        ["augment"],
        ["score", "--kind", "pi", "--alphas", "0.02,9.55"],
        ["optimize", "--labels", str(fx["rank_labels"]), "--rounds", "2"],
        ["tsne", "--iterations", "150", "--perplexity", "5"],
        ["eval", "--mode", "quality", "--labels", str(fx["labels"]), "--top-n", "5"],
        ["eval", "--mode", "compare", "--labels", str(fx["rank_labels"])],
        ["sweep", "--mode", "quality", "--k-list", "2,4", "--labels", str(fx["labels"]), "--top-n", "5"],
        ["sweep", "--mode", "delta", "--k-list", "2,4", "--trials", "3", "--pairs", "20"],
    ]


def run_stages(out_dir, fx, seed=7):
    """Drive every stage of the pipeline into out_dir, asserting success."""
    base = ["--seed", str(seed), "--out-dir", str(out_dir)]
    for stage in pipeline_stages(fx):
        rc = main(base + stage)
        assert rc == 0, f"stage {stage[0]} failed"
        # the staging directory is gone once the stage is committed
        assert [p.name for p in out_dir.iterdir() if p.name.startswith(".")] == []


EXPECTED_OUTPUTS = [
    "records.csv",
    "features.csv",
    "embeddings.csv",
    "reduced.csv",
    "augmented.csv",
    "scores.csv",
    "optimize_trace.csv",
    "tsne.csv",
    "tsne.svg",
    "tsne_trace.csv",
    "eval.csv",
    "rank_heatmap.csv",
    "sweep.csv",
    "delta.csv",
]


TSNE_SIDECAR = ("space", "cost effective_perplexity final_kl input iterations kernel "
                         "learning_rate perplexity sigma_max sigma_min")
# for each stage of pipeline_stages, the outputs it writes with the input
# keys and the params of their sidecars
SIDECARS = [
    {"records.csv": ("corpus gazetteer", "format n_records")},
    {"features.csv": ("records", "shape variant")},
    {"embeddings.csv": ("records word_vectors", "dim fallback_ids ridge")},
    {"reduced.csv": ("embeddings", "explained_variance k")},
    {"augmented.csv": ("features reduced",
                       "constant_mask f feature_means feature_stds k variant")},
    {"scores.csv": ("embeddings records", "alphas dist_kinds ids kind")},
    {"optimize_trace.csv": ("embeddings labels records", "best_alpha1 best_alpha2 best_loss "
                            "bounds dist_kinds kind rounds shrink step")},
    {"tsne.csv": TSNE_SIDECAR, "tsne.svg": TSNE_SIDECAR, "tsne_trace.csv": TSNE_SIDECAR},
    {"eval.csv": ("labels space", "mode scale_max top_n")},
    {"rank_heatmap.csv": ("labels pred", "mode"), "eval.csv": ("labels pred", "mode")},
    {"sweep.csv": ("embeddings labels records", "k_list mode scale_max top_n")},
    {"delta.csv": ("embeddings records", "k_list mode pairs trials variant")},
]


def sidecar_keys(inputs: str, params: str) -> list[str]:
    return sorted(["stage", "version", "seed", *(f"sha256_{key}" for key in inputs.split()),
                   *(f"param_{name}" for name in params.split())])


def directory_bytes(out) -> dict:
    """Every entry of out with its bytes; a directory, such as a staging one, maps to None."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}


@pytest.fixture(scope="module")
def staged_out(pipeline_fixture, tmp_path_factory):
    """An output directory holding the outputs of ingest through augment."""
    root = tmp_path_factory.mktemp("staged")
    out = root / "out"
    with pytest.MonkeyPatch.context() as mp:  # set up before, so outside, each test's own cache
        mp.setenv("XDG_CACHE_HOME", str(root / "xdg-cache"))
        for stage in pipeline_stages(pipeline_fixture)[:5]:
            assert main(["--seed", "7", "--out-dir", str(out)] + stage) == 0
    return out


class TestPipeline:
    def test_each_sidecar_lists_its_keys(self, pipeline_fixture, tmp_path):
        stages = pipeline_stages(pipeline_fixture)
        assert len(stages) == len(SIDECARS)
        assert sorted({name for outputs in SIDECARS for name in outputs}) == sorted(EXPECTED_OUTPUTS)
        for stage, outputs in zip(stages, SIDECARS):
            assert main(["--seed", "7", "--out-dir", str(tmp_path)] + stage) == 0
            for name, (inputs, params) in outputs.items():
                meta = (tmp_path / f"{name}.meta").read_text(encoding="utf-8")
                keys = [line.split(" = ")[0] for line in meta.splitlines()]
                assert keys == sidecar_keys(inputs, params), f"{stage[:3]}: {name}.meta"

    def test_chain_matches_the_byte_manifest(self, pipeline_fixture, tmp_path, monkeypatch, capsys):
        # a relative --out-dir makes what each stage prints the same wherever the test runs
        monkeypatch.chdir(tmp_path)
        entries = {}
        for number, (stage, outputs) in enumerate(zip(pipeline_stages(pipeline_fixture), SIDECARS), start=1):
            assert main(["--seed", "7", "--out-dir", "out"] + stage) == 0
            key = f"pipeline.{number:02d}"
            entries[f"{key}.stdout"] = capsys.readouterr().out.rstrip("\n")
            for name in (file for output in outputs for file in (output, f"{output}.meta")):
                entries[f"{key}.{name}"] = byte_manifest.sha256((tmp_path / "out" / name).read_bytes())
        byte_manifest.check("pipeline.", entries)

    def test_stages_run_as_processes_write_nothing_to_stderr(self, pipeline_fixture, tmp_path):
        # pytest turns a warning into an error only inside its own process
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        out = tmp_path / "processes"
        for stage in pipeline_stages(pipeline_fixture):
            argv = [sys.executable, "-m", "semfuse", "--seed", "7", "--out-dir", str(out)] + stage
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, ""), stage[:3]
        # in one process every stage's main call parses its argv with the one parser
        cli.build_parser.cache_clear()
        run_stages(tmp_path / "in_process", pipeline_fixture)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(pipeline_stages(pipeline_fixture)) - 1)
        assert directory_bytes(out) == directory_bytes(tmp_path / "in_process")

    def test_all_stages_and_reproducibility(self, pipeline_fixture, tmp_path):
        dir_a = tmp_path / "run_a"
        dir_b = tmp_path / "run_b"
        run_stages(dir_a, pipeline_fixture)
        run_stages(dir_b, pipeline_fixture)
        for name in EXPECTED_OUTPUTS:
            a, b = dir_a / name, dir_b / name
            assert a.exists(), f"{name} missing"
            assert a.read_bytes() == b.read_bytes(), f"{name} differs between runs"
            meta_a, meta_b = dir_a / (name + ".meta"), dir_b / (name + ".meta")
            assert meta_a.exists(), f"{name}.meta missing"
            assert meta_a.read_bytes() == meta_b.read_bytes(), f"{name}.meta differs"

    def test_eval_csv_keeps_its_line_ends_and_value_texts(self, pipeline_fixture, tmp_path):
        run_stages(tmp_path, pipeline_fixture)
        text = (tmp_path / "eval.csv").read_bytes().decode("utf-8")
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert text == oracles.eval_csv(rows)
        metrics = dict(rows)
        assert list(metrics) == ["rank_loss", "n_uniform_columns", "mean_column_entropy_bits"]
        assert repr(float(metrics["rank_loss"])) == metrics["rank_loss"]
        assert str(int(metrics["n_uniform_columns"])) == metrics["n_uniform_columns"]

    def test_sidecar_contents(self, pipeline_fixture, tmp_path):
        out = tmp_path / "out"
        base = ["--seed", "11", "--out-dir", str(out)]
        assert main(base + ["ingest", "--corpus", str(pipeline_fixture["corpus"]),
                            "--gazetteer", str(pipeline_fixture["gazetteer"])]) == 0
        meta = (out / "records.csv.meta").read_text(encoding="utf-8")
        assert "stage = ingest" in meta
        assert "seed = 11" in meta
        assert re.search(r"sha256_corpus = [0-9a-f]{64}", meta)
        assert re.search(r"sha256_gazetteer = [0-9a-f]{64}", meta)
        assert "param_n_records = 10" in meta
        # sidecars carry no timestamps, so keys are a fixed sorted set
        keys = [line.split(" = ")[0] for line in meta.strip().splitlines()]
        assert keys == sorted(keys)

    def test_records_then_scores_shape(self, pipeline_fixture, tmp_path):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        assert main(base + ["score", "--kind", "pi"]) == 0
        rows = (out / "scores.csv").read_text(encoding="utf-8").strip().splitlines()
        assert len(rows) == 10
        assert all(len(row.split(",")) == 10 for row in rows)

    def test_scores_read_back_equal_the_scorer(self, pipeline_fixture, tmp_path):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        assert main(base + ["score", "--kind", "pi", "--alphas", "0.02,9.55"]) == 0
        assert main(base + ["eval", "--mode", "compare", "--pred", "scores.csv",
                            "--labels", str(fx["rank_labels"])]) == 0
        records = load_corpus(out / "records.csv", format="csv")
        space = import_embeddings(out / "embeddings.csv")
        params = SimilarityParams(kind="pi", alphas=(0.02, 9.55), dist_kinds=DEFAULT_DIST_KINDS)
        expected = pairwise_scores(space.matrix, batch_features(records), params)
        assert (out / "scores.csv").read_bytes() == oracles.score_matrix_text(expected).encode("ascii")
        assert np.array_equal(np.loadtxt(out / "scores.csv", delimiter=","), expected)
        heatmap = np.loadtxt(out / "rank_heatmap.csv", delimiter=",", skiprows=1, dtype=int)
        m = len(records)
        ranks = np.zeros((m, m), dtype=int)
        ranks[heatmap[:, 0], heatmap[:, 1]] = heatmap[:, 2]
        assert np.array_equal(ranks, rank_matrix(expected))

    def test_sigma_with_zero_weights_is_plain_dot_product(self, pipeline_fixture, tmp_path):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        assert main(base + ["score", "--kind", "sigma", "--alphas", "0,0"]) == 0
        space = import_embeddings(out / "embeddings.csv")
        expected = space.matrix @ space.matrix.T
        got = np.array([
            [float(cell) for cell in row.split(",")]
            for row in (out / "scores.csv").read_text(encoding="utf-8").strip().splitlines()
        ])
        assert np.allclose(got, expected, atol=1e-9)

    def test_each_stage_declares_the_files_it_writes(self, pipeline_fixture):
        # EXPECTED_OUTPUTS and SIDECARS, written by hand, are the oracle the table is checked against
        covered = set()
        for stage, outputs in zip(pipeline_stages(pipeline_fixture), SIDECARS):
            mode = stage[stage.index("--mode") + 1] if "--mode" in stage else None
            assert cli.STAGES[stage[0]].writes[mode] == tuple(outputs), stage[:3]
            covered.add((stage[0], mode))
        assert covered == {(stage, mode) for stage, spec in cli.STAGES.items() for mode in spec.writes}
        declared = {name for spec in cli.STAGES.values() for names in spec.writes.values() for name in names}
        assert sorted(declared) == sorted(EXPECTED_OUTPUTS)


class TestStageOrdering:
    def test_missing_upstream_stage(self, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "encode"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ingest" in err

    # (stage, the earlier outputs present as empty files, the one it names, the stage that writes it)
    @pytest.mark.parametrize("stage, present, missing, producer", [
        ("encode", [], "records.csv", "ingest"),
        ("embed", [], "records.csv", "ingest"),
        ("reduce", [], "embeddings.csv", "embed"),
        ("augment", [], "reduced.csv", "reduce"),
        ("augment", ["reduced.csv"], "features.csv", "encode"),
        ("score", [], "records.csv", "ingest"),
        ("score", ["records.csv"], "embeddings.csv", "embed"),
        ("optimize", [], "records.csv", "ingest"),
        ("optimize", ["records.csv"], "embeddings.csv", "embed"),
        ("sweep", [], "embeddings.csv", "embed"),
        ("sweep", ["embeddings.csv"], "records.csv", "ingest"),
    ])
    def test_missing_upstream_output_is_named_first(self, tmp_path, capsys, stage, present, missing, producer):
        # no flag is given: a missing output is named before any setting or label file is read
        out = tmp_path / "out"
        out.mkdir()
        for name in present:
            (out / name).write_bytes(b"")
        before = directory_bytes(out)
        assert main(["--out-dir", str(out), stage]) == 2
        assert capsys.readouterr().err == f"error: {out}/{missing} not found; run the '{producer}' stage first\n"
        assert directory_bytes(out) == before

    def test_mismatched_rows_names_both_files(self, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["encode"]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        assert main(base + ["reduce", "--k", "3"]) == 0
        features = out / "features.csv"
        lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
        features.write_text("".join(lines[:-1]), encoding="utf-8")
        rc = main(base + ["augment"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "reduced.csv" in err
        assert "features.csv" in err

    # each kernel reads the column its kind names, so any subset, order or repeat of kinds scores and fits
    KIND_COMBINATIONS = [
        ["score", "--dist-kinds", "inv_abs", "--alphas", "1"],
        ["score", "--dist-kinds", "floor_geo", "--alphas", "1"],
        ["score", "--dist-kinds", "floor_geo,inv_abs", "--alphas", "9.55,0.02"],
        ["score", "--dist-kinds", "exp_abs,inv_abs,floor_geo", "--alphas", "1,1,1"],
        ["optimize", "--dist-kinds", "inv_abs", "--bounds", "0:1"],
    ]

    @pytest.mark.parametrize("argv", KIND_COMBINATIONS, ids=lambda argv: f"{argv[0]} {argv[2]}")
    def test_any_dist_kinds_run(self, staged_out, pipeline_fixture, tmp_path, argv):
        # in a process of its own, where a numpy warning would print rather than raise
        if argv[0] == "optimize":
            argv = argv + ["--labels", str(pipeline_fixture["rank_labels"])]
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "semfuse", "--out-dir", str(out)] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr, len(done.stdout.splitlines())) == (0, "", 1)
        sidecar = out / {"score": "scores.csv.meta", "optimize": "optimize_trace.csv.meta"}[argv[0]]
        assert f"param_dist_kinds = {argv[2]}" in sidecar.read_text(encoding="utf-8").splitlines()

    def test_reordered_dist_kinds_score_as_the_default(self, staged_out, tmp_path):
        scores = {}
        for name, argv in [("default", ["--alphas", "0.02,9.55"]),
                           ("reordered", ["--dist-kinds", "floor_geo,inv_abs", "--alphas", "9.55,0.02"])]:
            out = tmp_path / name
            shutil.copytree(staged_out, out)
            assert main(["--out-dir", str(out), "score"] + argv) == 0
            scores[name] = np.loadtxt(out / "scores.csv", delimiter=",")
        assert scores["default"].shape == (10, 10)
        assert np.allclose(scores["reordered"], scores["default"], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("command, written", [
        (["reduce", "--k", "3"], "reduced.csv"),
        (["score", "--kind", "pi"], "scores.csv"),
    ])
    def test_non_finite_embedding_cell(self, pipeline_fixture, tmp_path, capsys, command, written):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        embeddings = out / "embeddings.csv"
        lines = embeddings.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[4].split(",")
        lines[4] = ",".join(cells[:2] + ["nan"] + cells[3:])
        embeddings.write_text("".join(lines), encoding="utf-8")
        before = sorted(path.name for path in out.iterdir())
        capsys.readouterr()
        rc = main(base + command)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{embeddings}: line 5: non-finite value" in err
        assert "Traceback" not in err
        assert sorted(path.name for path in out.iterdir()) == before
        assert not (out / written).exists()

    @pytest.mark.parametrize("edit, reason", [
        (lambda cells: cells[:2] + ["x"] + cells[3:], "line 5: non-numeric value"),
        (lambda cells: ["t02"] + cells[1:], "line 5: duplicate id 't02'"),
    ], ids=["non-numeric", "repeated id"])
    def test_bad_embedding_row_names_file_and_line(self, pipeline_fixture, tmp_path, capsys, edit, reason):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        embeddings = out / "embeddings.csv"
        lines = embeddings.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = ",".join(edit(lines[4].split(",")))
        embeddings.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(base + ["reduce", "--k", "3"]) == 2
        err = capsys.readouterr().err
        assert f"error: {embeddings}: {reason}" in err
        assert "Traceback" not in err
        assert not (out / "reduced.csv").exists()
        assert not (out / "reduced.csv.meta").exists()

    def test_reduce_with_impossible_k(self, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        rc = main(base + ["reduce", "--k", "99"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    def test_bad_labels_row_names_the_labels_file(self, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        labels = tmp_path / "labels.csv"
        labels.write_text("id_a,id_b,score_1\nt01,t02,3\nt01,t03,9\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(base + ["eval", "--mode", "quality", "--space", "embeddings.csv",
                          "--labels", str(labels), "--scale-max", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {labels}: line 3: score 9.0 outside [0, 4.0]" in err
        assert "Traceback" not in err
        assert not (out / "eval.csv").exists()


def with_bad_byte(source, dest, line):
    """Copy source to dest with a byte that is not UTF-8 at the start of line `line` (1-based)."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    dest.write_bytes(b"".join(lines))
    return dest


class TestNonUtf8Input:
    # (fixture file made bad, or None for the issue's embeddings.csv, the
    # stages run first, the failing command with {bad} for the bad file)
    CASES = {
        "corpus": ("corpus", [], ["ingest", "--corpus", "{bad}"]),
        "gazetteer": ("gazetteer", [], ["ingest", "--corpus", "{corpus}", "--gazetteer", "{bad}"]),
        "word vectors": ("vectors", [["ingest", "--corpus", "{corpus}"]],
                         ["embed", "--word-vectors", "{bad}"]),
        "embeddings": (None, [["ingest", "--corpus", "{corpus}"], ["embed", "--word-vectors", "{vectors}"]],
                       ["reduce", "--k", "1"]),
        "rater labels": ("labels", [["ingest", "--corpus", "{corpus}"], ["embed", "--word-vectors", "{vectors}"]],
                         ["eval", "--mode", "quality", "--space", "embeddings.csv", "--labels", "{bad}"]),
        "rank labels": ("rank_labels", [["ingest", "--corpus", "{corpus}", "--gazetteer", "{gazetteer}"],
                                        ["embed", "--word-vectors", "{vectors}"]],
                        ["optimize", "--labels", "{bad}", "--rounds", "1"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_file_and_line(self, pipeline_fixture, tmp_path, capsys, case):
        source, before, command = self.CASES[case]
        out = tmp_path / "out"
        if source is None:
            bad = out / "embeddings.csv"
        else:
            bad = with_bad_byte(pipeline_fixture[source], tmp_path / pipeline_fixture[source].name, 3)
        names = {key: str(value) for key, value in pipeline_fixture.items()}
        for stage in before:
            assert main(["--out-dir", str(out)] + [arg.format(**names) for arg in stage]) == 0
        if source is None:
            bad.write_bytes(b"id,e1,e2\na,1.0,2.0\nb,\xff3.0,4.0\n")
        capsys.readouterr()
        assert main(["--out-dir", str(out)] + [arg.format(bad=bad, **names) for arg in command]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: line 3: not UTF-8 text" in err
        assert "Traceback" not in err


class TestSidecarHash:
    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (5 << 20) // 2])
    def test_digest_equals_sha256_of_the_bytes(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "input.bin"
        path.write_bytes(data)
        assert cache.sha256(path) == hashlib.sha256(data).hexdigest()

    def test_hash_holds_one_block_at_a_time(self, tmp_path):
        path = tmp_path / "input.bin"
        path.write_bytes(bytes(8 << 20))
        tracemalloc.start()
        try:
            cache.sha256(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the block read next is allocated before the last one is dropped
        assert peak < 3 << 20

    def test_sidecar_reads_its_inputs_in_blocks(self, tmp_path, monkeypatch):
        # an input is hashed without holding the whole file in memory
        def read_bytes(self):
            raise AssertionError(f"{self} read whole")

        data = np.random.default_rng(1).bytes(3 << 20)
        source = tmp_path / "vectors.txt"
        source.write_bytes(data)
        out = tmp_path / "embeddings.csv"
        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        write_sidecar(out, "embed", {"word_vectors": cache.sha256(source)}, {"ridge": 0.5}, 7)
        meta = (tmp_path / "embeddings.csv.meta").read_text(encoding="utf-8")
        assert f"sha256_word_vectors = {hashlib.sha256(data).hexdigest()}\n" in meta
        assert "param_ridge = 0.5\n" in meta

    def test_a_stage_hashes_each_input_once(self, pipeline_fixture, tmp_path, monkeypatch):
        # tsne writes three outputs, and each sidecar records the digest of its one input;
        # a parse that misses the parse cache hashes the file once more before it is stored
        out, hashed = tmp_path / "out", []
        assert main(["--out-dir", str(out), "ingest", "--corpus", str(pipeline_fixture["corpus"])]) == 0
        assert main(["--out-dir", str(out), "embed", "--word-vectors", str(pipeline_fixture["vectors"])]) == 0
        sha256 = cache.sha256
        monkeypatch.setattr(cache, "sha256", lambda path: hashed.append(path) or sha256(path))
        for hashes in (2, 1):  # a miss, then a hit
            hashed.clear()
            assert main(["--out-dir", str(out), "tsne", "--input", "embeddings.csv", "--iterations", "20",
                         "--perplexity", "4"]) == 0
            assert hashed == [out / "embeddings.csv"] * hashes
        digest = sha256(out / "embeddings.csv")
        for name in ("tsne.csv", "tsne.svg", "tsne_trace.csv"):
            assert f" = {digest}\n" in (out / f"{name}.meta").read_text(encoding="utf-8")


class TestWordVectorCache:
    """`embed` parses a word-vector file once; later runs read the table from the cache."""

    @pytest.fixture
    def parses(self, monkeypatch) -> list[Path]:
        """The path of every `load_word_vectors` call the CLI makes."""
        calls, original = [], embed.load_word_vectors
        monkeypatch.setattr(embed, "load_word_vectors", lambda path: calls.append(path) or original(path))
        return calls

    def embed(self, fx, out, vectors=None) -> int:
        base = ["--seed", "7", "--out-dir", str(out)]
        assert main(base + ["ingest", "--corpus", str(fx["corpus"])]) == 0
        return main(base + ["embed", "--word-vectors", str(vectors or fx["vectors"])])

    def outputs(self, out) -> tuple[bytes, bytes]:
        return (out / "embeddings.csv").read_bytes(), (out / "embeddings.csv.meta").read_bytes()

    def test_a_hit_returns_the_parsed_table(self, pipeline_fixture, tmp_path, parse_cache, parses):
        vectors = pipeline_fixture["vectors"]
        assert self.embed(pipeline_fixture, tmp_path / "cold") == 0
        entry = parse_cache / f"{hashlib.sha256(vectors.read_bytes()).hexdigest()}.vectors"
        assert sorted(parse_cache.iterdir()) == [entry]
        hit, parsed = load_entry(WordVectorTable, entry), load_word_vectors(vectors)
        assert hit.dim == parsed.dim and list(hit.vectors) == list(parsed.vectors)
        assert all(np.array_equal(hit.vectors[t], row) for t, row in parsed.vectors.items())
        assert self.embed(pipeline_fixture, tmp_path / "warm") == 0
        assert parses == [vectors]

    def test_cold_and_warm_runs_write_the_same_bytes(self, pipeline_fixture, tmp_path, parses):
        assert self.embed(pipeline_fixture, tmp_path / "cold") == 0
        assert self.embed(pipeline_fixture, tmp_path / "warm") == 0
        assert len(parses) == 1
        assert self.outputs(tmp_path / "warm") == self.outputs(tmp_path / "cold")

    def test_a_run_hashes_the_file_once_and_a_miss_twice(self, pipeline_fixture, tmp_path, monkeypatch):
        vectors, hashed = pipeline_fixture["vectors"], []
        sha256 = cache.sha256
        monkeypatch.setattr(cache, "sha256", lambda path: hashed.append(path) or sha256(path))
        for run, hashes in (("cold", 2), ("warm", 1)):  # a miss hashes again after the parse
            hashed.clear()
            assert self.embed(pipeline_fixture, tmp_path / run) == 0
            assert hashed.count(vectors) == hashes

    @pytest.mark.parametrize("room", [-1, 0])
    def test_a_table_over_the_size_bound_is_not_stored(self, pipeline_fixture, tmp_path, parse_cache, parses,
                                                        monkeypatch, room):
        vectors, hashed, sha256 = pipeline_fixture["vectors"], [], cache.sha256
        table = load_word_vectors(vectors)
        monkeypatch.setattr(cache, "MAX_CACHED_VALUES", len(table.vectors) * table.dim + room)
        monkeypatch.setattr(cache, "sha256", lambda path: hashed.append(path) or sha256(path))
        for run in ("first", "second"):
            assert self.embed(pipeline_fixture, tmp_path / run) == 0
        assert len(parses) == (2 if room < 0 else 1)
        assert hashed.count(vectors) == (2 if room < 0 else 3)  # an oversized table is hashed once per run
        assert parse_cache.exists() == (room >= 0)
        assert self.outputs(tmp_path / "second") == self.outputs(tmp_path / "first")

    def test_a_same_size_edit_misses(self, pipeline_fixture, tmp_path, parse_cache, parses, monkeypatch):
        vectors = tmp_path / "vectors.txt"
        shutil.copyfile(pipeline_fixture["vectors"], vectors)
        assert self.embed(pipeline_fixture, tmp_path / "before", vectors) == 0
        text = vectors.read_text(encoding="utf-8")
        digit = re.search(r"[1-8]", text).start()
        vectors.write_text(text[:digit] + str(int(text[digit]) + 1) + text[digit + 1:], encoding="utf-8")
        assert self.embed(pipeline_fixture, tmp_path / "after", vectors) == 0
        assert parses == [vectors, vectors] and len(list(parse_cache.iterdir())) == 2
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        assert self.embed(pipeline_fixture, tmp_path / "fresh", vectors) == 0
        assert self.outputs(tmp_path / "after") == self.outputs(tmp_path / "fresh")
        assert self.outputs(tmp_path / "after") != self.outputs(tmp_path / "before")

    @pytest.mark.parametrize("damage", ["truncated", "bit in the tag", "bit in the tokens",
                                        "bit in the matrix"])
    def test_a_damaged_entry_is_ignored_and_rewritten(self, pipeline_fixture, tmp_path, parse_cache, parses,
                                                     damage):
        assert self.embed(pipeline_fixture, tmp_path / "cold") == 0
        [entry] = parse_cache.iterdir()
        good = entry.read_bytes()
        at = {"bit in the tokens": good.index(b"\n", good.index(b"\n") + 1) + 3,
              "bit in the matrix": len(good) - 5, "bit in the tag": 20}.get(damage)
        bad = good[:-8] if at is None else good[:at] + bytes([good[at] ^ 1]) + good[at + 1:]
        entry.write_bytes(bad)
        assert self.embed(pipeline_fixture, tmp_path / "warm") == 0
        assert len(parses) == 2
        assert entry.read_bytes() == good
        assert self.outputs(tmp_path / "warm") == self.outputs(tmp_path / "cold")

    @pytest.mark.parametrize("blocked", ["cache home", "entry directory"])
    def test_an_unwritable_cache_changes_nothing(self, pipeline_fixture, tmp_path, monkeypatch, capsys, parses,
                                                blocked):
        # a file where a directory must go: a permission bit does not stop a superuser
        home = tmp_path / "home"
        place = {"cache home": home, "entry directory": home / "semfuse" / "parse"}[blocked]
        place.parent.mkdir(parents=True, exist_ok=True)
        place.write_text("not a directory\n", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        capsys.readouterr()
        for run in ("first", "second"):
            assert self.embed(pipeline_fixture, tmp_path / run) == 0
        assert capsys.readouterr().err == ""
        assert len(parses) == 2
        assert self.outputs(tmp_path / "second") == self.outputs(tmp_path / "first")

    def test_an_invalid_table_writes_no_entry(self, pipeline_fixture, tmp_path, parse_cache, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("cat 1.0 2.0\ndog 1.0\n", encoding="utf-8")
        errors = []
        for run in ("first", "second"):
            capsys.readouterr()
            assert self.embed(pipeline_fixture, tmp_path / run, vectors) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: {vectors}: line 2: expected 2 values, got 1\n"
        assert not parse_cache.exists()

    def test_a_file_changed_during_the_parse_is_not_stored(self, pipeline_fixture, tmp_path, parse_cache,
                                                          monkeypatch):
        vectors = tmp_path / "vectors.txt"
        shutil.copyfile(pipeline_fixture["vectors"], vectors)

        def parse_then_append(path):
            table = load_word_vectors(path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n")
            return table

        monkeypatch.setattr(embed, "load_word_vectors", parse_then_append)
        assert self.embed(pipeline_fixture, tmp_path / "out", vectors) == 0
        assert not parse_cache.exists()

    def test_a_relative_cache_home_means_the_default(self, pipeline_fixture, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path / "user"))
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.chdir(tmp_path)
        assert self.embed(pipeline_fixture, tmp_path / "out") == 0
        assert len(list((tmp_path / "user" / ".cache" / "semfuse" / "parse").iterdir())) == 1
        assert not (tmp_path / "relative").exists()


class TestSpaceCache:
    """Stages parse each embedding space once; a later read of the same bytes, by any stage, is a hit."""

    @pytest.fixture
    def parses(self, monkeypatch) -> list[Path]:
        """The path of every `import_embeddings` call the CLI makes."""
        calls, original = [], embed.import_embeddings
        monkeypatch.setattr(embed, "import_embeddings", lambda path: calls.append(path) or original(path))
        return calls

    @pytest.fixture
    def out(self, pipeline_fixture, tmp_path) -> Path:
        """An output directory holding the outputs of ingest through embed."""
        out = tmp_path / "out"
        for stage in pipeline_stages(pipeline_fixture)[:3]:
            assert main(["--seed", "7", "--out-dir", str(out)] + stage) == 0
        return out

    def stage(self, out, *argv) -> int:
        return main(["--seed", "7", "--out-dir", str(out), *argv])

    def entry(self, directory, path) -> Path:
        return directory / f"{cache.sha256(path)}.space"

    def test_cold_warm_and_uncached_chains_write_the_same_bytes(self, pipeline_fixture, tmp_path, parse_cache,
                                                                parses, monkeypatch):
        cold, warm, uncached = tmp_path / "cold", tmp_path / "warm", tmp_path / "uncached"
        run_stages(cold, pipeline_fixture)
        assert parses == [cold / "embeddings.csv", cold / "reduced.csv", cold / "augmented.csv"]
        assert sorted(p.suffix for p in parse_cache.iterdir()) == [".space"] * 3 + [".vectors"]
        parses.clear()
        run_stages(warm, pipeline_fixture)
        assert parses == []
        (tmp_path / "no-cache").write_text("a file where the cache home must go\n", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "no-cache"))
        run_stages(uncached, pipeline_fixture)
        assert len(parses) == 8  # reduce, augment, score, optimize, tsne, eval, two sweeps
        assert len(directory_bytes(cold)) == 2 * len(EXPECTED_OUTPUTS)
        assert directory_bytes(warm) == directory_bytes(cold) == directory_bytes(uncached)

    def test_a_hit_is_the_parse(self, out, parse_cache, parses):
        path = out / "embeddings.csv"
        assert self.stage(out, "reduce", "--k", "3") == 0
        hit, parsed = load_entry(EmbeddingSpace, self.entry(parse_cache, path)), import_embeddings(path)
        assert hit.ids == parsed.ids
        assert hit.matrix.dtype == np.float64 and hit.matrix.flags.c_contiguous
        assert hit.matrix.shape == parsed.matrix.shape and hit.matrix.tobytes() == parsed.matrix.tobytes()
        assert self.stage(out, "score") == 0
        assert parses == [path]

    @pytest.mark.parametrize("damage", ["truncated", "bit in the tag", "bit in the ids", "bit in the matrix"])
    def test_a_damaged_entry_is_ignored_and_rewritten(self, out, parse_cache, parses, damage):
        path = out / "embeddings.csv"
        assert self.stage(out, "score") == 0
        scores = (out / "scores.csv").read_bytes()
        entry = self.entry(parse_cache, path)
        good = entry.read_bytes()
        at = {"bit in the ids": good.index(b"\n", good.index(b"\n") + 1) + 2,
              "bit in the matrix": len(good) - 5, "bit in the tag": 10}.get(damage)
        entry.write_bytes(good[:-8] if at is None else good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
        assert self.stage(out, "score") == 0
        assert parses == [path, path]
        assert entry.read_bytes() == good
        assert (out / "scores.csv").read_bytes() == scores

    def test_ids_with_a_line_break_are_parsed_every_time(self, tmp_path, parse_cache, parses):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "embeddings.csv"
        path.write_text('id,e1,e2,e3\n"a\nb",1.0,2.0,0.5\nc,3.0,1.0,2.0\nd,0.5,0.25,4.0\n', encoding="utf-8")
        assert import_embeddings(path).ids == ("a\nb", "c", "d")
        outputs = []
        for _ in range(2):
            assert self.stage(out, "reduce", "--k", "2") == 0
            outputs.append((out / "reduced.csv").read_bytes())
        assert parses == [path, path] and outputs[0] == outputs[1]
        assert not [p for p in parse_cache.iterdir() if p.suffix == ".space"]

    @pytest.mark.parametrize("room", [-1, 0])
    def test_a_space_over_the_size_bound_is_not_stored(self, out, parse_cache, parses, monkeypatch, room):
        path, hashed, sha256 = out / "embeddings.csv", [], cache.sha256
        monkeypatch.setattr(cache, "MAX_CACHED_VALUES", import_embeddings(path).matrix.size + room)
        monkeypatch.setattr(cache, "sha256", lambda path: hashed.append(path) or sha256(path))
        for _ in range(2):
            assert self.stage(out, "reduce", "--k", "2") == 0
        assert len(parses) == (2 if room < 0 else 1)
        assert hashed.count(path) == (2 if room < 0 else 3)  # an oversized space is hashed once per run
        assert self.entry(parse_cache, out / "embeddings.csv").exists() == (room >= 0)

    def test_the_oldest_entries_go_first(self, tmp_path, monkeypatch):
        directory = tmp_path / "cache"
        directory.mkdir()
        for age, name in enumerate(["d.vectors", "c.space", "b.vectors", "a.space"], start=1):
            (directory / name).write_bytes(bytes(100))
            os.utime(directory / name, (1e9 - age, 1e9 - age))
        for name in ["notes.txt", ".e.space.1234.tmp"]:  # not entries: never counted or removed
            (directory / name).write_bytes(bytes(1000))
            os.utime(directory / name, (0, 0))
        for bound, left in [(250, "c.space d.vectors"), (200, "c.space d.vectors"), (199, "d.vectors"), (0, "")]:
            monkeypatch.setattr(cache, "MAX_CACHE_BYTES", bound)
            cache._evict(directory)
            assert sorted(p.name for p in directory.iterdir()) == [".e.space.1234.tmp", *left.split(), "notes.txt"]

    def test_a_store_evicts_and_a_hit_keeps_its_entry(self, pipeline_fixture, tmp_path, out, parse_cache, parses,
                                                      monkeypatch):
        [vectors] = parse_cache.iterdir()
        stale = parse_cache / f"{'0' * 64}.space"
        stale.write_bytes(bytes(100))
        os.utime(stale, (2000, 2000))
        os.utime(vectors, (1000, 1000))
        assert self.stage(tmp_path / "again", *pipeline_stages(pipeline_fixture)[0]) == 0
        assert self.stage(tmp_path / "again", *pipeline_stages(pipeline_fixture)[2]) == 0  # a hit
        assert vectors.stat().st_mtime > 2000
        path = out / "embeddings.csv"
        probe = tmp_path / "probe.space"
        cache.save_entry(import_embeddings(path), probe)
        monkeypatch.setattr(cache, "MAX_CACHE_BYTES", vectors.stat().st_size + probe.stat().st_size)
        assert self.stage(out, "reduce", "--k", "2") == 0
        assert sorted(parse_cache.iterdir()) == sorted([vectors, self.entry(parse_cache, path)])

    def test_a_failed_eviction_changes_nothing(self, out, parse_cache, monkeypatch, capsys):
        assert self.stage(out, "reduce", "--k", "2") == 0
        reduced = (out / "reduced.csv").read_bytes()
        for entry in parse_cache.iterdir():
            entry.unlink()
        stuck = parse_cache / f"{'1' * 64}.space"
        stuck.mkdir()  # the oldest entry, and one that cannot be unlinked
        os.utime(stuck, (0, 0))
        monkeypatch.setattr(cache, "MAX_CACHE_BYTES", 0)
        capsys.readouterr()
        assert self.stage(out, "reduce", "--k", "2") == 0
        assert capsys.readouterr().err == ""
        assert (out / "reduced.csv").read_bytes() == reduced
        assert sorted(parse_cache.iterdir()) == sorted([stuck, self.entry(parse_cache, out / "embeddings.csv")])


class TestNonFiniteFlags:
    # (command, output it must not write, the setting named in the error);
    # one case per parser: single number, number list, lo:hi bounds
    CASES = {
        "embed --ridge nan": (["embed", "--ridge", "nan"], "embeddings.csv", "ridge"),
        "optimize --step nan": (["optimize", "--step", "nan"], "optimize_trace.csv", "step"),
        "score --alphas nan": (["score", "--alphas", "0.02,nan"], "scores.csv", "alphas"),
        "score --alphas -inf": (["score", "--alphas", "0.02,-inf"], "scores.csv", "alphas"),
        "optimize --bounds inf": (["optimize", "--bounds", "0:1,0:inf"], "optimize_trace.csv", "bounds"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_the_setting_named(self, pipeline_fixture, tmp_path, capsys, case):
        command, written, setting = self.CASES[case]
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        if command[0] != "embed":
            assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        else:
            command = command + ["--word-vectors", str(fx["vectors"])]
        if command[0] == "optimize":
            command = command + ["--labels", str(fx["rank_labels"])]
        capsys.readouterr()
        assert main(base + command) == 2
        err = capsys.readouterr().err
        assert f"error: {setting} must be finite" in err
        assert "Traceback" not in err
        assert not (out / written).exists()


class TestWorkOutOfRange:
    """Weights that overflow the scores, or a grid too fine to hold, fail in one line and write nothing."""

    # (command, the error after "error: ", the output it must not write); optimize names the first
    # probe of its grid, in trace order, whose scores overflow
    CASES = {
        "score alphas": (["score", "--alphas", "1e300,1e300"],
                         "kind 'pi' with alphas (1e+300, 1e+300) gives non-finite scores",
                         "scores.csv"),
        "optimize bounds": (["optimize", "--bounds", "0:1e300,0:1e300"],
                            "kind 'pi' with alphas (5e+298, 5e+298) gives non-finite scores",
                            "optimize_trace.csv"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_overflowing_weights_exit_2_with_nothing_else_on_stderr(self, staged_out, pipeline_fixture, tmp_path,
                                                                   case):
        # in a process of its own, where a numpy warning would print rather than raise
        argv, message, written = self.CASES[case]
        if argv[0] == "optimize":
            argv = argv + ["--labels", str(pipeline_fixture["rank_labels"])]
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        before = directory_bytes(out)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "semfuse", "--out-dir", str(out)] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (2, f"error: {message}\n")
        assert not (out / written).exists()
        assert directory_bytes(out) == before

    @pytest.mark.parametrize("step", ["1e-6", "1e-300", "1e-320"])
    def test_a_step_too_fine_exits_2(self, staged_out, pipeline_fixture, tmp_path, capsys, step):
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        before = directory_bytes(out)
        capsys.readouterr()
        assert main(["--out-dir", str(out), "optimize", "--labels", str(pipeline_fixture["rank_labels"]),
                     "--step", step]) == 2
        assert capsys.readouterr().err == (f"error: step {float(step)!r} over bounds ((0.0, 1.0), (0.0, 12.0)) "
                                           "gives more than 100000 probes per round\n")
        assert directory_bytes(out) == before


class TestTimestampBound:
    """A timestamp of 2**53 or more, where float seconds stop being exact, fails at ingest, not later."""

    @staticmethod
    def corpus(tmp_path, stamp) -> Path:
        path = tmp_path / "corpus.csv"
        path.write_text(f"id,text,timestamp,lat,lon\na,quiet morning,{stamp},40.0,-75.0\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("stamp", [2**53, 10**400])
    def test_ingest_exits_2_naming_the_line(self, tmp_path, capsys, stamp):
        corpus, out = self.corpus(tmp_path, stamp), tmp_path / "out"
        capsys.readouterr()
        assert main(["--out-dir", str(out), "ingest", "--corpus", str(corpus)]) == 2
        assert capsys.readouterr().err == f"error: {corpus}: line 2: record 'a': timestamp {stamp} is not below 2**53\n"
        assert not out.exists()

    def test_a_stamp_too_long_for_int_exits_2(self, tmp_path, capsys):
        # int() and str() refuse more than 4,300 digits; the stamp is refused by its count of significant digits
        stamp = "1" + "0" * 5000
        corpus, out = self.corpus(tmp_path, stamp), tmp_path / "out"
        capsys.readouterr()
        assert main(["--out-dir", str(out), "ingest", "--corpus", str(corpus)]) == 2
        assert capsys.readouterr().err == f"error: {corpus}: line 2: record 'a': timestamp {stamp} is not below 2**53\n"
        assert not out.exists()

    def test_leading_zeros_do_not_count(self, tmp_path):
        corpus, out = self.corpus(tmp_path, "0" * 5000 + "1"), tmp_path / "out"
        assert main(["--out-dir", str(out), "ingest", "--corpus", str(corpus)]) == 0
        assert (out / "records.csv").read_text(encoding="utf-8").splitlines()[1] == "a,quiet morning,1,,40.0,-75.0"

    def test_the_largest_exact_stamp_is_encoded_exactly(self, tmp_path):
        corpus, out = self.corpus(tmp_path, 2**53 - 1), tmp_path / "out"
        assert main(["--out-dir", str(out), "ingest", "--corpus", str(corpus)]) == 0
        assert main(["--out-dir", str(out), "encode", "--variant", "condensed_time"]) == 0
        lines = (out / "features.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == f"{float(2**53 - 1)!r},40.0,-75.0"


class TestSettingErrors:
    """Each setting error, for a setting given by flag and by config key alike."""

    # (stage, setting key, its text, the error after "error: ")
    CASES = {
        "integer": (["reduce"], "k", "4.5", "k must be an integer, got '4.5'"),
        "number": (["tsne"], "perplexity", "many", "perplexity must be a number, got 'many'"),
        "integer list": (["sweep", "--mode", "delta"], "k_list", "2,x",
                         "k_list must be comma-separated integers, got '2,x'"),
        "number list": (["score"], "alphas", "0.02,y",
                        "alphas must be comma-separated numbers, got '0.02,y'"),
        "finite": (["tsne"], "learning_rate", "inf", "learning_rate must be finite, got 'inf'"),
        "empty integer list": (["sweep", "--mode", "delta"], "k_list", ",",
                               "k_list must be comma-separated integers, got ','"),
        "empty number list": (["score"], "alphas", ", ,",
                              "alphas must be comma-separated numbers, got ', ,'"),
        "negative seed, tsne": (["tsne"], "seed", "-1", "seed must be >= 0, got -1"),
        "negative seed, sweep": (["sweep", "--mode", "delta"], "seed", "-1", "seed must be >= 0, got -1"),
        "non-integer seed": (["reduce", "--k", "2"], "seed", "x", "seed must be an integer, got 'x'"),
        "missing file": (["embed"], "word_vectors", "missing.txt",
                         "word_vectors file missing.txt does not exist"),
        "huge learning rate": (["tsne"], "learning_rate", "1e308", "coordinates diverged at iteration 0"),
        "huge iterations": (["tsne"], "iterations", "99999999999999999999999",
                            "iterations must be <= 1000000, got 99999999999999999999999"),
        # checked before the grid, whose four 21-point axes would hold too many probes per round
        "bounds for other distance kinds": (["optimize", "--labels", "{rank_labels}"], "bounds",
                                            "0:1,0:1,0:1,0:1",
                                            "each of 2 distance kinds needs one bound, got 4"),
        "repeated k, delta": (["sweep", "--mode", "delta", "--pairs", "20"], "k_list", "4,2,4",
                              "k=4 is repeated in the component counts"),
        # checked before any pair is sampled: at 10**9 trials the sample alone would not fit in memory
        "trials over the sample bound": (["sweep", "--mode", "delta"], "trials", "2001",
                                         "trials 2001 x pair_sample_size 500 exceeds 1000000 sampled pairs"),
        "huge trials": (["sweep", "--mode", "delta"], "trials", "1000000000",
                        "trials 1000000000 x pair_sample_size 500 exceeds 1000000 sampled pairs"),
        # a choice is checked where it is used, so a flag fails as a config key does
        "format": (["ingest", "--corpus", "{out}/records.csv"], "format", "xml",
                   "unknown corpus format 'xml'; expected one of ('csv', 'tsv', 'jsonl')"),
        "variant": (["encode"], "variant", "none",
                    "unknown feature variant 'none'; expected one of ('all_features', 'condensed_time')"),
        "variant, delta": (["sweep", "--mode", "delta"], "variant", "none",
                           "unknown feature variant 'none'; expected one of ('all_features', 'condensed_time')"),
        "kind": (["score"], "kind", "cosine",
                 "unknown similarity kind 'cosine'; expected one of ('sigma', 'pi')"),
        "kernel": (["tsne"], "kernel", "cauchy",
                   "unknown kernel 'cauchy'; expected one of ('gaussian', 'student_t')"),
        "cost": (["tsne"], "cost", "reverse",
                 "unknown cost mode 'reverse'; expected one of ('joint', 'conditional')"),
        "mode, eval": (["eval"], "mode", "rank", "unknown eval mode 'rank'; expected quality or compare"),
        "mode, sweep": (["sweep"], "mode", "rank", "unknown sweep mode 'rank'; expected quality or delta"),
        "bounds without a colon": (["optimize", "--labels", "{rank_labels}"], "bounds", "0-1",
                                   "bounds interval '0-1' must look like lo:hi"),
        "alphas for other distance kinds": (["score"], "alphas", "1", "1 alphas for 2 distance kinds"),
        "distance kind": (["score", "--alphas", "1"], "dist_kinds", "foo",
                          "unknown distance kind 'foo'; expected one of ('exp_abs', 'inv_abs', 'floor_geo')"),
        "zero step": (["optimize", "--labels", "{rank_labels}"], "step", "0", "step must be positive, got 0.0"),
        "no trials": (["sweep", "--mode", "delta"], "trials", "0", "trials must be >= 1, got 0"),
    }

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_one_error_line(self, staged_out, pipeline_fixture, tmp_path, capsys, case, given):
        stage, key, text, message = self.CASES[case]
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        stage = [arg.format(out=out, **pipeline_fixture) for arg in stage]
        before = directory_bytes(out)
        argv = ["--out-dir", str(out)]
        if given == "config":
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {text}\n", encoding="utf-8")
            argv += ["--config", str(config)] + stage
        elif key == "seed":
            argv += ["--seed", text] + stage
        else:
            argv += stage + [f"--{key.replace('_', '-')}", text]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert directory_bytes(out) == before

    def test_repeated_k_in_a_quality_sweep(self, staged_out, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        before = directory_bytes(out)
        capsys.readouterr()
        assert main(["--out-dir", str(out), "sweep", "--mode", "quality", "--k-list", "4,2,4",
                     "--labels", str(pipeline_fixture["labels"])]) == 2
        assert capsys.readouterr().err == "error: k=4 is repeated in the component counts\n"
        assert directory_bytes(out) == before


class TestInputFileErrors:
    """An input file a stage cannot use exits 2 with one error line and leaves out_dir as it was."""

    # (file name, under tmp_path or, with "out/", in out_dir; its text; the stage; the error after "error: ")
    CASES = {
        "corpus format not inferred": ("corpus.txt", "id,text,timestamp\na,t,1\n", ["ingest", "--corpus", "{file}"],
                                       "cannot infer corpus format from 'corpus.txt'; pass format explicitly"),
        "jsonl key missing": ("c.jsonl", '{"id": "a", "text": "t"}\n', ["ingest", "--corpus", "{file}"],
                              "{file}: line 1: missing key 'timestamp'"),
        "text missing": ("c.csv", "id,text,timestamp\na\n", ["ingest", "--corpus", "{file}"],
                         "{file}: line 2: missing text value"),
        "rater labels without scores": ("l.csv", "id_a,id_b\n", ["eval", "--labels", "{file}"],
                                        "{file}: need at least one score column"),
        "rank labels of one row": ("r.csv", "0.5\n", ["optimize", "--labels", "{file}"],
                                   "{file}: need at least 2 rows"),
        "rank labels not square": ("r.csv", "0,1,2\n1,0,3\n", ["optimize", "--labels", "{file}"],
                                   "{file}: score matrix is 2 x 3, not square"),
        "feature layout": ("out/features.csv", "x,y\n1,2\n", ["augment"],
                           "{file}: header ('x', 'y') matches no known feature layout"),
        "no embedding columns": ("out/embeddings.csv", "id\na\n", ["reduce", "--k", "2"],
                                 "{file}: no embedding columns"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_one_error_line(self, staged_out, tmp_path, capsys, case):
        name, text, stage, message = self.CASES[case]
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        file = tmp_path / name
        file.write_text(text, encoding="utf-8")
        before = directory_bytes(out)
        capsys.readouterr()
        assert main(["--out-dir", str(out)] + [arg.format(file=file) for arg in stage]) == 2
        assert capsys.readouterr().err == f"error: {message.format(file=file)}\n"
        assert directory_bytes(out) == before

    def test_records_of_a_re_run_ingest_against_older_embeddings(self, staged_out, pipeline_fixture, tmp_path,
                                                                 capsys):
        # ingest ran again, on another corpus, and embed did not
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        corpus = tmp_path / "other.csv"
        corpus.write_text("id,text,timestamp\nx,quiet morning,1\ny,busy night,2\n", encoding="utf-8")
        assert main(["--out-dir", str(out), "ingest", "--corpus", str(corpus)]) == 0
        before = directory_bytes(out)
        capsys.readouterr()
        assert main(["--out-dir", str(out), "score"]) == 2
        assert capsys.readouterr().err == f"error: {out}/records.csv and {out}/embeddings.csv list different ids\n"
        assert directory_bytes(out) == before


class TestUnreadFlags:
    """A flag whose setting the stage does not read is an error; a config key of the other mode is not."""

    # (argv after --out-dir, the error after "error: "): the first unread flag, in --help order, is named
    CASES = {
        "eval compare": (["eval", "--mode", "compare", "--labels", "{rank_labels}", "--space", "nonexistent.csv",
                          "--top-n", "0"], "--space is not read by eval --mode compare"),
        "sweep delta": (["sweep", "--mode", "delta", "--k-list", "2,4", "--trials", "3", "--pairs", "20",
                         "--labels", "nonexistent.csv", "--top-n", "0", "--scale-max", "-1"],
                        "--labels is not read by sweep --mode delta"),
        "sweep quality": (["sweep", "--mode", "quality", "--k-list", "2,4", "--labels", "{labels}", "--top-n", "5",
                           "--variant", "nope", "--trials", "0", "--pairs", "-3"],
                          "--variant is not read by sweep --mode quality"),
    }

    @pytest.fixture
    def out(self, staged_out, tmp_path) -> Path:
        """The outputs of ingest through score."""
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        assert main(["--seed", "7", "--out-dir", str(out), "score"]) == 0
        return out

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_first_unread_flag(self, out, pipeline_fixture, capsys, case):
        argv, message = self.CASES[case]
        before = directory_bytes(out)
        capsys.readouterr()
        assert main(["--out-dir", str(out)] + [arg.format(**pipeline_fixture) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert directory_bytes(out) == before

    def test_a_config_key_of_the_other_mode_is_accepted(self, out, pipeline_fixture, tmp_path):
        config = tmp_path / "shared.cfg"
        config.write_text("space = nonexistent.csv\ntop_n = 0\nvariant = nope\npairs = -3\n", encoding="utf-8")
        argv = ["--config", str(config), "--out-dir", str(out), "eval", "--mode", "compare",
                "--labels", str(pipeline_fixture["rank_labels"])]
        assert main(argv) == 0
        assert "param_top_n" not in (out / "eval.csv.meta").read_text(encoding="utf-8")


def test_optimize_sidecar_records_the_step(staged_out, pipeline_fixture, tmp_path):
    metas = []
    for step in ([], ["--step", "0.5"]):
        out = tmp_path / f"out{len(metas)}"
        shutil.copytree(staged_out, out)
        argv = ["--out-dir", str(out), "optimize", "--labels", str(pipeline_fixture["rank_labels"])]
        assert main(argv + ["--rounds", "1"] + step) == 0
        metas.append((out / "optimize_trace.csv.meta").read_text(encoding="utf-8"))
    assert "param_step = None\n" in metas[0]
    assert "param_step = 0.5\n" in metas[1]
    assert metas[0] != metas[1]


# the sigma weights (days, coordinates) planted in both batches of the held-out test, and the label noise
PLANTED_WEIGHTS, LABEL_NOISE = (0.6, 2.0), 0.05


def planted_batch(out: Path, seed: int, m: int = 16) -> Path:
    """An m-record batch in `out` (records.csv, embeddings.csv) and its labels file.

    The labels are the sigma scores under PLANTED_WEIGHTS, plus symmetric
    noise of standard deviation LABEL_NOISE, as a full score matrix.
    """
    rng = np.random.default_rng(seed)
    ids = [f"b{seed}r{i}" for i in range(m)]
    corpus = out.parent / f"corpus{seed}.csv"
    days, lats, lons = rng.integers(0, 15, m), rng.uniform(25, 49, m).round(4), rng.uniform(-124, -67, m).round(4)
    rows = [f"{rid},text,{day * 86400},{lat!r},{lon!r}\n"
            for rid, day, lat, lon in zip(ids, days.tolist(), lats.tolist(), lons.tolist())]
    corpus.write_text("id,text,timestamp,lat,lon\n" + "".join(rows), encoding="utf-8")
    assert main(["--out-dir", str(out), "ingest", "--corpus", str(corpus)]) == 0
    vectors = rng.normal(size=(m, 8))
    space = EmbeddingSpace(tuple(ids), vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
    embed.export_embeddings(space, out / "embeddings.csv")
    features = batch_features(load_corpus(out / "records.csv"))
    noise = rng.normal(scale=LABEL_NOISE / np.sqrt(2), size=(m, m))
    scores = pairwise_scores(space.matrix, features, SimilarityParams("sigma", PLANTED_WEIGHTS, DEFAULT_DIST_KINDS))
    labels = out.parent / f"labels{seed}.csv"
    labels.write_text("".join(",".join(map(repr, row)) + "\n" for row in (scores + (noise + noise.T)).tolist()),
                      encoding="utf-8")
    return labels


def test_fitted_weights_rank_a_held_out_batch_better_than_text_alone(tmp_path):
    """Weights fit on one batch lower the rank loss of another batch planted from the same weights."""
    fit_out, held_out = tmp_path / "a", tmp_path / "b"
    fit_labels, held_labels = planted_batch(fit_out, 1), planted_batch(held_out, 2)
    assert main(["--out-dir", str(fit_out), "optimize", "--labels", str(fit_labels), "--kind", "sigma"]) == 0
    meta = (fit_out / "optimize_trace.csv.meta").read_text(encoding="utf-8")
    fitted = ",".join(re.search(rf"^param_best_{name} = (.*)$", meta, re.M)[1] for name in ("alpha1", "alpha2"))
    losses = {}
    for alphas in (fitted, "0,0"):  # under 0,0 the additive scorer is the text alone
        assert main(["--out-dir", str(held_out), "score", "--kind", "sigma", "--alphas", alphas]) == 0
        assert main(["--out-dir", str(held_out), "eval", "--mode", "compare", "--labels", str(held_labels)]) == 0
        losses[alphas] = float(re.search(r"^rank_loss,(.*)$", (held_out / "eval.csv").read_text(), re.M)[1])
    assert losses[fitted] < losses["0,0"], losses


def test_a_stage_warning_is_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    labels = planted_batch(out, 3, m=25)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # Python's own filter for a user warning, not the suite's "error"
        assert main(["--out-dir", str(out), "optimize", "--labels", str(labels), "--rounds", "1"]) == 0
    assert capsys.readouterr().err == "warning: batch size 25 outside the recommended 10-20 range\n"


class TestFileSettings:
    """A file setting must name a regular file: the empty text, which names a directory, is an error too."""

    # (the stage and the flags it needs to reach the setting, the setting's key, its flag);
    # a staged setting names a file in the output directory
    CASES = {
        "corpus": (["ingest"], "corpus", "--corpus"),
        "gazetteer": (["ingest", "--corpus", "{out}/records.csv"], "gazetteer", "--gazetteer"),
        "word_vectors": (["embed"], "word_vectors", "--word-vectors"),
        "stopwords": (["embed", "--word-vectors", "{vectors}"], "stopwords", "--stopwords"),
        "labels, optimize": (["optimize"], "labels", "--labels"),
        "labels, eval": (["eval"], "labels", "--labels"),
        "labels, sweep": (["sweep"], "labels", "--labels"),
        "colors": (["tsne"], "colors", "--colors"),
        "tsne_input (staged)": (["tsne"], "tsne_input", "--input"),
        "space (staged)": (["eval"], "space", "--space"),
        "pred (staged)": (["eval", "--mode", "compare"], "pred", "--pred"),
    }

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("text", ["", "a_dir"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_setting_and_its_text(self, staged_out, pipeline_fixture, tmp_path, capsys,
                                                     case, text, given):
        stage, key, flag = self.CASES[case]
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        (out / "a_dir").mkdir()
        if text and "staged" not in case:
            text = str(out / text)
        stage = [arg.format(out=out, vectors=pipeline_fixture["vectors"]) for arg in stage]
        before = directory_bytes(out)
        if given == "config":
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {text}\n", encoding="utf-8")
            argv = ["--config", str(config), "--out-dir", str(out)] + stage
        else:
            argv = ["--out-dir", str(out)] + stage + [flag, text]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {key} file {text!r} is not a regular file\n"
        assert directory_bytes(out) == before


def test_given_values_reach_the_sidecars(pipeline_fixture, tmp_path):
    """Every setting but a file, set to a value that is not its default, is recorded as read."""
    fx = pipeline_fixture
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"out_dir = {out}\nseed = 5\nformat = csv\nvariant = condensed_time\nridge = 0.01\nk = 3\n"
        "kind = sigma\nalphas = 0.5,1.5\ndist_kinds = exp_abs, floor_geo\nbounds = 0:2,0:6\nstep = 0.5\n"
        "shrink = 0.25\nrounds = 2\ntsne_input = reduced.csv\nperplexity = 4\niterations = 60\n"
        "learning_rate = 50\nkernel = student_t\ncost = conditional\nscale_max = 5\ntop_n = 3\n"
        "k_list = 3,2\ntrials = 2\npairs = 15\n", encoding="utf-8")
    tsne = ["cost = conditional", "input = reduced.csv", "iterations = 60", "kernel = student_t",
            "learning_rate = 50.0", "perplexity = 4.0"]
    # each stage, and the param lines of the settings it read in each output's sidecar, written by hand
    stages = [
        (["ingest", "--corpus", str(fx["corpus"]), "--gazetteer", str(fx["gazetteer"])],
         {"records.csv": ["format = csv"]}),
        (["encode"], {"features.csv": ["variant = condensed_time"]}),
        (["embed", "--word-vectors", str(fx["vectors"])], {"embeddings.csv": ["ridge = 0.01"]}),
        (["reduce"], {"reduced.csv": ["k = 3"]}),
        (["augment"], {"augmented.csv": ["k = 3", "variant = condensed_time"]}),
        (["score"], {"scores.csv": ["alphas = 0.5,1.5", "dist_kinds = exp_abs,floor_geo", "kind = sigma"]}),
        (["optimize", "--labels", str(fx["rank_labels"])],
         {"optimize_trace.csv": ["bounds = 0.0:2.0,0.0:6.0", "dist_kinds = exp_abs,floor_geo", "kind = sigma",
                                 "rounds = 2", "shrink = 0.25", "step = 0.5"]}),
        (["tsne"], {"tsne.csv": tsne, "tsne.svg": tsne, "tsne_trace.csv": tsne}),
        (["eval", "--mode", "quality", "--labels", str(fx["labels"])],
         {"eval.csv": ["mode = quality", "scale_max = 5.0", "top_n = 3"]}),
        (["eval", "--mode", "compare", "--labels", str(fx["rank_labels"])],
         {"eval.csv": ["mode = compare"], "rank_heatmap.csv": ["mode = compare"]}),
        (["sweep", "--mode", "quality", "--labels", str(fx["labels"])],
         {"sweep.csv": ["k_list = 3,2", "mode = quality", "scale_max = 5.0", "top_n = 3"]}),
        (["sweep", "--mode", "delta"],
         {"delta.csv": ["k_list = 3,2", "mode = delta", "pairs = 15", "trials = 2",
                        "variant = condensed_time"]}),
    ]
    for stage, outputs in stages:
        assert main(["--config", str(config)] + stage) == 0
        for name, params in outputs.items():
            lines = (out / f"{name}.meta").read_text(encoding="utf-8").splitlines()
            assert "seed = 5" in lines
            assert [f"param_{line}" for line in params if f"param_{line}" not in lines] == [], f"{name}.meta"


def test_the_readme_pipeline_lines_parse():
    """Each command line of the README's pipeline block takes only flags the parser knows."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## The pipeline\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = block.splitlines()
    assert [line.split()[0] for line in lines] == ["semfuse"] * len(lines)
    commands = [cli.build_parser().parse_args(shlex.split(line)[1:]).command for line in lines]
    assert sorted(set(commands)) == sorted(cli.STAGES)


# each stage's flags, written out by hand
STAGE_FLAGS = {
    "ingest": "--corpus --format --gazetteer",
    "encode": "--variant",
    "embed": "--word-vectors --stopwords --ridge",
    "reduce": "--k",
    "augment": "",
    "score": "--kind --alphas --dist-kinds",
    "optimize": "--labels --kind --dist-kinds --bounds --step --shrink --rounds",
    "tsne": "--input --perplexity --iterations --learning-rate --kernel --cost --colors",
    "eval": "--mode --space --labels --scale-max --top-n --pred",
    "sweep": "--mode --k-list --labels --scale-max --top-n --variant --trials --pairs",
}


@pytest.mark.parametrize("stage", sorted(STAGE_FLAGS))
def test_each_stage_takes_exactly_its_flags(stage, capsys):
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([stage, "--help"])
    usage = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage)) == {"--help", *STAGE_FLAGS[stage].split()}
    # each flag sets the setting of its name, but --input sets tsne_input
    flags = STAGE_FLAGS[stage].split()
    args = vars(parser.parse_args([stage, *(text for flag in flags for text in (flag, f"<{flag}>"))]))
    given = {key: value for key, value in args.items() if str(value).startswith("<")}
    keys = ["tsne_input" if flag == "--input" else flag[2:].replace("-", "_") for flag in flags]
    assert given == {key: f"<{flag}>" for key, flag in zip(keys, flags)}


class TestConfigFile:
    def test_config_supplies_settings_and_flags_override(self, pipeline_fixture, tmp_path):
        out = tmp_path / "out"
        fx = pipeline_fixture
        base = ["--out-dir", str(out)]
        assert main(base + ["ingest", "--corpus", str(fx["corpus"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_dir = {out}\nk = 2\n", encoding="utf-8")
        assert main(["--config", str(cfg), "reduce"]) == 0
        assert "param_k = 2" in (out / "reduced.csv.meta").read_text(encoding="utf-8")
        reduced = import_embeddings(out / "reduced.csv")
        assert reduced.matrix.shape == (10, 2)

        # the flag wins over the config file value
        assert main(["--config", str(cfg), "reduce", "--k", "3"]) == 0
        assert "param_k = 3" in (out / "reduced.csv.meta").read_text(encoding="utf-8")
        assert import_embeddings(out / "reduced.csv").matrix.shape == (10, 3)

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n", encoding="utf-8")
        rc = main(["--config", str(cfg), "--out-dir", str(tmp_path / "o"), "ingest"])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_an_unknown_key_exits_2_naming_its_line(self, pipeline_fixture, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"out_dir = {tmp_path / 'o'}\n\nformt = xml\n", encoding="utf-8")
        rc = main(["--config", str(cfg), "ingest", "--corpus", str(pipeline_fixture["corpus"])])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 3: unknown key 'formt'\n"
        assert not (tmp_path / "o").exists()

    def test_a_key_of_another_stage_is_accepted(self, pipeline_fixture, tmp_path):
        # one config file serves every stage: ingest takes none of these keys
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"out_dir = {tmp_path / 'o'}\nseed = 3\nk = 2\nperplexity = 5\ninput = x\n"
                       "tsne_input = reduced.csv\nk_list = 2,4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 5: unknown key 'input'$"):
            cli.load_config(cfg)  # a flag's name is not its key
        cfg.write_text(cfg.read_text(encoding="utf-8").replace("input = x\n", ""), encoding="utf-8")
        assert main(["--config", str(cfg), "ingest", "--corpus", str(pipeline_fixture["corpus"])]) == 0
        assert "seed = 3" in (tmp_path / "o" / "records.csv.meta").read_text(encoding="utf-8")

    def test_empty_required_path_exits_2(self, tmp_path, capsys):
        # an empty value is not an unset one: it names the current directory
        rc = main(["--out-dir", str(tmp_path / "o"), "ingest", "--corpus", ""])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_required_setting(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path / "o"), "ingest"])
        assert rc == 2
        assert "corpus" in capsys.readouterr().err


class TestTsneStage:
    def test_svg_and_coords(self, pipeline_fixture, tmp_path):
        out = tmp_path / "out"
        fx = pipeline_fixture
        base = ["--out-dir", str(out), "--seed", "3"]
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        rc = main(base + ["tsne", "--input", "embeddings.csv",
                          "--iterations", "100", "--perplexity", "4"])
        assert rc == 0
        coords = (out / "tsne.csv").read_text(encoding="utf-8").strip().splitlines()
        assert coords[0] == "id,x,y"
        assert len(coords) == 11
        svg = (out / "tsne.svg").read_text(encoding="utf-8")
        assert svg.count("<circle") == 10
        meta = (out / "tsne.csv.meta").read_text(encoding="utf-8")
        assert "param_final_kl" in meta

    def test_trace_file_reproducible_and_ends_at_final_kl(self, pipeline_fixture, tmp_path):
        fx = pipeline_fixture
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            base = ["--out-dir", str(out), "--seed", "3"]
            assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                                "--gazetteer", str(fx["gazetteer"])]) == 0
            assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
            assert main(base + ["tsne", "--input", "embeddings.csv",
                                "--iterations", "30", "--perplexity", "4"]) == 0
            runs.append(out)
        for name in ("tsne_trace.csv", "tsne_trace.csv.meta"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        rows = (runs[0] / "tsne_trace.csv").read_text(encoding="utf-8").strip().splitlines()
        assert rows[0] == "iteration,kl"
        assert [row.split(",")[0] for row in rows[1:]] == [str(i) for i in range(31)]
        meta = (runs[0] / "tsne_trace.csv.meta").read_text(encoding="utf-8")
        final_kl = re.search(r"param_final_kl = (\S+)", meta).group(1)
        assert rows[-1] == f"30,{final_kl}"
        assert meta == (runs[0] / "tsne.csv.meta").read_text(encoding="utf-8")

    def test_sidecar_records_sigma_range_and_reruns_same_bytes(self, pipeline_fixture, tmp_path):
        out = tmp_path / "out"
        fx = pipeline_fixture
        base = ["--out-dir", str(out), "--seed", "3"]
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        tsne = base + ["tsne", "--input", "embeddings.csv", "--iterations", "20", "--perplexity", "4"]
        names = ("tsne.csv", "tsne.svg", "tsne_trace.csv")
        metas = []
        for _ in range(2):
            assert main(tsne) == 0
            metas.append({name: (out / f"{name}.meta").read_bytes() for name in names})
        assert metas[0] == metas[1]
        space = import_embeddings(out / "embeddings.csv").matrix
        sigmas = run_tsne(space, TsneConfig(perplexity=4.0, iterations=1))[3]
        meta = metas[0]["tsne.csv"].decode("utf-8")
        assert f"param_sigma_min = {float(sigmas.min())!r}\n" in meta
        assert f"param_sigma_max = {float(sigmas.max())!r}\n" in meta

    def test_short_colors_row_exits_2_and_writes_nothing(self, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        fx = pipeline_fixture
        base = ["--out-dir", str(out), "--seed", "3"]
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        colors = tmp_path / "colors.csv"
        colors.write_text("id,color\nt01\n", encoding="utf-8")
        rc = main(base + ["tsne", "--input", "embeddings.csv", "--iterations", "20",
                          "--perplexity", "4", "--colors", str(colors)])
        assert rc == 2
        assert "colors.csv: line 2" in capsys.readouterr().err
        assert list(out.glob("tsne*")) == []

    def test_missing_colors_leaves_previous_outputs(self, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        fx = pipeline_fixture
        assert main(["--out-dir", str(out), "--seed", "3", "ingest", "--corpus", str(fx["corpus"]),
                     "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(["--out-dir", str(out), "embed", "--word-vectors", str(fx["vectors"])]) == 0
        tsne = ["tsne", "--input", "embeddings.csv", "--iterations", "50", "--perplexity", "4"]
        assert main(["--out-dir", str(out), "--seed", "3"] + tsne) == 0
        names = ("tsne.csv", "tsne.csv.meta", "tsne.svg", "tsne.svg.meta",
                 "tsne_trace.csv", "tsne_trace.csv.meta")
        before = {name: (out / name).read_bytes() for name in names}
        missing = tmp_path / "missing.csv"
        rc = main(["--out-dir", str(out), "--seed", "4"] + tsne + ["--colors", str(missing)])
        assert rc == 2
        assert "missing.csv" in capsys.readouterr().err
        for name in names:
            assert (out / name).read_bytes() == before[name], f"{name} changed"


class TestFailedStage:
    """A failed stage leaves every earlier output and sidecar as it was, and no staging directory."""

    def tsne_run(self, fx, out, seed):
        base = ["--out-dir", str(out), "--seed", str(seed)]
        if not out.exists():
            assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                                "--gazetteer", str(fx["gazetteer"])]) == 0
            assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        return main(base + ["tsne", "--input", "embeddings.csv", "--iterations", "20", "--perplexity", "4"])

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("case", ["missing input", "bad setting", "failed write"])
    def test_an_output_directory_it_made_goes_again(self, pipeline_fixture, tmp_path, monkeypatch, capsys,
                                                   case, existing):
        out = tmp_path / "made" / "out"
        if existing:
            out.mkdir(parents=True)
        corpus = str(pipeline_fixture["corpus"])
        argv, error = {
            "missing input": (["reduce", "--k", "2"],
                              f"{out}/embeddings.csv not found; run the 'embed' stage first"),
            "bad setting": (["ingest", "--corpus", corpus, "--format", "xml"],
                            "unknown corpus format 'xml'; expected one of ('csv', 'tsv', 'jsonl')"),
            "failed write": (["ingest", "--corpus", corpus], "[Errno 28] No space left on device"),
        }[case]

        def save_corpus(records, path):
            assert path.parent.is_dir()  # the staging directory, made for the output
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "save_corpus", save_corpus)
        assert main(["--out-dir", str(out)] + argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert (tmp_path / "made").exists() == existing
        assert sorted(tmp_path.rglob("*")) == ([tmp_path / "made", out] if existing else [])

    def test_a_stage_writing_an_undeclared_file_is_refused(self, pipeline_fixture, tmp_path, monkeypatch,
                                                           capsys):
        out = tmp_path / "out"
        assert self.tsne_run(pipeline_fixture, out, seed=3) == 0
        before = directory_bytes(out)
        tsne = cli.COMMANDS["tsne"]

        def tsne_and_a_stray_file(run):
            done = tsne(run)
            (run.staging / "tsne.png").write_bytes(b"")  # next to the outputs, through no path_out
            return done

        monkeypatch.setitem(cli.COMMANDS, "tsne", tsne_and_a_stray_file)
        capsys.readouterr()
        assert self.tsne_run(pipeline_fixture, out, seed=4) == 2
        assert capsys.readouterr().err == (
            "error: tsne wrote other files than it declares: missing [], extra ['tsne.png']\n")
        assert directory_bytes(out) == before

    @pytest.mark.parametrize("stage, writer, name", [
        ("tsne", "write_scatter_svg", "tsne.svg"),
        ("eval", "save_rank_heatmap", "rank_heatmap.csv"),  # declared for compare mode only
    ])
    def test_a_stage_skipping_a_declared_file_is_refused(self, pipeline_fixture, tmp_path, monkeypatch, capsys,
                                                         stage, writer, name):
        out = tmp_path / "out"
        assert self.tsne_run(pipeline_fixture, out, seed=3) == 0
        fx = pipeline_fixture
        assert main(["--out-dir", str(out), "score"]) == 0
        rerun = {"tsne": lambda: self.tsne_run(fx, out, seed=4),
                 "eval": lambda: main(["--out-dir", str(out), "eval", "--mode", "compare",
                                       "--labels", str(fx["rank_labels"])])}[stage]
        assert rerun() == 0
        before = directory_bytes(out)
        monkeypatch.setattr(cli, writer, lambda *args: None)
        capsys.readouterr()
        assert rerun() == 2
        assert capsys.readouterr().err == (
            f"error: {stage} wrote other files than it declares: missing ['{name}'], extra []\n")
        assert directory_bytes(out) == before

    def test_failed_svg_write_keeps_the_earlier_map(self, pipeline_fixture, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert self.tsne_run(pipeline_fixture, out, seed=3) == 0
        before = directory_bytes(out)
        assert len([name for name in before if name.startswith("tsne")]) == 6

        def write_scatter_svg(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_scatter_svg", write_scatter_svg)
        capsys.readouterr()
        assert self.tsne_run(pipeline_fixture, out, seed=4) == 2
        assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert directory_bytes(out) == before

    def test_failed_sidecar_write_keeps_the_earlier_outputs(self, pipeline_fixture, tmp_path, monkeypatch,
                                                            capsys):
        out = tmp_path / "out"
        assert self.tsne_run(pipeline_fixture, out, seed=3) == 0
        before = directory_bytes(out)
        original, written = cli.write_sidecar, []

        def write_sidecar(out_path, *args):
            # the first two sidecars are written; the third fails
            if len(written) == 2:
                raise OSError(28, "No space left on device")
            original(out_path, *args)
            written.append(out_path.name)

        monkeypatch.setattr(cli, "write_sidecar", write_sidecar)
        capsys.readouterr()
        assert self.tsne_run(pipeline_fixture, out, seed=4) == 2
        assert written == ["tsne.csv", "tsne.svg"]
        assert capsys.readouterr().err.startswith("error: ")
        assert directory_bytes(out) == before

    def test_interrupted_commit_leaves_an_output_with_no_sidecar(self, pipeline_fixture, tmp_path,
                                                                 monkeypatch):
        # never one whose sidecar describes a different run
        out = tmp_path / "out"
        assert self.tsne_run(pipeline_fixture, out, seed=3) == 0
        before = directory_bytes(out)
        replace, moved = os.replace, []

        def fail_second(src, dst):
            moved.append(Path(dst).name)
            if len(moved) == 2:
                raise OSError(5, "Input/output error")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_second)
        assert self.tsne_run(pipeline_fixture, out, seed=4) == 2
        after = directory_bytes(out)
        assert moved == ["tsne.csv", "tsne.csv.meta"]
        assert "tsne.csv.meta" not in after and after["tsne.csv"] != before["tsne.csv"]
        del before["tsne.csv"], before["tsne.csv.meta"], after["tsne.csv"]
        assert after == before

    def test_failing_score_helper_keeps_the_earlier_scores(self, pipeline_fixture, tmp_path, monkeypatch,
                                                           capsys):
        fx = pipeline_fixture
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        assert main(base + ["score", "--alphas", "0.02,9.55"]) == 0
        before = directory_bytes(out)
        helper = tmp_path / "helper.py"
        helper.write_text("import sys\nsys.exit(1)\n", encoding="utf-8")
        monkeypatch.setattr(rankopt, "_SCORE_ROWS", helper)
        monkeypatch.setattr(rankopt, "_HELPER_MIN_CELLS", 4)  # the 10 x 10 matrix gets a helper
        started = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(rankopt.subprocess, "Popen", Recorded)
        capsys.readouterr()
        assert main(base + ["score", "--alphas", "0.5,1.0"]) == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: \S*/scores\.csv: the score row helper exited with status 1$", err, re.M), err
        assert directory_bytes(out) == before
        assert len(started) == 1 and started[0].returncode == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(started[0].pid, os.WNOHANG)


    def test_failing_score_helper_names_the_output_in_out_dir(self, pipeline_fixture, tmp_path, monkeypatch,
                                                              capsys):
        fx = pipeline_fixture
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        helper = tmp_path / "helper.py"
        helper.write_text("import sys\nsys.exit(1)\n", encoding="utf-8")
        monkeypatch.setattr(rankopt, "_SCORE_ROWS", helper)
        monkeypatch.setattr(rankopt, "_HELPER_MIN_CELLS", 4)
        capsys.readouterr()
        assert main(base + ["score", "--alphas", "0.5,1.0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out}/scores.csv: the score row helper exited with status 1\n"
        assert ".tmp" not in err

    def test_failed_write_names_the_output_in_out_dir(self, pipeline_fixture, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"

        def write_scatter_svg(ids, coords, path, *args):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(cli, "write_scatter_svg", write_scatter_svg)
        capsys.readouterr()
        assert self.tsne_run(pipeline_fixture, out, seed=4) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 28] No space left on device: '{out}/tsne.svg'\n"


def test_one_sidecar_writer_and_no_file_writes_in_the_stages():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))

    def calls(node, name):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]

    assert len(calls(tree, "write_sidecar")) == 1
    stages = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert sorted(node.name for node in stages) == sorted(f"cmd_{name}" for name in cli.COMMANDS)
    for node in stages:
        for name in ("open", "write_text", "write_bytes"):
            assert calls(node, name) == [], f"{node.name} calls {name}"
