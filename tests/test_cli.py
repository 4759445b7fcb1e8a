import ast
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest

import semfuse.cli as cli
import semfuse.rankopt as rankopt
from semfuse.cli import _sha256, main, write_sidecar
from semfuse.corpus import load_corpus
from semfuse.embed import import_embeddings
from semfuse.rankopt import (
    DEFAULT_DIST_KINDS,
    SimilarityParams,
    batch_features,
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
    {"records.csv": ("corpus gazetteer", "n_records")},
    {"features.csv": ("records", "shape variant")},
    {"embeddings.csv": ("records word_vectors", "dim fallback_ids ridge")},
    {"reduced.csv": ("embeddings", "explained_variance k")},
    {"augmented.csv": ("features reduced",
                       "constant_mask f feature_means feature_stds k variant")},
    {"scores.csv": ("embeddings records", "alphas dist_kinds ids kind")},
    {"optimize_trace.csv": ("embeddings labels records", "best_alpha1 best_alpha2 best_loss "
                            "bounds dist_kinds kind rounds shrink")},
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
    out = tmp_path_factory.mktemp("staged") / "out"
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
        run_stages(tmp_path / "in_process", pipeline_fixture)
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
        assert np.array_equal(ranks, rank_matrix(expected).entries)

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


class TestStageOrdering:
    def test_missing_upstream_stage(self, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "encode"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ingest" in err

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

    @pytest.mark.parametrize("command", [
        ["score", "--kind", "pi", "--alphas", "0.02,9.55"],
        ["optimize", "--rounds", "1"],
    ])
    def test_dist_kinds_in_wrong_feature_order(self, pipeline_fixture, tmp_path, capsys, command):
        # features are (days, coordinates); floor_geo first asks days for coordinates
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"]),
                            "--gazetteer", str(fx["gazetteer"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        if command[0] == "optimize":
            command = command + ["--labels", str(fx["rank_labels"])]
        capsys.readouterr()
        rc = main(base + command + ["--dist-kinds", "floor_geo,inv_abs"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'floor_geo' needs coordinates" in err
        assert "float" in err
        assert "Traceback" not in err
        written = {"score": "scores.csv", "optimize": "optimize_trace.csv"}[command[0]]
        assert not (out / written).exists()
        assert not (out / (written + ".meta")).exists()

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
        assert _sha256(path) == hashlib.sha256(data).hexdigest()

    def test_hash_holds_one_block_at_a_time(self, tmp_path):
        path = tmp_path / "input.bin"
        path.write_bytes(bytes(8 << 20))
        tracemalloc.start()
        try:
            _sha256(path)
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
        write_sidecar(out, "embed", {"word_vectors": source}, {"ridge": 0.5}, 7)
        meta = (tmp_path / "embeddings.csv.meta").read_text(encoding="utf-8")
        assert f"sha256_word_vectors = {hashlib.sha256(data).hexdigest()}\n" in meta
        assert "param_ridge = 0.5\n" in meta


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
        "repeated k, delta": (["sweep", "--mode", "delta", "--pairs", "20"], "k_list", "4,2,4",
                              "k=4 is repeated in the component counts"),
    }

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_one_error_line(self, staged_out, tmp_path, capsys, case, given):
        stage, key, text, message = self.CASES[case]
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
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
        sigmas = run_tsne(space, TsneConfig(perplexity=4.0, iterations=1)).sigmas
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
