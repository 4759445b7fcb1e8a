import re

import numpy as np
import oracles
import pytest

from semfuse.cli import main
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


def run_stages(out_dir, fx, seed=7):
    """Drive every stage of the pipeline into out_dir, asserting success."""
    base = ["--seed", str(seed), "--out-dir", str(out_dir)]
    stages = [
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
    for stage in stages:
        rc = main(base + stage)
        assert rc == 0, f"stage {stage[0]} failed"


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


class TestPipeline:
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
        assert f"{embeddings}: row 4: non-finite embedding value" in err
        assert "Traceback" not in err
        assert sorted(path.name for path in out.iterdir()) == before
        assert not (out / written).exists()

    def test_reduce_with_impossible_k(self, pipeline_fixture, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--out-dir", str(out)]
        fx = pipeline_fixture
        assert main(base + ["ingest", "--corpus", str(fx["corpus"])]) == 0
        assert main(base + ["embed", "--word-vectors", str(fx["vectors"])]) == 0
        rc = main(base + ["reduce", "--k", "99"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


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
