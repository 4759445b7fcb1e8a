"""Command-line pipeline driver.

Stages communicate through fixed-name CSV files in the output directory,
each with a `.meta` sidecar recording input hashes, parameters, and the
seed, so any output can be reproduced exactly. Configuration comes from a
flat `key = value` file with command-line flags taking precedence.

Subcommands: ingest, encode, embed, reduce, augment, score, optimize,
tsne, eval, sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    clean_corpus,
    load_corpus,
    load_gazetteer,
    resolve_coordinates,
    save_corpus,
)
from .embed import (
    EmbeddingSpace,
    embed_corpus,
    export_embeddings,
    fit_context,
    import_embeddings,
    load_word_vectors,
)
from .errors import ConfigError, DomainError, PipelineError, SemfuseError
from .evalkit import (
    compare_rankings,
    component_sweep,
    load_labels,
    save_rank_heatmap,
    save_sweep_csv,
    top_pair_quality,
)
from .geotime import VARIANTS, build_feature_matrix, load_feature_matrix, save_feature_matrix
from .rankopt import (
    DEFAULT_DIST_KINDS,
    GridConfig,
    SIM_KINDS,
    SimilarityParams,
    batch_features,
    load_rank_labels,
    optimize_alphas,
    pairwise_scores,
    save_score_matrix,
    save_trace_csv,
)
from .spectra import delta_cosine_experiment, fit_pca, save_delta_csv, transform
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .tsne import (
    TsneConfig,
    load_colors,
    run_tsne,
    write_coords_csv,
    write_scatter_svg,
    write_trace_csv,
)

RECORDS = "records.csv"
FEATURES = "features.csv"
EMBEDDINGS = "embeddings.csv"
REDUCED = "reduced.csv"
AUGMENTED = "augmented.csv"
SCORES = "scores.csv"
OPTIMIZE_TRACE = "optimize_trace.csv"
TSNE_CSV = "tsne.csv"
TSNE_SVG = "tsne.svg"
TSNE_TRACE = "tsne_trace.csv"
EVAL_CSV = "eval.csv"
SWEEP_CSV = "sweep.csv"
DELTA_CSV = "delta.csv"
HEATMAP_CSV = "rank_heatmap.csv"

# stage that produces each shared intermediate, for missing-input messages
STAGE_OF = {
    RECORDS: "ingest",
    FEATURES: "encode",
    EMBEDDINGS: "embed",
    REDUCED: "reduce",
    AUGMENTED: "augment",
    SCORES: "score",
}


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file; later lines override earlier ones."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


class Run:
    """Resolved settings for one invocation: config file values + flags."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if args.config else {}
        out = args.out_dir or self.config.get("out_dir") or "out"
        self.out_dir = Path(out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if args.seed is not None:
            self.seed = args.seed
        else:
            self.seed = _parse_int("seed", self.config.get("seed", "0"))

    def setting(self, key: str, default: str | None = None) -> str | None:
        flag = getattr(self.args, key, None)
        if flag is not None:
            return str(flag)
        return self.config.get(key, default)

    def require(self, key: str, hint: str) -> str:
        value = self.setting(key)
        if value is None:
            raise ConfigError(f"{key} is required ({hint})")
        return value

    def path_out(self, name: str) -> Path:
        return self.out_dir / name

    def stage_input(self, name: str) -> Path:
        path = self.out_dir / name
        if not path.exists():
            stage = STAGE_OF.get(name)
            if stage:
                raise PipelineError(f"{path} not found; run the '{stage}' stage first")
            raise PipelineError(f"{path} not found")
        return path


def _parse_int(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _parse_float(name: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    _check_finite(name, [number], value)
    return number


def _parse_int_list(name: str, value: str) -> list[int]:
    try:
        return [int(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated integers, got {value!r}") from None


def _parse_float_list(name: str, value: str) -> list[float]:
    try:
        numbers = [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated numbers, got {value!r}") from None
    _check_finite(name, numbers, value)
    return numbers


def _check_finite(name: str, numbers: list[float], value: str) -> None:
    # float() accepts nan and inf, which no setting can use
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def _parse_bounds(value: str) -> tuple[tuple[float, float], ...]:
    # format: lo:hi per axis, comma separated, e.g. "0:1,0:12"
    intervals = []
    for part in value.split(","):
        if ":" not in part:
            raise ConfigError(f"bounds interval {part!r} must look like lo:hi")
        lo, _, hi = part.partition(":")
        intervals.append((_parse_float("bounds", lo), _parse_float("bounds", hi)))
    return tuple(intervals)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def write_sidecar(out_path: Path, stage: str, inputs: dict[str, Path], params: dict, seed: int):
    """Emit `<output>.meta` with everything needed to reproduce the output."""
    entries = {"stage": stage, "version": __version__, "seed": str(seed)}
    for name, path in inputs.items():
        entries[f"sha256_{name}"] = _sha256(path)
    for key, value in params.items():
        entries[f"param_{key}"] = _format_value(value)
    meta = out_path.with_name(out_path.name + ".meta")
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    meta.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_stage_records(run: Run) -> list:
    return load_corpus(run.stage_input(RECORDS), format="csv")


def _load_stage_space(run: Run, name: str) -> EmbeddingSpace:
    return import_embeddings(run.stage_input(name))


def cmd_ingest(run: Run) -> None:
    corpus_setting = run.require("corpus", "flag --corpus or config key corpus")
    corpus_path = Path(corpus_setting)
    if not corpus_path.exists():
        raise ConfigError(f"corpus file {corpus_path} does not exist")
    records = load_corpus(corpus_path, format=run.setting("format"))
    inputs = {"corpus": corpus_path}
    gazetteer_path = run.setting("gazetteer")
    if gazetteer_path:
        gaz_path = Path(gazetteer_path)
        if not gaz_path.exists():
            raise ConfigError(f"gazetteer file {gaz_path} does not exist")
        records = resolve_coordinates(records, load_gazetteer(gaz_path))
        inputs["gazetteer"] = gaz_path
    out = run.path_out(RECORDS)
    save_corpus(records, out, format="csv")
    write_sidecar(out, "ingest", inputs, {"n_records": len(records)}, run.seed)
    print(f"ingest: {len(records)} records -> {out}")


def cmd_encode(run: Run) -> None:
    variant = run.setting("variant", "all_features")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    records_path = run.stage_input(RECORDS)
    records = load_corpus(records_path, format="csv")
    matrix = build_feature_matrix(records, variant)
    out = run.path_out(FEATURES)
    save_feature_matrix(out, matrix, variant)
    write_sidecar(
        out,
        "encode",
        {"records": records_path},
        {"variant": variant, "shape": list(matrix.shape)},
        run.seed,
    )
    print(f"encode: {matrix.shape[0]}x{matrix.shape[1]} feature matrix -> {out}")


def cmd_embed(run: Run) -> None:
    records_path = run.stage_input(RECORDS)
    records = load_corpus(records_path, format="csv")
    vectors_path = Path(run.require("word_vectors", "flag --word-vectors or key word_vectors"))
    if not vectors_path.exists():
        raise ConfigError(f"word vector file {vectors_path} does not exist")
    table = load_word_vectors(vectors_path)
    inputs = {"records": records_path, "word_vectors": vectors_path}
    stopword_path = run.setting("stopwords")
    if stopword_path:
        stop_path = Path(stopword_path)
        if not stop_path.exists():
            raise ConfigError(f"stopword file {stop_path} does not exist")
        stopwords = load_stopwords(stop_path)
        inputs["stopwords"] = stop_path
    else:
        stopwords = DEFAULT_STOPWORDS
    docs = clean_corpus(records, stopwords)
    ridge_setting = run.setting("ridge")
    ridge = _parse_float("ridge", ridge_setting) if ridge_setting is not None else None
    ctx = fit_context(docs, table, ridge=ridge)
    space, fallback_ids = embed_corpus(docs, ctx, table)
    out = run.path_out(EMBEDDINGS)
    export_embeddings(space, out)
    write_sidecar(
        out,
        "embed",
        inputs,
        {"dim": table.dim, "ridge": ctx.ridge, "fallback_ids": list(fallback_ids)},
        run.seed,
    )
    print(f"embed: {len(space.ids)} embeddings of dim {table.dim} -> {out}")


def cmd_reduce(run: Run) -> None:
    k = _parse_int("k", run.require("k", "flag --k or config key k"))
    embeddings_path = run.stage_input(EMBEDDINGS)
    space = import_embeddings(embeddings_path)
    model = fit_pca(space, k)
    reduced = transform(model, space)
    out = run.path_out(REDUCED)
    export_embeddings(EmbeddingSpace(ids=space.ids, matrix=reduced), out)
    write_sidecar(
        out,
        "reduce",
        {"embeddings": embeddings_path},
        {"k": k, "explained_variance": [float(v) for v in model.explained_variance]},
        run.seed,
    )
    print(f"reduce: kept {k} of {space.dim} components -> {out}")


def cmd_augment(run: Run) -> None:
    from .spectra import augment

    reduced_path = run.stage_input(REDUCED)
    features_path = run.stage_input(FEATURES)
    reduced = import_embeddings(reduced_path)
    features, variant = load_feature_matrix(features_path)
    if reduced.matrix.shape[0] != features.shape[0]:
        raise DomainError(
            f"{reduced_path} has {reduced.matrix.shape[0]} rows but "
            f"{features_path} has {features.shape[0]} rows"
        )
    augmented = augment(reduced.matrix, features, reduced.ids)
    out = run.path_out(AUGMENTED)
    export_embeddings(EmbeddingSpace(ids=augmented.ids, matrix=augmented.matrix), out)
    write_sidecar(
        out,
        "augment",
        {"reduced": reduced_path, "features": features_path},
        {
            "k": augmented.k,
            "f": augmented.f,
            "variant": variant,
            "feature_means": [float(v) for v in augmented.stats.means],
            "feature_stds": [float(v) for v in augmented.stats.stds],
            "constant_mask": [bool(v) for v in augmented.stats.constant_mask],
        },
        run.seed,
    )
    print(f"augment: {augmented.k}+{augmented.f} columns -> {out}")


def _similarity_params(run: Run) -> SimilarityParams:
    kind = run.setting("kind", "pi")
    if kind not in SIM_KINDS:
        raise ConfigError(f"unknown similarity kind {kind!r}; expected one of {SIM_KINDS}")
    alphas = tuple(_parse_float_list("alphas", run.setting("alphas", "0.02,9.55")))
    dist_kinds = tuple(
        v.strip() for v in run.setting("dist_kinds", ",".join(DEFAULT_DIST_KINDS)).split(",")
    )
    return SimilarityParams(kind=kind, alphas=alphas, dist_kinds=dist_kinds)


def cmd_score(run: Run) -> None:
    records_path = run.stage_input(RECORDS)
    embeddings_path = run.stage_input(EMBEDDINGS)
    records = load_corpus(records_path, format="csv")
    space = import_embeddings(embeddings_path)
    if tuple(r.id for r in records) != space.ids:
        raise DomainError(f"{records_path} and {embeddings_path} list different ids")
    params = _similarity_params(run)
    scores = pairwise_scores(space.matrix, batch_features(records), params)
    out = run.path_out(SCORES)
    save_score_matrix(scores, out)
    write_sidecar(
        out,
        "score",
        {"records": records_path, "embeddings": embeddings_path},
        {
            "kind": params.kind,
            "alphas": list(params.alphas),
            "dist_kinds": list(params.dist_kinds),
            "ids": list(space.ids),
        },
        run.seed,
    )
    print(f"score: {scores.shape[0]}x{scores.shape[1]} matrix -> {out}")


def cmd_optimize(run: Run) -> None:
    records_path = run.stage_input(RECORDS)
    embeddings_path = run.stage_input(EMBEDDINGS)
    labels_path = Path(run.require("labels", "flag --labels or config key labels"))
    if not labels_path.exists():
        raise ConfigError(f"labels file {labels_path} does not exist")
    records = load_corpus(records_path, format="csv")
    space = import_embeddings(embeddings_path)
    if tuple(r.id for r in records) != space.ids:
        raise DomainError(f"{records_path} and {embeddings_path} list different ids")
    labels = load_rank_labels(labels_path)
    kind = run.setting("kind", "pi")
    dist_kinds = tuple(
        v.strip() for v in run.setting("dist_kinds", ",".join(DEFAULT_DIST_KINDS)).split(",")
    )
    step_setting = run.setting("step")
    cfg = GridConfig(
        bounds=_parse_bounds(run.setting("bounds", "0:1,0:12")),
        step=_parse_float("step", step_setting) if step_setting is not None else None,
        shrink=_parse_float("shrink", run.setting("shrink", "0.5")),
        rounds=_parse_int("rounds", run.setting("rounds", "6")),
    )
    params, loss, trace = optimize_alphas(
        space.matrix, batch_features(records), labels, kind, dist_kinds, cfg
    )
    out = run.path_out(OPTIMIZE_TRACE)
    save_trace_csv(trace, out)
    best = {f"alpha{i}": a for i, a in enumerate(params.alphas, start=1)}
    write_sidecar(
        out,
        "optimize",
        {"records": records_path, "embeddings": embeddings_path, "labels": labels_path},
        {
            "kind": kind,
            "dist_kinds": list(dist_kinds),
            "bounds": [f"{lo}:{hi}" for lo, hi in cfg.bounds],
            "shrink": cfg.shrink,
            "rounds": cfg.rounds,
            **{f"best_{name}": a for name, a in best.items()},
            "best_loss": loss,
        },
        run.seed,
    )
    alphas = " ".join(f"{name}={a!r}" for name, a in best.items())
    print(f"optimize: kind={kind} {alphas} loss={loss!r} ({len(trace)} probes) -> {out}")


def cmd_tsne(run: Run) -> None:
    input_name = run.setting("tsne_input", AUGMENTED)
    space = _load_stage_space(run, input_name)
    if len(space.ids) < 3:
        raise DomainError(f"t-SNE needs at least 3 rows, got {len(space.ids)}")
    cfg = TsneConfig(
        perplexity=_parse_float("perplexity", run.setting("perplexity", "30")),
        iterations=_parse_int("iterations", run.setting("iterations", "1000")),
        learning_rate=_parse_float("learning_rate", run.setting("learning_rate", "100")),
        kernel=run.setting("kernel", "gaussian"),
        cost=run.setting("cost", "joint"),
        seed=run.seed,
    )
    colors = None
    inputs = {"space": run.out_dir / input_name}
    colors_setting = run.setting("colors")
    if colors_setting:
        colors_path = Path(colors_setting)
        if not colors_path.exists():
            raise ConfigError(f"colors file {colors_path} does not exist")
        colors = load_colors(colors_path)
        inputs["colors"] = colors_path
    result = run_tsne(space.matrix, cfg)
    out = run.path_out(TSNE_CSV)
    write_coords_csv(space.ids, result.coords, out)
    svg_out = run.path_out(TSNE_SVG)
    write_scatter_svg(space.ids, result.coords, svg_out, colors)
    trace_out = run.path_out(TSNE_TRACE)
    write_trace_csv(result.kl_trace, trace_out)
    params = {
        "input": input_name,
        "perplexity": cfg.perplexity,
        "effective_perplexity": result.effective_perplexity,
        "iterations": cfg.iterations,
        "learning_rate": cfg.learning_rate,
        "kernel": cfg.kernel,
        "cost": cfg.cost,
        "final_kl": float(result.kl_trace[-1]),
    }
    write_sidecar(out, "tsne", inputs, params, run.seed)
    write_sidecar(svg_out, "tsne", inputs, params, run.seed)
    write_sidecar(trace_out, "tsne", inputs, params, run.seed)
    print(
        f"tsne: {len(space.ids)} points, final KL {float(result.kl_trace[-1])!r} "
        f"-> {out}, {svg_out}, {trace_out}"
    )


def cmd_eval(run: Run) -> None:
    mode = run.setting("mode", "quality")
    out = run.path_out(EVAL_CSV)
    if mode == "quality":
        space_name = run.setting("space", AUGMENTED)
        space = _load_stage_space(run, space_name)
        labels_path = Path(run.require("labels", "flag --labels or config key labels"))
        if not labels_path.exists():
            raise ConfigError(f"labels file {labels_path} does not exist")
        scale_max = _parse_float("scale_max", run.setting("scale_max", "4"))
        top_n = _parse_int("top_n", run.setting("top_n", "20"))
        labels = load_labels(labels_path, scale_max, corpus_ids=space.ids)
        quality = top_pair_quality(space, labels, top_n, run.seed)
        rows = [
            ("top_pair_quality", repr(quality)),
            ("n_labels", str(len(labels))),
            ("top_n", str(top_n)),
        ]
        inputs = {"space": run.out_dir / space_name, "labels": labels_path}
        params = {"mode": mode, "scale_max": scale_max, "top_n": top_n}
        print(f"eval: top_pair_quality {quality!r} over top {top_n} of {len(labels)} pairs")
    elif mode == "compare":
        pred_setting = run.setting("pred", SCORES)
        pred_path = run.stage_input(pred_setting)
        labels_path = Path(run.require("labels", "flag --labels or config key labels"))
        if not labels_path.exists():
            raise ConfigError(f"labels file {labels_path} does not exist")
        pred = load_rank_labels(pred_path)
        labeled = load_rank_labels(labels_path)
        report = compare_rankings(pred, labeled)
        heatmap_out = run.path_out(HEATMAP_CSV)
        save_rank_heatmap(pred, heatmap_out)
        write_sidecar(
            heatmap_out,
            "eval",
            {"pred": pred_path, "labels": labels_path},
            {"mode": mode},
            run.seed,
        )
        rows = [
            ("rank_loss", repr(report.loss)),
            ("n_uniform_columns", str(len(report.uniform_columns))),
            ("mean_column_entropy_bits", repr(float(np.mean(report.column_entropy)))),
        ]
        inputs = {"pred": pred_path, "labels": labels_path}
        params = {"mode": mode}
        print(
            f"eval: rank loss {report.loss!r}, "
            f"{len(report.uniform_columns)} uniform columns -> {run.path_out(HEATMAP_CSV)}"
        )
    else:
        raise ConfigError(f"unknown eval mode {mode!r}; expected quality or compare")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for metric, value in rows:
            fh.write(f"{metric},{value}\n")
    write_sidecar(out, "eval", inputs, params, run.seed)


def cmd_sweep(run: Run) -> None:
    mode = run.setting("mode", "quality")
    embeddings_path = run.stage_input(EMBEDDINGS)
    records_path = run.stage_input(RECORDS)
    space = import_embeddings(embeddings_path)
    records = load_corpus(records_path, format="csv")
    if tuple(r.id for r in records) != space.ids:
        raise DomainError(f"{records_path} and {embeddings_path} list different ids")
    k_list = _parse_int_list("k_list", run.setting("k_list", "2,4,8"))
    if mode == "quality":
        labels_path = Path(run.require("labels", "flag --labels or config key labels"))
        if not labels_path.exists():
            raise ConfigError(f"labels file {labels_path} does not exist")
        scale_max = _parse_float("scale_max", run.setting("scale_max", "4"))
        top_n = _parse_int("top_n", run.setting("top_n", "20"))
        labels = load_labels(labels_path, scale_max, corpus_ids=space.ids)
        features_all = build_feature_matrix(records, "all_features")
        features_condensed = build_feature_matrix(records, "condensed_time")
        result = component_sweep(
            space, features_all, features_condensed, labels, k_list, top_n, run.seed
        )
        out = run.path_out(SWEEP_CSV)
        save_sweep_csv(result, out)
        write_sidecar(
            out,
            "sweep",
            {"records": records_path, "embeddings": embeddings_path, "labels": labels_path},
            {"mode": mode, "k_list": k_list, "top_n": top_n, "scale_max": scale_max},
            run.seed,
        )
        print(f"sweep: {len(result.cells)} (variant, k) cells -> {out}")
    elif mode == "delta":
        variant = run.setting("variant", "all_features")
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        trials = _parse_int("trials", run.setting("trials", "10"))
        pairs = _parse_int("pairs", run.setting("pairs", "500"))
        features = build_feature_matrix(records, variant)
        results = delta_cosine_experiment(space, features, k_list, trials, pairs, run.seed)
        out = run.path_out(DELTA_CSV)
        save_delta_csv(results, out)
        write_sidecar(
            out,
            "sweep",
            {"records": records_path, "embeddings": embeddings_path},
            {"mode": mode, "variant": variant, "k_list": k_list, "trials": trials, "pairs": pairs},
            run.seed,
        )
        print(f"sweep: cosine shift at {len(results)} component counts -> {out}")
    else:
        raise ConfigError(f"unknown sweep mode {mode!r}; expected quality or delta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semfuse",
        description="Context-aware semantic similarity pipeline",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--seed", type=int, help="master seed recorded in all outputs")
    parser.add_argument("--out-dir", help="directory for stage outputs (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a corpus and resolve coordinates")
    p.add_argument("--corpus", help="corpus file (csv, tsv, or jsonl)")
    p.add_argument("--format", choices=["csv", "tsv", "jsonl"], help="corpus format")
    p.add_argument("--gazetteer", help="location,lat,lon CSV for geocoding")

    p = sub.add_parser("encode", help="build the geotemporal feature matrix")
    p.add_argument("--variant", choices=list(VARIANTS), help="feature layout")

    p = sub.add_parser("embed", help="embed records with salience-weighted word vectors")
    p.add_argument("--word-vectors", dest="word_vectors", help="token-vector text file")
    p.add_argument("--stopwords", help="stopword file, one lowercase token per line")
    p.add_argument("--ridge", help="covariance ridge (default: 1e-3 * trace / dim)")

    p = sub.add_parser("reduce", help="PCA-reduce the embedding space")
    p.add_argument("--k", help="number of components to keep")

    sub.add_parser("augment", help="append standardized features to the reduced space")

    p = sub.add_parser("score", help="pairwise similarity matrix")
    p.add_argument("--kind", choices=list(SIM_KINDS), help="scorer form")
    p.add_argument("--alphas", help="comma-separated kernel weights")
    p.add_argument("--dist-kinds", dest="dist_kinds",
                   help="comma-separated kernel names, one per feature: days, then coordinates")

    p = sub.add_parser("optimize", help="fit kernel weights to labeled rankings")
    p.add_argument("--labels", help="labeled scores: i,j,score rows or a full matrix")
    p.add_argument("--kind", choices=list(SIM_KINDS), help="scorer form")
    p.add_argument("--dist-kinds", dest="dist_kinds",
                   help="comma-separated kernel names, one per feature: days, then coordinates")
    p.add_argument("--bounds", help="per-alpha search intervals, e.g. 0:1,0:12")
    p.add_argument("--step", help="round-1 grid spacing (default: 21 points per axis)")
    p.add_argument("--shrink", help="interval shrink factor per round")
    p.add_argument("--rounds", help="number of search rounds")

    p = sub.add_parser("tsne", help="reduce a space to 2-D coordinates and an SVG map")
    p.add_argument("--input", dest="tsne_input", help="space file in the output directory")
    p.add_argument("--perplexity", help="target effective neighbor count")
    p.add_argument("--iterations", help="gradient descent iterations")
    p.add_argument("--learning-rate", dest="learning_rate", help="descent step size")
    p.add_argument("--kernel", choices=["gaussian", "student_t"], help="planar kernel")
    p.add_argument("--cost", choices=["joint", "conditional"], help="divergence form")
    p.add_argument("--colors", help="id,color CSV for scatter fills")

    p = sub.add_parser("eval", help="score model output against human labels")
    p.add_argument("--mode", choices=["quality", "compare"], help="evaluation mode")
    p.add_argument("--space", help="space file for quality mode (default: augmented.csv)")
    p.add_argument("--labels", help="label file for the chosen mode")
    p.add_argument("--scale-max", dest="scale_max", help="maximum raw rater score")
    p.add_argument("--top-n", dest="top_n", help="pairs to average in quality mode")
    p.add_argument("--pred", help="predicted score matrix for compare mode")

    p = sub.add_parser("sweep", help="component sweep or cosine-shift experiment")
    p.add_argument("--mode", choices=["quality", "delta"], help="experiment kind")
    p.add_argument("--k-list", dest="k_list", help="comma-separated component counts")
    p.add_argument("--labels", help="label file for quality mode")
    p.add_argument("--scale-max", dest="scale_max", help="maximum raw rater score")
    p.add_argument("--top-n", dest="top_n", help="pairs to average in quality mode")
    p.add_argument("--variant", choices=list(VARIANTS), help="feature layout for delta mode")
    p.add_argument("--trials", help="resampling trials for delta mode")
    p.add_argument("--pairs", help="pairs per trial for delta mode")

    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "encode": cmd_encode,
    "embed": cmd_embed,
    "reduce": cmd_reduce,
    "augment": cmd_augment,
    "score": cmd_score,
    "optimize": cmd_optimize,
    "tsne": cmd_tsne,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = Run(args)
        COMMANDS[args.command](run)
    except SemfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
