"""Command-line pipeline driver.

Stages communicate through fixed-name CSV files in the output directory,
each with a `.meta` sidecar recording input hashes, parameters, and the
seed, so any output can be reproduced exactly. Configuration comes from a
flat `key = value` file with command-line flags taking precedence; both are
checked alike. Numbers must be finite, a list needs at least one number,
and the seed is a non-negative integer.

Each `cmd_*` function reads its inputs and writes its outputs through a
`Run`, which records every input under its sidecar key and hands out
output paths in a staging directory, and returns (the params of its
sidecars, the summary `main` prints). `main` then commits the run: it
writes each output's sidecar beside it and moves every output and
sidecar into the output directory. A failed stage leaves the output
directory as it was. An invocation hashes each input file once.

Each stage parses a word-vector table or an embedding space once: it
keeps what it parsed in a cache directory, `$XDG_CACHE_HOME/semfuse/parse`
(`~/.cache` by default), under the sha256 of the file's bytes, which a
parse hashes a second time before it is stored, and later reads of the
same bytes, by any stage, read it from there. The oldest entries are
removed once the directory holds more than MAX_CACHE_BYTES.

Subcommands: ingest, encode, embed, reduce, augment, score, optimize,
tsne, eval, sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .corpus import (
    CORPUS_FORMATS,
    clean_corpus,
    load_corpus,
    load_gazetteer,
    resolve_coordinates,
    save_corpus,
)
from .embed import (
    ENTRY_SUFFIX,
    EmbeddingSpace,
    WordVectorTable,
    embed_corpus,
    export_embeddings,
    fit_context,
    import_embeddings,
    load_entry,
    load_word_vectors,
    save_entry,
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
from .spectra import augment, delta_cosine_experiment, fit_pca, save_delta_csv, transform
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .table import open_text, write_table
from .tsne import (
    COST_MODES,
    KERNELS,
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

# a parsed table of more values than this (1 GiB as float64) is parsed on every run, never stored
MAX_CACHED_VALUES = 1 << 27
# after each store the oldest entries go until the rest take at most this: four of the largest
MAX_CACHE_BYTES = 4 << 30


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file; later lines override earlier ones."""
    values: dict[str, str] = {}
    with open_text(path, newline=None) as fh:
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
    """One invocation: its settings (config file values + flags), inputs and staged outputs."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if args.config else {}
        self.seed = self.number("seed", 0, int)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        out = args.out_dir or self.config.get("out_dir") or "out"
        self.out_dir = Path(out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.staging = self.out_dir / f".{args.command}.{os.getpid()}.tmp"
        self.inputs: dict[str, Path] = {}  # sidecar key -> file read
        self._digests: dict[Path, str] = {}
        self.outputs: list[Path] = []  # staged paths, in the order handed out

    def setting(self, key: str, default: str | None = None, required: bool = False) -> str | None:
        """The flag `key`'s text, else its config value, else `default`; unset and required is an error."""
        flag = getattr(self.args, key, None)
        value = self.config.get(key, default) if flag is None else flag
        if value is None and required:
            raise ConfigError(f"{key} is required (flag --{key.replace('_', '-')} or config key {key})")
        return value

    def number(self, key: str, default=None, kind: type = float, many: bool = False,
               required: bool = False):
        """The setting `key` parsed by `_parse_numbers`; `default` if it is optional and unset."""
        value = self.setting(key, required=required)
        return default if value is None else _parse_numbers(key, value, kind, many)

    def input_file(self, key: str, required: bool = True) -> Path | None:
        """The file a flag or key names, recorded under that key; None if optional and unset."""
        value = self.setting(key, required=required)
        if not value and not required:
            return None
        path = Path(value)
        if not path.exists():
            raise ConfigError(f"{key} file {path} does not exist")
        self.inputs[key] = path
        return path

    def stage_input(self, name: str, key: str | None = None) -> Path:
        """An earlier stage's output, recorded under `key` (default: the file's stem)."""
        path = self.out_dir / name
        if not path.exists():
            stage = STAGE_OF.get(name)
            if stage:
                raise PipelineError(f"{path} not found; run the '{stage}' stage first")
            raise PipelineError(f"{path} not found")
        self.inputs[key or path.stem] = path
        return path

    def path_out(self, name: str) -> Path:
        """Where the stage writes output `name`: in the staging directory, until the commit."""
        self.staging.mkdir(exist_ok=True)
        path = self.staging / name
        self.outputs.append(path)
        return path

    def digest(self, key: str) -> str:
        """The sha256 of the input recorded under `key`; each file is hashed once per invocation."""
        path = self.inputs[key]
        if path not in self._digests:
            self._digests[path] = _sha256(path)
        return self._digests[path]

    def commit(self, stage: str, params: dict) -> list[Path]:
        """Write every staged output's sidecar, then move each output and sidecar into out_dir.

        The old sidecar goes before the output is replaced and the new one
        follows it, so a crash between the renames leaves an output with no
        sidecar, never one whose sidecar describes a different run.
        """
        digests = {key: self.digest(key) for key in self.inputs}
        for path in self.outputs:
            write_sidecar(path, stage, digests, params, self.seed)
        final = [self.out_dir / path.name for path in self.outputs]
        for path, dest in zip(self.outputs, final):
            _meta_path(dest).unlink(missing_ok=True)
            os.replace(path, dest)
            os.replace(_meta_path(path), _meta_path(dest))
        return final


def _parse_numbers(name: str, value: str, kind: type = float, many: bool = False):
    """One int or float, or with `many` a tuple of at least one, from a setting's text."""
    texts = [v for v in value.split(",") if v.strip()] if many else [value]
    try:
        numbers = tuple(kind(text) for text in texts)
    except ValueError:
        numbers = ()
    if not numbers:
        shape = {(int, False): "an integer", (float, False): "a number",
                 (int, True): "comma-separated integers", (float, True): "comma-separated numbers"}
        raise ConfigError(f"{name} must be {shape[kind, many]}, got {value!r}")
    # float() accepts nan and inf, which no setting can use
    if kind is float and not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return numbers if many else numbers[0]


def _parse_bounds(value: str) -> tuple[tuple[float, float], ...]:
    # format: lo:hi per axis, comma separated, e.g. "0:1,0:12"
    intervals = []
    for part in value.split(","):
        if ":" not in part:
            raise ConfigError(f"bounds interval {part!r} must look like lo:hi")
        lo, _, hi = part.partition(":")
        intervals.append((_parse_numbers("bounds", lo), _parse_numbers("bounds", hi)))
    return tuple(intervals)


def _sha256(path: Path) -> str:
    # in 1 MiB blocks: an input such as a word-vector table can be gigabytes
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def write_sidecar(out_path: Path, stage: str, inputs: dict[str, str], params: dict, seed: int):
    """Emit `<output>.meta` with everything needed to reproduce the output.

    `inputs` maps each sidecar key to the sha256 of the file read under it.
    """
    entries = {"stage": stage, "version": __version__, "seed": str(seed)}
    for name, digest in inputs.items():
        entries[f"sha256_{name}"] = digest
    for key, value in params.items():
        entries[f"param_{key}"] = _format_value(value)
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    _meta_path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta")


def _parse_cache() -> Path | None:
    """The parse cache directory; None when no absolute cache home is known."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(home):  # unset, empty or relative: the XDG default
        home = os.path.expanduser("~/.cache")
    return Path(home, "semfuse", "parse") if os.path.isabs(home) else None


def _parsed(run: Run, key: str, kind: type, parse: Callable[[Path], WordVectorTable | EmbeddingSpace]):
    """The input recorded under `key` as a `kind`: its cache entry on a hit, else `parse`d and stored.

    The entry is named by the digest the sidecar records and the kind's
    suffix, and a hit refreshes its mtime. A parse is stored only if it
    holds at most MAX_CACHED_VALUES values and the file still hashes to
    that digest afterwards; then the oldest entries go until the rest fit
    in MAX_CACHE_BYTES. A cache that cannot be read, written or pruned
    leaves the stage as it is.
    """
    path, digest, cache = run.inputs[key], run.digest(key), _parse_cache()
    entry = cache / f"{digest}{ENTRY_SUFFIX[kind]}" if cache else None
    value = load_entry(kind, entry) if entry else None
    if value is not None:
        with contextlib.suppress(OSError):
            os.utime(entry)
        return value
    value = parse(path)
    values = value.matrix.size if kind is EmbeddingSpace else len(value.vectors) * value.dim
    if entry and values <= MAX_CACHED_VALUES and _sha256(path) == digest:
        with contextlib.suppress(OSError):
            cache.mkdir(parents=True, exist_ok=True)
            save_entry(value, entry)
            _evict(cache)
    return value


def _evict(cache: Path) -> None:
    """Remove entries of every kind, oldest mtime first, until the rest take at most MAX_CACHE_BYTES."""
    with os.scandir(cache) as found:
        entries = sorted((e.stat().st_mtime_ns, e.stat().st_size, e.path) for e in found
                         if e.name.endswith(tuple(ENTRY_SUFFIX.values())))
    total = sum(size for _, size, _ in entries)
    for _, size, path in entries:
        if total <= MAX_CACHE_BYTES:
            break
        os.unlink(path)
        total -= size


def _space(run: Run, name: str, key: str | None = None) -> EmbeddingSpace:
    """The embedding space an earlier stage wrote to `name`, recorded under `key` (default: its stem)."""
    path = run.stage_input(name, key)
    return _parsed(run, key or path.stem, EmbeddingSpace, import_embeddings)


def _records_and_space(run: Run) -> tuple[list, EmbeddingSpace]:
    records_path, embeddings_path = run.stage_input(RECORDS), run.stage_input(EMBEDDINGS)
    records = load_corpus(records_path, format="csv")
    space = _parsed(run, "embeddings", EmbeddingSpace, import_embeddings)
    if tuple(r.id for r in records) != space.ids:
        raise DomainError(f"{records_path} and {embeddings_path} list different ids")
    return records, space


def cmd_ingest(run: Run) -> tuple[dict, str]:
    records = load_corpus(run.input_file("corpus"), format=run.setting("format"))
    gaz_path = run.input_file("gazetteer", required=False)
    if gaz_path:
        records = resolve_coordinates(records, load_gazetteer(gaz_path))
    save_corpus(records, run.path_out(RECORDS), format="csv")
    return {"n_records": len(records)}, f"{len(records)} records"


def cmd_encode(run: Run) -> tuple[dict, str]:
    variant = run.setting("variant", "all_features")
    matrix = build_feature_matrix(load_corpus(run.stage_input(RECORDS), format="csv"), variant)
    save_feature_matrix(run.path_out(FEATURES), matrix, variant)
    rows, columns = matrix.shape
    return {"variant": variant, "shape": [rows, columns]}, f"{rows}x{columns} feature matrix"


def cmd_embed(run: Run) -> tuple[dict, str]:
    """Embed each record with salience-weighted word vectors.

    The word-vector table comes from the cache when it holds an entry for
    the file's bytes; the outputs are the same bytes either way.
    """
    records = load_corpus(run.stage_input(RECORDS), format="csv")
    run.input_file("word_vectors")
    table = _parsed(run, "word_vectors", WordVectorTable, load_word_vectors)
    stop_path = run.input_file("stopwords", required=False)
    docs = clean_corpus(records, load_stopwords(stop_path) if stop_path else DEFAULT_STOPWORDS)
    ctx = fit_context(docs, table, ridge=run.number("ridge"))
    space, fallback_ids = embed_corpus(docs, ctx, table)
    export_embeddings(space, run.path_out(EMBEDDINGS))
    params = {"dim": table.dim, "ridge": ctx.ridge, "fallback_ids": list(fallback_ids)}
    return params, f"{len(space.ids)} embeddings of dim {table.dim}"


def cmd_reduce(run: Run) -> tuple[dict, str]:
    k = run.number("k", kind=int, required=True)
    space = _space(run, EMBEDDINGS)
    model = fit_pca(space, k)
    export_embeddings(EmbeddingSpace(space.ids, transform(model, space)), run.path_out(REDUCED))
    params = {"k": k, "explained_variance": [float(v) for v in model.explained_variance]}
    return params, f"kept {k} of {space.dim} components"


def cmd_augment(run: Run) -> tuple[dict, str]:
    reduced_path = run.stage_input(REDUCED)
    features_path = run.stage_input(FEATURES)
    reduced = _space(run, REDUCED)
    features, variant = load_feature_matrix(features_path)
    if reduced.matrix.shape[0] != features.shape[0]:
        raise DomainError(
            f"{reduced_path} has {reduced.matrix.shape[0]} rows but "
            f"{features_path} has {features.shape[0]} rows"
        )
    augmented = augment(reduced.matrix, features, reduced.ids)
    export_embeddings(EmbeddingSpace(augmented.ids, augmented.matrix), run.path_out(AUGMENTED))
    params = {
        "k": augmented.k,
        "f": augmented.f,
        "variant": variant,
        "feature_means": [float(v) for v in augmented.stats.means],
        "feature_stds": [float(v) for v in augmented.stats.stds],
        "constant_mask": [bool(v) for v in augmented.stats.constant_mask],
    }
    return params, f"{augmented.k}+{augmented.f} columns"


def _dist_kinds(run: Run) -> tuple[str, ...]:
    kinds = run.setting("dist_kinds", ",".join(DEFAULT_DIST_KINDS))
    return tuple(v.strip() for v in kinds.split(","))


def cmd_score(run: Run) -> tuple[dict, str]:
    records, space = _records_and_space(run)
    kind = run.setting("kind", "pi")
    alphas = run.number("alphas", (0.02, 9.55), many=True)
    params = SimilarityParams(kind=kind, alphas=alphas, dist_kinds=_dist_kinds(run))
    scores = pairwise_scores(space.matrix, batch_features(records), params)
    save_score_matrix(scores, run.path_out(SCORES))
    return {
        "kind": params.kind,
        "alphas": list(params.alphas),
        "dist_kinds": list(params.dist_kinds),
        "ids": list(space.ids),
    }, f"{scores.shape[0]}x{scores.shape[1]} matrix"


def cmd_optimize(run: Run) -> tuple[dict, str]:
    run.stage_input(RECORDS)  # a missing upstream output is named before the labels
    run.stage_input(EMBEDDINGS)
    labels_path = run.input_file("labels")
    records, space = _records_and_space(run)
    labels = load_rank_labels(labels_path)
    kind = run.setting("kind", "pi")
    dist_kinds = _dist_kinds(run)
    cfg = GridConfig(
        bounds=_parse_bounds(run.setting("bounds", "0:1,0:12")),
        step=run.number("step"),
        shrink=run.number("shrink", GridConfig.shrink),
        rounds=run.number("rounds", GridConfig.rounds, int),
    )
    params, loss, trace = optimize_alphas(
        space.matrix, batch_features(records), labels, kind, dist_kinds, cfg
    )
    save_trace_csv(trace, run.path_out(OPTIMIZE_TRACE))
    best = {f"alpha{i}": a for i, a in enumerate(params.alphas, start=1)}
    alphas = " ".join(f"{name}={a!r}" for name, a in best.items())
    return {
        "kind": kind,
        "dist_kinds": list(dist_kinds),
        "bounds": [f"{lo}:{hi}" for lo, hi in cfg.bounds],
        "shrink": cfg.shrink,
        "rounds": cfg.rounds,
        **{f"best_{name}": a for name, a in best.items()},
        "best_loss": loss,
    }, f"kind={kind} {alphas} loss={loss!r} ({len(trace)} probes)"


def cmd_tsne(run: Run) -> tuple[dict, str]:
    input_name = run.setting("tsne_input", AUGMENTED)
    space = _space(run, input_name, "space")
    cfg = TsneConfig(
        perplexity=run.number("perplexity", TsneConfig.perplexity),
        iterations=run.number("iterations", TsneConfig.iterations, int),
        learning_rate=run.number("learning_rate", TsneConfig.learning_rate),
        kernel=run.setting("kernel", TsneConfig.kernel),
        cost=run.setting("cost", TsneConfig.cost),
        seed=run.seed,
    )
    colors_path = run.input_file("colors", required=False)
    colors = load_colors(colors_path) if colors_path else None
    result = run_tsne(space.matrix, cfg)
    write_coords_csv(space.ids, result.coords, run.path_out(TSNE_CSV))
    write_scatter_svg(space.ids, result.coords, run.path_out(TSNE_SVG), colors)
    write_trace_csv(result.kl_trace, run.path_out(TSNE_TRACE))
    final_kl = float(result.kl_trace[-1])
    return {
        "input": input_name,
        "perplexity": cfg.perplexity,
        "effective_perplexity": result.effective_perplexity,
        "sigma_min": float(result.sigmas.min()),
        "sigma_max": float(result.sigmas.max()),
        "iterations": cfg.iterations,
        "learning_rate": cfg.learning_rate,
        "kernel": cfg.kernel,
        "cost": cfg.cost,
        "final_kl": final_kl,
    }, f"{len(space.ids)} points, final KL {final_kl!r}"


def _quality_labels(run: Run, space: EmbeddingSpace) -> tuple[list, float, int]:
    """The rater labels of a quality mode, with the scale_max and top_n it reads them by."""
    labels_path = run.input_file("labels")
    scale_max = run.number("scale_max", 4.0)
    top_n = run.number("top_n", 20, int)
    return load_labels(labels_path, scale_max, corpus_ids=space.ids), scale_max, top_n


def cmd_eval(run: Run) -> tuple[dict, str]:
    mode = run.setting("mode", "quality")
    if mode == "quality":
        space = _space(run, run.setting("space", AUGMENTED), "space")
        labels, scale_max, top_n = _quality_labels(run, space)
        quality = top_pair_quality(space, labels, top_n, run.seed)
        rows = [("top_pair_quality", quality), ("n_labels", len(labels)), ("top_n", top_n)]
        params = {"mode": mode, "scale_max": scale_max, "top_n": top_n}
        summary = f"top_pair_quality {quality!r} over top {top_n} of {len(labels)} pairs"
    elif mode == "compare":
        pred_path = run.stage_input(run.setting("pred", SCORES), "pred")
        labels_path = run.input_file("labels")
        pred = load_rank_labels(pred_path)
        report = compare_rankings(pred, load_rank_labels(labels_path))
        save_rank_heatmap(pred, run.path_out(HEATMAP_CSV))
        rows = [
            ("rank_loss", report.loss),
            ("n_uniform_columns", len(report.uniform_columns)),
            ("mean_column_entropy_bits", float(np.mean(report.column_entropy))),
        ]
        params = {"mode": mode}
        summary = f"rank loss {report.loss!r}, {len(report.uniform_columns)} uniform columns"
    else:
        raise ConfigError(f"unknown eval mode {mode!r}; expected quality or compare")
    write_table(run.path_out(EVAL_CSV), ["metric", "value"], rows, lineterminator="\n")
    return params, summary


def cmd_sweep(run: Run) -> tuple[dict, str]:
    mode = run.setting("mode", "quality")
    run.stage_input(EMBEDDINGS)  # named before the records when both are missing
    records, space = _records_and_space(run)
    k_list = run.number("k_list", (2, 4, 8), int, many=True)
    if mode == "quality":
        labels, scale_max, top_n = _quality_labels(run, space)
        features_all = build_feature_matrix(records, "all_features")
        features_condensed = build_feature_matrix(records, "condensed_time")
        result = component_sweep(
            space, features_all, features_condensed, labels, k_list, top_n, run.seed
        )
        save_sweep_csv(result, run.path_out(SWEEP_CSV))
        params = {"mode": mode, "k_list": k_list, "top_n": top_n, "scale_max": scale_max}
        return params, f"{len(result.cells)} (variant, k) cells"
    if mode == "delta":
        variant = run.setting("variant", "all_features")
        trials = run.number("trials", 10, int)
        pairs = run.number("pairs", 500, int)
        features = build_feature_matrix(records, variant)
        results = delta_cosine_experiment(space, features, k_list, trials, pairs, run.seed)
        save_delta_csv(results, run.path_out(DELTA_CSV))
        params = {"mode": mode, "variant": variant, "k_list": k_list, "trials": trials,
                  "pairs": pairs}
        return params, f"cosine shift at {len(results)} component counts"
    raise ConfigError(f"unknown sweep mode {mode!r}; expected quality or delta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semfuse",
        description="Context-aware semantic similarity pipeline",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--seed", help="master seed recorded in all outputs")
    parser.add_argument("--out-dir", help="directory for stage outputs (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a corpus and resolve coordinates")
    p.add_argument("--corpus", help="corpus file (csv, tsv, or jsonl)")
    p.add_argument("--format", choices=CORPUS_FORMATS, help="corpus format")
    p.add_argument("--gazetteer", help="location,lat,lon CSV for geocoding")

    p = sub.add_parser("encode", help="build the geotemporal feature matrix")
    p.add_argument("--variant", choices=VARIANTS, help="feature layout")

    p = sub.add_parser("embed", help="embed records with salience-weighted word vectors")
    p.add_argument("--word-vectors", dest="word_vectors", help="token-vector text file")
    p.add_argument("--stopwords", help="stopword file, one lowercase token per line")
    p.add_argument("--ridge", help="covariance ridge (default: 1e-3 * trace / dim)")

    p = sub.add_parser("reduce", help="PCA-reduce the embedding space")
    p.add_argument("--k", help="number of components to keep")

    sub.add_parser("augment", help="append standardized features to the reduced space")

    p = sub.add_parser("score", help="pairwise similarity matrix")
    p.add_argument("--kind", choices=SIM_KINDS, help="scorer form")
    p.add_argument("--alphas", help="comma-separated kernel weights")
    p.add_argument("--dist-kinds", dest="dist_kinds",
                   help="comma-separated kernel names, one per feature: days, then coordinates")

    p = sub.add_parser("optimize", help="fit kernel weights to labeled rankings")
    p.add_argument("--labels", help="labeled scores: i,j,score rows or a full matrix")
    p.add_argument("--kind", choices=SIM_KINDS, help="scorer form")
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
    p.add_argument("--kernel", choices=KERNELS, help="planar kernel")
    p.add_argument("--cost", choices=COST_MODES, help="divergence form")
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
    p.add_argument("--variant", choices=VARIANTS, help="feature layout for delta mode")
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
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = Run(args)
        try:
            params, summary = COMMANDS[args.command](run)
            outputs = run.commit(args.command, params)
        finally:  # the staging directory goes, with whatever a failed stage left in it
            if run.staging.exists():
                shutil.rmtree(run.staging)
        print(f"{args.command}: {summary} -> {', '.join(map(str, outputs))}")
    except (SemfuseError, OSError) as exc:
        # a staged output is named by its place in out_dir: the staging directory is gone
        staged = (os.path.join(run.staging, ""), os.path.join(run.out_dir, "")) if run else ("", "")
        print(f"error: {str(exc).replace(*staged)}", file=sys.stderr)
        return 2
    return 0
