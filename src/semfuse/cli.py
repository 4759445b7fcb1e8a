"""Command-line pipeline driver.

Stages communicate through fixed-name CSV files in the output directory,
each with a `.meta` sidecar recording input hashes, parameters, and the
seed, so any output can be reproduced exactly. Configuration comes from a
flat `key = value` file with command-line flags taking precedence; both are
checked alike. Numbers must be finite, a list needs at least one number,
and the seed is a non-negative integer.

SETTINGS is the one table of the settings: each one's flag help, the
reader of its text and its default. `Run.value(key)` reads a setting from
its flag, else its config key, else its default, and records it: a file
(which must be a regular file) under its sidecar key, any other setting
in `Run.params`. An invocation hashes each input file once, and
`Run.parsed` reads a word-vector table or an embedding space through the
parse cache (`semfuse.cache`). A command-line flag whose setting the stage
did not read is an error; a config key is not, since one file serves every
stage, but a config key that is no setting is.

STAGES is the one table of the stages: each one's help, its settings (in
--help order), every file it writes, by mode, and the earlier outputs it
always reads. A `Run` checks that those exist, in order, and that the mode
is one the stage declares, before the stage's `cmd_*` function writes its
outputs in a staging directory and returns (what it computed, the summary
`main` prints). `Run.commit` then refuses the stage unless it wrote
exactly the files it declares, writes each output's sidecar, whose params
are every setting the stage read and what it computed, and moves every
output and sidecar into the output directory. A failed stage leaves the
output directory as it was, or absent. Any other choice is checked by the
code that uses it, so a flag fails as a key does.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import shutil
import sys
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__, cache
from .corpus import CORPUS_FORMATS, clean_corpus, load_corpus, load_gazetteer, resolve_coordinates, save_corpus
from .embed import EmbeddingSpace, WordVectorTable, embed_corpus, export_embeddings, fit_context
from .errors import ConfigError, DomainError, PipelineError, SemfuseError
from .evalkit import (
    compare_rankings,
    component_sweep,
    load_labels,
    save_rank_heatmap,
    save_sweep_csv,
    top_pair_quality,
)
from .geotime import VARIANTS, batch_features, build_feature_matrix, load_feature_matrix, save_feature_matrix
from .rankopt import (
    DEFAULT_DIST_KINDS,
    GridConfig,
    SIM_KINDS,
    SimilarityParams,
    check_axis_counts,
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


def _parse_bounds(name: str, value: str) -> tuple[tuple[float, float], ...]:
    # format: lo:hi per axis, comma separated, e.g. "0:1,0:12"
    intervals = []
    for part in value.split(","):
        if ":" not in part:
            raise ConfigError(f"{name} interval {part!r} must look like lo:hi")
        lo, _, hi = part.partition(":")
        intervals.append((_parse_numbers(name, lo), _parse_numbers(name, hi)))
    return tuple(intervals)


# the readers of a setting's text: each takes (key, text)
_int = functools.partial(_parse_numbers, kind=int)
_ints = functools.partial(_parse_numbers, kind=int, many=True)
_floats = functools.partial(_parse_numbers, many=True)


def _text(key: str, text: str) -> str:
    return text


def _names(key: str, text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(","))


# a setting's flag help, the reader of its text and its default: a value, but a file's is its name;
# the flag is --<key with - for _>, but tsne_input is --input (`_flag`)
Setting = namedtuple("Setting", "help read default", defaults=(None,))
# the reader of a file setting: the sidecar key of its hash, whether it names an earlier stage's output
# in the output directory, and the param that records the name given, if any
File = namedtuple("File", "key staged param", defaults=(False, None))
REQUIRED = object()  # the default of a setting that must be given

SETTINGS = {
    "seed": Setting("master seed recorded in all outputs", _int, 0),
    "corpus": Setting("corpus file (csv, tsv, or jsonl)", File("corpus"), REQUIRED),
    "format": Setting(f"corpus format: {', '.join(CORPUS_FORMATS)}", _text),
    "gazetteer": Setting("location,lat,lon CSV for geocoding", File("gazetteer")),
    "variant": Setting(f"feature layout (in sweep, for delta mode): {', '.join(VARIANTS)}", _text,
                       "all_features"),
    "word_vectors": Setting("token-vector text file", File("word_vectors"), REQUIRED),
    "stopwords": Setting("stopword file, one lowercase token per line", File("stopwords")),
    "ridge": Setting("covariance ridge (default: 1e-3 * trace / dim)", _parse_numbers),
    "k": Setting("number of components to keep", _int, REQUIRED),
    "kind": Setting(f"scorer form: {', '.join(SIM_KINDS)}", _text, "pi"),
    "alphas": Setting("comma-separated kernel weights", _floats, (0.02, 9.55)),
    "dist_kinds": Setting("comma-separated kernel names: exp_abs and inv_abs on days, "
                          "floor_geo on coordinates", _names, DEFAULT_DIST_KINDS),
    "labels": Setting("rater scores for quality mode; labeled scores (i,j,score rows or a full matrix) "
                      "otherwise", File("labels"), REQUIRED),
    "bounds": Setting("per-alpha search intervals, e.g. 0:1,0:12", _parse_bounds, ((0.0, 1.0), (0.0, 12.0))),
    "step": Setting("round-1 grid spacing (default: 21 points per axis)", _parse_numbers, GridConfig.step),
    "shrink": Setting("interval shrink factor per round", _parse_numbers, GridConfig.shrink),
    "rounds": Setting("number of search rounds", _int, GridConfig.rounds),
    "tsne_input": Setting(f"space file in the output directory (default: {AUGMENTED})",
                          File("space", staged=True, param="input"), AUGMENTED),
    "perplexity": Setting("target effective neighbor count", _parse_numbers, TsneConfig.perplexity),
    "iterations": Setting("gradient descent iterations", _int, TsneConfig.iterations),
    "learning_rate": Setting("descent step size", _parse_numbers, TsneConfig.learning_rate),
    "kernel": Setting(f"planar kernel: {', '.join(KERNELS)}", _text, TsneConfig.kernel),
    "cost": Setting(f"divergence form: {', '.join(COST_MODES)}", _text, TsneConfig.cost),
    "colors": Setting("id,color CSV for scatter fills", File("colors")),
    "mode": Setting("eval: quality or compare; sweep: quality or delta", _text, "quality"),
    "space": Setting(f"space file for quality mode (default: {AUGMENTED})", File("space", staged=True),
                     AUGMENTED),
    "scale_max": Setting("maximum raw rater score", _parse_numbers, 4.0),
    "top_n": Setting("pairs to average in quality mode", _int, 20),
    "pred": Setting(f"predicted score matrix for compare mode (default: {SCORES})",
                    File("pred", staged=True), SCORES),
    "k_list": Setting("comma-separated component counts", _ints, (2, 4, 8)),
    "trials": Setting("resampling trials for delta mode", _int, 10),
    "pairs": Setting("pairs per trial for delta mode", _int, 500),
}

# a stage's help, its SETTINGS keys (space-separated, in --help order), every file it writes (in commit
# order) by its mode (None: it has none), and the earlier outputs it always reads (checked in this order)
Stage = namedtuple("Stage", "help settings writes reads", defaults=((),))

STAGES = {
    "ingest": Stage("load a corpus and resolve coordinates", "corpus format gazetteer", {None: (RECORDS,)}),
    "encode": Stage("build the geotemporal feature matrix", "variant", {None: (FEATURES,)}, (RECORDS,)),
    "embed": Stage("embed records with salience-weighted word vectors", "word_vectors stopwords ridge",
                   {None: (EMBEDDINGS,)}, (RECORDS,)),
    "reduce": Stage("PCA-reduce the embedding space", "k", {None: (REDUCED,)}, (EMBEDDINGS,)),
    "augment": Stage("append standardized features to the reduced space", "", {None: (AUGMENTED,)},
                     (REDUCED, FEATURES)),
    "score": Stage("pairwise similarity matrix", "kind alphas dist_kinds", {None: (SCORES,)},
                   (RECORDS, EMBEDDINGS)),
    "optimize": Stage("fit kernel weights to labeled rankings",
                      "labels kind dist_kinds bounds step shrink rounds", {None: (OPTIMIZE_TRACE,)},
                      (RECORDS, EMBEDDINGS)),
    "tsne": Stage("reduce a space to 2-D coordinates and an SVG map",
                  "tsne_input perplexity iterations learning_rate kernel cost colors",
                  {None: (TSNE_CSV, TSNE_SVG, TSNE_TRACE)}),
    "eval": Stage("score model output against human labels", "mode space labels scale_max top_n pred",
                  {"quality": (EVAL_CSV,), "compare": (HEATMAP_CSV, EVAL_CSV)}),
    "sweep": Stage("component sweep or cosine-shift experiment",
                   "mode k_list labels scale_max top_n variant trials pairs",
                   {"quality": (SWEEP_CSV,), "delta": (DELTA_CSV,)}, (EMBEDDINGS, RECORDS)),
}


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file; later lines override earlier ones.

    A key that is neither `out_dir` nor in SETTINGS, such as a misspelt
    one, is an error `<file>: line <n>: unknown key '<key>'`, not a
    setting silently unused.
    """
    values: dict[str, str] = {}
    with open_text(path, newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in SETTINGS and key != "out_dir":
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


class Run:
    """One invocation: its settings (config file values + flags), inputs and staged outputs."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if args.config else {}
        self.params: dict = {}  # each setting read but a file, by key
        self.read: set[str] = set()  # each setting key read, files too
        self.inputs: dict[str, Path] = {}  # sidecar key -> file read
        self.seed = self.value("seed")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.params.clear()  # the seed has a sidecar line of its own
        self.out_dir = Path(args.out_dir or self.config.get("out_dir") or "out")
        self.staging = self.out_dir / f".{args.command}.{os.getpid()}.tmp"
        self.made: list[Path] = []  # out_dir and its parents, where this invocation made them
        self._digests: dict[Path, str] = {}
        for name in STAGES[args.command].reads:
            self.stage_input(name)
        modes = STAGES[args.command].writes
        self.mode = None if None in modes else self.value("mode")  # the mode names a set of outputs
        if self.mode not in modes:
            raise ConfigError(f"unknown {args.command} mode {self.mode!r}; expected {' or '.join(modes)}")

    def value(self, key: str):
        """The setting `key`: its flag's or else its config key's text, read, else its default.

        A file must be a regular file, and is recorded under its sidecar key; any other setting in `params`.
        """
        self.read.add(key)
        read, default = SETTINGS[key].read, SETTINGS[key].default
        flag = getattr(self.args, key, None)
        text = self.config.get(key) if flag is None else flag
        if text is None and default is REQUIRED:
            raise ConfigError(f"{key} is required (flag {_flag(key)} or config key {key})")
        if not isinstance(read, File):
            self.params[key] = value = default if text is None else read(key, text)
            return value
        text = default if text is None else text
        if text is None:
            return None
        path = self.stage_input(text, read.key) if read.staged else Path(text)
        if not path.exists():
            raise ConfigError(f"{key} file {path} does not exist")
        if not path.is_file():  # the stage hashes it, then parses it; the empty text names a directory
            raise ConfigError(f"{key} file {text!r} is not a regular file")
        if read.param:
            self.params[read.param] = text
        self.inputs[read.key] = path
        return path

    def stage_input(self, name: str, key: str | None = None) -> Path:
        """An earlier stage's output, recorded under `key` (default: the file's stem)."""
        path = self.out_dir / name
        if not path.exists():
            stage = next((stage for stage, spec in STAGES.items() for names in spec.writes.values()
                          if name in names), None)
            raise PipelineError(f"{path} not found" + (f"; run the '{stage}' stage first" if stage else ""))
        self.inputs[key or path.stem] = path
        return path

    def path_out(self, name: str) -> Path:
        """Where the stage writes output `name`: in the staging directory, until the commit."""
        if not self.staging.exists():  # out_dir is made, if need be, only once there is an output to put in it
            self.made = [d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()]
            self.staging.mkdir(parents=True)
        return self.staging / name

    def close(self) -> None:
        """Remove the staging directory, and each directory made for it that no commit filled."""
        if self.staging.exists():
            shutil.rmtree(self.staging)
        for made in self.made:
            with contextlib.suppress(OSError):  # not empty: it holds a committed output
                made.rmdir()

    def digest(self, key: str) -> str:
        """The sha256 of the input recorded under `key`; each file is hashed once per invocation."""
        path = self.inputs[key]
        if path not in self._digests:
            self._digests[path] = cache.sha256(path)
        return self._digests[path]

    def parsed(self, key: str, kind: type[WordVectorTable | EmbeddingSpace]):
        """The input recorded under `key`, read as a `kind` through the parse cache."""
        return cache.load(self.inputs[key], self.digest(key), kind)

    def commit(self, stage: str, params: dict) -> list[Path]:
        """Check the staged files against STAGES, write their sidecars, then move each into out_dir.

        The old sidecar goes before the output is replaced and the new one
        follows it, so a crash between the renames leaves an output with no
        sidecar, never one whose sidecar describes a different run.
        """
        names = STAGES[stage].writes[self.mode]
        wrote = set(os.listdir(self.staging)) if self.staging.exists() else set()
        if wrote != set(names):
            raise PipelineError(f"{stage} wrote other files than it declares: missing "
                                f"{sorted(set(names) - wrote)}, extra {sorted(wrote - set(names))}")
        digests = {key: self.digest(key) for key in self.inputs}
        for name in names:
            write_sidecar(self.staging / name, stage, digests, params, self.seed)
        for name in names:
            _meta_path(self.out_dir / name).unlink(missing_ok=True)
            os.replace(self.staging / name, self.out_dir / name)
            os.replace(_meta_path(self.staging / name), _meta_path(self.out_dir / name))
        return [self.out_dir / name for name in names]


def _format_value(value, sep: str = ",") -> str:
    # a list inside a list, such as the bounds' (lo, hi) pairs, is joined by ":"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return sep.join(_format_value(v, ":") for v in value)
    return str(value)


def write_sidecar(out_path: Path, stage: str, inputs: dict[str, str], params: dict, seed: int):
    """Emit `<output>.meta` with everything needed to reproduce the output.

    `inputs` maps each sidecar key to the sha256 of the file read under it.
    """
    entries = {"stage": stage, "version": __version__, "seed": str(seed),
               **{f"sha256_{name}": digest for name, digest in inputs.items()},
               **{f"param_{key}": _format_value(value) for key, value in params.items()}}
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    _meta_path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta")


def _records_and_space(run: Run) -> tuple[list, EmbeddingSpace]:
    records = load_corpus(run.inputs["records"], format="csv")
    space = run.parsed("embeddings", EmbeddingSpace)
    if tuple(r.id for r in records) != space.ids:
        raise DomainError(f"{run.inputs['records']} and {run.inputs['embeddings']} list different ids")
    return records, space


def cmd_ingest(run: Run) -> tuple[dict, str]:
    records = load_corpus(run.value("corpus"), format=run.value("format"))
    gaz_path = run.value("gazetteer")
    if gaz_path:
        records = resolve_coordinates(records, load_gazetteer(gaz_path))
    save_corpus(records, run.path_out(RECORDS))
    return {"n_records": len(records)}, f"{len(records)} records"


def cmd_encode(run: Run) -> tuple[dict, str]:
    variant = run.value("variant")
    matrix = build_feature_matrix(load_corpus(run.inputs["records"], format="csv"), variant)
    save_feature_matrix(run.path_out(FEATURES), matrix, variant)
    rows, columns = matrix.shape
    return {"shape": [rows, columns]}, f"{rows}x{columns} feature matrix"


def cmd_embed(run: Run) -> tuple[dict, str]:
    records = load_corpus(run.inputs["records"], format="csv")
    run.value("word_vectors")
    table = run.parsed("word_vectors", WordVectorTable)
    stop_path = run.value("stopwords")
    docs = clean_corpus(records, load_stopwords(stop_path) if stop_path else DEFAULT_STOPWORDS)
    ctx = fit_context(docs, table, ridge=run.value("ridge"))
    space, fallback_ids = embed_corpus(docs, ctx, table)
    export_embeddings(space, run.path_out(EMBEDDINGS))
    params = {"dim": table.dim, "ridge": ctx.ridge, "fallback_ids": list(fallback_ids)}
    return params, f"{len(space.ids)} embeddings of dim {table.dim}"


def cmd_reduce(run: Run) -> tuple[dict, str]:
    k = run.value("k")
    space = run.parsed("embeddings", EmbeddingSpace)
    model = fit_pca(space.matrix, k)
    export_embeddings(EmbeddingSpace(space.ids, transform(model, space.matrix)), run.path_out(REDUCED))
    return {"explained_variance": model.explained_variance.tolist()}, f"kept {k} of {space.dim} components"


def cmd_augment(run: Run) -> tuple[dict, str]:
    reduced_path, features_path = run.inputs["reduced"], run.inputs["features"]
    reduced = run.parsed("reduced", EmbeddingSpace)
    features, variant = load_feature_matrix(features_path)
    if reduced.matrix.shape[0] != features.shape[0]:
        raise DomainError(
            f"{reduced_path} has {reduced.matrix.shape[0]} rows but "
            f"{features_path} has {features.shape[0]} rows"
        )
    matrix, means, stds, constant = augment(reduced.matrix, features)
    export_embeddings(EmbeddingSpace(reduced.ids, matrix), run.path_out(AUGMENTED))
    params = {"k": reduced.dim, "f": features.shape[1], "variant": variant, "feature_means": means.tolist(),
              "feature_stds": stds.tolist(), "constant_mask": constant.tolist()}
    return params, f"{reduced.dim}+{features.shape[1]} columns"


def cmd_score(run: Run) -> tuple[dict, str]:
    records, space = _records_and_space(run)
    params = SimilarityParams(*(run.value(key) for key in ("kind", "alphas", "dist_kinds")))
    scores = pairwise_scores(space.matrix, batch_features(records), params)
    save_score_matrix(scores, run.path_out(SCORES))
    return {"ids": list(space.ids)}, f"{scores.shape[0]}x{scores.shape[1]} matrix"


def cmd_optimize(run: Run) -> tuple[dict, str]:
    labels = load_rank_labels(run.value("labels"))
    records, space = _records_and_space(run)
    kind, dist_kinds, bounds = (run.value(key) for key in ("kind", "dist_kinds", "bounds"))
    check_axis_counts(dist_kinds, bounds)  # before GridConfig counts the probes of a round
    cfg = GridConfig(bounds, *(run.value(key) for key in ("step", "shrink", "rounds")))
    fit, loss, trace = optimize_alphas(space.matrix, batch_features(records), labels, kind, dist_kinds, cfg)
    save_trace_csv(trace, run.path_out(OPTIMIZE_TRACE))
    best = {f"alpha{i}": a for i, a in enumerate(fit.alphas, start=1)}
    alphas = " ".join(f"{name}={a!r}" for name, a in best.items())
    derived = {**{f"best_{name}": a for name, a in best.items()}, "best_loss": loss}
    return derived, f"kind={kind} {alphas} loss={loss!r} ({len(trace)} probes)"


def cmd_tsne(run: Run) -> tuple[dict, str]:
    run.value("tsne_input")
    space = run.parsed("space", EmbeddingSpace)
    keys = ("perplexity", "iterations", "learning_rate", "kernel", "cost")
    cfg = TsneConfig(**{key: run.value(key) for key in keys}, seed=run.seed)
    colors_path = run.value("colors")
    colors = load_colors(colors_path) if colors_path else None
    coords, kl_trace, perplexity, sigmas = run_tsne(space.matrix, cfg)
    write_coords_csv(space.ids, coords, run.path_out(TSNE_CSV))
    write_scatter_svg(space.ids, coords, run.path_out(TSNE_SVG), colors)
    write_trace_csv(kl_trace, run.path_out(TSNE_TRACE))
    final_kl = float(kl_trace[-1])
    derived = {"effective_perplexity": perplexity, "sigma_min": float(sigmas.min()),
               "sigma_max": float(sigmas.max()), "final_kl": final_kl}
    return derived, f"{len(space.ids)} points, final KL {final_kl!r}"


def cmd_eval(run: Run) -> tuple[dict, str]:
    if run.mode == "quality":
        run.value("space")
        space = run.parsed("space", EmbeddingSpace)
        labels_path, scale_max, top_n = run.value("labels"), run.value("scale_max"), run.value("top_n")
        pairs, labels = load_labels(labels_path, scale_max, space.ids)
        quality = top_pair_quality(space.matrix, pairs, labels, top_n)
        rows = [("top_pair_quality", quality), ("n_labels", len(labels)), ("top_n", top_n)]
        summary = f"top_pair_quality {quality!r} over top {top_n} of {len(labels)} pairs"
    else:
        pred = load_rank_labels(run.value("pred"))
        loss, entropy = compare_rankings(pred, load_rank_labels(run.value("labels")))
        save_rank_heatmap(pred, run.path_out(HEATMAP_CSV))
        uniform = entropy.count(0.0)
        rows = [("rank_loss", loss), ("n_uniform_columns", uniform),
                ("mean_column_entropy_bits", float(np.mean(entropy)))]
        summary = f"rank loss {loss!r}, {uniform} uniform columns"
    write_table(run.path_out(EVAL_CSV), ["metric", "value"], rows, lineterminator="\n")
    return {}, summary


def cmd_sweep(run: Run) -> tuple[dict, str]:
    records, space = _records_and_space(run)
    k_list = run.value("k_list")
    if run.mode == "quality":
        labels_path, scale_max, top_n = run.value("labels"), run.value("scale_max"), run.value("top_n")
        pairs, labels = load_labels(labels_path, scale_max, space.ids)
        features = {variant: build_feature_matrix(records, variant) for variant in VARIANTS}
        rows = component_sweep(space.matrix, features, pairs, labels, k_list, top_n)
        save_sweep_csv(rows, run.path_out(SWEEP_CSV))
        return {}, f"{len(rows)} (variant, k) cells"
    variant, trials, pairs = run.value("variant"), run.value("trials"), run.value("pairs")
    features = build_feature_matrix(records, variant)
    rows = delta_cosine_experiment(space.matrix, features, k_list, trials, pairs, run.seed)
    save_delta_csv(rows, run.path_out(DELTA_CSV))
    return {}, f"cosine shift at {len(rows)} component counts"


def _flag(key: str) -> str:
    return "--input" if key == "tsne_input" else "--" + key.replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` leaves it as it was, so every `main` call shares it."""
    parser = argparse.ArgumentParser(prog="semfuse", description="Context-aware semantic similarity pipeline")
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--seed", help=SETTINGS["seed"].help)
    parser.add_argument("--out-dir", help="directory for stage outputs (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage, spec in STAGES.items():
        p = sub.add_parser(stage, help=spec.help)
        for key in spec.settings.split():
            p.add_argument(_flag(key), dest=key, help=SETTINGS[key].help)
    return parser


# each stage's function; main looks it up at call time, so a wrapper put in its place here runs
COMMANDS = {stage: globals()[f"cmd_{stage}"] for stage in STAGES}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = Run(args)
        try:
            with warnings.catch_warnings():  # a warning the filters let through is one line, as an error is
                warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
                derived, summary = COMMANDS[args.command](run)
            unread = [key for key in STAGES[args.command].settings.split()
                      if getattr(args, key) is not None and key not in run.read]
            if unread:  # a flag the stage ignored would be recorded nowhere
                mode = f" --mode {run.mode}" if run.mode else ""
                raise ConfigError(f"{_flag(unread[0])} is not read by {args.command}{mode}")
            outputs = run.commit(args.command, {**run.params, **derived})
        finally:  # the staging directory goes, with whatever a failed stage left in it
            run.close()
        print(f"{args.command}: {summary} -> {', '.join(map(str, outputs))}")
    except (SemfuseError, OSError) as exc:
        # a staged output is named by its place in out_dir: the staging directory is gone
        staged = (os.path.join(run.staging, ""), os.path.join(run.out_dir, "")) if run else ("", "")
        print(f"error: {str(exc).replace(*staged)}", file=sys.stderr)
        return 2
    return 0
