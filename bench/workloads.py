"""The three workloads: their inputs, the stages of one pass, and the checks.

A workload's `setup` writes the seeded inputs and runs the upstream stages
whose outputs a pass reads; `ops` lists the stage invocations of one pass,
each with the check that runs after it.

- pipeline: score a corpus, ingest through sweep; embed, the score matrix
  and the CSV writer do most of the work.
- fit: fit kernel weights to planted rankings on small batches; the
  ranking loop and the vector-table load do most of the work.
- layout: draw the t-SNE map of a set-up augmented space; also the control
  on which changes to embed or rankopt should not move pass_s.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
import reference as ref

K_REDUCE = 8
K_LIST = (2, 4, 8)
TOP_N = 20
SCALE_MAX = 4
SCORE_ALPHAS = (0.02, 9.55)  # the CLI's default multiplicative weights
PERPLEXITY = 30.0  # the CLI's default
OPTIMIZE_PROBES = 6 * 21 * 21  # six rounds of a 21 x 21 grid, the CLI defaults


@dataclass(frozen=True)
class FitSize:
    batches: int
    records: int
    vocab: int
    dim: int
    events: int


@dataclass(frozen=True)
class Sizes:
    pipeline: gen.CorpusSize
    layout: gen.CorpusSize
    fit: FitSize
    tsne_iterations: int
    embed_sample: int
    score_sample: int


SIZES = {
    "full": Sizes(
        pipeline=gen.CorpusSize(records=2000, vocab=3000, dim=100, events=60, rater_pairs=300),
        layout=gen.CorpusSize(records=1000, vocab=3000, dim=100, events=40),
        fit=FitSize(batches=3, records=20, vocab=4000, dim=300, events=5),
        tsne_iterations=150,
        embed_sample=32,
        score_sample=200,
    ),
    "smoke": Sizes(
        pipeline=gen.CorpusSize(records=60, vocab=300, dim=16, events=8, rater_pairs=40),
        layout=gen.CorpusSize(records=60, vocab=300, dim=16, events=8),
        fit=FitSize(batches=1, records=12, vocab=300, dim=16, events=4),
        tsne_iterations=120,
        embed_sample=8,
        score_sample=40,
    ),
}


@dataclass
class Op:
    """One stage invocation: its output directory, argv after the global flags, and check."""

    stage: str
    out: Path
    argv: Callable[[], list[str]]
    check: Callable[[], None]
    keep: Callable[[], None] = lambda: None  # reads values later stages need


@dataclass
class Prepared:
    """Everything a pass needs: input paths and what the generator planted."""

    seed: int
    sizes: Sizes
    inputs: dict[str, Path] = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _sample(seed: int, n: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 23])
    return sorted(int(i) for i in rng.choice(n, min(n, count), replace=False))


def _pair_sample(seed: int, n: int, count: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng([seed, 29])
    pairs = [(int(i), int(j)) for i, j in rng.integers(0, n, (count, 2))]
    return pairs + [(0, 0), (n - 1, n - 1)]


def _write_corpus_inputs(seed: int, root: Path, size: gen.CorpusSize, tag: str) -> tuple[gen.Corpus, dict]:
    root.mkdir(parents=True, exist_ok=True)
    vocab = gen.vocabulary(seed, size.vocab)
    corpus = gen.make_corpus(seed, tag, size, vocab)
    table = gen.make_vectors(seed, vocab, size.dim)
    paths = {"corpus": root / "corpus.csv", "gazetteer": root / "gazetteer.csv", "vectors": root / "vectors.txt"}
    gen.write_corpus(corpus, paths["corpus"], seed)
    gen.write_gazetteer(paths["gazetteer"])
    gen.write_vectors(table, paths["vectors"])
    return corpus, {"paths": paths, "table": table}


class _Context:
    """The reference context of one corpus, built on first use and then kept."""

    def __init__(self, table, tokens):
        self._args = (table, tokens)
        self._ctx = None

    def get(self) -> ref.ContextReference:
        if self._ctx is None:
            self._ctx = ref.ContextReference(*self._args)
        return self._ctx


def _corpus_ops(paths: dict, out: Path, corpus: gen.Corpus, context: _Context, sample: list[int],
                with_encode: bool) -> list[Op]:
    """ingest [encode] embed, the shared head of every workload's stage chain."""
    ops = [Op("ingest", out, lambda: ["ingest", "--corpus", str(paths["corpus"]), "--gazetteer", str(paths["gazetteer"])],
              lambda: checks.check_records(out, corpus))]
    if with_encode:
        ops.append(Op("encode", out, lambda: ["encode", "--variant", "all_features"],
                      lambda: checks.check_features(out, corpus)))
    ops.append(Op("embed", out, lambda: ["embed", "--word-vectors", str(paths["vectors"])],
                  lambda: checks.check_embeddings(out, corpus, context.get(), sample)))
    return ops


def _space_ops(out: Path) -> list[Op]:
    return [
        Op("reduce", out, lambda: ["reduce", "--k", str(K_REDUCE)], lambda: checks.check_reduced(out, K_REDUCE)),
        Op("augment", out, lambda: ["augment"], lambda: checks.check_augmented(out)),
    ]


# --- pipeline ------------------------------------------------------------


def setup_pipeline(seed: int, root: Path, sizes: Sizes, run_op) -> Prepared:
    """Inputs only: a pass starts at ingest."""
    p = Prepared(seed, sizes)
    corpus, made = _write_corpus_inputs(seed, root / "inputs", sizes.pipeline, "p")
    p.inputs = dict(made["paths"], raters=root / "inputs" / "raters.csv")
    raters = gen.make_rater_labels(seed, corpus, sizes.pipeline.rater_pairs)
    gen.write_rater_labels(raters, p.inputs["raters"])
    p.truth = {
        "corpus": corpus,
        "context": _Context(made["table"], corpus.tokens),
        "labels": [(a, b, sum(s) / len(s) / SCALE_MAX) for a, b, s in raters],
    }
    return p


def ops_pipeline(p: Prepared, out: Path) -> list[Op]:
    corpus, labels = p.truth["corpus"], p.truth["labels"]
    raters = str(p.inputs["raters"])
    k_list = ",".join(str(k) for k in K_LIST)
    pairs = _pair_sample(p.seed, len(corpus.ids), p.sizes.score_sample)
    sample = _sample(p.seed, len(corpus.ids), p.sizes.embed_sample)
    return _corpus_ops(p.inputs, out, corpus, p.truth["context"], sample, with_encode=True) + _space_ops(out) + [
        Op("score", out, lambda: ["score"],
           lambda: checks.check_scores(out, corpus, "pi", SCORE_ALPHAS, pairs)),
        Op("eval", out, lambda: ["eval", "--mode", "quality", "--labels", raters, "--top-n", str(TOP_N)],
           lambda: checks.check_quality(out, labels, TOP_N)),
        Op("sweep", out, lambda: ["sweep", "--mode", "quality", "--labels", raters, "--k-list", k_list,
                                  "--top-n", str(TOP_N)],
           lambda: checks.check_sweep(out, list(K_LIST), TOP_N, labels, K_REDUCE)),
        Op("sweep", out, lambda: ["sweep", "--mode", "delta", "--k-list", k_list],
           lambda: checks.check_delta(out, list(K_LIST))),
    ]


# --- layout --------------------------------------------------------------


def setup_layout(seed: int, root: Path, sizes: Sizes, run_op) -> Prepared:
    """Inputs for about a thousand records, carried through ingest ... augment."""
    p = Prepared(seed, sizes)
    corpus, made = _write_corpus_inputs(seed, root / "inputs", sizes.layout, "m")
    p.inputs = made["paths"]
    out = root / "out"
    out.mkdir()
    context = _Context(made["table"], corpus.tokens)
    sample = _sample(seed, len(corpus.ids), sizes.embed_sample)
    for op in _corpus_ops(p.inputs, out, corpus, context, sample, with_encode=True) + _space_ops(out):
        run_op(op)
    p.truth = {"out": out}
    return p


def ops_layout(p: Prepared, out: Path) -> list[Op]:
    # the map is drawn from the set-up directory, where augmented.csv and its sidecar live
    out = p.truth["out"]
    iterations = p.sizes.tsne_iterations
    return [Op("tsne", out, lambda: ["tsne", "--iterations", str(iterations)],
               lambda: checks.check_tsne(out, p.seed, PERPLEXITY))]


# --- fit -----------------------------------------------------------------


def setup_fit(seed: int, root: Path, sizes: Sizes, run_op) -> Prepared:
    """One wide vector table and small batches with rankings planted at grid weights."""
    size = sizes.fit
    p = Prepared(seed, sizes)
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    vocab = gen.vocabulary(seed, size.vocab)
    table = gen.make_vectors(seed, vocab, size.dim)
    p.inputs = {"gazetteer": inputs / "gazetteer.csv", "vectors": inputs / "vectors.txt"}
    gen.write_gazetteer(p.inputs["gazetteer"])
    gen.write_vectors(table, p.inputs["vectors"])
    batches = []
    for b in range(size.batches):
        corpus = gen.make_corpus(seed, f"b{b}", gen.CorpusSize(size.records, size.vocab, size.dim, size.events), vocab)
        corpus_path, labels_path = inputs / f"b{b}_corpus.csv", inputs / f"b{b}_labels.csv"
        gen.write_corpus(corpus, corpus_path, seed + b)
        # labels are planted on the reference embeddings, so they do not lean on the program's
        context = _Context(table, corpus.tokens)
        embeddings = np.array([context.get().embed(tokens) for tokens in corpus.tokens])
        alphas = gen.planted_alphas(seed, b)
        gen.write_rank_labels(gen.plant_rank_labels(embeddings, corpus.days, corpus.coords, alphas), labels_path)
        batches.append({"corpus": corpus, "corpus_path": corpus_path, "labels": labels_path, "context": context})
    p.truth = {"batches": batches}
    return p


def ops_fit(p: Prepared, out: Path) -> list[Op]:
    ops = []
    for b, batch in enumerate(p.truth["batches"]):
        ops.extend(_batch_ops(p, out / f"b{b}", batch))
    return ops


def _batch_ops(p: Prepared, out: Path, batch: dict) -> list[Op]:
    corpus, labels = batch["corpus"], str(batch["labels"])
    label_ranks = checks.read_rank_labels(batch["labels"])
    fitted: dict[str, tuple[float, float]] = {}
    all_pairs = [(i, j) for i in range(len(corpus.ids)) for j in range(len(corpus.ids))]

    def keep_fitted():
        meta = checks.read_meta(out / "optimize_trace.csv.meta")
        fitted["pi"] = (float(meta["param_best_alpha1"]), float(meta["param_best_alpha2"]))

    def score_argv():
        return ["score", "--kind", "pi", "--alphas", ",".join(repr(a) for a in fitted["pi"])]

    paths = dict(p.inputs, corpus=batch["corpus_path"])
    every_row = list(range(len(corpus.ids)))
    return _corpus_ops(paths, out, corpus, batch["context"], every_row, with_encode=False) + [
        Op("optimize", out, lambda: ["optimize", "--labels", labels, "--kind", "pi"],
           lambda: checks.check_optimize(out, corpus, "pi", label_ranks, OPTIMIZE_PROBES), keep_fitted),
        Op("optimize", out, lambda: ["optimize", "--labels", labels, "--kind", "sigma"],
           lambda: checks.check_optimize(out, corpus, "sigma", label_ranks, OPTIMIZE_PROBES)),
        Op("score", out, score_argv,
           lambda: checks.check_scores(out, corpus, "pi", fitted["pi"], all_pairs)),
        Op("eval", out, lambda: ["eval", "--mode", "compare", "--labels", labels],
           lambda: checks.check_compare(out, label_ranks)),
    ]


def clear(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


# name -> (setup, ops of one pass)
WORKLOADS = {
    "pipeline": (setup_pipeline, ops_pipeline),
    "fit": (setup_fit, ops_fit),
    "layout": (setup_layout, ops_layout),
}
