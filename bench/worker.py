"""One workload run, in this process: set-up, timed passes, traced pass, result.

run.py starts this file in a fresh process with the BLAS thread count
fixed; call it directly only for debugging:

    python3 bench/worker.py --workload pipeline --seed 1 --seconds 20 --trace 0

Stages run one after another through `semfuse.cli.main`, a closed loop
with one caller. After every stage the workload's check reads what the
stage wrote. The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

import semfuse.cli as cli  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckError  # noqa: E402
from tracer import SpanStats, Tracer  # noqa: E402

SETUP_REPEATS = 3
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAGES = ("ingest", "encode", "embed", "reduce", "augment", "score", "optimize", "tsne", "eval", "sweep")
PER_LAYER = {
    **{f"cli.{stage}_s": "s" for stage in STAGES},
    "cli.self_s": "s",
    "cli.sidecar_s": "s",
    "cli.output_mb": "MB",
    "corpus.load_s": "s",
    "corpus.clean_s": "s",
    "geotime.features_s": "s",
    "embed.load_vectors_s": "s",
    "embed.fit_context_s": "s",
    "embed.embed_corpus_s": "s",
    "embed.io_s": "s",
    "embed.salience_calls": "count",
    "embed.salience_distinct_tokens": "count",
    "embed.salience_distinct_ratio": "ratio",
    "spectra.fit_pca_s": "s",
    "spectra.fit_pca_calls": "count",
    "spectra.delta_s": "s",
    "rankopt.pairwise_scores_s": "s",
    "rankopt.pairs_per_s": "1/s",
    "rankopt.optimize_s": "s",
    "rankopt.probes": "count",
    "rankopt.rank_matrix_s": "s",
    "rankopt.rank_matrix_calls": "count",
    "rankopt.load_labels_s": "s",
    "tsne.calibrate_s": "s",
    "tsne.cost_grad_s": "s",
    "tsne.cost_grad_calls": "count",
    "tsne.iter_ms": "ms",
    "tsne.write_s": "s",
    "evalkit.quality_s": "s",
    "evalkit.sweep_s": "s",
    "evalkit.compare_s": "s",
    "trace.overhead_s": "s",
}
CHECK_FAILURES = (CheckError, LookupError, ValueError, OSError)


@dataclass
class PassResult:
    seconds: float
    digests: list[dict[str, str]]
    bytes_written: int


class Runner:
    """Runs stage invocations, counts them, and collects check failures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_s = 0.0  # time of every operation outside its stage call: digests, checks

    def run_op(self, op: wl.Op) -> tuple[float, dict[str, str], int] | None:
        """One operation: the stage, then its check. None when the stage failed."""
        self.attempted += 1
        op_start = time.perf_counter()
        argv = ["--out-dir", str(op.out), "--seed", str(self.seed)] + op.argv()
        before = _file_stats(op.out)
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = cli.main(argv)
        except Exception:  # a crash in the program is a failed operation, not a crash of the run
            status = traceback.format_exc()
        seconds = time.perf_counter() - start
        if status != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: {status!s} {sink.getvalue().strip()}")
            return None
        after = _file_stats(op.out)
        changed = sorted(name for name, stat in after.items() if before.get(name) != stat)
        digests = {name: hashlib.sha256((op.out / name).read_bytes()).hexdigest() for name in changed}
        try:
            op.check()
            op.keep()
        except CHECK_FAILURES as exc:
            self.errors.append(f"{op.stage} check: {type(exc).__name__}: {exc}")
        self.check_s += time.perf_counter() - op_start - seconds
        return seconds, digests, sum(after[name][0] for name in changed)

    def run_pass(self, ops: list[wl.Op]) -> PassResult | None:
        """The workload's stage sequence; after a failed stage the rest count as failed."""
        result = PassResult(0.0, [], 0)
        for n, op in enumerate(ops):
            outcome = self.run_op(op)
            if outcome is None:
                self.attempted += len(ops) - n - 1
                self.failed += len(ops) - n - 1
                return None
            seconds, digests, written = outcome
            result.seconds += seconds
            result.digests.append(digests)
            result.bytes_written += written
        return result

    def run_setup_op(self, op: wl.Op) -> None:
        if self.run_op(op) is None:
            raise SetupFailed(self.errors[-1])


class SetupFailed(Exception):
    pass


def _file_stats(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.exists():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir() if p.is_file()}


def _tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: wl.Sizes,
                 work: Path, spans_path: Path | None = None) -> dict:
    """Set up, run timed passes for `seconds` (at least two passes in all), return the result."""
    setup, make_ops = wl.WORKLOADS[workload]
    runner = Runner(seed)
    wl.clear(work)
    setup_times, setup_digests = [], []
    try:
        for i in range(1 if trace else SETUP_REPEATS):
            root = work / f"setup{i}"
            check_s = runner.check_s
            start = time.perf_counter()
            prepared = setup(seed, root, sizes, runner.run_setup_op)
            # generation plus the set-up stage calls; their checks are not set-up work
            setup_times.append(time.perf_counter() - start - (runner.check_s - check_s))
            setup_digests.append(_tree_digest(root))
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
    except SetupFailed:
        return _result(runner, {})
    if any(d != setup_digests[0] for d in setup_digests):
        runner.errors.append("set-up is not deterministic: repeated set-ups wrote different bytes")

    out = work / "out"
    passes: list[PassResult] = []
    min_untraced = 1 if trace else 2
    start = time.perf_counter()
    while len(passes) < min_untraced or time.perf_counter() - start < seconds:
        wl.clear(out)
        result = runner.run_pass(make_ops(prepared, out))
        if result is None:
            return _result(runner, {})
        passes.append(result)
    untraced = statistics.median(p.seconds for p in passes)

    if trace:
        wl.clear(out)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(make_ops(prepared, out))
        finally:
            tracer.restore()
        if traced is None:
            return _result(runner, {})
        passes.append(traced)
        if spans_path is not None:
            tracer.write(spans_path)
        metrics = layer_metrics(SpanStats(tracer.spans), traced, untraced, sizes)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "pass_s": untraced,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kib * 1024 / 1e6,
        }
    if any(p.digests != passes[0].digests for p in passes):
        runner.errors.append("passes wrote different bytes: outputs or sidecars are not reproducible")
    result = _result(runner, metrics)
    result["pass_times"] = [p.seconds for p in passes]
    return result


def layer_metrics(stats: SpanStats, traced: PassResult, untraced_s: float, sizes: wl.Sizes) -> dict[str, float]:
    def median(*names: str) -> float:
        values = stats.durations(*names)
        return float(statistics.median(values)) if values else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    tokens = stats.args("embed.word_salience")
    pairs = sum(m * (m - 1) // 2 for m in stats.args("rankopt.pairwise_scores"))
    optimize_calls = stats.calls("rankopt.optimize_alphas")
    calibrate = stats.total("tsne.calibrate_sigmas", "tsne.conditional_p")
    layout_iterations = stats.calls("tsne.run_tsne") * sizes.tsne_iterations
    metrics = {f"cli.{stage}_s": median(f"cli.cmd_{stage}") for stage in STAGES}
    metrics.update({
        "cli.self_s": stats.layer_self("cli", exclude=("cli.write_sidecar",)),
        "cli.sidecar_s": stats.total("cli.write_sidecar"),
        "cli.output_mb": traced.bytes_written / 1e6,
        "corpus.load_s": stats.total("corpus.load_corpus", "corpus.resolve_coordinates"),
        "corpus.clean_s": stats.total("corpus.clean_corpus"),
        "geotime.features_s": stats.total("geotime.build_feature_matrix"),
        "embed.load_vectors_s": stats.total("embed.load_word_vectors"),
        "embed.fit_context_s": stats.total("embed.fit_context"),
        "embed.embed_corpus_s": stats.total("embed.embed_corpus"),
        "embed.io_s": stats.total("embed.import_embeddings", "embed.export_embeddings"),
        "embed.salience_calls": len(tokens),
        "embed.salience_distinct_tokens": len(set(tokens)),
        "embed.salience_distinct_ratio": ratio(len(set(tokens)), len(tokens)),
        "spectra.fit_pca_s": stats.total("spectra.fit_pca"),
        "spectra.fit_pca_calls": stats.calls("spectra.fit_pca"),
        "spectra.delta_s": stats.total("spectra.delta_cosine_experiment"),
        "rankopt.pairwise_scores_s": stats.total("rankopt.pairwise_scores"),
        "rankopt.pairs_per_s": ratio(pairs, stats.total("rankopt.pairwise_scores")),
        "rankopt.optimize_s": median("rankopt.optimize_alphas"),
        "rankopt.probes": ratio(stats.children_named("rankopt.optimize_alphas", "rankopt.rank_matrix"), optimize_calls),
        "rankopt.rank_matrix_s": stats.total("rankopt.rank_matrix"),
        "rankopt.rank_matrix_calls": stats.calls("rankopt.rank_matrix"),
        "rankopt.load_labels_s": stats.total("rankopt.load_rank_labels"),
        "tsne.calibrate_s": calibrate,
        "tsne.cost_grad_s": stats.total("tsne.tsne_cost_and_grad"),
        "tsne.cost_grad_calls": stats.calls("tsne.tsne_cost_and_grad"),
        "tsne.iter_ms": 1000.0 * ratio(stats.total("tsne.run_tsne") - calibrate, layout_iterations),
        "tsne.write_s": stats.total("tsne.write_coords_csv", "tsne.write_scatter_svg"),
        "evalkit.quality_s": stats.total("evalkit.top_pair_quality"),
        "evalkit.sweep_s": stats.total("evalkit.component_sweep"),
        "evalkit.compare_s": stats.total("evalkit.compare_rankings", "evalkit.save_rank_heatmap"),
        "trace.overhead_s": traced.seconds - untraced_s,
    })
    return metrics


def _result(runner: Runner, metrics: dict[str, float]) -> dict:
    units = {**END_TO_END, **PER_LAYER}
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
        "errors": runner.errors,
    }


# --- environment ---------------------------------------------------------


def _blas_threads() -> str:
    """Threads the loaded OpenBLAS reports, read through its C API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                          timeout=30, check=False)
    return done.stdout.strip() or "unknown"


def environment(seed: int) -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "semfuse").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": str(len(os.sched_getaffinity(0))),
        "git_sha": _git_sha(),
        "src_sha256": source.hexdigest(),
        "seed": str(seed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    for key, value in environment(args.seed).items():
        print(f"env {key}: {value}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), wl.SIZES["full"],
                              work, work_root / "spans" / f"{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in result.pop("errors"):
        print(f"error: {error}", file=sys.stderr)
    print(f"{args.workload} passes: " + ", ".join(f"{t:.3f} s" for t in result.pop("pass_times", [])))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
