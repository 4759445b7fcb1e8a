"""The whole pipeline through the command-line driver.

Every stage reads fixed-name CSV files from the output directory and
writes its own, plus a .meta sidecar with input hashes, parameters, and
the seed. Running the same stages twice with the same seed reproduces
every byte, sidecars included.

Equivalent shell session:

    semfuse --out-dir out --seed 7 ingest --corpus corpus.csv --gazetteer gazetteer.csv
    semfuse --out-dir out --seed 7 encode --variant all_features
    semfuse --out-dir out --seed 7 embed --word-vectors vectors.txt
    semfuse --out-dir out --seed 7 reduce --k 4
    semfuse --out-dir out --seed 7 augment
    semfuse --out-dir out --seed 7 score --kind pi --alphas 0.02,9.55
    semfuse --out-dir out --seed 7 tsne --iterations 300 --perplexity 5
    semfuse --out-dir out --seed 7 eval --mode quality --labels labels.csv --top-n 5
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from semfuse.cli import main
from semfuse.corpus import preprocess

texts = {
    "t1": ("Debt ceiling vote delayed in the senate", 1312200000, "washington dc"),
    "t2": ("Senate leaders trade blame over the budget", 1312290000, "washington dc"),
    "t3": ("Budget talks resume after the weekend", 1312380000, "washington dc"),
    "t4": ("Wildfire closes the canyon highway", 1312470000, "los angeles"),
    "t5": ("Crews contain the ridge wildfire", 1312560000, "los angeles"),
    "t6": ("Transit strike snarls the morning commute", 1312650000, "chicago"),
    "t7": ("City council weighs the transit contract", 1312740000, "chicago"),
    "t8": ("Heat wave strains the power grid", 1312830000, "houston"),
    "t9": ("Rolling outages hit the suburbs", 1312920000, "houston"),
    "t10": ("Grid operator urges conservation", 1313010000, "houston"),
}

# every input and output lives in a temporary directory, removed on exit
with tempfile.TemporaryDirectory(prefix="semfuse_pipeline_") as tmp:
    workdir = Path(tmp)
    out = workdir / "out"

    corpus = workdir / "corpus.csv"
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write("id,text,timestamp,location\n")
        for rid, (text, ts, loc) in texts.items():
            fh.write(f'{rid},"{text}",{ts},{loc}\n')

    gazetteer = workdir / "gazetteer.csv"
    gazetteer.write_text(
        "location,lat,lon\n"
        "washington dc,38.9072,-77.0369\n"
        "los angeles,34.0522,-118.2437\n"
        "chicago,41.8781,-87.6298\n"
        "houston,29.7604,-95.3698\n",
        encoding="utf-8",
    )

    # toy word vectors covering the corpus vocabulary
    vocab = sorted({tok for text, _, _ in texts.values() for tok in preprocess(text)})
    rng = np.random.default_rng(7)
    vectors = workdir / "vectors.txt"
    with open(vectors, "w", encoding="utf-8") as fh:
        for tok in vocab:
            values = " ".join(repr(round(float(v), 4)) for v in rng.normal(size=6))
            fh.write(f"{tok} {values}\n")

    labels = workdir / "labels.csv"
    labels.write_text(
        "id_a,id_b,score_1,score_2\n"
        "t1,t2,4,3\nt1,t3,3,3\nt2,t3,4,4\n"
        "t4,t5,4,4\nt6,t7,3,4\n"
        "t8,t9,4,3\nt8,t10,3,3\nt9,t10,4,4\n"
        "t1,t4,0,1\nt2,t8,0,0\nt5,t6,1,0\nt3,t10,0,1\n",
        encoding="utf-8",
    )

    # the stages run in the temporary directory with a relative --out-dir, so the output paths
    # they print are the same on every run
    base = ["--out-dir", "out", "--seed", "7"]
    stages = [
        ["ingest", "--corpus", str(corpus), "--gazetteer", str(gazetteer)],
        ["encode", "--variant", "all_features"],
        ["embed", "--word-vectors", str(vectors)],
        ["reduce", "--k", "4"],
        ["augment"],
        ["score", "--kind", "pi", "--alphas", "0.02,9.55"],
        ["tsne", "--iterations", "300", "--perplexity", "5"],
        ["eval", "--mode", "quality", "--labels", str(labels), "--top-n", "5"],
    ]
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for stage in stages:
            rc = main(base + stage)
            assert rc == 0, f"stage {stage[0]} failed"
    finally:
        os.chdir(home)

    print("\nproduced files:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name:25s} {path.stat().st_size:6d} bytes")

    print("\nsidecar for the similarity matrix:")
    print((out / "scores.csv.meta").read_text(encoding="utf-8"))
