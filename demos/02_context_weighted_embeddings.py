"""Context-weighted sentence embeddings.

A word matters more when it is unusual for the corpus at hand. The
context model captures the corpus mean and covariance over word vectors;
a word's salience is its Mahalanobis distance from that mean. Sentence
vectors are salience-weighted averages, normalized to unit length, so
two sentences compare by a plain dot product.
"""

import numpy as np

from semfuse.embed import WordVectorTable, embed_sentence, fit_context, token_saliences

rng = np.random.default_rng(42)

# a toy vocabulary: political words cluster, one outlier word far away
vocab = ["debt", "ceiling", "budget", "vote", "senate", "wildfire"]
vectors = {}
for i, word in enumerate(vocab[:-1]):
    vectors[word] = rng.normal(loc=0.0, scale=0.3, size=8)
vectors["wildfire"] = rng.normal(loc=3.0, scale=0.3, size=8)
table = WordVectorTable(dim=8, vectors=vectors)

# each document is an (id, tokens) pair, as clean_corpus returns them
docs = [
    ("d1", ("debt", "ceiling", "vote")),
    ("d2", ("budget", "vote", "senate")),
    ("d3", ("wildfire", "senate")),
]

ctx = fit_context(docs, table)
print(f"context ridge: {ctx.ridge:.6f}")

print("\nword salience in this corpus (higher = more distinctive):")
for word, salience in token_saliences(vocab, ctx, table).items():
    print(f"  {word:10s} {salience:8.3f}")

# each sentence gives (vector, fallback)
e1, _ = embed_sentence(("debt", "ceiling", "vote"), ctx, table)
e2, _ = embed_sentence(("budget", "senate", "vote"), ctx, table)
e3, _ = embed_sentence(("wildfire",), ctx, table)
print(f"\nall sentence vectors have unit norm: "
      f"{np.linalg.norm(e1):.6f}, {np.linalg.norm(e2):.6f}")

print(f"\nsim(debt-ceiling-vote, budget-senate-vote) = {e1 @ e2:.4f}")
print(f"sim(debt-ceiling-vote, wildfire)          = {e1 @ e3:.4f}")

# when every usable word has zero salience the embedding falls back to
# the unweighted mean and flags it; normal sentences never do
_, fallback = embed_sentence(("debt", "debt"), ctx, table)
print(f"\nfallback flag on a normal sentence: {fallback}")
