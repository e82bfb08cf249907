#!/usr/bin/env python3
"""Walk through the five query-sentence similarity features.

Each feature scores how well one sentence answers a query, on [0, 1].
Each per-pair feature reads the two texts' token lists (``tokenize``); the
batch function reads the sentences' word table (``WordTable``), which counts
each sentence once, and looks each distinct word up once however many rows
hold it.
Run:  python demos/01_similarity_features.py
"""

from querystance import (
    GlossDictionary,
    WordTable,
    feature_cosine,
    feature_exact,
    feature_neighborhood,
    feature_noun,
    feature_stemmed,
    fit_vocabulary,
    stem_tokens,
    task1_features,
    tokenize,
)

QUERY = "does sun exposure cause skin cancer"

SENTENCES = [
    "Sun exposure causes skin cancers.",
    "Dermatologists link melanoma to childhood sunburns.",
    "The violin section rehearsed all afternoon.",
]

print(f"query: {QUERY!r}\n")

query = tokenize(QUERY)
sentences = [tokenize(s) for s in SENTENCES]
print(f"query tokens {query}\n      stems  {stem_tokens(query)}\n")

# 1) exact matching: word-by-word overlap, Dice-style
print("exact word overlap")
for s, tokens in zip(SENTENCES, sentences):
    print(f"  {feature_exact(query, tokens):.3f}  {s}")

# 2) stemmed matching: inflection no longer matters, so "causes" and
# "cancers" now line up with the query's "cause" and "cancer"
print("\nstemmed overlap")
for s, tokens in zip(SENTENCES, sentences):
    print(f"  {feature_stemmed(query, tokens):.3f}  {s}")

# 3) noun matching: what fraction of the query's nouns shows up?
nouns = frozenset({"sun", "exposure", "skin", "cancer"})
print("\nquery-noun coverage")
for s, tokens in zip(SENTENCES, sentences):
    print(f"  {feature_noun(query, tokens, nouns):.3f}  {s}")

# 4) neighborhood matching: a dictionary gloss can bridge vocabulary.
# "melanoma" never appears in the query, but its gloss mentions both
# "skin" and "cancer", so the second sentence now scores.
gloss = GlossDictionary(
    entries={
        "melanoma": (
            "Melanoma is the most serious type of skin cancer. "
            "It develops in the cells that produce melanin. "
            "It can spread if untreated."
        )
    }
)
print("\ngloss-widened overlap")
for s, tokens in zip(SENTENCES, sentences):
    print(f"  {feature_neighborhood(query, tokens, gloss):.3f}  {s}")

# 5) TF-IDF cosine: vector-space similarity over this sentence collection
vocab = fit_vocabulary(sentences)
print("\ntf-idf cosine")
for s, tokens in zip(SENTENCES, sentences):
    print(f"  {feature_cosine(query, tokens, vocab):.3f}  {s}")

# all five at once, in the order the relevance classifier consumes them: the
# sentences' word table and a (query tokens, vocabulary) pair per sentence give
# one matrix, a row per sentence
batch = task1_features([(query, vocab)] * len(sentences), WordTable.of(sentences), gloss, nouns).to_dense()
print(f"\nfeature batch of shape {batch.shape} [exact, stemmed, noun, neighborhood, cosine]")
for s, row in zip(SENTENCES, batch):
    print("  [" + ", ".join(f"{v:.3f}" for v in row) + f"]  {s}")
