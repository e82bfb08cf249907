#!/usr/bin/env python3
"""Walk through the five query-sentence similarity features.

Each feature scores how well one sentence answers a query, on [0, 1].
Each per-pair feature reads analysed text (``analyse`` tokenizes a text
once); the batch function reads the texts' tokens, and looks each distinct
word up once however many rows hold it.
Run:  python demos/01_similarity_features.py
"""

from querystance import (
    GlossDictionary,
    NounLexicon,
    analyse,
    feature_cosine,
    feature_exact,
    feature_neighborhood,
    feature_noun,
    feature_stemmed,
    fit_vocabulary,
    stem_tokens,
    task1_features,
)

QUERY = "does sun exposure cause skin cancer"

SENTENCES = [
    "Sun exposure causes skin cancers.",
    "Dermatologists link melanoma to childhood sunburns.",
    "The violin section rehearsed all afternoon.",
]

print(f"query: {QUERY!r}\n")

query = analyse(QUERY)
sentences = [analyse(s) for s in SENTENCES]
print(f"analysed query: tokens {query.tokens}\n                stems  {tuple(stem_tokens(query.tokens))}\n")

# 1) exact matching: word-by-word overlap, Dice-style
print("exact word overlap")
for s, a in zip(SENTENCES, sentences):
    print(f"  {feature_exact(query, a):.3f}  {s}")

# 2) stemmed matching: inflection no longer matters, so "causes" and
# "cancers" now line up with the query's "cause" and "cancer"
print("\nstemmed overlap")
for s, a in zip(SENTENCES, sentences):
    print(f"  {feature_stemmed(query, a):.3f}  {s}")

# 3) noun matching: what fraction of the query's nouns shows up?
nouns = NounLexicon(entries=frozenset({"sun", "exposure", "skin", "cancer"}))
print("\nquery-noun coverage")
for s, a in zip(SENTENCES, sentences):
    print(f"  {feature_noun(query, a, nouns):.3f}  {s}")

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
for s, a in zip(SENTENCES, sentences):
    print(f"  {feature_neighborhood(query, a, gloss):.3f}  {s}")

# 5) TF-IDF cosine: vector-space similarity over this sentence collection
vocab = fit_vocabulary([a.tokens for a in sentences])
print("\ntf-idf cosine")
for s, a in zip(SENTENCES, sentences):
    print(f"  {feature_cosine(query, a, vocab):.3f}  {s}")

# all five at once, in the order the relevance classifier consumes them:
# one batch of (query tokens, sentence tokens, vocabulary) triples gives one matrix, a row per sentence
batch = task1_features([(query.tokens, a.tokens, vocab) for a in sentences], gloss, nouns)
print(f"\nfeature batch of shape {batch.values.shape} [exact, stemmed, noun, neighborhood, cosine]")
for s, row in zip(SENTENCES, batch.values):
    print("  [" + ", ".join(f"{v:.3f}" for v in row) + f"]  {s}")
