#!/usr/bin/env python3
"""Train both stages on a small synthetic corpus and chain them.

Stage 1 labels each sentence relevant/irrelevant to its query; stage 2
labels the sentences support/oppose/neutral. Stage 2's relevance-flag
feature consumes stage 1's predictions at inference time.

Run:  python demos/03_full_pipeline.py
"""

import random

from querystance import (
    GlossDictionary,
    LexiconSet,
    PipelineConfig,
    SentenceRecord,
    SentimentLexicon,
    evaluate,
    predict_chain,
    train_task1,
    train_task2,
)

POSITIVE = ("beneficial", "safe", "effective")
NEGATIVE = ("harmful", "risky", "damaging")
QUERIES = [
    ("q_coffee", "does coffee improve memory", ("coffee", "memory")),
    ("q_screen", "does screen time harm sleep", ("screen", "sleep")),
    ("q_yoga", "can yoga reduce back pain", ("yoga", "pain")),
]
OFFTOPIC = ("tractor", "violin", "galaxy", "pottery", "chess")


def build_corpus(seed=0, per_query=30):
    rng = random.Random(seed)
    records = []
    for query_id, query_text, nouns in QUERIES:
        for i in range(per_query):
            if i % 3 == 2:  # every third sentence is off-topic
                words = [rng.choice(OFFTOPIC) for _ in range(5)]
                relevance, stance = "irrelevant", "neutral"
            else:
                stance = "support" if i % 2 == 0 else "oppose"
                opinion = rng.choice(POSITIVE if stance == "support" else NEGATIVE)
                words = ["studies", "say", *nouns, "is", opinion]
                relevance = "relevant"
            records.append(
                SentenceRecord(query_id, query_text, " ".join(words), relevance, stance)
            )
    return records


records = build_corpus()
lexicons = LexiconSet(
    gloss=GlossDictionary(),
    sentiment=SentimentLexicon(
        entries={w: (0.8, 0.0) for w in POSITIVE} | {w: (0.0, 0.8) for w in NEGATIVE}
    ),
    nouns=frozenset(n for _, _, ns in QUERIES for n in ns),
)

# reference settings: C=1e7 with a poly kernel (gamma 0.006) for stage 1
# and an RBF kernel (gamma 0.005) for stage 2
config = PipelineConfig(seed=0)
print(f"corpus: {len(records)} sentences over {len(QUERIES)} queries")

pipeline = train_task1(records, lexicons, config)
pipeline = train_task2(records, [r.relevance for r in records], lexicons, config, pipeline=pipeline)
print(f"stage-2 vocabulary: {pipeline.task2.vocabulary.size} terms "
      f"(feature dimension {pipeline.task2.vocabulary.size + 4})")

# stage 1 then stage 2 on its predictions, each sentence tokenized once for both
relevance, stance = predict_chain(pipeline, records)

print("\nper-query relevance accuracy")
report = evaluate([r.relevance for r in records], relevance, [r.query_id for r in records])
print(report.render_table())

print("\nper-query stance accuracy (chained on predicted relevance)")
report = evaluate([r.stance for r in records], stance, [r.query_id for r in records])
print(report.render_table())

print("\nsample predictions")
for record, rel, st in list(zip(records, relevance, stance))[:6]:
    print(f"  [{rel:>10} / {st:>7}]  {record.sentence_text}")
