"""Synthetic corpora and lexicons for pipeline and CLI tests.

The generated dataset is separable by construction: relevant sentences
reuse nouns from their query (sometimes through a gloss synonym),
irrelevant sentences draw from a disjoint pool, and stance is carried
by sentiment words. Only irrelevant sentences are neutral.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from querystance.corpus import SentenceRecord
from querystance.lexicons import GlossDictionary, SentimentLexicon
from querystance.pipeline import LexiconSet

QUERIES = [
    ("q_coffee", "does coffee improve memory", ("coffee", "memory")),
    ("q_desk", "are standing desks better for posture", ("desks", "posture")),
    ("q_screen", "does screen time harm sleep", ("screen", "sleep")),
    ("q_yoga", "can yoga reduce back pain", ("yoga", "pain")),
    ("q_juice", "is juice healthier than soda", ("juice", "soda")),
]

# gloss synonyms whose definitions mention a query noun
GLOSSES = {
    "espresso": "Espresso is a concentrated form of coffee. It is brewed under pressure. Many drink it daily.",
    "insomnia": "Insomnia is the inability to sleep. It affects concentration. Stress makes it worse.",
    "backache": "Backache is pain felt in the back. It is common in adults. Rest may help.",
    "cola": "Cola is a sweetened soda. It contains caffeine. It is sold worldwide.",
}

POSITIVE_WORDS = ("helpful", "beneficial", "safe", "effective", "protective", "excellent")
NEGATIVE_WORDS = ("harmful", "dangerous", "toxic", "risky", "damaging", "worse")
FILLER_WORDS = ("people", "study", "report", "results", "daily", "often", "group", "found")
OFFTOPIC_WORDS = ("tractor", "violin", "galaxy", "pottery", "chess", "lantern", "carpet", "marble")

STANCES = ("support", "oppose", "neutral")


def lexicon_objects() -> LexiconSet:
    nouns = {noun for _, _, group_nouns in QUERIES for noun in group_nouns}
    nouns.update(FILLER_WORDS[:2])
    sentiment = {}
    for word in POSITIVE_WORDS:
        sentiment[word] = (0.8, 0.0)
    for word in NEGATIVE_WORDS:
        sentiment[word] = (0.0, 0.8)
    return LexiconSet(
        gloss=GlossDictionary(entries=dict(GLOSSES)),
        sentiment=SentimentLexicon(entries=sentiment),
        nouns=frozenset(nouns),
    )


def make_records(seed: int = 0, per_query: int = 40) -> list[SentenceRecord]:
    """Labeled corpus; roughly 60% relevant rows split support/oppose."""
    rng = random.Random(seed)
    records = []
    for query_id, query_text, nouns in QUERIES:
        for i in range(per_query):
            relevant = i % 5 != 0 and i % 5 != 3  # 3 of 5 rows relevant
            if relevant:
                stance = "support" if i % 2 == 0 else "oppose"
                opinion = rng.choice(POSITIVE_WORDS if stance == "support" else NEGATIVE_WORDS)
                words = [rng.choice(FILLER_WORDS), *nouns, "is", opinion,
                         rng.choice(FILLER_WORDS)]
            else:
                stance = "neutral"
                words = [rng.choice(OFFTOPIC_WORDS) for _ in range(5)]
            rng.shuffle(words)
            records.append(
                SentenceRecord(
                    query_id=query_id,
                    query_text=query_text,
                    sentence_text=" ".join(words),
                    relevance="relevant" if relevant else "irrelevant",
                    stance=stance,
                )
            )
    return records


def write_dataset_csv(records, path: Path, with_labels: bool = True) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["query_id", "query_text", "sentence_text", "relevance", "stance"])
        for r in records:
            writer.writerow([
                r.query_id,
                r.query_text,
                r.sentence_text,
                (r.relevance or "") if with_labels else "",
                (r.stance or "") if with_labels else "",
            ])
    return path


def write_lexicon_files(directory: Path) -> dict[str, Path]:
    """Write the synthetic lexicons in their on-disk formats."""
    directory = Path(directory)
    gloss_path = directory / "gloss.tsv"
    with open(gloss_path, "w", encoding="utf-8") as handle:
        handle.write("# synthetic gloss dictionary\n")
        for term, gloss in GLOSSES.items():
            handle.write(f"{term}\t{gloss}\n")
    sentiment_path = directory / "sentiment.tsv"
    with open(sentiment_path, "w", encoding="utf-8") as handle:
        for word in POSITIVE_WORDS:
            handle.write(f"{word}\t0.8\t0.0\n")
        for word in NEGATIVE_WORDS:
            handle.write(f"{word}\t0.0\t0.8\n")
    noun_path = directory / "nouns.txt"
    lexicons = lexicon_objects()
    with open(noun_path, "w", encoding="utf-8") as handle:
        for word in sorted(lexicons.nouns):
            handle.write(word + "\n")
    return {"gloss": gloss_path, "sentiment": sentiment_path, "nouns": noun_path}


def make_census_records(counts: dict[str, int], labeled: bool = True, seed: int = 0) -> list[SentenceRecord]:
    """A corpus with an exact per-query row census."""
    rng = random.Random(seed)
    records = []
    for qid, count in counts.items():
        for i in range(count):
            relevant = i % 2 == 0
            stance = ("support" if i % 4 == 0 else "oppose") if relevant else "neutral"
            records.append(
                SentenceRecord(
                    query_id=qid,
                    query_text=f"topic {qid}",
                    sentence_text=f"sentence {i} about {qid} " + rng.choice(FILLER_WORDS),
                    relevance=("relevant" if relevant else "irrelevant") if labeled else None,
                    stance=stance if labeled else None,
                )
            )
    return records
