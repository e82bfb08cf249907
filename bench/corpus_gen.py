"""Seeded synthetic corpora for the benchmark, written in the on-disk formats.

Every file the querystance CLI reads is produced here: the dataset CSVs,
the gloss dictionary (term<TAB>gloss), the noun list (one word per line)
and the sentiment lexicon (term<TAB>pos<TAB>neg, some terms on several
lines). The same seed gives byte-identical files.

Words are drawn from a Zipf distribution over invented stems with English
suffixes, so that Porter stemming merges surface forms. Relevant sentences
reuse their query's nouns, directly or through a gloss synonym; stance is
carried by sentiment words. A share of the labels is flipped on purpose:
the data is then not separable, and SMO at C=1e7 ends with many alphas at
the bound, as it does on real data.
"""

from __future__ import annotations

import csv
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

# paper census: training and test rows per query
PAPER_TRAIN = (68, 83, 61, 71, 65)
PAPER_TEST = (342, 414, 260, 279, 247)

ONSETS = ("b", "br", "c", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "l",
          "m", "n", "p", "pr", "qu", "r", "s", "st", "t", "tr", "v", "w", "z", "sh", "ch")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "io")
CODAS = ("", "n", "r", "l", "m", "st", "nd", "rk", "t", "s", "ck", "mp")
SUFFIXES = ("", "", "", "s", "ed", "ing", "er", "ly", "ness", "ation", "ful", "ment",
            "ive", "ize", "able", "ity")
FUNCTION_WORDS = ("the", "a", "of", "and", "to", "in", "is", "that", "for", "it", "on",
                  "with", "as", "was", "are", "be", "this", "by", "at", "from", "or",
                  "not", "can", "has", "have", "they", "but", "more", "some", "than")
QUERY_FRAMES = ("does {a} improve {b}", "is {a} better than {b}", "can {a} reduce {b}",
                "should {a} replace {b}", "does {a} cause {b}", "is {a} safe for {b}",
                "will {a} help {b}", "are {a} and {b} linked")
STANCES = ("support", "oppose", "neutral")
STREAM_MODEL_SEED = 0  # query_stream's training rows and lexicons
NOUN_SHARE = 0.3  # share of vocabulary words in the noun list
RELEVANCE_NOISE = 0.08  # share of rows given a wrong relevance label
STANCE_NOISE = 0.10  # share of rows given a wrong stance label
# query_stream serves five unseen queries, each first as one request with
# the census's test size for a query. The follow-ups are an assumed tail:
# a few new sentences for one of the same queries, five each of 1 to 32.
# Of the 35 requests a pass sends, p50 falls in the middle of the
# 8-sentence ones and p90 in the middle of the 260-sentence ones.
STREAM_FOLLOW_UPS = (1, 2, 4, 8, 16, 32) * 5


@dataclass(frozen=True)
class Profile:
    """Size and shape of one workload's corpus."""

    train_counts: tuple[int, ...]
    test_counts: tuple[int, ...]
    stems: int  # distinct invented stems before suffixing
    zipf_s: float
    sentence_len: tuple[int, int]  # filler words per sentence, inclusive range
    gloss_share: float  # share of vocabulary words with a gloss entry
    gloss_sentences: tuple[int, int]
    # query_stream only: sentences of each unseen query's first request
    stream_queries: tuple[int, ...] = ()


PAPER_PROFILE = Profile(
    train_counts=PAPER_TRAIN, test_counts=PAPER_TEST, stems=900, zipf_s=1.05,
    sentence_len=(8, 18), gloss_share=0.35, gloss_sentences=(2, 4),
)
PROFILES = {
    "paper_cli": PAPER_PROFILE,
    "query_stream": Profile(
        train_counts=PAPER_TRAIN, test_counts=(), stems=2400, zipf_s=0.95,
        sentence_len=(18, 40), gloss_share=0.6, gloss_sentences=(3, 6),
        stream_queries=PAPER_TEST,
    ),
}


@dataclass
class Row:
    query_id: str
    query_text: str
    sentence_text: str
    relevance: str
    stance: str


@dataclass
class Corpus:
    train: list[Row]
    test: list[Row]
    requests: list[list[Row]]  # each request: candidate sentences of one unseen query
    glosses: dict[str, str]
    nouns: list[str]
    sentiment_lines: list[tuple[str, float, float]]


class _Zipf:
    """Seeded draws from a Zipf(s) distribution over a word list."""

    def __init__(self, words: list[str], s: float):
        self.words = words
        self.cum = list(accumulate(1.0 / (rank ** s) for rank in range(1, len(words) + 1)))

    def draw(self, rng: random.Random) -> str:
        return self.words[bisect(self.cum, rng.random() * self.cum[-1])]


def _invent_stems(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    stems: list[str] = []
    while len(stems) < n:
        syllables = rng.choice((1, 2, 2, 3))
        stem = "".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(syllables))
        stem += rng.choice(CODAS)
        if len(stem) >= 3 and stem not in taken:
            taken.add(stem)
            stems.append(stem)
    return stems


def _surface_forms(rng: random.Random, stems: list[str]) -> list[str]:
    """One to three suffixed forms per stem, shuffled so rank is not alphabetical."""
    words = []
    for i, stem in enumerate(stems):
        for suffix in rng.sample(SUFFIXES, 1 + i % 3):
            words.append(stem + suffix)
    words = list(dict.fromkeys(words))
    rng.shuffle(words)
    return words


def _sentence(rng: random.Random, zipf: _Zipf, profile: Profile, extra: list[str]) -> str:
    lo, hi = profile.sentence_len
    words = [zipf.draw(rng) if rng.random() < 0.7 else rng.choice(FUNCTION_WORDS)
             for _ in range(rng.randint(lo, hi))]
    for word in extra:
        words.insert(rng.randrange(len(words) + 1), word)
    text = " ".join(words)
    # web-like punctuation and casing; the tokenizer must strip it
    if rng.random() < 0.3:
        text = text.capitalize()
    return text + rng.choice((".", ".", "!", "?", " ...", ";"))


class _Generator:
    def __init__(self, profile: Profile, seed: int | str):
        self.p = profile
        self.rng = random.Random(seed)
        taken = set(FUNCTION_WORDS)
        rng = self.rng
        self.vocab = _surface_forms(rng, _invent_stems(rng, profile.stems, taken))
        self.zipf = _Zipf(self.vocab, profile.zipf_s)
        self.positive = _surface_forms(rng, _invent_stems(rng, 40, taken))[:60]
        self.negative = _surface_forms(rng, _invent_stems(rng, 40, taken))[:60]
        self.topic_nouns = _invent_stems(
            rng, 2 * (len(profile.train_counts) + len(profile.stream_queries)), taken)
        self.synonyms: dict[str, list[str]] = {}
        self.glosses: dict[str, str] = {}
        self.nouns: set[str] = set()
        self.query_no = 0
        self.noisy = 0

    def _gloss_text(self, mention: str | None) -> str:
        lo, hi = self.p.gloss_sentences
        sentences = []
        for i in range(self.rng.randint(lo, hi)):
            words = [self.zipf.draw(self.rng) for _ in range(self.rng.randint(5, 12))]
            if mention is not None and i == 0:
                words.insert(self.rng.randrange(len(words) + 1), mention)
            sentences.append(" ".join(words).capitalize() + ".")
        return " ".join(sentences)

    def new_query(self) -> tuple[str, str, list[str]]:
        a, b = self.topic_nouns[2 * self.query_no], self.topic_nouns[2 * self.query_no + 1]
        self.query_no += 1
        nouns = [a, b]
        self.nouns.update(nouns)
        for noun in nouns:
            syns = [f"{noun}{tail}" for tail in ("ette", "oid", "ster")]
            self.synonyms[noun] = syns
            for syn in syns:
                self.glosses[syn] = self._gloss_text(mention=noun)
        text = self.rng.choice(QUERY_FRAMES).format(a=a, b=b)
        return f"q{self.query_no:03d}", text, nouns

    def plan(self, n: int) -> list[tuple[bool, str, bool]]:
        """Exact label counts for n rows of one query, in shuffled order.

        Each entry is (relevant, stance, noisy). Counts are fixed shares
        rather than independent draws, so that seeds differ in wording, not
        in how hard the data is: SV counts and solver time then vary little
        from seed to seed.
        """
        n_rel = round(0.55 * n)
        n_support, n_oppose = round(0.45 * n_rel), round(0.4 * n_rel)
        rows = ([(True, "support")] * n_support + [(True, "oppose")] * n_oppose
                + [(True, "neutral")] * (n_rel - n_support - n_oppose)
                + [(False, "neutral")] * (n - n_rel))
        self.rng.shuffle(rows)
        noisy = set(self.rng.sample(range(n), round((RELEVANCE_NOISE + STANCE_NOISE) * n)))
        return [(rel, stance, i in noisy) for i, (rel, stance) in enumerate(rows)]

    def row(self, query: tuple[str, str, list[str]], relevant: bool, stance: str, noisy: bool) -> Row:
        """One sentence written for (relevant, stance); a noisy row gets a wrong label."""
        rng = self.rng
        qid, qtext, nouns = query
        extra: list[str] = []
        if relevant:  # every relevant sentence names the topic, directly or by a synonym
            for i, noun in enumerate(nouns):
                roll = rng.random()
                if roll < 0.7:
                    extra.append(noun)
                elif roll < 0.9 or i == len(nouns) - 1 and not extra:
                    extra.append(rng.choice(self.synonyms[noun]))
        elif rng.random() < 0.05:  # off-topic sentences seldom name the topic
            extra.append(rng.choice(nouns))
        n_opinion = rng.randint(1, 3)
        if stance == "support":
            extra += [rng.choice(self.positive) for _ in range(n_opinion)]
        elif stance == "oppose":
            extra += [rng.choice(self.negative) for _ in range(n_opinion)]
        if rng.random() < 0.3:  # stray sentiment in either direction
            extra.append(rng.choice(self.positive + self.negative))
        if noisy:
            self.noisy += 1
            if self.noisy % 2:  # relevance flipped; a flipped-in row takes a stance
                relevant = not relevant
                stance = STANCES[self.noisy % 3] if relevant else "neutral"
            elif relevant:
                stance = STANCES[(STANCES.index(stance) + 1) % 3]
        return Row(qid, qtext, _sentence(rng, self.zipf, self.p, extra),
                   "relevant" if relevant else "irrelevant", stance)

    def rows(self, query, n: int) -> list[Row]:
        return [self.row(query, *entry) for entry in self.plan(n)]

    def lexicons(self) -> list[tuple[str, float, float]]:
        """Glosses and nouns for vocabulary words; returns the sentiment lines."""
        rng = self.rng
        for word in self.vocab:
            if rng.random() < self.p.gloss_share:
                self.glosses.setdefault(word, self._gloss_text(mention=None))
            if rng.random() < NOUN_SHARE:
                self.nouns.add(word)
        sentiment = []
        for word in self.positive:
            for _ in range(rng.randint(1, 2)):  # several senses -> averaged on load
                sentiment.append((word, round(rng.uniform(0.5, 1.0), 3), round(rng.uniform(0, 0.3), 3)))
        for word in self.negative:
            for _ in range(rng.randint(1, 2)):
                sentiment.append((word, round(rng.uniform(0, 0.3), 3), round(rng.uniform(0.5, 1.0), 3)))
        for word in rng.sample(self.vocab, len(self.vocab) // 20):  # weak, mostly tied scores
            score = round(rng.uniform(0, 0.2), 3)
            sentiment.append((word, score, score))
        return sentiment


def generate(workload: str, seed: int, part: int = 0) -> Corpus:
    """Corpus ``part`` of the workload for this seed; same arguments, same corpus.

    For query_stream the seed draws only the request stream. The training
    rows and lexicons stand for a deployed model and are the same for every
    seed, so that runs differ in traffic, not in the model serving it.
    """
    profile = PROFILES[workload]
    gen = _Generator(profile, STREAM_MODEL_SEED if profile.stream_queries else f"{seed}/{part}")
    queries = [gen.new_query() for _ in profile.train_counts]
    train = [row for q, n in zip(queries, profile.train_counts) for row in gen.rows(q, n)]
    test = [row for q, n in zip(queries, profile.test_counts) for row in gen.rows(q, n)]
    sentiment = gen.lexicons()
    gen.rng = random.Random(f"{seed}/{part}")
    served = [gen.new_query() for _ in profile.stream_queries]
    requests = [gen.rows(q, n) for q, n in zip(served, profile.stream_queries)]
    if served:
        requests += [gen.rows(served[i % len(served)], n) for i, n in enumerate(STREAM_FOLLOW_UPS)]
    gen.rng.shuffle(requests)
    return Corpus(train, test, requests, gen.glosses, sorted(gen.nouns), sentiment)


def write_dataset(rows: list[Row], path: Path) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["query_id", "query_text", "sentence_text", "relevance", "stance"])
        for r in rows:
            writer.writerow([r.query_id, r.query_text, r.sentence_text, r.relevance, r.stance])
    return path


def write_files(corpus: Corpus, directory: Path) -> dict[str, Path]:
    """Datasets and lexicons on disk; returns their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "train": write_dataset(corpus.train, directory / "train.csv"),
        "gloss": directory / "gloss.tsv",
        "nouns": directory / "nouns.txt",
        "sentiment": directory / "sentiment.tsv",
    }
    if corpus.test:
        paths["test"] = write_dataset(corpus.test, directory / "test.csv")
    with open(paths["gloss"], "w", encoding="utf-8") as handle:
        handle.write("# synthetic gloss dictionary\n")
        for term, gloss in sorted(corpus.glosses.items()):
            handle.write(f"{term}\t{gloss}\n")
    with open(paths["nouns"], "w", encoding="utf-8") as handle:
        handle.writelines(word + "\n" for word in corpus.nouns)
    with open(paths["sentiment"], "w", encoding="utf-8") as handle:
        handle.writelines(f"{w}\t{p}\t{n}\n" for w, p, n in corpus.sentiment_lines)
    return paths

