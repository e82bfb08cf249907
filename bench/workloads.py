"""The benchmark's two workloads and the output checks they make.

``paper_cli`` drives the CLI in-process (``cli.main``) on real CSV,
lexicon and model files: train task 1, train task 2, predict --chain,
evaluate. ``query_stream`` trains and reloads models during set-up, then
times one closed-loop client sending unseen-query requests through
``predict_task1`` -> ``predict_task2``.

Every call into the package goes through a module attribute
(``qs_pipeline.predict_task1``, ``cli.main``), so that the tracer's
rebinding sees it.

Timings are given twice: at the reference host speed (see ``hostprobe``),
which the metrics use, and as wall time, under ``"wall"``. Both leave out
the host probe's own time. The run sets ``clock`` before the first set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus_gen
from querystance import cli
from querystance import corpus as qs_corpus
from querystance import pipeline as qs_pipeline
from querystance.corpus import RELEVANCE_LABELS, STANCE_LABELS, SentenceRecord
from querystance.errors import QueryStanceError
from querystance.features import fit_vocabulary
from querystance.textproc import tokenize

# Floors on the paper's score, in %, per workload: about four standard
# deviations under the median over 20 seeds on the package as first benchmarked.
ACCURACY_FLOORS = {
    "paper_cli": {"relevance_acc": 63.0, "stance_acc": 67.0},
    "query_stream": {"relevance_acc": 63.0, "stance_acc": 65.0},
}
ROUND_TRIP_STRIDE = 8  # every 8th test row is predicted again, from disk and in memory
ROUND_TRIP_REQUESTS = 20


@dataclass
class Ops:
    """Operations attempted and failed: commands, requests and checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def digest(*label_lists) -> str:
    h = hashlib.sha256()
    for labels in label_lists:
        h.update("\n".join(map(str, labels)).encode())
        h.update(b"\0")
    return h.hexdigest()


def macro_accuracy(gold, predicted, query_ids) -> float:
    report = qs_pipeline.evaluate(list(gold), list(predicted), list(query_ids))
    return report.macro_average


def input_properties(sentences, query_ids, unseen, gloss_terms, task2_sentences) -> dict:
    """What the workload's inputs look like, recorded next to each result."""
    tokens = [tokenize(s) for s in sentences]
    words = [w for ts in tokens for w in ts]
    return {
        "rows": len(sentences),
        "queries": len(set(query_ids)),
        "unseen_query_share": len(set(unseen)) / len(set(query_ids)),
        "mean_tokens_per_sentence": len(words) / len(tokens),
        "vocabulary_types": len(set(words)),
        "gloss_hit_share": sum(w in gloss_terms for w in words) / len(words),
        "task2_dims": fit_vocabulary([tokenize(s) for s in task2_sentences]).size + 4,
    }


def model_stats(pipe, task: int) -> dict:
    """Support-vector counts of one task's model, read from the trained object."""
    model = getattr(pipe, f"task{task}_model")
    c = getattr(pipe.config, f"task{task}").c
    coefs = np.concatenate([m.dual_coefs for m in model.machines])
    stored = np.vstack([m.support_vectors for m in model.machines])
    return {
        "n_sv": int(stored.shape[0]),
        "sv_at_c": int(np.sum(np.isclose(np.abs(coefs), c, rtol=1e-9))),
        "sv_unique_ratio": np.unique(stored, axis=0).shape[0] / stored.shape[0],
    }


def _no_op() -> None:
    pass


class _Capture:
    """Keeps the in-memory pipelines the CLI trains, for the round-trip check."""

    def __init__(self):
        self.pipelines: dict[int, object] = {}
        self._original = cli.save_task_model

    def __enter__(self):
        def capture(pipe, task, path):
            self.pipelines[task] = pipe
            return self._original(pipe, task, path)

        cli.save_task_model = capture
        return self

    def __exit__(self, *exc):
        cli.save_task_model = self._original


class CliWorkload:
    """Train, train, predict --chain and evaluate through ``cli.main``.

    A run sets up ``corpora`` corpora drawn from its seed and cycles through
    them. Solver time and support-vector counts vary from one training set
    to the next; the median over several sets keeps that variation from
    dominating the spread between runs.
    """

    def __init__(self, name: str, seed: int, workdir: Path, ops: Ops, corpora: int, min_units: int):
        self.name, self.seed, self.dir, self.ops = name, seed, workdir, ops
        self.corpora, self.min_units = corpora, min_units
        self.capture = _Capture()
        self.units = 0
        self.labels: dict[int, tuple[list, list]] = {}  # corpus -> predicted labels
        self.on_request = _no_op  # the tracer gives each command its own request id

    def prepare(self) -> None:
        """Write the corpora to disk; not timed."""
        self.sets = []
        for part in range(self.corpora):
            corpus = corpus_gen.generate(self.name, self.seed, part)
            self.sets.append((corpus, corpus_gen.write_files(corpus, self.dir / f"corpus{part}")))

    def setup(self) -> dict:
        """Load every corpus's lexicons and datasets through the package."""
        t0 = time.perf_counter()
        for _, paths in self.sets:
            qs_pipeline.LexiconSet.load(paths["gloss"], paths["sentiment"], paths["nouns"])
            qs_corpus.load_dataset(paths["train"], labeled=True)
            qs_corpus.load_dataset(paths["test"], labeled=True)
        t1 = time.perf_counter()
        self.clock.probe()
        scaled, wall = self.clock.scaled(t0, t1)
        return {"setup_s": scaled, "wall": {"setup_s": wall}}

    def inputs(self) -> dict:
        c = self.sets[0][0]
        rows = c.train + c.test
        return input_properties(
            [r.sentence_text for r in rows], [r.query_id for r in rows], [],
            set(c.glosses), [r.sentence_text for r in c.train],
        )

    def _cli(self, command: str, argv: list[str]) -> tuple[float, float]:
        """Run one command; returns its start and end; a probe follows it."""
        self.on_request()
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        t1 = time.perf_counter()
        self.clock.probe()
        self.ops.check(code == 0, f"{command} exited {code}: {out.getvalue()[-300:]!r}")
        return t0, t1

    def _files(self, part: int) -> dict[str, str]:
        paths = self.sets[part][1]
        d = paths["train"].parent
        files = {k: str(v) for k, v in paths.items()}
        for name in ("task1.json", "task2.json", "pred.csv", "eval_rel.csv", "eval_st.csv"):
            files[name] = str(d / name)
        return files

    def _predict(self, p: dict[str, str], data: str, out: str) -> tuple[float, float]:
        return self._cli("predict", [
            "predict", "--chain", "--data", data, "--model", p["task1.json"],
            "--model2", p["task2.json"], "--gloss", p["gloss"], "--nouns", p["nouns"],
            "--sentiment", p["sentiment"], "--out", out])

    def _labels(self, path: str, n: int) -> tuple[list, list]:
        """Labels ``predict`` wrote for ``n`` input rows, checked."""
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        relevance = [r.get("predicted_relevance") for r in rows]
        stance = [r.get("predicted_stance") for r in rows]
        self.ops.check(len(rows) == n, f"predict wrote {len(rows)} rows for {n} inputs")
        self.ops.check(set(relevance) <= set(RELEVANCE_LABELS), "relevance label outside the allowed set")
        self.ops.check(set(stance) <= set(STANCE_LABELS), "stance label outside the allowed set")
        return relevance, stance

    def unit(self) -> dict:
        part = self.units % self.corpora
        p = self._files(part)
        m1, m2 = p["task1.json"], p["task2.json"]
        pred, rel_out, st_out = p["pred.csv"], p["eval_rel.csv"], p["eval_st.csv"]
        self.units += 1
        with contextlib.ExitStack() as stack:
            if self.units == 1:
                stack.enter_context(self.capture)
            train1 = self._cli("train1", ["train", "--task", "1", "--data", p["train"],
                                          "--gloss", p["gloss"], "--nouns", p["nouns"], "--out", m1])
            train2 = self._cli("train2", ["train", "--task", "2", "--data", p["train"],
                                          "--sentiment", p["sentiment"], "--out", m2])
            predict = self._predict(p, p["test"], pred)
            evaluate1 = self._cli("evaluate", ["evaluate", "--gold", p["test"], "--pred", pred,
                                               "--column", "relevance", "--out", rel_out])
            evaluate2 = self._cli("evaluate", ["evaluate", "--gold", p["test"], "--pred", pred,
                                               "--column", "stance", "--out", st_out])
        relevance, stance = self.labels[part] = self._labels(pred, len(self.sets[part][0].test))
        steps = [self.clock.scaled(*span) for span in (train1, train2, predict, evaluate1, evaluate2)]
        train1, train2, predict = steps[:3]

        def times(i: int) -> dict:  # 0: at the reference speed, 1: wall
            return {
                "e2e_s": sum(step[i] for step in steps),
                "train_s": train1[i] + train2[i],
                "predict_s": predict[i],
                "request_s": [predict[i]],  # a CLI request is one predict --chain command
            }

        return {
            "corpus": part,
            **times(0),
            "wall": times(1),
            "rows": len(relevance),
            "digest": digest(relevance, stance),
            "relevance_acc": _macro_from_csv(rel_out),
            "stance_acc": _macro_from_csv(st_out),
            "model_bytes": [os.path.getsize(m1), os.path.getsize(m2)],
        }

    def finish(self) -> dict:
        """Untimed checks on every ROUND_TRIP_STRIDE-th test row of the first corpus.

        ``predict --chain`` runs again on those rows from the saved models,
        and the in-memory models the CLI trained predict them too; both
        must give the labels of the last timed unit, digest for digest.
        """
        p = self._files(0)
        corpus = self.sets[0][0]
        picked = range(0, len(corpus.test), ROUND_TRIP_STRIDE)
        data = corpus_gen.write_dataset([corpus.test[i] for i in picked],
                                        Path(p["test"]).with_name("repeat.csv"))
        repeat_out = str(data.with_name("repeat_pred.csv"))
        self._predict(p, str(data), repeat_out)
        saved_relevance, saved_stance = self.labels[0]
        timed = digest([saved_relevance[i] for i in picked], [saved_stance[i] for i in picked])
        self.ops.check(digest(*self._labels(repeat_out, len(picked))) == timed,
                       "prediction digest differs between repeats")
        pipes = self.capture.pipelines
        if not self.ops.check(set(pipes) == {1, 2}, "CLI training did not save both models"):
            raise RuntimeError("no in-memory models to compare the saved ones with")
        subset = qs_corpus.load_dataset(str(data))
        relevance = qs_pipeline.predict_task1(pipes[1], subset)
        stance = qs_pipeline.predict_task2(pipes[2], subset, relevance)
        self.ops.check(digest(relevance, stance) == timed,
                       "labels from the saved and reloaded models differ from the in-memory models")
        return {"task1": model_stats(pipes[1], 1), "task2": model_stats(pipes[2], 2)}


def _macro_from_csv(path: str) -> float:
    with open(path, encoding="utf-8", newline="") as handle:
        for query_id, accuracy in csv.reader(handle):
            if query_id == "MACRO_AVERAGE":
                return float(accuracy)
    raise QueryStanceError(f"{path}: no MACRO_AVERAGE row")


class StreamWorkload:
    """Closed loop, one client: each request is one unseen query and its sentences."""

    def __init__(self, name: str, seed: int, workdir: Path, ops: Ops, corpora: int, min_units: int):
        self.name, self.seed, self.dir, self.ops = name, seed, workdir, ops
        self.corpora, self.min_units = corpora, min_units
        self.on_request = _no_op  # the tracer gives each request its own id

    def prepare(self) -> None:
        """Write the corpus to disk; not timed."""
        self.corpus = corpus_gen.generate(self.name, self.seed)
        self.paths = corpus_gen.write_files(self.corpus, self.dir)
        self.requests = [
            [SentenceRecord(r.query_id, r.query_text, r.sentence_text) for r in request]
            for request in self.corpus.requests
        ]

    def setup(self) -> dict:
        """Load lexicons and training rows, train both tasks, save and reload the models."""
        t0 = time.perf_counter()
        paths = self.paths
        lexicons = qs_pipeline.LexiconSet.load(paths["gloss"], paths["sentiment"], paths["nouns"])
        records = qs_corpus.load_dataset(paths["train"], labeled=True)
        config = qs_pipeline.PipelineConfig(
            gloss_path=str(paths["gloss"]), sentiment_path=str(paths["sentiment"]),
            noun_path=str(paths["nouns"]),
        )
        t_train = time.perf_counter()
        trained = qs_pipeline.train_task1(records, lexicons, config)
        qs_pipeline.train_task2(records, [r.relevance for r in records], lexicons, config,
                                pipeline=trained)
        t_trained = time.perf_counter()
        self.model_paths = (str(self.dir / "task1.json"), str(self.dir / "task2.json"))
        for task, path in enumerate(self.model_paths, start=1):
            qs_pipeline.save_task_model(trained, task, path)
        loaded = qs_pipeline.load_task_model(self.model_paths[0], lexicons)
        self.pipeline = qs_pipeline.load_task_model(self.model_paths[1], lexicons, into=loaded)
        self.trained = trained
        t1 = time.perf_counter()
        self.clock.probe()
        (setup_s, setup_wall), (train_s, train_wall) = (
            self.clock.scaled(t0, t1), self.clock.scaled(t_train, t_trained))
        return {
            "setup_s": setup_s,
            "train_s": train_s,
            "wall": {"setup_s": setup_wall, "train_s": train_wall},
        }

    def inputs(self) -> dict:
        c = self.corpus
        served = [r for request in c.requests for r in request]
        sizes = [len(request) for request in c.requests]
        return {
            **input_properties(
                [r.sentence_text for r in served], [r.query_id for r in served],
                [r.query_id for r in served], set(c.glosses), [r.sentence_text for r in c.train],
            ),
            "requests": len(sizes),
            "request_size_min": min(sizes),
            "request_size_median": float(np.median(sizes)),
            "request_size_mean": float(np.mean(sizes)),
            "request_size_max": max(sizes),
        }

    def _serve(self, pipe, request):
        relevance = qs_pipeline.predict_task1(pipe, request)
        return relevance, qs_pipeline.predict_task2(pipe, request, relevance)

    def unit(self) -> dict:
        relevance, stance, spans = [], [], []
        for request in self.requests:
            self.on_request()
            t_req = time.perf_counter()
            try:
                rel, st = self._serve(self.pipeline, request)
            except (QueryStanceError, ValueError) as exc:
                spans.append((t_req, time.perf_counter()))
                self.ops.check(False, f"request {request[0].query_id}: {exc!r}")
                rel, st = [None] * len(request), [None] * len(request)
            else:
                spans.append((t_req, time.perf_counter()))
                self.ops.check(len(rel) == len(st) == len(request),
                               f"request {request[0].query_id}: row count")
            relevance += rel
            stance += st
        self.clock.probe()
        latencies, walls = zip(*(self.clock.scaled(*span) for span in spans))
        self.ops.check(set(relevance) <= set(RELEVANCE_LABELS), "relevance label outside the allowed set")
        self.ops.check(set(stance) <= set(STANCE_LABELS), "stance label outside the allowed set")
        gold = [r for request in self.corpus.requests for r in request]
        qids = [r.query_id for r in gold]
        return {
            "corpus": 0,
            "e2e_s": sum(latencies),
            "predict_s": sum(latencies),
            "request_s": list(latencies),
            "wall": {"e2e_s": sum(walls), "predict_s": sum(walls), "request_s": list(walls)},
            "rows": len(gold),
            "digest": digest(relevance, stance),
            "relevance_acc": macro_accuracy([r.relevance for r in gold], relevance, qids),
            "stance_acc": macro_accuracy([r.stance for r in gold], stance, qids),
            "model_bytes": [os.path.getsize(m) for m in self.model_paths],
        }

    def finish(self) -> dict:
        same = all(
            self._serve(self.trained, request) == self._serve(self.pipeline, request)
            for request in self.requests[:ROUND_TRIP_REQUESTS]
        )
        self.ops.check(same, "labels from the saved and reloaded models differ from the in-memory models")
        return {"task1": model_stats(self.trained, 1), "task2": model_stats(self.trained, 2)}


# workload -> (class, corpora per run, fewest timed units per run, set-ups per run).
# paper_cli makes whole passes over six corpora: its training time and
# accuracy vary from one training set to the next, and their median or mean
# over six varies less from seed to seed. query_stream makes at least three
# passes, so that its 105 requests resolve p90 and the digest repeats.
WORKLOADS = {
    "paper_cli": (CliWorkload, 6, 6, 15),
    "query_stream": (StreamWorkload, 1, 3, 3),  # one deployed model for every seed
}
