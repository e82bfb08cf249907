"""Layer tracing from outside the package.

Wraps the public functions of each querystance module by rebinding module
attributes inside the benchmark process. Every module that imported a
function by name (``from .textproc import tokenize`` in features, pipeline,
lexicons and cli, ``svm_predict`` in pipeline, ...) is rebound too, found
by identity, so calls between modules are seen. Nothing under ``src/`` is
changed and nothing is traced once ``uninstall`` has run.

Each call records a span: id, parent span id, name, request id, start and
end in ns. Spans are kept in memory in flat integer arrays and written
out by ``save``. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name); the span name is <module>.<fn>
TARGETS = (
    ("corpus", "load_dataset", "corpus.load_dataset"),
    ("textproc", "tokenize", "textproc.tokenize"),
    ("textproc", "stem_tokens", "textproc.stem_tokens"),
    ("porter", "porter_stem", "porter.porter_stem"),
    ("lexicons", "gloss_first_k_sentences", "lexicons.gloss_first_k_sentences"),
    ("features", "feature_exact", "features.feature_exact"),
    ("features", "feature_stemmed", "features.feature_stemmed"),
    ("features", "feature_noun", "features.feature_noun"),
    ("features", "feature_neighborhood", "features.feature_neighborhood"),
    ("features", "feature_cosine", "features.feature_cosine"),
    ("features", "task1_features", "features.task1_features"),
    ("features", "fit_vocabulary", "features.fit_vocabulary"),
    ("features", "task2_features", "features.task2_features"),
    ("svm", "train_binary", "svm.train_binary"),
    ("svm", "decision_value", "svm.decision_value"),
    ("svm", "predict", "svm.predict"),
    ("pipeline", "train_task1", "pipeline.train_task1"),
    ("pipeline", "train_task2", "pipeline.train_task2"),
    ("pipeline", "predict_task1", "pipeline.predict_task1"),
    ("pipeline", "predict_task2", "pipeline.predict_task2"),
    ("pipeline", "save_task_model", "pipeline.save_task_model"),
    ("pipeline", "load_task_model", "pipeline.load_task_model"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_predict", "cli.predict"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
)

NAMES = tuple(name for _, _, name in TARGETS)
PACKAGE = "querystance"


class Tracer:
    """Span recorder; install() before the traced work, uninstall() after."""

    def __init__(self):
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.counters: dict[str, int] = defaultdict(int)
        self.request_id = -1
        self._stack: list[int] = []  # open span ids
        self._child_ns: list[int] = []  # time covered by children of each open span
        self._undo: list[tuple[object, str, object]] = []

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, index: int, fn, after):
        stack, child_ns = self._stack, self._child_ns
        clock = time.perf_counter_ns
        spans = (self.parent, self.name, self.request, self.start, self.end)
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            span_id = len(spans[0])
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            child_ns.append(0)
            for column, value in zip(spans, (parent, index, self.request_id, 0, 0)):
                column.append(value)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child_ns.pop()
                duration = t1 - t0
                calls[index] += 1
                self_ns[index] += duration - covered
                if child_ns:
                    child_ns[-1] += duration
                spans[3][span_id] = t0
                spans[4][span_id] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str):
        counters = self.counters
        if name == "lexicons.gloss_first_k_sentences":
            def after(args, result):
                counters["gloss_hits"] += bool(result)
        elif name == "features.task2_features":
            def after(args, result):
                counters["task2_dims"] += result.dims
                counters["task2_nnz"] += int(np.count_nonzero(result.values))
        elif name == "svm.decision_value":
            def after(args, result):
                support_vectors = args[0].support_vectors
                counters["kernel_evals"] += support_vectors.shape[0]
                counters["sv_bytes"] += support_vectors.nbytes
        else:
            after = None
        return after

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for index, (module_name, attr, name) in enumerate(TARGETS):
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(index, original, self._after(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def next_request(self) -> None:
        """Spans recorded from now on belong to a new request."""
        self.request_id += 1

    # --- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Calls, self time and counters so far, to diff around one unit."""
        return {
            "calls": dict(zip(NAMES, self.calls)),
            "self_ns": dict(zip(NAMES, self.self_ns)),
            "counters": dict(self.counters),
            "spans": len(self.parent),
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(NAMES),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def diff(after: dict, before: dict) -> dict:
    """Per-unit figures: ``after`` minus ``before`` for every count."""
    return {
        "calls": {k: v - before["calls"][k] for k, v in after["calls"].items()},
        "self_ns": {k: v - before["self_ns"][k] for k, v in after["self_ns"].items()},
        "counters": {k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()},
        "spans": after["spans"] - before["spans"],
    }
