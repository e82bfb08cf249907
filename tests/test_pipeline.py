import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from querystance import features as features_module
from querystance import pipeline as pipeline_module
from querystance import svm as svm_module
from querystance.corpus import SentenceRecord, load_dataset
from querystance.errors import (
    AlignmentError,
    EmptyInput,
    LengthMismatch,
    MissingStanceLabel,
    SingleClassInput,
    UnlabeledRecord,
)
from querystance.lexicons import GlossDictionary, SentimentLexicon
from querystance.pipeline import (
    LexiconSet,
    PipelineConfig,
    TWO_CLASS,
    evaluate,
    load_task_model,
    macro_average,
    predict_chain,
    predict_task1,
    predict_task2,
    save_task_model,
    task2_rows,
    train_task1,
    train_task2,
)
from querystance.features import WordTable, task2_features
from querystance.svm import (
    KernelConfig,
    MulticlassModel,
    SvmConfig,
    WeightsModel,
    _gram,
    decision_value,
    decision_values,
    predict_batch,
)
from querystance.textproc import tokenize, tokenize_batch

from oracles import ovo_reference, task2_features_reference
from synth import make_records

TABLE1_ROW = [48.86363636, 89.65517241, 93.05555556, 71.875, 63.51351351]
TABLE1_MACRO = 73.39257557
TABLE2_ROW = [44.31818182, 32.75862069, 22.22222222, 29.6875, 39.18918919]
TABLE2_MACRO = 33.63514278

# the published per-query accuracies are exact fractions over these
# dev-set sizes; useful for reconstructing a gold/predicted fixture
TABLE_GROUP_SIZES = [88, 58, 72, 64, 74]
TABLE1_CORRECT = [43, 52, 67, 46, 47]


@pytest.fixture(scope="module")
def trained(synthetic_records, synthetic_lexicons):
    config = PipelineConfig()
    pipeline = train_task1(synthetic_records, synthetic_lexicons, config)
    return train_task2(
        synthetic_records,
        [r.relevance for r in synthetic_records],
        synthetic_lexicons,
        config,
        pipeline=pipeline,
    )


class TestTask1:
    def test_training_accuracy_on_separable_corpus(self, trained, synthetic_records):
        records = synthetic_records
        predictions = predict_task1(trained, records)
        accuracy = sum(p == r.relevance for p, r in zip(predictions, records)) / len(records)
        assert accuracy == 1.0

    def test_prediction_labels_in_domain(self, trained, synthetic_records):
        predictions = predict_task1(trained, synthetic_records[:25])
        assert set(predictions) <= {"relevant", "irrelevant"}

    def test_empty_input(self, trained):
        assert predict_task1(trained, []) == []

    def test_single_class_rejected(self, synthetic_lexicons):
        records = [r for r in make_records(seed=1) if r.relevance == "relevant"]
        with pytest.raises(SingleClassInput):
            train_task1(records, synthetic_lexicons, PipelineConfig())

    def test_unlabeled_rejected(self, synthetic_lexicons):
        records = [SentenceRecord("q", "text", "sentence")]
        with pytest.raises(UnlabeledRecord, match=r"^record 0 \(query 'q'\): no relevance label, needed for task-1"):
            train_task1(records, synthetic_lexicons, PipelineConfig())

    def test_unseen_query_gets_throwaway_vocabulary(self, trained):
        records = [
            SentenceRecord("q_new", "does tea help focus", "tea helps focus greatly"),
            SentenceRecord("q_new", "does tea help focus", "tractor lantern marble"),
        ]
        predictions = predict_task1(trained, records)
        assert len(predictions) == 2

    def test_retrain_same_seed_identical_model_files(
        self, synthetic_records, synthetic_lexicons, tmp_path
    ):
        files = []
        for i in range(2):
            pipeline = train_task1(
                synthetic_records, synthetic_lexicons, PipelineConfig()
            )
            path = tmp_path / f"m{i}.json"
            save_task_model(pipeline, 1, path)
            files.append(path.read_bytes())
        assert files[0] == files[1]


class TestTask2:
    def test_chunked_prediction_matches_loop_oracle(self, trained, monkeypatch):
        """300 rows are predicted in one ``predict_batch`` call, which reads them in
        chunks of 128, 128 and 44, and each row's label and decision values are the
        per-row reference's."""
        records = make_records(seed=3, per_query=60)
        relevance = [r.relevance for r in records]
        calls = []

        def recorded(model, batch):
            calls.append(decision_values(model, batch))
            return predict_batch(model, batch)

        monkeypatch.setattr(pipeline_module, "predict_batch", recorded)
        labels = predict_task2(trained, records, relevance)
        assert [len(values) for values in calls] == [300]
        model, vocab, sentiment = trained.task2_model, trained.task2.vocabulary, trained.lexicons.sentiment
        for r, flag, label, values in zip(records, relevance, labels, calls[0]):
            expected_label, expected_values = ovo_reference(
                model, task2_features_reference(r.sentence_text, flag == "relevant", vocab, sentiment)
            )
            assert label == expected_label
            np.testing.assert_allclose(values, expected_values, rtol=0, atol=1e-9)

    def test_split_kernel_equals_full_width(self, trained, monkeypatch):
        """On task-2 rows, which store a few columns each, some read through the pool's
        dense block and the rest through its column lists, decision values are within
        1e-9 of the kernel matrix of the dense rows over every column, read through each
        machine's columns; the labels are those voted from it, and each machine's
        one-row decision_value is its column of the batch values."""
        records = make_records(seed=3, per_query=60)
        model = trained.task2_model
        batch = task2_rows(records, [r.relevance for r in records], trained.task2.vocabulary, trained.lexicons)
        assert not batch.values[:128].any(axis=0).all()  # the first rows leave columns unstored
        pool = model.pool
        full = _gram(model.kernel, batch.values, pool.to_dense())
        expected = np.column_stack([full[:, m.sv_index] @ m.dual_coefs + m.bias for m in model.machines])
        values, labels = decision_values(model, batch), predict_batch(model, batch)
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-9)
        for row, row_values in zip(batch.values, values):
            single = [decision_value(m, row, model.kernel) for m in model.machines]
            np.testing.assert_allclose(single, row_values, rtol=0, atol=1e-9)
        monkeypatch.setattr(svm_module, "decision_values", lambda model, x: expected)
        assert predict_batch(model, batch) == labels

    def test_training_tokenizes_each_sentence_once(self, synthetic_lexicons, monkeypatch, fresh_analysis):
        """Each distinct text is tokenized once, and the sentences are counted once,
        into one word table that the vocabulary and the rows both read."""
        calls, tables = [], []
        monkeypatch.setattr(pipeline_module, "tokenize_batch", lambda texts: calls.extend(texts) or tokenize_batch(texts))
        of = features_module.WordTable.of
        monkeypatch.setattr(features_module.WordTable, "of", lambda texts: tables.append(texts) or of(texts))
        records = make_records(seed=5, per_query=6) * 2  # every sentence text repeats
        train_task2(records, [r.relevance for r in records], synthetic_lexicons, PipelineConfig(stance_classes=TWO_CLASS))
        assert sorted(calls) == sorted({text for r in records for text in (r.query_text, r.sentence_text)})
        assert [len(texts) for texts in tables] == [len(records)]

    def test_three_class_machine_count(self, trained):
        assert len(trained.task2_model.machines) == 3
        assert trained.task2_model.labels == ("neutral", "oppose", "support")

    def test_dimension_is_vocab_plus_four(self, trained, synthetic_records):
        vocab = trained.task2.vocabulary
        assert trained.task2_model.machines[0].support_vectors.shape[1] == vocab.size + 4

    def test_two_class_drops_neutral(self, synthetic_records, synthetic_lexicons):
        config = PipelineConfig(stance_classes=TWO_CLASS)
        pipeline = train_task2(
            synthetic_records,
            [r.relevance for r in synthetic_records],
            synthetic_lexicons,
            config,
        )
        assert pipeline.task2_model.labels == ("oppose", "support")

    def test_two_class_irrelevant_prediction_is_neutral(
        self, synthetic_records, synthetic_lexicons, monkeypatch
    ):
        config = PipelineConfig(stance_classes=TWO_CLASS)
        pipeline = train_task2(
            synthetic_records,
            [r.relevance for r in synthetic_records],
            synthetic_lexicons,
            config,
        )
        records = synthetic_records[:10]

        def never(*args):
            raise AssertionError("the model was called for irrelevant rows")

        monkeypatch.setattr(pipeline_module, "predict_batch", never)
        predictions = predict_task2(pipeline, records, ["irrelevant"] * len(records))
        assert predictions == ["neutral"] * len(records)

    def test_two_class_relevant_never_neutral(
        self, synthetic_records, synthetic_lexicons
    ):
        config = PipelineConfig(stance_classes=TWO_CLASS)
        pipeline = train_task2(
            synthetic_records,
            [r.relevance for r in synthetic_records],
            synthetic_lexicons,
            config,
        )
        records = synthetic_records[:20]
        predictions = predict_task2(pipeline, records, ["relevant"] * len(records))
        assert "neutral" not in predictions

    def test_chained_prediction_accuracy(self, trained, synthetic_records):
        records = synthetic_records
        task1_out = predict_task1(trained, records)
        stance = predict_task2(trained, records, task1_out)
        accuracy = sum(p == r.stance for p, r in zip(stance, records)) / len(records)
        assert accuracy >= 0.9

    def test_alignment_checked(self, trained, synthetic_records):
        with pytest.raises(AlignmentError):
            predict_task2(trained, synthetic_records[:5], ["relevant"] * 4)
        with pytest.raises(AlignmentError):
            train_task2(
                synthetic_records[:5],
                ["relevant"] * 4,
                trained.lexicons,
                trained.config,
            )

    def test_trained_into_a_pipeline_with_its_own_config(self, synthetic_records, synthetic_lexicons, tmp_path):
        pipeline = train_task1(synthetic_records, synthetic_lexicons, PipelineConfig())  # three-class
        task2 = SvmConfig(c=10.0, kernel=KernelConfig("rbf", gamma=0.005))
        config = PipelineConfig(stance_classes=TWO_CLASS, task2=task2)
        train_task2(synthetic_records, [r.relevance for r in synthetic_records], synthetic_lexicons, config,
                    pipeline=pipeline)
        assert pipeline.config.stance_classes == TWO_CLASS
        assert pipeline.config.task1 == PipelineConfig().task1
        save_task_model(pipeline, 2, tmp_path / "m2.json")
        saved = json.loads((tmp_path / "m2.json").read_text(encoding="utf-8"))["config"]
        assert (saved["stance_classes"], saved["task2"]["c"]) == (TWO_CLASS, 10.0)
        assert predict_task2(pipeline, synthetic_records[:6], ["irrelevant"] * 6) == ["neutral"] * 6

    def test_missing_stance_rejected(self, synthetic_lexicons):
        records = [SentenceRecord("q", "t", "s", relevance="relevant")] * 4
        with pytest.raises(MissingStanceLabel, match=r"^record 0 \(query 'q'\): no stance label, needed for task-2"):
            train_task2(records, ["relevant"] * 4, synthetic_lexicons, PipelineConfig())


@pytest.fixture(scope="module")
def trained_two_class(synthetic_records, synthetic_lexicons):
    config = PipelineConfig(stance_classes=TWO_CLASS)
    pipeline = train_task1(synthetic_records, synthetic_lexicons, config)
    relevance = [r.relevance for r in synthetic_records]
    return train_task2(synthetic_records, relevance, synthetic_lexicons, config, pipeline=pipeline)


class TestPredictChain:
    """``predict_chain`` gives the labels of ``predict_task1`` then ``predict_task2``,
    each SVM reading the same rows, with each text tokenized once."""

    SEEN = make_records(seed=6, per_query=6)  # 30 rows over the five trained queries
    UNSEEN = [SentenceRecord("q_tea", "does tea help focus", text)
              for text in ("tea helps focus greatly", "tractor lantern marble", "tea tea focus")]
    NO_TOKEN = [replace(SEEN[0], sentence_text=""), replace(SEEN[7], sentence_text="?! --"),
                SentenceRecord("q_tea", "does tea help focus", "")]
    POOL = SEEN + UNSEEN + NO_TOKEN

    @staticmethod
    def _recorded(calls):
        def recorded(model, batch):
            calls.append((model, batch.values))
            return predict_batch(model, batch)
        return recorded

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(POOL), max_size=12), st.integers(1, 12), st.booleans())
    @example(POOL, 9, False)  # 324 rows asked of task 2, read by the SVM in chunks of 128, 128 and 68
    @example(POOL, 12, True)  # 180 of 432 rows predicted relevant: chunks of 128 and 52
    def test_chain_equals_separate_calls(self, trained, trained_two_class, rows, copies, two_class):
        pipeline = trained_two_class if two_class else trained
        records = rows * copies  # every sentence text repeats when copies > 1
        chained_rows, separate_rows = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline_module, "predict_batch", self._recorded(chained_rows))
            chained = predict_chain(pipeline, records)
            patch.setattr(pipeline_module, "predict_batch", self._recorded(separate_rows))
            relevance = predict_task1(pipeline, records)
            separate = relevance, predict_task2(pipeline, records, relevance)
        assert chained == separate
        assert len(chained_rows) == len(separate_rows)
        for (model_a, rows_a), (model_b, rows_b) in zip(chained_rows, separate_rows):
            assert model_a is model_b and np.array_equal(rows_a, rows_b)

    def test_chain_tokenizes_each_text_once(self, trained, monkeypatch, fresh_analysis):
        calls = []
        monkeypatch.setattr(pipeline_module, "tokenize_batch", lambda texts: calls.extend(texts) or tokenize_batch(texts))
        records = self.POOL * 3
        predict_chain(trained, records)
        assert sorted(calls) == sorted({text for r in records for text in (r.query_text, r.sentence_text)})

    def test_needs_both_models(self, synthetic_records, synthetic_lexicons):
        task1_only = train_task1(synthetic_records, synthetic_lexicons, PipelineConfig())
        with pytest.raises(ValueError, match="no trained task-2 model"):
            predict_chain(task1_only, synthetic_records[:5])


class TestBatchAnalysis:
    """``predict_task1`` and then ``predict_task2`` on one batch share its analysis:
    each distinct text is tokenized once and the sentences are counted once, and
    the labels are those of a fresh analysis, whatever batch came before and
    whichever threads call."""

    POOL = TestPredictChain.POOL
    SENTENCES = sorted({r.sentence_text for r in POOL})
    NONE = ((), {}, features_module.WordTable.of([]))  # the entry of a memo that holds no batch

    @staticmethod
    def _two_calls(pipeline, records):
        relevance = predict_task1(pipeline, records)
        return relevance, predict_task2(pipeline, records, relevance)

    @classmethod
    def _fresh(cls, pipeline, records):
        """The labels of the two calls, each analysing the batch afresh; the memo is left as it was."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline_module, "_last_analysis", cls.NONE)
            relevance = predict_task1(pipeline, records)
            patch.setattr(pipeline_module, "_last_analysis", cls.NONE)
            return relevance, predict_task2(pipeline, records, relevance)

    def test_two_calls_analyse_the_batch_once(self, trained, monkeypatch, fresh_analysis):
        calls, tables = [], []
        monkeypatch.setattr(pipeline_module, "tokenize_batch", lambda texts: calls.extend(texts) or tokenize_batch(texts))
        of = features_module.WordTable.of
        monkeypatch.setattr(features_module.WordTable, "of", lambda texts: tables.append(texts) or of(texts))
        records = self.POOL * 2  # every text repeats
        self._two_calls(trained, records)
        assert sorted(calls) == sorted({text for r in records for text in (r.query_text, r.sentence_text)})
        assert [len(texts) for texts in tables] == [len(records)]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.sampled_from(POOL), min_size=1, max_size=8), st.integers(0, 7),
                              st.sampled_from(SENTENCES)), min_size=1, max_size=3), st.booleans())
    @example([(POOL[:4], 1, "tractor lantern marble")], False)
    def test_two_calls_equal_the_chain_and_a_fresh_analysis(self, trained, trained_two_class, steps, two_class):
        """Each batch is served, served again (the memo holds it) and served with one
        sentence changed (the memo holds a batch of the same length that differs)."""
        pipeline = trained_two_class if two_class else trained
        for records, at, text in steps:
            changed = list(records)
            changed[at % len(records)] = replace(records[at % len(records)], sentence_text=text)
            for batch in (records, records, changed):
                expected = self._fresh(pipeline, batch)
                assert self._two_calls(pipeline, batch) == expected
                assert predict_chain(pipeline, batch) == expected

    def test_threads_serving_two_batches_get_the_serial_labels(self, trained):
        batches = [self.POOL[:10], self.POOL[10:20]]
        serial = [self._two_calls(trained, records) for records in batches]
        served = [[] for _ in range(4)]  # more threads than most machines have cores

        def serve(thread):
            for k in range(100):  # the two batches in turn, each thread starting on its own
                which = (thread + k) % 2
                served[thread].append(self._two_calls(trained, batches[which]) == serial[which])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve, args=(thread,)) for thread in range(len(served))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert served == [[True] * 100] * len(served)

    def test_zero_rows(self, trained, trained_two_class):
        for pipeline in (trained, trained_two_class):
            assert predict_task1(pipeline, []) == []
            assert predict_task2(pipeline, [], []) == []
            assert predict_chain(pipeline, []) == ([], [])
        assert pipeline_module.task1_rows([], trained.task1.vocabularies, trained.lexicons).values.shape == (0, 5)
        vocabulary = trained.task2.vocabulary
        assert task2_rows([], [], vocabulary, trained.lexicons).values.shape == (0, vocabulary.size + 4)

    def test_asking_the_model_nothing_analyses_nothing(self, trained_two_class, monkeypatch):
        before, calls = pipeline_module._last_analysis, []
        monkeypatch.setattr(pipeline_module, "tokenize_batch", lambda texts: calls.extend(texts) or tokenize_batch(texts))
        records = self.POOL[:10]
        assert predict_task2(trained_two_class, records, ["irrelevant"] * len(records)) == ["neutral"] * len(records)
        assert not calls and pipeline_module._last_analysis is before


class TestEvaluate:
    def test_published_task1_row(self):
        assert macro_average(TABLE1_ROW) == pytest.approx(TABLE1_MACRO, abs=1e-6)

    def test_published_task2_row(self):
        assert macro_average(TABLE2_ROW) == pytest.approx(TABLE2_MACRO, abs=1e-6)

    def test_macro_average_adds_left_to_right(self):
        # ten 0.1s add up to 0.9999999999999999 from the left; exactly rounded, to 1.0
        assert macro_average([0.1] * 10) == 0.9999999999999999 / 10

    def test_reconstructed_gold_pred_fixture(self):
        gold, predicted, query_ids = [], [], []
        for q, (size, right) in enumerate(zip(TABLE_GROUP_SIZES, TABLE1_CORRECT)):
            for i in range(size):
                query_ids.append(f"q{q}")
                gold.append("relevant")
                predicted.append("relevant" if i < right else "irrelevant")
        report = evaluate(gold, predicted, query_ids)
        for accuracy, expected in zip(report.accuracy.values(), TABLE1_ROW):
            assert accuracy == pytest.approx(expected, abs=1e-6)
        assert report.macro_average == pytest.approx(TABLE1_MACRO, abs=1e-6)

    def test_all_correct(self):
        report = evaluate(["a", "b"], ["a", "b"], ["q1", "q2"])
        assert report.accuracy == {"q1": 100.0, "q2": 100.0}
        assert report.macro_average == 100.0

    def test_self_evaluation_is_always_100(self, synthetic_records):
        gold = [r.stance for r in synthetic_records]
        ids = [r.query_id for r in synthetic_records]
        report = evaluate(gold, gold, ids)
        assert report.macro_average == 100.0

    def test_rows_in_first_appearance_order(self):
        report = evaluate(["x"] * 4, ["x"] * 4, ["b", "a", "b", "c"])
        assert list(report.accuracy) == ["b", "a", "c"]

    def test_macro_is_unweighted(self):
        # one query with 1 row, one with 3: macro ignores sizes
        report = evaluate(["x", "x", "x", "x"], ["x", "y", "y", "y"], ["a", "b", "b", "b"])
        assert report.accuracy == {"a": 100.0, "b": 0.0}
        assert report.macro_average == 50.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate(["a"], ["a", "b"], ["q", "q"])

    def test_query_ids_length_mismatch(self):
        with pytest.raises(LengthMismatch, match="2 gold labels vs 1 query ids"):
            evaluate(["a", "b"], ["a", "b"], ["q"])

    def test_macro_average_of_no_queries(self):
        with pytest.raises(EmptyInput, match="macro average of zero queries"):
            macro_average([])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            evaluate([], [], [])

    def test_render_and_csv(self):
        report = evaluate(["a", "a"], ["a", "b"], ["q1", "q2"])
        table = report.render_table()
        assert "MACRO_AVERAGE" in table and "q1" in table
        rows = report.to_csv_rows()
        assert rows[-1][0] == "MACRO_AVERAGE"


class TestDefaults:
    def test_default_config_matches_reference_settings(self):
        config = PipelineConfig()
        assert config.task1.c == 1e7
        assert config.task1.kernel.kind == "poly"
        assert config.task1.kernel.gamma == 0.006
        assert config.task1.kernel.degree == 3
        assert config.task2.c == 1e7
        assert config.task2.kernel.kind == "rbf"
        assert config.task2.kernel.gamma == 0.005
        assert config.stance_classes == "three_class"
        assert config.train_fraction == 0.6
        assert config.seed == 0


class TestJoin:
    """A model put into a pipeline brings the lexicons its task reads and leaves the others."""

    def test_train_task2_into_pipeline_takes_its_sentiment(self, synthetic_records, synthetic_lexicons):
        config = PipelineConfig()
        task1_lexicons = replace(synthetic_lexicons, sentiment=SentimentLexicon())
        pipeline = train_task1(synthetic_records, task1_lexicons, config)
        train_task2(synthetic_records, [r.relevance for r in synthetic_records], synthetic_lexicons, config,
                    pipeline=pipeline)
        assert pipeline.lexicons.sentiment is synthetic_lexicons.sentiment
        assert pipeline.lexicons.gloss is task1_lexicons.gloss
        assert pipeline.lexicons.nouns is task1_lexicons.nouns

    def test_load_into_pipeline_takes_the_tasks_lexicons(self, trained, synthetic_lexicons, tmp_path):
        for task in (1, 2):
            save_task_model(trained, task, tmp_path / f"m{task}.json")
        pipeline = load_task_model(tmp_path / "m1.json", synthetic_lexicons)
        other = LexiconSet(GlossDictionary(), SentimentLexicon({"tractor": (0.9, 0.0)}), frozenset())
        load_task_model(tmp_path / "m2.json", other, into=pipeline)
        assert pipeline.lexicons.sentiment is other.sentiment
        assert pipeline.lexicons.gloss is synthetic_lexicons.gloss
        assert pipeline.lexicons.nouns is synthetic_lexicons.nouns

    def test_chained_training_predicts_as_fresh_training(self, trained, synthetic_records, synthetic_lexicons):
        # task 1 trained with every sentiment polarity flipped, task 2 with the real lexicon
        entries = synthetic_lexicons.sentiment.entries
        flipped = replace(synthetic_lexicons, sentiment=SentimentLexicon({w: (n, p) for w, (p, n) in entries.items()}))
        config = trained.config
        chained = train_task2(
            synthetic_records, [r.relevance for r in synthetic_records], synthetic_lexicons, config,
            pipeline=train_task1(synthetic_records, flipped, config),
        )
        records = make_records(seed=3)
        relevance = predict_task1(trained, records)
        assert predict_task1(chained, records) == relevance
        assert predict_task2(chained, records, relevance) == predict_task2(trained, records, relevance)


class TestPersistence:
    def test_chained_roundtrip(self, trained, synthetic_records, tmp_path):
        records = synthetic_records[:30]
        save_task_model(trained, 1, tmp_path / "m1.json")
        save_task_model(trained, 2, tmp_path / "m2.json")
        loaded = load_task_model(tmp_path / "m1.json", trained.lexicons)
        loaded = load_task_model(tmp_path / "m2.json", trained.lexicons, into=loaded)
        direct_rel = predict_task1(trained, records)
        loaded_rel = predict_task1(loaded, records)
        assert direct_rel == loaded_rel
        assert predict_task2(trained, records, direct_rel) == predict_task2(
            loaded, records, loaded_rel
        )

    def test_reloaded_models_give_bit_equal_decision_values(
        self, trained, synthetic_records, synthetic_lexicons, tmp_path
    ):
        records = synthetic_records
        for task in (1, 2):
            save_task_model(trained, task, tmp_path / f"m{task}.json")
        loaded = load_task_model(tmp_path / "m1.json", trained.lexicons)
        loaded = load_task_model(tmp_path / "m2.json", trained.lexicons, into=loaded)
        relevance = predict_task1(trained, records)
        assert predict_task1(loaded, records) == relevance
        assert predict_task2(loaded, records, relevance) == predict_task2(trained, records, relevance)
        task1_rows = pipeline_module.task1_rows(records, trained.task1.vocabularies, trained.lexicons)
        task2_rows = task2_features(
            WordTable.of([tokenize(r.sentence_text) for r in records]),
            range(len(records)),
            [label == "relevant" for label in relevance],
            trained.task2.vocabulary,
            trained.lexicons.sentiment,
        )
        # the forms that predict: a task-1 model's weights (or its pool when the map is wider), task 2's pool
        for model, other, rows in (
            (trained.task1.classifier, loaded.task1.classifier, task1_rows),
            (trained.task2.classifier, loaded.task2.classifier, task2_rows),
        ):
            assert decision_values(model, rows).tobytes() == decision_values(other, rows).tobytes()
        # a second training run writes byte-identical files
        again = train_task1(records, synthetic_lexicons, trained.config)
        train_task2(records, [r.relevance for r in records], synthetic_lexicons, trained.config, pipeline=again)
        for task in (1, 2):
            save_task_model(again, task, tmp_path / f"again{task}.json")
            assert (tmp_path / f"again{task}.json").read_bytes() == (tmp_path / f"m{task}.json").read_bytes()

    def test_task1_weights_predict_alike_trained_and_reloaded(self, paper_corpus, tmp_path):
        """On the paper_cli corpus the default cubic kernel's map has 35 terms, fewer than
        the entries its pool stores, so the task-1 file stores weights. The trained
        pipeline predicts through those weights, bit for bit as its reloaded file does,
        and within 1e-12 (1 + max |f|) of its support vectors, with the same labels;
        its ``task1_model`` still holds the support vectors and their coefficients."""
        lexicons = LexiconSet.load(paper_corpus["gloss"], noun_path=paper_corpus["nouns"])
        trained = train_task1(load_dataset(paper_corpus["train"], labeled=True), lexicons, PipelineConfig())
        save_task_model(trained, 1, tmp_path / "m1.json")
        loaded = load_task_model(tmp_path / "m1.json", lexicons)
        doc = json.loads((tmp_path / "m1.json").read_text())["svm"]
        assert sorted(doc) == ["biases", "dims", "kernel", "labels", "schema_id", "weights"]
        assert np.shape(doc["weights"]) == (1, 35)
        for pipeline in (trained, loaded):
            assert isinstance(pipeline.task1.svm, WeightsModel)
            assert pipeline.task1.classifier is pipeline.task1.svm
        pooled = trained.task1_model
        assert isinstance(pooled, MulticlassModel) and pooled is trained.task1.pooled
        assert loaded.task1_model is loaded.task1.svm
        machine = pooled.machines[0]
        assert machine.support_vectors.shape == (len(machine.dual_coefs), 5)
        assert len(pooled.pool.values) >= 35

        records = load_dataset(paper_corpus["test"], labeled=True)
        rows = pipeline_module.task1_rows(records, trained.task1.vocabularies, lexicons)
        weighed = decision_values(trained.task1.classifier, rows)
        assert weighed.tobytes() == decision_values(loaded.task1.classifier, rows).tobytes()
        pool_values = decision_values(pooled, rows)
        tolerance = 1e-12 * (1 + np.abs(pool_values).max())
        assert np.abs(weighed - pool_values).max() <= tolerance
        clear = np.abs(pool_values[:, 0]) > tolerance
        labels = np.array(predict_task1(trained, records))
        assert np.array_equal(labels[clear], np.array(predict_batch(pooled, rows))[clear])
        assert predict_task1(loaded, records) == labels.tolist()

    def test_chained_load_then_save_gives_each_file_back(self, synthetic_records, synthetic_lexicons, tmp_path):
        configs = {
            1: PipelineConfig(gloss_path="gloss.tsv", noun_path="nouns.txt", seed=3),
            2: PipelineConfig(stance_classes=TWO_CLASS, sentiment_path="sentiment.tsv"),
        }
        relevance = [r.relevance for r in synthetic_records]
        save_task_model(train_task1(synthetic_records, synthetic_lexicons, configs[1]), 1, tmp_path / "m1.json")
        save_task_model(train_task2(synthetic_records, relevance, synthetic_lexicons, configs[2]), 2, tmp_path / "m2.json")
        for first in (1, 2):
            pipeline = load_task_model(tmp_path / f"m{first}.json", synthetic_lexicons)
            load_task_model(tmp_path / f"m{3 - first}.json", synthetic_lexicons, into=pipeline)
            for task in (1, 2):
                save_task_model(pipeline, task, tmp_path / "again.json")
                assert (tmp_path / "again.json").read_bytes() == (tmp_path / f"m{task}.json").read_bytes()

    def test_stance_mode_travels_with_task2_file(
        self, synthetic_records, synthetic_lexicons, tmp_path
    ):
        config = PipelineConfig(stance_classes=TWO_CLASS)
        pipeline = train_task2(
            synthetic_records,
            [r.relevance for r in synthetic_records],
            synthetic_lexicons,
            config,
        )
        save_task_model(pipeline, 2, tmp_path / "m2.json")
        loaded = load_task_model(tmp_path / "m2.json", synthetic_lexicons)
        assert loaded.config.stance_classes == TWO_CLASS
