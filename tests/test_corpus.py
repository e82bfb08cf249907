import csv
import io

import pytest
from hypothesis import example, given, strategies as st

from querystance.corpus import (
    SentenceRecord,
    group_by_query,
    load_dataset,
    read_csv_rows,
    split_train_dev,
    write_csv_rows,
)
from querystance.errors import (
    BadLabel,
    ConflictingQueryText,
    EmptyText,
    MalformedCsv,
    MissingColumn,
    UnlabeledRecord,
)

from synth import make_census_records, write_dataset_csv

TRAIN_CENSUS = {"q1": 68, "q2": 83, "q3": 61, "q4": 71, "q5": 65}
TEST_CENSUS = {"q1": 342, "q2": 414, "q3": 260, "q4": 279, "q5": 247}

HEADER = "query_id,query_text,sentence_text,relevance,stance\n"


def write_csv(path, body):
    path.write_text(HEADER + body, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_five_rows_in_order(self, tmp_path):
        body = "".join(
            f"hrt,does hrt cause cancer,sentence number {i},{label},\n"
            for i, label in enumerate(["relevant", "irrelevant", "relevant", "relevant", "irrelevant"])
        )
        records = load_dataset(write_csv(tmp_path / "d.csv", body), labeled=True)
        assert len(records) == 5
        assert [r.sentence_text for r in records] == [f"sentence number {i}" for i in range(5)]

    def test_census_total(self, tmp_path):
        path = write_dataset_csv(make_census_records(TRAIN_CENSUS), tmp_path / "census.csv")
        records = load_dataset(path, labeled=True)
        assert len(records) == 348

    def test_bad_label_names_row(self, tmp_path):
        body = "q,text,first,relevant,\nq,text,second,maybe,\n"
        with pytest.raises(BadLabel) as err:
            load_dataset(write_csv(tmp_path / "d.csv", body), labeled=True)
        assert err.value.row == 3
        assert "maybe" in str(err.value)

    def test_labels_case_insensitive(self, tmp_path):
        body = "q,text,s,  Relevant ,SUPPORT\n"
        record = load_dataset(write_csv(tmp_path / "d.csv", body), labeled=True)[0]
        assert record.relevance == "relevant"
        assert record.stance == "support"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("query_id,query_text,sentence_text,relevance\nq,t,s,relevant\n", encoding="utf-8")
        with pytest.raises(MissingColumn) as err:
            load_dataset(path)
        assert "stance" in str(err.value)

    def test_malformed_row(self, tmp_path):
        body = "q,text,s,relevant,neutral,extra-field\n"
        with pytest.raises(MalformedCsv) as err:
            load_dataset(write_csv(tmp_path / "d.csv", body))
        assert err.value.row == 2

    def test_empty_text(self, tmp_path):
        body = "q,text,   ,relevant,\n"
        with pytest.raises(EmptyText):
            load_dataset(write_csv(tmp_path / "d.csv", body))

    def test_unlabeled_rows_allowed_when_not_labeled(self, tmp_path):
        body = "q,text,s,,\n"
        record = load_dataset(write_csv(tmp_path / "d.csv", body), labeled=False)[0]
        assert record.relevance is None and record.stance is None

    def test_labeled_requires_relevance(self, tmp_path):
        body = "q,text,s,,\n"
        with pytest.raises(BadLabel):
            load_dataset(write_csv(tmp_path / "d.csv", body), labeled=True)

    def test_stance_without_relevance_rejected(self, tmp_path):
        body = "q,text,s,,support\n"
        with pytest.raises(BadLabel):
            load_dataset(write_csv(tmp_path / "d.csv", body), labeled=False)

    def test_rfc4180_quoting(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["query_id", "query_text", "sentence_text", "relevance", "stance"])
            writer.writerow(["q", 'text with, comma', 'he said "hi", twice', "relevant", ""])
        record = load_dataset(path, labeled=True)[0]
        assert record.sentence_text == 'he said "hi", twice'

    def test_duplicates_preserved(self, tmp_path):
        body = "q,text,same sentence,relevant,\nq,text,same sentence,relevant,\n"
        assert len(load_dataset(write_csv(tmp_path / "d.csv", body), labeled=True)) == 2


def _rec(qid, text, i, relevance="relevant"):
    return SentenceRecord(qid, text, f"sentence {i}", relevance)


class TestGroupByQuery:
    def test_first_appearance_order(self):
        records = [_rec("A", "ta", 0), _rec("B", "tb", 1), _rec("A", "ta", 2)]
        groups = group_by_query(records)
        assert list(groups) == ["A", "B"]
        assert len(groups["A"]) == 2

    def test_census_group_sizes(self):
        groups = group_by_query(make_census_records(TRAIN_CENSUS))
        assert [len(g) for g in groups.values()] == [68, 83, 61, 71, 65]

    def test_conflicting_query_text(self):
        records = [_rec("A", "text one", 0), _rec("A", "text two", 1)]
        with pytest.raises(ConflictingQueryText, match="^query_id 'A' maps to both 'text one' and 'text two'$"):
            group_by_query(records)

    def test_flatten_is_identity_up_to_grouping(self):
        records = make_census_records(TRAIN_CENSUS)
        flattened = [r for g in group_by_query(records).values() for r in g]
        assert sorted(map(id, flattened)) == sorted(map(id, records))


class TestSplitTrainDev:
    def test_sizes_and_determinism(self):
        records = [_rec("q", "t", i) for i in range(10)]
        train, dev = split_train_dev(records, 0.6, seed=7)
        assert len(train) == 6 and len(dev) == 4
        assert (train, dev) == split_train_dev(records, 0.6, seed=7)

    def test_census_per_group_train_sizes(self):
        records = make_census_records(TRAIN_CENSUS)
        train, _ = split_train_dev(records, 0.6, seed=0)
        sizes = [len(g) for g in group_by_query(train).values()]
        assert sizes == [41, 50, 37, 43, 39]  # round(0.6 * n) per group

    def test_partition(self):
        records = [_rec("a", "t", i) for i in range(7)] + [_rec("b", "u", i) for i in range(5)]
        train, dev = split_train_dev(records, 0.5, seed=3)
        combined = train + dev
        assert len(combined) == len(records)
        assert set(map(id, combined)) == set(map(id, records))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_train_dev([_rec("q", "t", 0)], 1.5, seed=0)

    def test_unlabeled_record_rejected(self):
        records = [SentenceRecord("q", "t", "s", relevance="relevant"), SentenceRecord("q", "t", "s", relevance=None)]
        with pytest.raises(UnlabeledRecord, match=r"^record 1 \(query 'q'\): no relevance label"):
            split_train_dev(records, 0.6, seed=0)

    def test_different_seeds_differ(self):
        records = [_rec("q", "t", i) for i in range(30)]
        a, _ = split_train_dev(records, 0.5, seed=1)
        b, _ = split_train_dev(records, 0.5, seed=2)
        assert a != b  # overwhelmingly likely by construction


class TestWriteCsvRows:
    def test_quoting_rule(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = [["plain", "", "a b"], ["a,b", 'say "hi"', "cr\rhere", "lf\nhere"], [""], [], ["", ""]]
        write_csv_rows(path, rows)
        assert path.read_bytes() == b'plain,,a b\n"a,b","say ""hi""","cr\rhere","lf\nhere"\n""\n\n,\n'
        assert list(read_csv_rows(path)) == rows

    # left out: NUL, which the csv module of Python 3.10 cannot read, a BOM, which
    # read_csv_rows skips at the start of a file, and lone surrogates, which no UTF-8
    # file can hold (test_lone_surrogate_refused)
    @given(st.lists(st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\ufeff"),
                                     max_size=12), max_size=5), max_size=5))
    @example([["a\rb"], ["\r\n"], ['"', ","], [""]])
    def test_equals_csv_writer_and_reads_back(self, tmp_path_factory, rows):
        """Byte for byte what ``csv.writer`` writes, except where a field holds a CR
        and no LF, which the csv module of Python 3.10 to 3.12 leaves unquoted; every
        row reads back as written."""
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        write_csv_rows(path, rows)
        if not any("\r" in f and "\n" not in f for row in rows for f in row):
            expected = io.StringIO(newline="")
            csv.writer(expected, lineterminator="\n").writerows(rows)
            assert path.read_bytes() == expected.getvalue().encode("utf-8")
        assert list(read_csv_rows(path)) == rows

    def test_lone_surrogate_refused(self, tmp_path):
        """A lone surrogate has no UTF-8 form: the writer refuses it as ``csv.writer`` does."""
        with pytest.raises(UnicodeEncodeError):
            write_csv_rows(tmp_path / "rows.csv", [["\ud800"]])
