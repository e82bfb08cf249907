import inspect
import re
from pathlib import Path

import pytest

from querystance import errors
from querystance.errors import QueryStanceError

ERROR_CLASSES = [
    obj for obj in vars(errors).values() if inspect.isclass(obj) and issubclass(obj, QueryStanceError)
]
PACKAGE = Path(errors.__file__).parent


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
class TestOneConstructor:
    def test_row(self, cls):
        err = cls("bad", "f.csv", row=3)
        assert str(err) == "f.csv: row 3: bad"
        assert (err.path, err.row, err.line, err.field) == ("f.csv", 3, None, None)

    def test_line(self, cls):
        err = cls("bad", "f.tsv", line=4)
        assert str(err) == "f.tsv: line 4: bad"
        assert (err.path, err.row, err.line, err.field) == ("f.tsv", None, 4, None)

    def test_field(self, cls):
        err = cls("bad", "m.json", field="svm.pool.dims")
        assert str(err) == "m.json: svm.pool.dims: bad"
        assert (err.path, err.row, err.line, err.field) == ("m.json", None, None, "svm.pool.dims")

    def test_line_then_field(self, cls):
        assert str(cls("bad", "run.cfg", line=2, field="C")) == "run.cfg: line 2: C: bad"

    def test_problem_alone(self, cls):
        err = cls("bad")
        assert str(err) == "bad"
        assert (err.path, err.row, err.line, err.field) == (None, None, None, None)
        assert str(cls("bad", row=3, field="C")) == "bad"  # a place means nothing without a file


def test_only_the_base_class_has_a_constructor():
    assert [cls.__name__ for cls in ERROR_CLASSES if "__init__" in vars(cls)] == ["QueryStanceError"]


# an f-string that writes a row or line number after a colon, or a call of the old codec helper
PLACE_FORMATTED = re.compile(r": (row|line) \{|\b_at\(")


def test_no_module_but_errors_formats_a_place():
    found = [
        f"{path.name}:{line_no}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
        for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if PLACE_FORMATTED.search(line)
    ]
    assert found == []
