"""Rules on the source of the package and of the string oracles, checked with ``ast``."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "querystance").glob("*.py"))


def _tree(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_imports_another_modules_private_names():
    # a relative `from .x import _name` fails; dunders such as __version__ are exempt
    bad = [
        f"{path}:{node.lineno}: {alias.name}"
        for path in PACKAGE
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not (alias.name.startswith("__") and alias.name.endswith("__"))
    ]
    assert not bad, "\n".join(bad)


def test_no_module_imports_a_name_it_never_uses():
    # every name a module's imports bind must appear as an ast.Name; __init__ re-exports, so it is exempt
    bad = []
    for path in PACKAGE:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [
            f"{path}:{node.lineno}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in used
        ]
    assert not bad, "\n".join(bad)


def test_the_string_oracles_compute_what_they_check():
    # tests/oracles.py works each feature rule out from its definition, so it takes only
    # these names from the package; Porter has its own frozen-vocabulary check
    allowed = {"GLOSS_SENTENCES", "Polarity", "porter_stem", "split_sentences"}
    path = ROOT / "tests" / "oracles.py"
    bad = [
        f"{path}:{node.lineno}: {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if (getattr(node, "module", None) or alias.name).split(".")[0] == "querystance"
        and alias.name not in allowed
    ]
    assert not bad, "\n".join(bad)
