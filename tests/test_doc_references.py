"""Every name a docstring or the README points to must exist.

An argument is stated once, in the docstring of the function that implements
it, and other places point there by dotted name. These tests resolve every
such pointer, so deleting or renaming its target fails here rather than
leaving the pointer dangling:

- in ``src/robustpca`` docstrings and ``#`` comments, each double-backticked
  dotted name whose first part is a ``robustpca`` submodule
  (``estimators.stream_mean_estimate``);
- in README.md, each ``robustpca.x`` or ``robustpca.x.y`` name.

Names headed by ``op``, ``config`` or ``numpy`` name a local object or
another package and are skipped.
"""

import ast
import importlib
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import robustpca

PACKAGE = Path(robustpca.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = {info.name for info in pkgutil.iter_modules([str(PACKAGE)])}
SKIPPED_HEADS = {"op", "config", "numpy"}
DOC_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")
README_NAME = re.compile(r"\brobustpca((?:\.[A-Za-z_]\w*)+)")


def _docstrings(path: Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def _comments(path: Path):
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT:
                yield tok.string


def _references(texts):
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for text in texts(path):
            for name in DOC_NAME.findall(text):
                head = name.split(".")[0]
                if head in SUBMODULES and head not in SKIPPED_HEADS:
                    refs.add((path.name, name))
    return sorted(refs)


def _readme_references():
    return sorted({name.lstrip(".") for name in README_NAME.findall(README.read_text())})


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"robustpca.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


DOC_REFERENCES = _references(_docstrings)
COMMENT_REFERENCES = _references(_comments)
README_REFERENCES = _readme_references()


@pytest.mark.parametrize("where, name", DOC_REFERENCES,
                         ids=[f"{w}:{n}" for w, n in DOC_REFERENCES])
def test_docstring_reference_resolves(where, name):
    try:
        _resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{where} points to ``{name}``, which does not resolve: {exc}")


@pytest.mark.parametrize("where, name", COMMENT_REFERENCES,
                         ids=[f"{w}:{n}" for w, n in COMMENT_REFERENCES])
def test_comment_reference_resolves(where, name):
    try:
        _resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"a comment in {where} points to ``{name}``, which does not resolve: {exc}")


@pytest.mark.parametrize("name", README_REFERENCES)
def test_readme_reference_resolves(name):
    try:
        _resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"README.md names robustpca.{name}, which does not resolve: {exc}")


def test_references_are_collected():
    # Guards the patterns themselves: a pattern that matched nothing would
    # make the tests above pass vacuously.
    assert ("linops.py", "estimators.stream_mean_estimate") in DOC_REFERENCES
    assert ("streaming.py", "estimators.streaming_quantile_samples") in COMMENT_REFERENCES
    assert "estimators.stream_mean_estimate" in README_REFERENCES
    with pytest.raises(AttributeError):
        _resolve("estimators.no_such_estimator")
