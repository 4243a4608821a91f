"""Every config and result field is read by a solve, the CLI or the bench.

A field that is only ever written, or read only by its own ``__post_init__``
check, is a setting or a record no caller uses. This test parses the package
and ``perfbench/`` and requires an attribute load of each field of
``AlgoConfig``, ``PcaResult`` and ``StreamStats`` outside every
``__post_init__``. It matches by attribute name, so it catches a field no
code reads at all.
"""

import ast
import dataclasses
from functools import cache
from pathlib import Path

import pytest

from robustpca import AlgoConfig, PcaResult, StreamStats

ROOT = Path(__file__).resolve().parent.parent
READERS = sorted((ROOT / "src" / "robustpca").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


@cache
def _loaded_attributes() -> frozenset[str]:
    names = set()
    for path in READERS:
        tree = ast.parse(path.read_text())
        checks = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                  for node in ast.walk(fn)}
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                     and id(node) not in checks)
    return frozenset(names)


@pytest.mark.parametrize("cls", [AlgoConfig, PcaResult, StreamStats],
                         ids=lambda cls: cls.__name__)
def test_every_field_is_read(cls):
    unread = {f.name for f in dataclasses.fields(cls)} - _loaded_attributes()
    assert not unread, f"{cls.__name__} fields read nowhere: {sorted(unread)}"
