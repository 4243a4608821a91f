"""Every streamed row is drawn in one of two places.

The solver reads its stream through ``linops.accepted_rows``, which draws in
chunks and books each resident row on the scalar ledger, and through the
stream-mean draw of ``linops.accepted_band_mean``, which books its own
rows. A new ``.draw(`` call elsewhere would hold rows the ledger never sees,
so this test lists every draw call in the package outside ``sources.py``
and pins the set.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robustpca"


def _draw_sites():
    """(module, top-level function) of every ``.draw``/``.draw_labeled`` call."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "sources.py":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("draw", "draw_labeled")):
                    sites.append((path.stem, getattr(top, "name", None)))
    return sites


def test_stream_rows_are_drawn_in_two_places():
    assert sorted(_draw_sites()) == [("linops", "accepted_band_mean"),
                                     ("linops", "accepted_rows")]
