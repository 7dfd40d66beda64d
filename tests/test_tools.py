"""The repository tools under `tools/`, loaded by path: they are scripts,
not part of the package."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source, counts", [
    ('"""Module docstring."""\n', (0, 1, 0)),
    ('"""Module\n\ndocstring.\n"""\nx = 1\n', (1, 4, 0)),
    ('def f():\n    """One\n    two.\n    """\n    return 1\n', (2, 3, 0)),
    ('s = "".join(x)\n', (1, 0, 0)),
    ('"".join(x)\n', (1, 0, 0)),
    ('# a comment\n', (0, 1, 0)),
    ('    # an indented comment\nx = 1\n', (1, 1, 0)),
    ('x = 1  # trailing comment\n', (1, 0, 0)),
    ('x = 1\n\n   \ny = 2\n', (2, 0, 2)),
    ('x = (\n    1,\n\n    2,\n)\n', (4, 0, 1)),
], ids=["module-docstring", "multi-line-module-docstring", "function-docstring",
        "string-in-code", "string-as-code", "comment", "indented-comment",
        "trailing-comment", "blank", "blank-inside-brackets"])
def test_line_counts(src_lines, source, counts):
    assert src_lines.line_counts(source) == dict(zip(("code", "doc", "blank"), counts))


@pytest.mark.parametrize("argv", [[], ["one"], ["one", "two", "three"]])
def test_src_lines_wrong_argument_count_exits_2(src_lines, capsys, argv):
    assert src_lines.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: tools/src_lines.py PARENT_TREE HEAD_TREE")


def test_src_lines_compares_two_trees(src_lines, capsys, tmp_path):
    for tree, body in (("parent", "x = 1\n"), ("head", '"""Doc."""\nx = 1\n\ny = 2\n')):
        pkg = tmp_path / tree / "src" / "envchain"
        pkg.mkdir(parents=True)
        (pkg / "m.py").write_text(body)
    assert src_lines.main([str(tmp_path / "parent"), str(tmp_path / "head")]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[2:]}
    # code, doc, blank, total in the parent, in the head, and the change
    assert rows["m.py"] == ["1", "0", "0", "1", "2", "1", "1", "4", "+1", "+1", "+1", "+3"]
    assert rows["total"] == rows["m.py"]
