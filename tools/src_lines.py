#!/usr/bin/env python3
"""Counts the lines of each `src/envchain` module in two trees.

    tools/src_lines.py PARENT_TREE HEAD_TREE

Each physical line is code, docstring-and-comment, or blank, by the
`tokenize` tokens on it: a line holding any token other than a comment or a
string that stands as a statement of its own (a docstring) is code; a line
holding only those, or inside such a string, is docstring-and-comment; an
empty or whitespace-only line is blank.  Prints, for each module in either
tree, its counts in PARENT_TREE and HEAD_TREE and the change, then the
totals.  A module missing from a tree counts as zero lines there.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "doc", "blank")
_SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_BEFORE_STATEMENT = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def line_counts(source: str) -> dict[str, int]:
    """{"code": n, "doc": n, "blank": n} for the lines of `source`."""
    code: set[int] = set()
    doc: set[int] = set()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    before = None  # the type of the last token that is not a comment or NL
    for i, tok in enumerate(tokens):
        if tok.type not in _SKIP:
            # a string standing as a statement of its own
            docstring = tok.type == tokenize.STRING and before in _BEFORE_STATEMENT and next(
                tokens[j].type for j in range(i + 1, len(tokens)) if tokens[j].type != tokenize.COMMENT
            ) in (tokenize.NEWLINE, tokenize.ENDMARKER)
            rows = range(tok.start[0], tok.end[0] + 1)
            (doc if docstring or tok.type == tokenize.COMMENT else code).update(rows)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            before = tok.type
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(source.splitlines(), start=1):
        kind = "code" if n in code else "doc" if n in doc else "blank" if not line.strip() else "code"
        counts[kind] += 1
    return counts


def tree_counts(tree: Path) -> dict[str, dict[str, int]]:
    """Module file name -> its line counts, for src/envchain in `tree`."""
    return {p.name: line_counts(p.read_text(encoding="utf-8"))
            for p in sorted((tree / "src" / "envchain").glob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: tools/src_lines.py PARENT_TREE HEAD_TREE", file=sys.stderr)
        return 2
    parent, head = (tree_counts(Path(a)) for a in argv)
    zero = dict.fromkeys(KINDS, 0)
    rows = [(name, parent.get(name, zero), head.get(name, zero)) for name in sorted({*parent, *head})]
    rows.append(("total", *({k: sum(c[k] for c in side.values()) for k in KINDS} for side in (parent, head))))
    cols = (*KINDS, "total")
    print(f"{'src/envchain':14}" + "".join(f"{side:>28}" for side in ("parent", "head", "change")))
    print(f"{'module':14}" + "".join(f"{c:>7}" for c in cols) * 3)
    for name, before, after in rows:
        before = {**before, "total": sum(before.values())}
        after = {**after, "total": sum(after.values())}
        change = "".join(f"{after[c] - before[c]:>+7}" for c in cols)
        print(f"{name:14}" + "".join(f"{before[c]:>7}" for c in cols)
              + "".join(f"{after[c]:>7}" for c in cols) + change)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
