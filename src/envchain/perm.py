"""Cycle notation for finite permutations.

A permutation of degree n is a bijection of {0..n-1}, held everywhere in the
package as the tuple of its images: p[x] is the image of x.  This module
reads and writes that tuple in disjoint-cycle notation; `grp` does the
arithmetic, on indices into a group's sorted image tuples.
"""

from __future__ import annotations

from typing import Iterator


class DegreeMismatchError(ValueError):
    """Combined permutations do not share a degree."""


class CycleParseError(ValueError):
    """Malformed cycle notation.  `position` is the 0-based offset in the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def format_cycles(images: tuple[int, ...]) -> str:
    """Canonical cycle notation: each cycle starts at its least point, cycles
    are sorted by that point and fixed points are omitted; the identity
    formats as "()"."""
    out = []
    done = [False] * len(images)
    for start, x in enumerate(images):
        if done[start] or x == start:
            continue
        cyc = [start]
        while x != start:
            cyc.append(x)
            done[x] = True
            x = images[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def _tokens(text: str) -> Iterator[tuple[str, int, str]]:
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            yield c, i, c
            i += 1
        elif "0" <= c <= "9":  # ASCII only: int() would also read "١", and "²" not at all
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            yield "num", i, text[i:j]
            i = j
        else:
            raise CycleParseError(f"unexpected character {c!r}", i)


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse disjoint-cycle notation such as "(0 1)(2 3)".

    Cycles must be disjoint; every point must be below `degree`.  "()" (or
    whitespace only) parses as the identity.
    """
    images = list(range(degree))
    placed = set()
    cycle: list[int] | None = None
    last_pos = 0
    for kind, pos, tok in _tokens(text):
        last_pos = pos
        if kind == "(":
            if cycle is not None:
                raise CycleParseError("nested '('", pos)
            cycle = []
        elif kind == ")":
            if cycle is None:
                raise CycleParseError("')' without '('", pos)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
            cycle = None
        else:
            if cycle is None:
                raise CycleParseError("point outside a cycle", pos)
            try:
                p = int(tok)
            except ValueError:  # more digits than int() converts
                raise CycleParseError(f"point of {len(tok)} digits", pos) from None
            if p >= degree:
                raise CycleParseError(f"point {p} >= degree {degree}", pos)
            if p in placed:
                raise CycleParseError(f"repeated point {p}", pos)
            placed.add(p)
            cycle.append(p)
    if cycle is not None:
        raise CycleParseError("unclosed '('", last_pos)
    return tuple(images)
