"""Cycle notation for finite permutations.

A permutation of degree n is a bijection of {0..n-1}, held everywhere in the
package as the tuple of its images: p[x] is the image of x.  This module
reads and writes that tuple in disjoint-cycle notation; `grp` does the
arithmetic, on indices into a group's sorted image tuples.  Both ways go
through the moved points as {x: image of x}: `parse_moves` reads them, and
the package's `envchain.format_moves`, which `symnat` writes its block
permutations with too, writes them.

Cycle text is read as the matches of one pattern, `_TOKEN`: after any
whitespace (what `str.isspace` calls whitespace), a parenthesis, a run of
ASCII digits, or any other character, which is an error at its offset.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from . import format_moves


class DegreeMismatchError(ValueError):
    """Combined permutations do not share a degree."""


class CycleParseError(ValueError):
    """Malformed cycle notation.  `position` is the 0-based offset in the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def format_cycles(images: tuple[int, ...]) -> str:
    """Canonical cycle notation of an image tuple (`envchain.format_moves`
    on its moved points): each cycle starts at its least point, cycles are
    sorted by that point and fixed points are omitted; the identity formats
    as "()"."""
    return format_moves({x: y for x, y in enumerate(images) if x != y})


# ASCII digits only: int() would also read "١", and "²" not at all
_TOKEN = re.compile(r"\s*(?:([()])|([0-9]+)|(\S))")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse disjoint-cycle notation such as "(0 1)(2 3)".

    Cycles must be disjoint; every point must be below `degree`.  "()" (or
    whitespace only) parses as the identity.
    """
    return from_moves(parse_moves(text, degree).items(), range(degree))


def from_moves(moves: Iterable[tuple[int, int]], identity: Sequence[int]) -> tuple[int, ...]:
    """The image tuple that sends each x to y for the (x, y) in `moves` and
    fixes every other point of `identity`, the points 0..n-1 in order.  The
    tuple holds `identity`'s own int objects for the fixed points, so the
    generators built from one identity tuple share them."""
    images = list(identity)
    for x, y in moves:
        images[x] = y
    return tuple(images)


def parse_moves(text: str, degree: int) -> dict[int, int]:
    """{x: image of x} for each point x the cycles in `text` move, with the
    checks and errors of `parse_cycles`; costs the length of `text`, not
    `degree`."""
    moves: dict[int, int] = {}
    placed = set()
    cycle: list[int] | None = None
    pos = 0
    for m in _TOKEN.finditer(text):
        paren, tok, other = m.groups()
        pos = m.start(m.lastindex)
        if paren == "(":
            if cycle is not None:
                raise CycleParseError("nested '('", pos)
            cycle = []
        elif paren == ")":
            if cycle is None:
                raise CycleParseError("')' without '('", pos)
            if len(cycle) > 1:
                moves.update(zip(cycle, cycle[1:] + cycle[:1]))
            cycle = None
        elif other:
            raise CycleParseError(f"unexpected character {other!r}", pos)
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
        raise CycleParseError("unclosed '('", pos)
    return moves
