"""Exact arithmetic on finite permutations.

A permutation of degree n is a bijection of {0..n-1}, stored as the tuple of
images.  Composition is a left action throughout: ``compose(a, b)`` applies
``b`` first, then ``a``, so ``compose(a, b)(x) == a(b(x))``.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class DegreeMismatchError(ValueError):
    """Combined permutations do not share a degree."""


class CycleParseError(ValueError):
    """Malformed cycle notation.  `position` is the 0-based offset in the text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Permutation:
    """A bijection of {0..n-1} in image-tuple form.

    Instances are immutable, hashable and totally ordered by their image
    tuples, which makes element sets deterministic to enumerate.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if not isinstance(x, int) or x < 0 or x >= n or seen[x]:
                raise ValueError(f"images {images!r} are not a bijection of 0..{n - 1}")
            seen[x] = True
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def support(self) -> frozenset[int]:
        """The set of moved points; empty for the identity."""
        return frozenset(i for i, x in enumerate(self.images) if i != x)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles in canonical order.

        Each cycle starts at its least point; cycles are sorted by that point;
        fixed points are omitted.
        """
        out = []
        done = [False] * len(self.images)
        for start in range(len(self.images)):
            if done[start] or self.images[start] == start:
                done[start] = True
                continue
            cyc = [start]
            done[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                done[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return tuple(out)

    def pad(self, degree: int) -> "Permutation":
        """Embed into a larger degree, padding with fixed points."""
        if degree < self.degree:
            raise DegreeMismatchError(f"cannot pad degree {self.degree} down to {degree}")
        return Permutation(self.images + tuple(range(self.degree, degree)))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """a after b:  compose(a, b)(x) == a(b(x))."""
    if a.degree != b.degree:
        raise DegreeMismatchError(f"degree {a.degree} != {b.degree}")
    bi = b.images
    ai = a.images
    return Permutation(ai[bi[x]] for x in range(len(ai)))


def conjugate(h: Permutation, g: Permutation) -> Permutation:
    """g^-1 h g."""
    return compose(compose(g.inverse(), h), g)


def commutator(g: Permutation, h: Permutation) -> Permutation:
    """[g, h] = g^-1 h^-1 g h."""
    return compose(compose(compose(g.inverse(), h.inverse()), g), h)


def support(a: Permutation) -> frozenset[int]:
    return a.support()


def format_cycles(a: Permutation) -> str:
    """Canonical cycle notation; the identity formats as "()"."""
    cycs = a.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in cycs)


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


def parse_cycles(text: str, degree: int) -> Permutation:
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
    return Permutation(images)
