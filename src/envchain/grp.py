"""Finite permutation group engine.

Groups are materialized by breadth-first closure over their generators and
every subgroup is an explicit element set, so all queries (centralizers,
normalizers, central series) are exact set filters.  Element order is always
the sorted image-tuple order, which keeps every derived object deterministic.

Internally a group indexes its elements 0..n-1, so the chain computations in
`chains` run on plain ints.  Every order uses one entry formula: a product is
the index of an image tuple, computed with one `itemgetter` per element and
no `Permutation` per product, and [g, h] = (hg)^-1 (gh).  Up to order 1024
(`_TABLE_LIMIT`) products are stored as rows, row(j)[i] = i·j, each built in
one C-level pass on first use, and the n² commutator table is allocated on
the first commutator read and fills one entry per read.  Larger groups store
neither and recompute each entry per read.

Each group also memoizes, keyed by the exact index set asked about, a greedy
generating set of each subgroup, each central series, the left-coset labels
of each subgroup a filter targets, and (for `chains`) each chain run and each
envelope run.  Centralizers, central series, chain levels and envelope terms
are all {g : [g, x] in T for every x in X}, and `commutator_filter` alone
decides when a generating set of X may stand in for X (`normalizer_indices`
decides it for conjugation).  Only sets that `generating_indices` verifies
are reduced; all others are tested in full.

Up to `_TABLE_LIMIT`, when `generating_indices` verifies the target T (or S),
membership is an equality of coset labels, by two facts:

- [g, x] = (xg)^-1 (gx) lies in T iff gxT = xgT;
- g^-1 s g lies in S iff sgS = gS.

gx is read off the row of x, and xg is inv ∘ row(x^-1) ∘ inv, so each x is
one `compress`/`map`/`eq` pass over the remaining candidates with no
bytecode per element.  An unverified target, or an order above the limit,
falls back to one `comm_idx` or `conj_idx` call per pair.  `closure_indices`
grows a closure a whole frontier per generator row and stops at the whole
group once it holds more than n/2 elements (Lagrange's theorem).
"""

from __future__ import annotations

import math
from array import array
from itertools import compress
from operator import eq, itemgetter
from typing import Iterable, Sequence, Union

from .perm import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    format_cycles,
    parse_cycles,
)

DEFAULT_CAP = 20000

# Largest degree a group file may declare; a larger one is a GroupFileError.
MAX_DEGREE = 10_000

# Largest chain depth the CLI accepts; every resolved default lies below it.
MAX_KMAX = 64

# Orders up to this bound store product rows and commutator entries once read
# and filter by coset labels (2-byte ints); above it every entry is recomputed
# on each read.
_TABLE_LIMIT = 1024


class ClosureCapError(RuntimeError):
    """Closure grew past the requested cap."""

    def __init__(self, cap: int, reached: int):
        super().__init__(f"closure exceeded cap {cap} (at least {reached} elements)")
        self.cap = cap
        self.reached = reached


class GroupFileError(ValueError):
    """Bad group file; `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FiniteGroup:
    """An explicitly enumerated permutation group."""

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Sequence[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self.index_of = {g: i for i, g in enumerate(self.elements)}
        self.identity_idx = self.index_of[Permutation.identity(degree)]
        # entry computation, built once on first use (see `_prepare`)
        self._images: list[tuple[int, ...]] = []
        self._idx: dict[tuple[int, ...], int] = {}
        self._getters: list = []
        self._inv: list[int] | None = None
        # up to _TABLE_LIMIT: product rows (None = not yet built) and the
        # commutator table (allocated on the first read, -1 = not yet read)
        self._rows: list[list[int] | None] | None = None
        self._comm: list[int] | None = None
        # memos: exact input -> stored result (frozensets and tuples only)
        self._gens: dict[frozenset[int], tuple[int, ...] | None] = {}
        self._series: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
        self._labels: dict[frozenset[int], array] = {}  # `_coset_labels`
        self._levels: dict = {}  # chains.iterated_centralizer_levels
        self._terms: dict = {}  # chains.ek_term_data

    def __contains__(self, p: Permutation) -> bool:
        return p in self.index_of

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree})"

    # --- index arithmetic -------------------------------------------------

    def _prepare(self):
        # Products straight from image tuples: (a*b)(x) = a[b[x]], so
        # itemgetter(*b)(a) is the image tuple of a*b.  The dict lookup raises
        # on a product outside the element set, so every entry read is checked;
        # `closure` enumerates the whole set, so every product lies in it.
        images = [g.images for g in self.elements]
        idx = {t: i for i, t in enumerate(images)}
        if self.degree == 1:
            # itemgetter with one index returns a scalar; S_1 is trivial, a*b = a
            getters = [tuple] * self.order
        else:
            getters = [itemgetter(*b) for b in images]
        self._images, self._idx, self._getters = images, idx, getters
        # inverse image tuples as `Permutation.inverse` builds them, without
        # a Permutation (and its bijection check) per element
        inv = []
        for t in images:
            s = [0] * self.degree
            for x, y in enumerate(t):
                s[y] = x
            inv.append(idx[tuple(s)])
        self._inv = inv
        if self.order <= _TABLE_LIMIT:
            self._rows = [None] * self.order

    def row(self, j: int) -> list[int]:
        """Index of elements[i] * elements[j] for every i, as one list.

        Built on first use in one C-level pass; stored up to `_TABLE_LIMIT`,
        rebuilt on every call above it."""
        if self._inv is None:
            self._prepare()
        rows = self._rows
        r = None if rows is None else rows[j]
        if r is None:
            r = list(map(self._idx.__getitem__, map(self._getters[j], self._images)))
            if rows is not None:
                rows[j] = r
        return r

    def mul_idx(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (j acts first)."""
        rows = self._rows
        if rows is not None:
            r = rows[j]
            if r is not None:
                return r[i]
        if self._inv is None:
            self._prepare()
        if self._rows is not None:
            return self.row(j)[i]
        return self._idx[self._getters[j](self._images[i])]

    def inv_idx(self, i: int) -> int:
        if self._inv is None:
            self._prepare()
        return self._inv[i]

    def comm_idx(self, i: int, j: int) -> int:
        """Index of [elements[i], elements[j]]."""
        comm = self._comm
        if comm is not None:
            k = comm[i * self.order + j]
            if k >= 0:
                return k
        # [g, h] = (hg)^-1 (gh)
        k = self.mul_idx(self.inv_idx(self.mul_idx(j, i)), self.mul_idx(i, j))
        if comm is None and self.order <= _TABLE_LIMIT:
            comm = self._comm = [-1] * (self.order * self.order)
        if comm is not None:
            comm[i * self.order + j] = k
        return k

    def conj_idx(self, h: int, g: int) -> int:
        """Index of g^-1 h g."""
        return self.mul_idx(self.mul_idx(self.inv_idx(g), h), g)

    # --- subgroup constructors -------------------------------------------

    def _index(self, m: Union[Permutation, int]) -> int:
        if isinstance(m, int):
            return m
        i = self.index_of.get(m)
        if i is None:
            raise ValueError(f"element {format_cycles(m)} is not in the group")
        return i

    def subgroup(self, members: Iterable[Union[Permutation, int]]) -> "Subgroup":
        """Subgroup from an already-closed element collection."""
        return Subgroup(self, frozenset(self._index(m) for m in members))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset(range(self.order)))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset({self.identity_idx}))

    def generated_subgroup(self, gens: Iterable[Union[Permutation, int]]) -> "Subgroup":
        return Subgroup(self, closure_indices(self, [self._index(g) for g in gens]))


class Subgroup:
    """A subgroup of a `FiniteGroup`, stored as an index set into the parent.

    Subgroups of subgroups are plain subgroups of the same parent; nesting is
    just index-set containment.
    """

    __slots__ = ("parent", "indices")

    def __init__(self, parent: FiniteGroup, indices: frozenset[int]):
        self.parent = parent
        self.indices = indices

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(self.parent.elements[i] for i in sorted(self.indices))

    def __contains__(self, p: Union[Permutation, int]) -> bool:
        if isinstance(p, int):
            return p in self.indices
        i = self.parent.index_of.get(p)
        return i is not None and i in self.indices

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.indices))

    def __le__(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and self.indices <= other.indices

    def key(self) -> tuple[int, ...]:
        """Deterministic sort/deduplication key."""
        return tuple(sorted(self.indices))

    def is_full(self) -> bool:
        return len(self.indices) == self.parent.order

    def __repr__(self) -> str:
        gens = ",".join(format_cycles(g) for g in self.elements[:4])
        more = "..." if self.order > 4 else ""
        return f"Subgroup(order={self.order}, {{{gens}{more}}})"


# --- index-set algebra (used heavily by `chains`) --------------------------


def _bfs(e, seeds, mul, cap: int) -> set:
    """`e` and every product of seeds, breadth-first with `mul(seed, a)`;
    raises `ClosureCapError` as soon as the set holds more than `cap`."""
    gens = frontier = sorted(set(seeds) - {e})
    els = {e, *gens}
    if len(els) > cap:
        raise ClosureCapError(cap, len(els))
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = mul(g, a)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > cap:
                        raise ClosureCapError(cap, len(els))
        frontier = new
    # finite order: the products of generators already contain all inverses
    return els


def closure_indices(group: FiniteGroup, seeds: Iterable[int]) -> frozenset[int]:
    """Subgroup of `group` generated by the seed indices.

    Up to `_TABLE_LIMIT` each frontier is multiplied by each seed in one
    C-level pass over the seed's row, and a set holding more than half the
    group is the whole group: by Lagrange's theorem a subgroup's order
    divides the group's.  Larger groups use the breadth-first `_bfs`."""
    n, e = group.order, group.identity_idx
    if n > _TABLE_LIMIT:
        return frozenset(_bfs(e, seeds, group.mul_idx, n))
    frontier = sorted(set(seeds) - {e})
    rows = [group.row(g) for g in frontier]
    els = {e, *frontier}
    while frontier:
        if 2 * len(els) > n:
            return frozenset(range(n))
        new = set()
        for r in rows:
            new.update(map(r.__getitem__, frontier))
        new -= els
        els |= new
        frontier = new
    return frozenset(els)


def generating_indices(group: FiniteGroup, sub: frozenset[int]) -> tuple[int, ...] | None:
    """A greedy generating set of `sub` drawn from sorted(sub), or None when
    `sub` is not a subgroup (its closure is larger).  Memoized per group."""
    try:
        return group._gens[sub]
    except KeyError:
        pass
    gens: list[int] = []
    span = frozenset({group.identity_idx})
    for g in sorted(sub):
        if g not in span:
            gens.append(g)
            span = closure_indices(group, gens)
    out = tuple(gens) if span == sub else None
    group._gens[sub] = out
    return out


def _coset_labels(group: FiniteGroup, sub: frozenset[int], gens: Sequence[int]) -> array:
    """lab[g] = the least index in the left coset g·sub, for a subgroup `sub`
    generated by `gens` (each coset is the orbit of its least element under
    right multiplication by the generators).  Memoized per group.

    Stored as 2-byte ints (every index is below `_TABLE_LIMIT`): a list of n
    pointers is a C-heap block that lives as long as the group, and on the
    order-128 `verify` these blocks kept 11 MB of freed heap from going back
    to the system before the report was rendered."""
    lab = group._labels.get(sub)
    if lab is None:
        rows = [group.row(t) for t in gens]
        lab = [-1] * group.order
        for g in range(group.order):
            if lab[g] < 0:
                lab[g] = g
                coset = [g]
                for a in coset:
                    for r in rows:
                        b = r[a]
                        if lab[b] < 0:
                            lab[b] = g
                            coset.append(b)
        lab = group._labels[sub] = array("H", lab)
    return lab


def _left_products(group: FiniteGroup, x: int, gs: Iterable[int]):
    """x·g for each g in `gs`, read off the row of x^-1: (x·g)^-1 = g^-1 x^-1."""
    row = group.row(group.inv_idx(x))
    inv = group._inv
    return map(inv.__getitem__, map(row.__getitem__, map(inv.__getitem__, gs)))


def commutator_filter(
    group: FiniteGroup, members: frozenset[int], xs: frozenset[int], into: frozenset[int]
) -> frozenset[int]:
    """{g in members : [g, x] in `into` for every x in `xs`}.

    [g, x1 x2] = [g, x2] [g, x1]^x2 (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*), so when `into` is a subgroup normalized by
    every x, the x with [g, x] in `into` are closed under products and a
    generating set of `xs` stands for all of it.  Only generators are tested
    when `xs` and `into` are verified subgroups and every generator of `xs`
    conjugates every generator of `into` into `into` (so normalizes it);
    otherwise every x is tested.

    For a verified subgroup T = `into`, [g, x] = (xg)^-1 (gx) lies in T iff
    gxT = xgT, so up to `_TABLE_LIMIT` each x is one pass comparing the coset
    labels of gx (the row of x) and xg over the remaining members.
    """
    xgens = generating_indices(group, xs)
    tgens = generating_indices(group, into)
    if xgens is not None and tgens is not None and all(
        group.conj_idx(t, x) in into for x in xgens for t in tgens
    ):
        xs = xgens
    if tgens is None or group.order > _TABLE_LIMIT:
        return frozenset(
            g for g in members if all(group.comm_idx(g, x) in into for x in xs)
        )
    lab = _coset_labels(group, into, tgens).__getitem__
    keep = list(members)
    for x in xs:
        right = group.row(x).__getitem__
        keep = list(compress(keep, map(
            eq, map(lab, map(right, keep)), map(lab, _left_products(group, x, keep))
        )))
    return frozenset(keep)


def normalizer_indices(group: FiniteGroup, members: frozenset[int], sub: frozenset[int]) -> frozenset[int]:
    """{g in members : g^-1 (sub) g == sub}.

    For a subgroup it is enough to conjugate a generating set into `sub`
    (conjugation is a bijection of finite sets), a different fact from the
    one behind `commutator_filter`.  For a verified subgroup S, g^-1 s g lies
    in S iff sgS = gS, so up to `_TABLE_LIMIT` each generator s is one pass
    comparing the coset labels of sg and g."""
    gens = generating_indices(group, sub)
    if gens is None or group.order > _TABLE_LIMIT:
        xs = sub if gens is None else gens
        return frozenset(
            g for g in members if all(group.conj_idx(s, g) in sub for s in xs)
        )
    lab = _coset_labels(group, sub, gens).__getitem__
    keep = list(members)
    for s in gens:
        keep = list(compress(keep, map(
            eq, map(lab, _left_products(group, s, keep)), map(lab, keep)
        )))
    return frozenset(keep)


def is_abelian_indices(group: FiniteGroup, indices: frozenset[int]) -> bool:
    # Literal on purpose: the independent side of the envelope-abelian check.
    e = group.identity_idx
    idx = sorted(indices)
    for a in idx:
        for b in idx:
            if b >= a:
                break
            if group.comm_idx(a, b) != e:
                return False
    return True


def central_series_indices(group: FiniteGroup, sub: frozenset[int]) -> list[frozenset[int]]:
    """Upper central series of `sub` viewed as a group in its own right.

    Returns [Z_0, Z_1, ...] up to the first repeat, so the last entry is the
    hypercenter of the subgroup.
    """
    memo = group._series.get(sub)
    if memo is not None:
        return list(memo)
    series = [frozenset({group.identity_idx})]
    while True:
        prev = series[-1]
        nxt = commutator_filter(group, sub, sub, prev)
        if nxt == prev:
            group._series[sub] = tuple(series)
            return series
        series.append(nxt)


def series_level(series: list[frozenset[int]], k: int) -> frozenset[int]:
    """k-th term of a stalled-at-the-end ascending series (constant past it)."""
    return series[k] if k < len(series) else series[-1]


# --- public operations ------------------------------------------------------


def closure(generators: Sequence[Permutation], cap: int = DEFAULT_CAP, degree: int | None = None) -> FiniteGroup:
    """The group generated by `generators`, enumerated breadth-first.

    Raises `ClosureCapError` as soon as the element count passes `cap`.
    `degree` is only required when no generators are given.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    if not generators:
        if degree is None:
            raise ValueError("need a degree when there are no generators")
        return FiniteGroup(degree, (), [Permutation.identity(degree)])
    deg = generators[0].degree
    for g in generators:
        if g.degree != deg:
            raise DegreeMismatchError(f"generator degrees differ: {g.degree} != {deg}")
    if degree is not None and degree != deg:
        raise DegreeMismatchError(f"generators have degree {deg}, not {degree}")
    # (g a)(x) = g[a[x]] on image tuples; sorted tuples are sorted permutations
    els = _bfs(tuple(range(deg)), [g.images for g in generators],
               lambda g, a: tuple(map(g.__getitem__, a)), cap)
    return FiniteGroup(deg, generators, [Permutation(t) for t in sorted(els)])


def _as_index_view(ambient: Union[FiniteGroup, Subgroup]) -> tuple[FiniteGroup, frozenset[int]]:
    if isinstance(ambient, Subgroup):
        return ambient.parent, ambient.indices
    return ambient, frozenset(range(ambient.order))


def _target_indices(group: FiniteGroup, targets) -> frozenset[int]:
    if isinstance(targets, Subgroup):
        if targets.parent is not group:
            raise ValueError("target subgroup belongs to a different group")
        return targets.indices
    return frozenset(group._index(t) for t in targets)


def centralizer(ambient: Union[FiniteGroup, Subgroup], targets) -> Subgroup:
    """Elements of `ambient` commuting with every element of `targets`.

    `targets` may be any iterable of group elements (commuting with a
    generating set is enough to commute with the subgroup it generates) or a
    `Subgroup`.
    """
    group, members = _as_index_view(ambient)
    trivial = frozenset({group.identity_idx})
    return Subgroup(group, commutator_filter(group, members, _target_indices(group, targets), trivial))


def normalizer(ambient: Union[FiniteGroup, Subgroup], sub: Subgroup) -> Subgroup:
    """Elements of `ambient` conjugating `sub` onto itself."""
    group, members = _as_index_view(ambient)
    if sub.parent is not group:
        raise ValueError("subgroup belongs to a different group")
    if not sub.indices <= members:
        raise ValueError("subgroup is not contained in the ambient")
    return Subgroup(group, normalizer_indices(group, members, sub.indices))


def center(ambient: Union[FiniteGroup, Subgroup]) -> Subgroup:
    return centralizer(ambient, _as_index_view(ambient)[1])


def upper_central_series(ambient: Union[FiniteGroup, Subgroup]) -> list[Subgroup]:
    """[Z_0, Z_1, ...] up to the first repeat (Z_0 is trivial)."""
    group, members = _as_index_view(ambient)
    return [Subgroup(group, s) for s in central_series_indices(group, members)]


def nilpotency_class(ambient: Union[FiniteGroup, Subgroup]) -> int | None:
    """Least k with Z_k the whole group, or None when the series stalls below it."""
    group, members = _as_index_view(ambient)
    series = central_series_indices(group, members)
    if series[-1] == members:
        return len(series) - 1
    return None


def is_abelian(ambient: Union[FiniteGroup, Subgroup]) -> bool:
    group, members = _as_index_view(ambient)
    return is_abelian_indices(group, members)


# --- group files ------------------------------------------------------------


def parse_group_file(text: str, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Parse the group file format:

        # comment
        degree: 4
        (0 1 2 3)
        (1 3)

    One generator per line in cycle notation; '#' starts a comment.
    """
    degree = None
    gens: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            if not line.startswith("degree:"):
                raise GroupFileError("expected 'degree: <n>' before generators", lineno)
            body = line[len("degree:"):].strip()
            digits = body[1:] if body[:1] in ("+", "-") else body
            try:
                if not (digits.isascii() and digits.isdigit()):  # int() also reads "1_0" and "٣"
                    raise ValueError(body)
                degree = int(body)
            except ValueError:
                raise GroupFileError(f"bad degree {body!r}", lineno) from None
            if degree <= 0:
                raise GroupFileError(f"degree must be positive, got {degree}", lineno)
            if degree > MAX_DEGREE:
                raise GroupFileError(f"degree {degree} exceeds the limit {MAX_DEGREE}", lineno)
            continue
        try:
            gens.append(parse_cycles(line, degree))
        except CycleParseError as exc:
            raise GroupFileError(str(exc), lineno) from exc
    if degree is None:
        raise GroupFileError("missing 'degree: <n>' line", 1)
    return closure(gens, cap=cap, degree=degree)


def format_group_file(degree: int, generators: Sequence[Permutation], header: str = "") -> str:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append(f"degree: {degree}")
    lines.extend(format_cycles(g) for g in generators)
    return "\n".join(lines) + "\n"


def default_kmax(group_order: int, h_class: int | None) -> int:
    """Chain-depth default: the nilpotency class when known, else a log window."""
    if h_class is not None:
        return max(h_class, 1)
    return int(2 * math.log2(max(group_order, 2))) + 2
