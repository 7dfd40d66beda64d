"""Finite permutation group engine.

Groups are materialized by breadth-first closure over their generators and
every subgroup is an explicit element set, so all queries (centralizers,
normalizers, central series) are exact set filters.  Element order is always
the sorted image-tuple order, which keeps every derived object deterministic.

A group holds each element as its image tuple only, indexed 0..n-1 by one
dict: `elements`, `element`, `index`, `in` and `closure` take and give image
tuples, and `chains` runs on the plain int indices.  A product is the index
of an image tuple, computed with one `itemgetter` per element, and
[g, h] = (hg)^-1 (gh).  Up to order 1024
(`_TABLE_LIMIT`) products are stored as rows, row(j)[i] = i·j, each built in
one C-level pass on first use, and the n² commutator table is allocated on
the first commutator read and fills one entry per read.  Larger groups store
neither and recompute each entry per read.

Centralizers, central series, chain levels, envelope terms and the
normalizers of subgroups are all {g : [g, x] in T for every x in X}: for a
subgroup S, g^-1 s g lies in S iff [g, s^-1] does, so the normalizer of S is
the filter with X = T = S.  Each group's memos are `envchain._Memo`s, each
running its function's body once per distinct exact input and holding the
group by a weak reference, so a group dropped by its caller is freed at once,
not by the cycle collector: `_filters` holds
every `commutator_filter` result by its index sets and interns the results,
so equal results are one object; `_gens` the greedy generators of each set;
`_labels` the left-coset labels of each target.  Central series, chain runs
and envelope runs keep no memo, so a repeat is a fresh loop whose filters
are answered from `_filters`.  `commutator_filter` alone decides when a
generating set of X may stand in for X and when coset labels decide
membership.  A commutator
filter tests only the greedy generators drawn from X when they normalize a
target T that `generating_indices` verifies, whether or not X is itself a
subgroup: they lie in X and generate a group containing it.  Every other X
is tested in full.

Up to `_TABLE_LIMIT`, when `generating_indices` verifies the target T,
membership is an equality of coset labels: [g, x] = (xg)^-1 (gx) lies in T
iff gxT = xgT.  gx is read off the row of x, and xg is inv ∘ row(x^-1) ∘
inv, so each x is one `compress`/`map`/`eq` pass over the remaining
candidates with no bytecode per element.  An unverified target, or an order
above the limit, falls back to one `comm_idx` call per pair, and the
normalizer of a set that is not a subgroup to one `conj_idx` call per pair.
`_bfs` is the one closure walk: `closure` runs it on image tuples, and
`closure_indices` on indices, where it stops at the whole group once it
holds more than n/2 elements (Lagrange's theorem).

`closure` stops with a `ClosureCapError`, a kind of the package's
`envchain.LimitError`, once the group holds more than the caller's cap or
more than `MAX_ENTRIES` image entries (order × degree): a group's storage
grows with both.  A group file read to be closed makes the closure's first
test, of its distinct generators, before it builds any image tuple
(`read_group_file`).  `orbit_labels` is the one orbit walk; the coset labels
here and `catalog`'s conjugacy-class passes both read it.
"""

from __future__ import annotations

import re
import weakref
from array import array
from itertools import compress, repeat
from operator import eq, itemgetter
from typing import Iterable, Iterator, Sequence, Union

from . import DEFAULT_CAP, MAX_KMAX, LimitError, _Memo  # defined there so the CLI need not import grp
from .perm import CycleParseError, DegreeMismatchError, format_cycles, from_moves, parse_moves

# Largest degree a group file may declare; a larger one is a GroupFileError.
MAX_DEGREE = 10_000

# Most image entries (order × degree) a closed group may store: the cap alone
# would let a 10,000-cycle of degree 10,000 store 10^8 of them.
MAX_ENTRIES = 1 << 23

# Orders up to this bound store product rows and commutator entries once read
# and filter by coset labels (2-byte ints); above it every entry is recomputed
# on each read.
_TABLE_LIMIT = 1024


class ClosureCapError(LimitError):
    """Closure grew past the requested cap, or, when `degree` is given, past
    `MAX_ENTRIES` stored image entries at that degree (`cap` elements)."""

    def __init__(self, cap: int, reached: int, degree: int | None = None):
        limit = f"cap {cap}" if degree is None else (
            f"the bound of {MAX_ENTRIES} stored image entries (order x degree) at degree {degree}")
        super().__init__(f"closure exceeded {limit} (at least {reached} elements)")
        self.cap = cap
        self.reached = reached


class GroupFileError(ValueError):
    """Bad group file; `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FiniteGroup:
    """An explicitly enumerated permutation group, built from its elements' image tuples."""

    def __init__(self, degree: int, generators: Sequence[tuple[int, ...]], images: Iterable[tuple[int, ...]]):
        self.degree = degree
        self.generators = tuple(generators)
        # every element's image tuple, in index order
        self.elements = images = tuple(sorted(images))
        self.order = n = len(images)
        # every index, one object: memo keys holding it match by identity
        self.all_indices = frozenset(range(n))
        # the one element -> index map; a lookup raises on a tuple outside
        # the element set, so every product read is checked against it
        self._idx = idx = {t: i for i, t in enumerate(images)}
        self.identity_idx = idx[tuple(range(degree))]
        # products straight from image tuples: (a*b)(x) = a[b[x]], so
        # itemgetter(*b)(a) is the image tuple of a*b
        if degree <= 1:
            # itemgetter with one index returns a scalar and with none raises;
            # S_0 and S_1 are trivial, a*b = a
            self._getters = [tuple] * n
        else:
            self._getters = [itemgetter(*b) for b in images]
        inv = []  # inverse indices, s[t[x]] = x: the tuples must be closed under inverses
        for t in images:
            s = [0] * degree
            for x, y in enumerate(t):
                s[y] = x
            inv.append(idx[tuple(s)])
        self._inv = inv
        # up to _TABLE_LIMIT: product rows (None = not yet built) and the
        # commutator table (allocated on the first read, -1 = not yet read)
        self._rows: list[list[int] | None] | None = [None] * n if n <= _TABLE_LIMIT else None
        self._comm: list[int] | None = None
        # memos, one `envchain._Memo` per function: exact input -> immutable
        # result, the function's body run once per distinct input.  Each
        # holds the group by a weak reference, so the group is in no
        # reference cycle and is freed as soon as its caller drops it.
        me = weakref.ref(self)
        self._gens = _Memo(lambda key: _greedy_generators(me(), key))
        self._labels = _Memo(lambda key: _coset_labels(me(), key))
        self._filters = _Memo(lambda key: _interned_filter(me(), key))
        # every filter result, one object per distinct value (hash-consing)
        self._interned = {self.all_indices: self.all_indices}

    def element(self, i: int) -> tuple[int, ...]:
        return self.elements[i]

    def index(self, p: Union[tuple[int, ...], int]) -> int:
        """The index of the image tuple `p`; an int is taken as an index already."""
        if isinstance(p, int):
            return p
        i = self._idx.get(p)
        if i is None:
            raise ValueError(f"element {format_cycles(p)} is not in the group")
        return i

    def __contains__(self, p: tuple[int, ...]) -> bool:
        return p in self._idx

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree})"

    # --- index arithmetic -------------------------------------------------

    def row(self, j: int) -> list[int]:
        """Index of elements[i] * elements[j] for every i, as one list.

        Built on first use in one C-level pass; stored up to `_TABLE_LIMIT`,
        rebuilt on every call above it."""
        rows = self._rows
        r = None if rows is None else rows[j]
        if r is None:
            r = list(map(self._idx.__getitem__, map(self._getters[j], self.elements)))
            if rows is not None:
                rows[j] = r
        return r

    def mul_idx(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (j acts first)."""
        rows = self._rows
        if rows is None:
            return self._idx[self._getters[j](self.elements[i])]
        return (rows[j] or self.row(j))[i]  # a built row is never empty

    def inv_idx(self, i: int) -> int:
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

    def subgroup(self, members: Iterable[Union[tuple[int, ...], int]]) -> "Subgroup":
        """Subgroup from an already-closed element collection."""
        return Subgroup(self, frozenset(self.index(m) for m in members))

    def generated_subgroup(self, gens: Iterable[Union[tuple[int, ...], int]]) -> "Subgroup":
        return Subgroup(self, closure_indices(self, [self.index(g) for g in gens]))


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
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """The members' image tuples, in index order."""
        return tuple(map(self.parent.element, sorted(self.indices)))

    def __contains__(self, p: Union[tuple[int, ...], int]) -> bool:
        if isinstance(p, int):
            return p in self.indices
        return self.parent._idx.get(p) in self.indices

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

    def is_full(self) -> bool:
        return len(self.indices) == self.parent.order

    def __repr__(self) -> str:
        gens = ",".join(map(format_cycles, self.elements[:4]))
        more = "..." if self.order > 4 else ""
        return f"Subgroup(order={self.order}, {{{gens}{more}}})"


# --- index-set algebra (used heavily by `chains`) --------------------------


def _bfs(e, seeds, mul, cap: int, degree: int | None = None) -> set:
    """`e` and every product of seeds, breadth-first with `mul(a, seed)`;
    raises `ClosureCapError(cap, reached, degree)` as soon as the set holds
    more than `cap`.  On indices, multiplying by a seed on the right reads
    only the seeds' product rows."""
    gens = frontier = sorted(set(seeds) - {e})
    els = {e, *gens}
    if len(els) > cap:
        raise ClosureCapError(cap, len(els), degree)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = mul(a, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > cap:
                        raise ClosureCapError(cap, len(els), degree)
        frontier = new
    # finite order: the products of generators already contain all inverses
    return els


def closure_indices(group: FiniteGroup, seeds: Iterable[int]) -> frozenset[int]:
    """Subgroup of `group` generated by the seed indices, by `_bfs` capped
    at half the group: a set holding more than half the group is the whole
    group, since by Lagrange's theorem a subgroup's order divides the
    group's."""
    try:
        return frozenset(_bfs(group.identity_idx, seeds, group.mul_idx, group.order // 2))
    except ClosureCapError:
        return group.all_indices


def _greedy_generators(group: FiniteGroup, sub: frozenset[int]) -> tuple[tuple[int, ...], bool]:
    """Greedy generators of the subgroup spanned by `sub`, drawn from
    sorted(sub), and whether `sub` is that subgroup.  Every member of `sub`
    lies in the span of the generators drawn before it, or is drawn itself.
    Memoized per group, as its `_gens`."""
    gens: list[int] = []
    span = frozenset({group.identity_idx})
    for g in sorted(sub):
        if g not in span:
            gens.append(g)
            span = closure_indices(group, gens)
    return tuple(gens), span == sub


def generating_indices(group: FiniteGroup, sub: frozenset[int]) -> tuple[int, ...] | None:
    """A greedy generating set of `sub` drawn from sorted(sub), or None when
    `sub` is not a subgroup (its closure is larger).  Read off the group's
    `_gens`."""
    gens, closed = group._gens[sub]
    return gens if closed else None


def orbit_labels(n: int, maps: Sequence[Sequence[int]]) -> list[int]:
    """lab[x] = the least point of x's orbit under `maps`, permutations of
    range(n) each given as its list of images.  Each orbit is walked once,
    from its least point."""
    lab = [-1] * n
    for x in range(n):
        if lab[x] < 0:
            lab[x] = x
            orbit = [x]
            for y in orbit:
                for m in maps:
                    z = m[y]
                    if lab[z] < 0:
                        lab[z] = x
                        orbit.append(z)
    return lab


def _coset_labels(group: FiniteGroup, sub: frozenset[int]) -> array:
    """lab[g] = the least index in the left coset g·sub, for a verified
    subgroup `sub`: each coset is an orbit under right multiplication by its
    `generating_indices` (`orbit_labels` over their rows).  Memoized per
    group, as its `_labels`.

    Stored as 2-byte ints (every index is below `_TABLE_LIMIT`): a list of n
    pointers is a C-heap block that lives as long as the group, and on the
    order-128 `verify` these blocks kept 11 MB of freed heap from going back
    to the system before the report was rendered."""
    return array("H", orbit_labels(group.order, list(map(group.row, generating_indices(group, sub)))))


def _left_products(group: FiniteGroup, x: int, gs: Iterable[int]):
    """x·g for each g in `gs`, read off the row of x^-1: (x·g)^-1 = g^-1 x^-1."""
    row = group.row(group.inv_idx(x))
    inv = group._inv
    return map(inv.__getitem__, map(row.__getitem__, map(inv.__getitem__, gs)))


def commutator_filter(
    group: FiniteGroup, members: frozenset[int], xs: frozenset[int], into: frozenset[int]
) -> frozenset[int]:
    """`_commutator_filter`, memoized per group by the exact (members, xs,
    into) in its `_filters`."""
    return group._filters[members, xs, into]


def _interned_filter(group: FiniteGroup, key: tuple) -> frozenset[int]:
    """`_commutator_filter(group, *key)`, interned: an equal set from an
    earlier filter, or the group's `all_indices`, is returned in its place,
    so the memo holds one object per distinct value.  The body is looked up
    on each call, so a test may replace it."""
    got = _commutator_filter(group, *key)
    return group._interned.setdefault(got, got)


def _commutator_filter(
    group: FiniteGroup, members: frozenset[int], xs: frozenset[int], into: frozenset[int]
) -> frozenset[int]:
    """{g in members : [g, x] in `into` for every x in `xs`}.

    [g, x1 x2] = [g, x2] [g, x1]^x2 (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*), so when `into` is a subgroup normalized by
    every x, the x with [g, x] in `into` are closed under products and a
    generating set of `xs` stands for all of it.  Only the greedy generators
    drawn from `xs` are tested when `into` is a verified subgroup and each of
    them conjugates every generator of `into` into `into` (so normalizes it);
    otherwise every x is tested.  `xs` need not be a subgroup: its generators
    lie in it and generate a group containing it, so they test exactly what
    `xs` tests.

    For a verified subgroup T = `into`, [g, x] = (xg)^-1 (gx) lies in T iff
    gxT = xgT, so up to `_TABLE_LIMIT` each x is one pass comparing the coset
    labels of gx (the row of x) and xg over the remaining members.
    """
    xgens, _ = group._gens[xs]
    tgens = generating_indices(group, into)
    if tgens is not None and all(
        group.conj_idx(t, x) in into for x in xgens for t in tgens
    ):
        xs = xgens
    if tgens is None or group.order > _TABLE_LIMIT:
        return frozenset(
            g for g in members if all(group.comm_idx(g, x) in into for x in xs)
        )
    lab = group._labels[into].__getitem__
    keep = list(members)
    for x in xs:
        right = group.row(x).__getitem__
        keep = list(compress(keep, map(
            eq, map(lab, map(right, keep)), map(lab, _left_products(group, x, keep))
        )))
    return frozenset(keep)


def normalizer_indices(group: FiniteGroup, members: frozenset[int], sub: frozenset[int]) -> frozenset[int]:
    """{g in members : g^-1 (sub) g == sub}.

    For a subgroup S, g^-1 s g lies in S iff [g, s^-1] = g^-1 s g s^-1 does,
    so the normalizer of S is `commutator_filter(group, members, S, S)`,
    answered from the one filter memo.  Any other `sub` is tested one
    conjugate at a time, every element of it, and kept in no memo."""
    if generating_indices(group, sub) is not None:
        return commutator_filter(group, members, sub, sub)
    return frozenset(
        g for g in members if all(group.conj_idx(s, g) in sub for s in sub)
    )


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
    series = [frozenset({group.identity_idx})]
    while True:
        prev = series[-1]
        nxt = commutator_filter(group, sub, sub, prev)
        if nxt == prev:
            return series
        series.append(nxt)


def series_level(series: list[frozenset[int]], k: int) -> frozenset[int]:
    """k-th term of a stalled-at-the-end ascending series (constant past it)."""
    return series[k] if k < len(series) else series[-1]


def series_class(series: list[frozenset[int]], members: frozenset[int]) -> int | None:
    """The nilpotency class of `members` read off its upper central series
    `series`: the least k with Z_k all of `members`, or None when the series
    stalls below it."""
    return len(series) - 1 if series[-1] == members else None


# --- public operations ------------------------------------------------------


def closure(generators: Sequence[tuple[int, ...]], cap: int = DEFAULT_CAP,
            degree: int | None = None) -> FiniteGroup:
    """The group generated by `generators`, image tuples, enumerated
    breadth-first.

    The one way elements enter a group: each generator must be a bijection
    of 0..n-1 (else `ValueError`) of the group's degree (else
    `DegreeMismatchError`), checked before the search starts.  Raises
    `ClosureCapError` as soon as the element count passes `cap`, or the
    stored image entries (order × degree) pass `MAX_ENTRIES`: both are one
    element limit for `_bfs`.  `degree` is only required when no generators
    are given.
    """
    generators = tuple(map(tuple, generators))
    if degree is None:
        if not generators:
            raise ValueError("need a degree when there are no generators")
        degree = len(generators[0])
    limit, named = _limit(cap, degree)
    for g in generators:
        # ints only, and then sorted they are 0..n-1: checked at C speed
        if not all(map(isinstance, g, repeat(int))) or sorted(g) != list(range(len(g))):
            raise ValueError(f"images {g!r} are not a bijection of 0..{len(g) - 1}")
        if len(g) != degree:
            raise DegreeMismatchError(f"generator degree {len(g)} != {degree}")
    # (a g)(x) = a[g[x]] on image tuples
    els = _bfs(tuple(range(degree)), generators, lambda a, g: tuple(map(a.__getitem__, g)), limit, named)
    return FiniteGroup(degree, generators, els)


def _limit(cap: int, degree: int) -> tuple[int, int | None]:
    """The most elements `closure` keeps at `degree` under `cap`, and the
    degree its `ClosureCapError` names: None when `cap` binds, `degree` when
    `MAX_ENTRIES` stored image entries bind first."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    bound = MAX_ENTRIES // max(degree, 1)
    return (cap, None) if cap <= bound else (bound, degree)


def _as_index_view(ambient: Union[FiniteGroup, Subgroup]) -> tuple[FiniteGroup, frozenset[int]]:
    if isinstance(ambient, Subgroup):
        return ambient.parent, ambient.indices
    return ambient, ambient.all_indices


def _target_indices(group: FiniteGroup, targets) -> frozenset[int]:
    if isinstance(targets, Subgroup):
        if targets.parent is not group:
            raise ValueError("target subgroup belongs to a different group")
        return targets.indices
    return frozenset(group.index(t) for t in targets)


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
    return series_class(central_series_indices(group, members), members)


# --- group files ------------------------------------------------------------


def parse_group_file(text: str, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The group a group file generates (see `read_group_file`), closed with
    at most `cap` elements."""
    degree, gens = read_group_file(text, cap)
    return closure(gens, cap=cap, degree=degree)


def read_group_file(text: str, cap: int | None = None) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The degree and generators of a group file, without closing them:

        # comment
        degree: 4
        (0 1 2 3)
        (1 3)

    One generator per line in cycle notation; '#' starts a comment.  A line
    ends at "\n", "\r\n" or "\r" only, as in a file read with universal
    newlines: every other character that `str.isspace` calls whitespace is
    whitespace inside the line.  A line is read as the points it moves, so
    it costs its own length, not the degree.  Each distinct generator is
    kept once, in the order of its first line, and past
    `MAX_ENTRIES // degree + 1` of them no new one is kept: that many
    already pass the closure's storage bound.

    The whole text is read and checked before this returns, but the kept
    generators come as an iterator, consumed once, that builds each image
    tuple only when it reaches it, so a caller that stops early builds no
    more of them.

    A `cap` says the file is read to be closed with it.  `closure`'s first
    test, of the identity and the distinct generators against its element
    limit, is then made here, before any tuple is built, and raises the same
    `ClosureCapError`.
    """
    degree = None
    # an ordered set of generators, each as its sorted (point, image) pairs
    gens: dict[tuple[tuple[int, int], ...], None] = {}
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
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
            moves = parse_moves(line, degree)
        except CycleParseError as exc:
            raise GroupFileError(str(exc), lineno) from exc
        if len(gens) <= MAX_ENTRIES // degree:
            gens[tuple(sorted(moves.items()))] = None
    if degree is None:
        raise GroupFileError("missing 'degree: <n>' line", 1)
    if cap is not None:
        limit, named = _limit(cap, degree)
        reached = len(gens) + (() not in gens)  # () is the identity's key
        if reached > limit:
            raise ClosureCapError(limit, reached, named)
    return degree, map(from_moves, gens, repeat(tuple(range(degree))))

